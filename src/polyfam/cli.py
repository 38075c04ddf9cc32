"""Command line entry point: every construction, verification and scan
as a subcommand, plus the claim suite with tiered budgets.

The commands are the table COMMANDS: one row per command, with its group,
name, help, arguments and run(ctx, args). Arguments that several commands
take (--field, --format, --budget, --k, --t, --predicate, --seed, --x,
--poly, --file, --out) are declared once, in ARGUMENTS; a row names them
and may override their keywords. main parses --field into ctx and calls run. A list of reports
goes to stdout through _emit, a (dict, exit code) pair as one JSON line
with sorted keys; the commands that write lines print them and return
the exit code.

The suite is the table SUITE: one row per claim, with the claim's units
at each tier (fast, full, extended). A unit is a field order plus its
arguments. Every claim runs at every tier, each unit in its own report
or all of them in one report of cases.

Reports stream to stdout one JSON object per line (or CSV/human with
--format). Exit code 0 means every emitted verdict was pass or
inapplicable, 1 means some claim failed or ran out of budget, 2 means
the invocation itself was bad.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import random
import sys

from . import __version__, charsum, directions, families, search
from .gf import (
    MAX_FIELD_ORDER,
    FieldError,
    factor_prime_power,
    make_field_of_order,
    parse_field_spec,
)
from .polyfun import (
    PolyK,
    check_elements,
    evaluate,
    format_poly,
    intersection_count,
    pair_intersects_fast,
    parse_elements,
    parse_poly,
)
from .report import CSV_HEADER, DEFAULT_NODE_BUDGET, DEFAULT_SEED, WITNESS_CAP, Report, Stopwatch


def _emit(reports, fmt: str) -> int:
    if fmt == "csv":
        # only this branch writes CSV, so only it pays for the import
        import csv

        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(CSV_HEADER)
        for r in reports:
            w.writerow(r.csv_row())
        sys.stdout.write(out.getvalue())
    else:
        for r in reports:
            print(r.human_line() if fmt == "human" else r.to_json())
    bad = [r for r in reports if r.verdict not in ("pass", "inapplicable")]
    return 1 if bad else 0


def _parse_elements(ctx, text, what, count):
    """The `count` field elements of the argument `what`."""
    if text is None:
        raise ValueError(f"{what} is required")
    values = parse_elements(ctx, text)
    if len(values) != count:
        raise ValueError(f"{what} needs {count} comma-separated elements, got {text!r}")
    return values


def _element(ctx, value: int, what: str) -> int:
    return check_elements(ctx, (value,), f"{what} {value}")[0]


# ---------------------------------------------------------------------------
# field / poly / directions / charsum commands


def _field_info(ctx, args):
    info = {
        "p": ctx.p,
        "n": ctx.n,
        "q": ctx.q,
        "modulus": list(ctx.spec.modulus),
        "generator": ctx.generator,
        "spec": ctx.spec_string(),
    }
    if ctx.sqrt_q:
        info["sqrtQ"] = ctx.sqrt_q
    return info, 0


def _field_arith(ctx, args):
    x, y = _element(ctx, args.x, "--x"), args.y
    if args.op in ("add", "sub", "mul", "div"):
        y = _element(ctx, y, "--y")  # pow and frobenius take an exponent
    unary = {"trace": ctx.trace, "norm": ctx.norm_to_subfield, "char": ctx.quadratic_character}
    result = unary[args.op](x) if args.op in unary else getattr(ctx, args.op)(x, y)
    return {"op": args.op, "x": x, "y": y, "result": result}, 0


def _poly_eval(ctx, args):
    f = parse_poly(ctx, args.poly)
    x = _element(ctx, args.x, "--x")
    return {"poly": format_poly(f), "x": x, "value": evaluate(ctx, f, x)}, 0


def _poly_intersect(ctx, args):
    f = parse_poly(ctx, args.f)
    g = parse_poly(ctx, args.g)
    if f.k != g.k:
        raise ValueError("polynomials must share a degree bound")
    out = {"count": intersection_count(ctx, f, g)}
    if f.k == 2 and f != g:
        out["fast"] = pair_intersects_fast(ctx, f, g)
    return out, 0


def _directions_set(ctx, args):
    ds = directions.direction_set(ctx, parse_elements(ctx, args.values))
    return {"members": sorted(ds.members), "spanDim": ds.span_dim, "proper": ds.span_dim < ctx.n}, 0


def _charsum_weil(ctx, args):
    f = charsum.poly_trim(parse_elements(ctx, args.poly))
    res = charsum.weil_check(ctx, f, _element(ctx, args.a, "--a"))
    out = {
        "sum": res.sum_value,
        "distinctRoots": res.distinct_roots,
        "bound": res.bound,
        "withinBound": res.within_bound,
        "isSquareShape": res.is_square_shape,
    }
    return out, 0 if (res.within_bound or res.is_square_shape) else 1


def _charsum_quad(ctx, args):
    a, b, c = _parse_elements(ctx, args.abc, "--abc", 3)
    exact = charsum.quad_sum_exact(ctx, a, b, c)
    brute = charsum.char_sum(ctx, charsum.poly_trim((c, b, a)), 1)
    agree = exact == brute
    return {"exact": exact, "bruteForce": brute, "agree": agree}, 0 if agree else 1


def _charsum_square_test(ctx, args):
    g = charsum.perfect_square_test(ctx, charsum.poly_trim(parse_elements(ctx, args.poly)))
    return {"isSquare": g is not None, "root": list(g) if g is not None else None}, 0


def _mcconnel_report(ctx, delta, node_budget: int = DEFAULT_NODE_BUDGET) -> Report:
    watch = Stopwatch()
    params = {"delta": delta, "exponent": directions.power_map_exponent(ctx, delta)}
    found = directions.mcconnel_scan(ctx, delta, node_budget)
    witnesses, counters = [], {}
    if found is None:
        params["nodeBudget"] = node_budget
    else:
        predicted = directions.power_map_prediction(ctx, delta)
        counters = {"found": len(found), "predicted": len(predicted)}
        if found != predicted:
            witnesses.append(
                {
                    "found": [list(v) for v in found],
                    "predicted": [list(v) for v in predicted],
                }
            )
    return Report(
        claim_id="power-map-class",
        field_spec=ctx.report_spec_string(),
        verdict="budget-exceeded" if found is None else None,
        parameters=params,
        witnesses=witnesses,
        counters=counters,
        wall_time_ms=watch.ms(),
        primary_counter="found",
    )


# ---------------------------------------------------------------------------
# families and search commands


def _write_lines(path, lines, summary: dict) -> int:
    """Write the lines to `path` and print {"written": path, **summary},
    or print the lines when no path is given."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        print(json.dumps({"written": path, **summary}))
    else:
        for ln in lines:
            print(ln)
    return 0


def _families_construct(ctx, args) -> int:
    # refuse by the closed-form size before building anything; past k = 16
    # a pencil has more than 2^16 members at every q
    q = ctx.q
    size = {
        "pencil": families.pencil_size(q, min(args.k, 17)),
        "hm": families.hilton_milner_size(q),
        "tangent": families.tangent_size(q),
    }[args.kind]
    if size > MAX_FIELD_ORDER:
        raise families.FamilyError(
            f"{args.kind} family over F_{q} would have {size} members, cap is {MAX_FIELD_ORDER}"
        )
    if args.kind == "pencil":
        alpha, beta = _parse_elements(ctx, args.point, "--point", 2)
        fam = families.pencil(ctx, alpha, beta, args.k)
    elif args.kind == "hm":
        alpha, beta = _parse_elements(ctx, args.point, "--point", 2)
        v, w = _parse_elements(ctx, args.line, "--line", 2)
        fam = families.hilton_milner(ctx, (alpha, beta), v, w)
    else:
        A, B, C = _parse_elements(ctx, args.quad, "--quad", 3)
        fam = families.tangent_family(ctx, A, B, C)
    return _write_lines(args.out, families.family_to_lines(ctx, fam), {"size": len(fam)})


def _families_extend(_, args):
    ctx, fam = families.load_family(args.file)[:2]
    res = families.extend_unique(ctx, fam)
    out = {
        "unique": res.unique,
        "points": [list(pt) for pt in res.points],
        "pencilSizes": [families.pencil_size(ctx.q, fam.k)] * len(res.points),
    }
    return out, 0


# factoring an order near 2^40 by trial division takes well under a second
THRESHOLD_MAX_ORDER = 1 << 40


def _families_threshold(_, args):
    if args.q > THRESHOLD_MAX_ORDER:
        raise FieldError(f"families threshold takes q up to 2^40 = {THRESHOLD_MAX_ORDER}, got {args.q}")
    factor_prime_power(args.q)  # validates the order
    out = {
        "q": args.q,
        "size": args.size,
        "threshold": families.threshold(args.q, args.k),  # validates k
        "exceeds": families.exceeds_threshold(args.q, args.size, args.k),
    }
    return out, 0


def _graph(ctx, args):
    pred = "min_shared" if args.predicate == "min" else "max_shared"
    return search.build_graph(ctx, args.k, args.t, pred)


def _search_clique(ctx, args):
    res = search.max_clique(_graph(ctx, args), args.budget)
    out = {
        "size": res.size,
        "witness": list(res.witness),
        "nodesExplored": res.nodes_explored,
        "proven": res.proven,
    }
    return out, 0 if res.proven else 1


def _search_graph(ctx, args) -> int:
    g = _graph(ctx, args)
    return _write_lines(args.out, search.graph_dump_lines(g), {"vertices": g.n_vertices})



# ---------------------------------------------------------------------------
# the suite


def _tiers(fast, full=None, extended=None) -> dict:
    """A claim's units by tier: full defaults to the fast units, extended
    to the full ones. A unit is (q, *args), q a field order; a bare q is
    the unit (q,)."""
    full = fast if full is None else full
    units = {"fast": fast, "full": full, "extended": full if extended is None else extended}
    return {tier: [u if isinstance(u, tuple) else (u,) for u in us] for tier, us in units.items()}


def _per_field(unit, **units):
    """A runner with one report per unit of the tier: unit(ctx, seed, *args),
    ctx the field of order q."""
    tiers = _tiers(**units)
    return lambda tier, seed: [unit(make_field_of_order(q), seed, *args) for q, *args in tiers[tier]]


def _one_report(claim_id, case, field_spec="multiple", note=None, **units):
    """A runner with one report over all units of the tier: case(q, *args)
    is a dict whose "ok" says whether the unit holds, and the cases that
    do not hold are the witnesses."""
    tiers = _tiers(**units)

    def run(tier: str, seed: int) -> list[Report]:
        watch = Stopwatch()
        cases = [case(q, *args) for q, *args in tiers[tier]]
        return [
            Report(
                claim_id=claim_id,
                field_spec=field_spec,
                parameters={"note": note} if note else {},
                witnesses=[c for c in cases if not c["ok"]],
                counters={"cases": len(cases)},
                wall_time_ms=watch.ms(),
                primary_counter="cases",
            )
        ]

    return run


def _pencil_size_case(q, k):
    size = len(families.pencil(make_field_of_order(q), 0, 0, k))
    want = families.pencil_size(q, k)
    return {"q": q, "k": k, "size": size, "expected": want, "ok": size == want}


def _hm_size_case(q):
    size = len(families.hilton_milner(make_field_of_order(q), (0, 1), 0, 0))
    want = families.hilton_milner_size(q)
    return {"q": q, "size": size, "expected": want, "ok": size == want}


def _hm_properties_case(q):
    ctx = make_field_of_order(q)
    fam = families.hilton_milner(ctx, (0, 1), 0, 0)
    ok_int, _ = families.is_t_intersecting(ctx, fam, 1)
    cp = families.common_point(ctx, fam)
    return {"q": q, "intersecting": ok_int, "commonPoint": list(cp) if cp else None,
            "ok": ok_int and cp is None}


def _hm_threshold_case(q):
    size = families.hilton_milner_size(q)
    return {"q": q, "size": size, "ok": not families.exceeds_threshold(q, size, 2)}


def _odd_prime_powers(lo: int, hi: int) -> list[int]:
    out = []
    for q in range(lo | 1, hi + 1, 2):
        try:
            factor_prime_power(q)
        except FieldError:
            continue
        out.append(q)
    return out


def _rootable_case(q):
    """search.rootable_count against its closed form at every d, w != 0."""
    ctx = make_field_of_order(q)
    bad = 0
    for d in range(1, q):
        for w in range(1, q):
            # q // 2 at even q; at odd q one more when w/d is a square
            want = q // 2 + (q % 2 == 1 and ctx.quadratic_character(ctx.div(w, d)) == 1)
            bad += search.rootable_count(ctx, d, w) != want
    return {"q": q, "mismatches": bad, "ok": bad == 0}


def run_tangent_size(tier: str, seed: int) -> list[Report]:
    sizes, alt_twice = {}, {}
    base = PolyK(2, (0, 0, 1))

    def case(q):
        ctx = make_field_of_order(q)
        fam = families.tangent_family(ctx, 1, 0, 0)
        want = families.tangent_size(q)
        tangency = all(
            intersection_count(ctx, base, g) == 1 for g in fam.members if g != base
        )
        sizes[str(q)] = len(fam)
        alt_twice[str(q)] = q * q - q + 1
        return {"q": q, "size": len(fam), "expected": want, "tangency": tangency,
                "ok": len(fam) == want and tangency}

    note = (
        "construction count is q(q-1)/2 + 1; the alternate closed form "
        "(q^2-q+1)/2 is non-integral for odd q (its doubled numerator is "
        "reported per field under altClosedFormTwice, never as the target)"
    )
    [rep] = _one_report("tangent-size", case, note=note, fast=(5, 7, 9, 11, 13))(tier, seed)
    rep.parameters.update(sizeConstructed=sizes, altClosedFormTwice=alt_twice)
    return [rep]


def _quad_sum_unit(ctx, seed) -> Report:
    watch = Stopwatch()
    q = ctx.q
    mismatches = []
    for a, b, c in itertools.product(range(1, q), range(q), range(q)):
        exact = charsum.quad_sum_exact(ctx, a, b, c)
        brute = charsum.char_sum(ctx, charsum.poly_trim((c, b, a)))
        if exact != brute and len(mismatches) < WITNESS_CAP:
            mismatches.append({"a": a, "b": b, "c": c, "exact": exact, "brute": brute})
    return Report(
        claim_id="quad-sum-identity",
        field_spec=ctx.report_spec_string(),
        witnesses=mismatches,
        counters={"checked": (q - 1) * q * q},
        wall_time_ms=watch.ms(),
        primary_counter="checked",
    )


def _weil_unit(ctx, seed, count) -> Report:
    """count random monic polynomials of degree 1..5 that are not square
    shapes, each against the Weil bound, drawn with seed + q."""
    watch = Stopwatch()
    q = ctx.q
    rng = random.Random(seed + q)
    violations = []
    checked = 0
    while checked < count:
        f = tuple(rng.randrange(q) for _ in range(rng.randint(1, 5))) + (1,)
        res = charsum.weil_check(ctx, f)
        if res.is_square_shape:
            continue
        checked += 1
        if not res.within_bound and len(violations) < WITNESS_CAP:
            violations.append(
                {"poly": list(f), "sum": res.sum_value, "distinctRoots": res.distinct_roots}
            )
    return Report(
        claim_id="weil-bound",
        field_spec=ctx.report_spec_string(),
        parameters={"maxDegree": 5},
        witnesses=violations,
        counters={"checked": checked},
        wall_time_ms=watch.ms(),
        seed=seed + q,
        primary_counter="checked",
    )


def run_extension(tier: str, seed: int) -> list[Report]:
    checks = 0

    def case(q):
        nonlocal checks
        ctx = make_field_of_order(q)
        rng = random.Random(seed + q)
        ok = True
        for _ in range(20):
            alpha, beta = rng.randrange(q), rng.randrange(q)
            members = families.pencil(ctx, alpha, beta, 2).members
            for drop in range(len(members)):
                rest = families.Family.from_polys(
                    2, [f for i, f in enumerate(members) if i != drop]
                )
                res = families.extend_unique(ctx, rest)
                checks += 1
                # a pencil is fixed by its point
                ok = res.unique and res.points == ((alpha, beta),)
                if not ok:
                    break
            if not ok:
                break
        return {"q": q, "pencils": 20, "removalsEach": q * q, "ok": ok}

    [rep] = _one_report("pencil-extension", case, fast=(5, 7))(tier, seed)
    rep.counters["extensionChecks"] = checks
    rep.seed = seed
    return [rep]


# One row per claim: its id and its runner(tier, seed), run in this order.
# A row names its engine through the engine's module inside the unit, so
# the call looks the engine up when it runs; a function object stored in
# the table would escape a patched module attribute.
SUITE = [
    ("ekr-bound", _per_field(lambda ctx, seed, k: search.ekr_oracle(ctx, k),
                             fast=((3, 2), (4, 2)), extended=((2, 2), (3, 2), (4, 2)))),
    ("pencil-size", _one_report("pencil-size", _pencil_size_case, fast=((5, 2), (7, 2), (3, 3)))),
    ("hm-size", _one_report("hm-size", _hm_size_case, fast=(3, 4, 5, 7, 8, 9, 11))),
    ("hm-properties", _one_report("hm-properties", _hm_properties_case, fast=(3, 4, 5, 7, 8, 9, 11))),
    ("hm-threshold", _one_report(
        "hm-threshold", _hm_threshold_case, field_spec="odd prime powers 11..169",
        note="family size must stay at or below the k=2 stability threshold",
        fast=_odd_prime_powers(11, 169))),
    ("tangent-size", run_tangent_size),
    ("quad-sum-identity", _per_field(_quad_sum_unit, fast=(3, 5, 7), full=(3, 5, 7, 9, 11, 13))),
    ("weil-bound", _per_field(_weil_unit, fast=((9, 200), (25, 200)),
                              full=((9, 1000), (25, 1000), (49, 1000), (121, 1000)))),
    ("direction-span-affine", _per_field(lambda ctx, seed: directions.carlitz_scan(ctx),
                                         fast=(4,), full=(4, 8), extended=(4, 8, 9, 16, 25, 27))),
    ("square-value-shortcut", _per_field(lambda ctx, seed: charsum.shortcut_scan(ctx),
                                         fast=(25,), extended=(25, 49, 81, 121))),
    ("square-coeff-relation", _per_field(
        lambda ctx, seed, k: charsum.square_coefficient_scan(ctx, k),
        fast=((9, 1),), extended=((9, 1), (27, 1), (27, 2), (25, 1), (81, 1)))),
    ("power-map-class", _per_field(lambda ctx, seed, delta: _mcconnel_report(ctx, delta),
                                   fast=((5, 2),), full=((5, 2), (9, 2)),
                                   extended=((5, 2), (9, 2), (4, 3)))),
    ("clique-bounds", _per_field(
        lambda ctx, seed, k, t: search.sam0_check(ctx, k, t),
        fast=[(q, k, t) for q in (2, 3, 4, 5) for k, t in ((1, 1), (2, 1), (2, 2))])),
    ("rootable-count", _one_report("rootable-count", _rootable_case, fast=(3, 4, 5, 7, 8, 9, 11, 13))),
    ("stability-probe", _per_field(lambda ctx, seed, trials: search.stability_probe(ctx, trials, seed),
                                   fast=((4, 1000), (5, 1000)),
                                   full=((4, 10000), (5, 10000), (7, 10000), (8, 10000), (9, 10000)))),
    ("pencil-extension", run_extension),
]



def _suite(_, args) -> list[Report]:
    if args.claim:
        missing = [c for c in args.claim if c not in dict(SUITE)]
        if missing:
            raise ValueError(f"unknown claim ids: {', '.join(missing)}")
    return [
        r for n, fn in SUITE if not args.claim or n in args.claim
        for r in fn(args.tier, args.seed)
    ]


# ---------------------------------------------------------------------------
# the commands and their parser

def _node_budget(text: str) -> int:
    """--budget: a node count, 0 or more (0 stops a search at its first node)."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"node budget must be >= 0, got {n}")
    return n


_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}

# Arguments that several commands take, declared once. A command names one
# as a string, or as (name, keywords) to add or override keywords.
ARGUMENTS = {
    "--field": {"required": True, "help": "field spec, p^n or p^n/c0,c1,...,cn"},
    "--format": {"choices": ("jsonl", "csv", "human"), "default": "jsonl",
                 "help": "report output format"},
    "--budget": {"type": _node_budget, "default": DEFAULT_NODE_BUDGET, "help": "search node budget, >= 0"},
    "--k": {"type": int, "default": 2},
    "--t": {"type": int, "default": 1},
    "--predicate": {"choices": ("min", "max"), "default": "min"},
    "--seed": {"type": int, "default": DEFAULT_SEED},
    "--x": _REQUIRED_INT,
    "--poly": {"required": True, "help": "coefficient indices, low degree first"},
    "--file": _REQUIRED,
    "--out": {"help": "write to file instead of stdout"},
}

GROUPS = {
    "field": "field construction and arithmetic",
    "poly": "evaluate and intersect polynomials",
    "directions": "direction sets of function graphs",
    "charsum": "character sums and square scans",
    "families": "family constructions and file checks",
    "search": "clique search and randomized probes",
}

# One row per command: (group, name, help, arguments, run). A row without
# a name is a top-level command. run(ctx, args) gets the parsed --field
# (None for a command without one) and returns a list of reports, a
# (dict, exit code) pair, or the exit code after printing its own lines.
# A report command names its engine through the engine's module, as the
# SUITE rows do, so a patched module attribute sees the call.
COMMANDS = [
    ("field", "info", "tables and parameters of a field", ["--field"], _field_info),
    ("field", "arith", "single arithmetic operation",
     ["--field",
      ("--op", {"required": True, "choices": (
          "add", "sub", "mul", "div", "pow", "frobenius", "trace", "norm", "char")}),
      "--x", ("--y", {"type": int, "default": 0})],
     _field_arith),
    ("poly", "eval", "evaluate at a point",
     ["--field", "--poly", "--x"], _poly_eval),
    ("poly", "intersect", "shared points of two graphs",
     ["--field", ("--f", _REQUIRED), ("--g", _REQUIRED)], _poly_intersect),
    ("directions", "set", "direction set of a value table",
     ["--field", ("--values", {"required": True, "help": "q comma-separated element indices"})],
     _directions_set),
    ("directions", "carlitz", "proper direction span forces affine", ["--field", "--format"],
     lambda ctx, args: [directions.carlitz_scan(ctx)]),
    ("charsum", "weil", "character sum against the root bound",
     ["--field", "--poly", ("--a", {"type": int, "default": 1})], _charsum_weil),
    ("charsum", "quad", "closed form vs brute force for a quadratic",
     ["--field", ("--abc", {"required": True, "help": "a,b,c for a x^2 + b x + c"})],
     _charsum_quad),
    ("charsum", "square-test", "polynomial square root, if any",
     ["--field", "--poly"], _charsum_square_test),
    ("charsum", "square-scan", "coefficient relations on square shapes",
     ["--field", ("--frob-k", {"type": int, "default": 1}), "--format"],
     lambda ctx, args: [charsum.square_coefficient_scan(ctx, args.frob_k)]),
    ("charsum", "shortcut", "large square-value sets force the coefficient relation",
     ["--field", "--format"], lambda ctx, args: [charsum.shortcut_scan(ctx)]),
    ("charsum", "mcconnel", "power map classification scan",
     ["--field", ("--delta", _REQUIRED_INT), "--format"],
     lambda ctx, args: [_mcconnel_report(ctx, args.delta)]),
    ("families", "construct", "write a construction as a family file",
     [("kind", {"choices": ("pencil", "hm", "tangent")}), "--field",
      ("--point", {"help": "alpha,beta (pencil, hm)"}),
      ("--line", {"help": "v,w for the line y = v x + w (hm)"}),
      ("--quad", {"help": "A,B,C for the base parabola (tangent)"}),
      ("--k", {"help": "degree bound (pencil)"}), "--out"],
     _families_construct),
    ("families", "verify", "check a family file", ["--file", "--t", "--format"],
     lambda ctx, args: [families.verify_file(args.file, args.t)]),
    ("families", "extend", "extend a family to its pencil(s)", ["--file"],
     _families_extend),
    ("families", "threshold", "exact stability threshold decision",
     [("--q", _REQUIRED_INT), ("--size", _REQUIRED_INT), "--k"], _families_threshold),
    ("search", "ekr", "maximum clique equals the pencil size",
     ["--field", "--k", "--budget", "--format"],
     lambda ctx, args: [search.ekr_oracle(ctx, args.k, args.budget)]),
    ("search", "clique", "exact maximum clique of an intersection graph",
     ["--field", "--k", "--t", "--predicate", "--budget"], _search_clique),
    ("search", "sam0", "clique bounds on both sides of t-intersection",
     ["--field", ("--k", _REQUIRED), ("--t", _REQUIRED), "--format"],
     lambda ctx, args: [search.sam0_check(ctx, args.k, args.t)]),
    ("search", "probe", "randomized maximal intersecting families",
     ["--field", ("--trials", {"type": int, "default": 1000}), "--seed", "--format"],
     lambda ctx, args: [search.stability_probe(ctx, args.trials, args.seed)]),
    ("search", "graph", "dump an intersection graph",
     ["--field", "--k", "--t", "--predicate", "--out"], _search_graph),
    ("suite", None, "run the claim suite",
     [("--tier", {"choices": ("fast", "full", "extended"), "default": "fast"}),
      ("--claim", {"action": "append", "help": "run only this claim id (repeatable)"}),
      "--seed", "--format"],
     _suite),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: each build leaves about a
    thousand objects in reference cycles that only a full GC frees."""
    ap = argparse.ArgumentParser(
        prog="polyfam",
        description="workbench for intersecting families of polynomial graphs over finite fields",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    leaves = {
        group: sub.add_parser(group, help=text).add_subparsers(dest="sub", required=True)
        for group, text in GROUPS.items()
    }
    for group, name, text, arguments, run in COMMANDS:
        if name is None:
            p = sub.add_parser(group, help=text)
        else:
            p = leaves[group].add_parser(name, help=text)
        for arg in arguments:
            flag, keywords = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **{**ARGUMENTS.get(flag, {}), **keywords})
        p.set_defaults(run=run)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        field = getattr(args, "field", None)
        out = args.run(None if field is None else parse_field_spec(field), args)
        if isinstance(out, list):
            return _emit(out, args.format)
        if isinstance(out, tuple):
            print(json.dumps(out[0], sort_keys=True))
            return out[1]
        return out  # the command printed its own lines
    except (FieldError, families.FamilyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
