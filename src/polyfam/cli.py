"""Command line entry point: every construction, verification and scan
as a subcommand, plus the claim suite with tiered budgets.

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
import csv
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


def cmd_field_info(args) -> int:
    ctx = parse_field_spec(args.field)
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
    print(json.dumps(info, sort_keys=True))
    return 0


def cmd_field_arith(args) -> int:
    ctx = parse_field_spec(args.field)
    x, y = _element(ctx, args.x, "--x"), args.y
    if args.op in ("add", "sub", "mul", "div"):
        y = _element(ctx, y, "--y")  # pow and frobenius take an exponent
    ops = {
        "add": lambda: ctx.add(x, y),
        "sub": lambda: ctx.sub(x, y),
        "mul": lambda: ctx.mul(x, y),
        "div": lambda: ctx.div(x, y),
        "pow": lambda: ctx.pow(x, y),
        "frobenius": lambda: ctx.frobenius(x, y),
        "trace": lambda: ctx.trace(x),
        "norm": lambda: ctx.norm_to_subfield(x),
        "char": lambda: ctx.quadratic_character(x),
    }
    print(json.dumps({"op": args.op, "x": x, "y": y, "result": ops[args.op]()}))
    return 0


def cmd_poly_eval(args) -> int:
    ctx = parse_field_spec(args.field)
    f = parse_poly(ctx, args.poly)
    x = _element(ctx, args.x, "--x")
    print(json.dumps({"poly": format_poly(f), "x": x, "value": evaluate(ctx, f, x)}))
    return 0


def cmd_poly_intersect(args) -> int:
    ctx = parse_field_spec(args.field)
    f = parse_poly(ctx, args.f)
    g = parse_poly(ctx, args.g)
    if f.k != g.k:
        raise ValueError("polynomials must share a degree bound")
    out = {"count": intersection_count(ctx, f, g)}
    if f.k == 2 and f != g:
        out["fast"] = pair_intersects_fast(ctx, f, g)
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_directions_set(args) -> int:
    ctx = parse_field_spec(args.field)
    ds = directions.direction_set(ctx, parse_elements(ctx, args.values))
    print(
        json.dumps(
            {"members": sorted(ds.members), "spanDim": ds.span_dim, "proper": ds.span_dim < ctx.n},
            sort_keys=True,
        )
    )
    return 0


def cmd_directions_carlitz(args) -> int:
    ctx = parse_field_spec(args.field)
    return _emit([directions.carlitz_scan(ctx)], args.format)


def cmd_charsum_weil(args) -> int:
    ctx = parse_field_spec(args.field)
    f = charsum.poly_trim(parse_elements(ctx, args.poly))
    res = charsum.weil_check(ctx, f, _element(ctx, args.a, "--a"))
    print(
        json.dumps(
            {
                "sum": res.sum_value,
                "distinctRoots": res.distinct_roots,
                "bound": res.bound,
                "withinBound": res.within_bound,
                "isSquareShape": res.is_square_shape,
            },
            sort_keys=True,
        )
    )
    return 0 if (res.within_bound or res.is_square_shape) else 1


def cmd_charsum_quad(args) -> int:
    ctx = parse_field_spec(args.field)
    a, b, c = _parse_elements(ctx, args.abc, "--abc", 3)
    exact = charsum.quad_sum_exact(ctx, a, b, c)
    brute = charsum.char_sum(ctx, charsum.poly_trim((c, b, a)), 1)
    print(json.dumps({"exact": exact, "bruteForce": brute, "agree": exact == brute}))
    return 0 if exact == brute else 1


def cmd_charsum_square_test(args) -> int:
    ctx = parse_field_spec(args.field)
    f = charsum.poly_trim(parse_elements(ctx, args.poly))
    g = charsum.perfect_square_test(ctx, f)
    print(json.dumps({"isSquare": g is not None, "root": list(g) if g is not None else None}))
    return 0


def cmd_charsum_square_scan(args) -> int:
    ctx = parse_field_spec(args.field)
    return _emit([charsum.square_coefficient_scan(ctx, args.frob_k)], args.format)


def cmd_charsum_shortcut(args) -> int:
    ctx = parse_field_spec(args.field)
    return _emit([charsum.shortcut_scan(ctx)], args.format)


def cmd_charsum_mcconnel(args) -> int:
    ctx = parse_field_spec(args.field)
    rep = _mcconnel_report(ctx, args.delta)
    return _emit([rep], args.format)


def _mcconnel_report(ctx, delta, node_budget: int = DEFAULT_NODE_BUDGET) -> Report:
    watch = Stopwatch()
    params = {"delta": delta, "exponent": charsum.power_map_exponent(ctx, delta)}
    found = charsum.mcconnel_scan(ctx, delta, node_budget)
    witnesses, counters = [], {}
    if found is None:
        params["nodeBudget"] = node_budget
    else:
        predicted = charsum.power_map_prediction(ctx, delta)
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
# families commands


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


def cmd_families_construct(args) -> int:
    ctx = parse_field_spec(args.field)
    # refuse by the closed-form size before building anything; past k = 16
    # a pencil has more than 2^16 members at every q
    q = ctx.q
    size = {
        "pencil": q ** min(args.k, 17),
        "hm": (q * q + q) // 2,
        "tangent": q * (q - 1) // 2 + 1,
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


def cmd_families_verify(args) -> int:
    return _emit([families.verify_file(args.file, args.t)], args.format)


def cmd_families_extend(args) -> int:
    ctx, fam, _ = families.load_family(args.file)
    res = families.extend_unique(ctx, fam)
    print(
        json.dumps(
            {
                "unique": res.unique,
                "points": [list(pt) for pt in res.points],
                "pencilSizes": [ctx.q**fam.k] * len(res.points),
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_families_threshold(args) -> int:
    factor_prime_power(args.q)  # validates the order
    exceeds = families.exceeds_threshold(args.q, args.size, args.k)  # validates k
    if args.k == 2:
        threshold = families.threshold_for(args.q).as_float()
    else:
        threshold = args.q**args.k - args.q ** (args.k - 1)
    out = {"q": args.q, "size": args.size, "threshold": threshold, "exceeds": exceeds}
    print(json.dumps(out, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# search commands


def cmd_search_ekr(args) -> int:
    ctx = parse_field_spec(args.field)
    return _emit([search.ekr_oracle(ctx, args.k, args.budget)], args.format)


def cmd_search_clique(args) -> int:
    ctx = parse_field_spec(args.field)
    pred = "min_shared" if args.predicate == "min" else "max_shared"
    g = search.build_graph(ctx, args.k, args.t, pred)
    res = search.max_clique(g, args.budget)
    print(
        json.dumps(
            {
                "size": res.size,
                "witness": list(res.witness),
                "nodesExplored": res.nodes_explored,
                "proven": res.proven,
            },
            sort_keys=True,
        )
    )
    return 0 if res.proven else 1


def cmd_search_sam0(args) -> int:
    ctx = parse_field_spec(args.field)
    return _emit([search.sam0_check(ctx, args.k, args.t)], args.format)


def cmd_search_probe(args) -> int:
    ctx = parse_field_spec(args.field)
    return _emit([search.stability_probe(ctx, args.trials, args.seed)], args.format)


def cmd_search_graph(args) -> int:
    ctx = parse_field_spec(args.field)
    pred = "min_shared" if args.predicate == "min" else "max_shared"
    g = search.build_graph(ctx, args.k, args.t, pred)
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
    return {"q": q, "k": k, "size": size, "expected": q**k, "ok": size == q**k}


def _hm_size_case(q):
    size = len(families.hilton_milner(make_field_of_order(q), (0, 1), 0, 0))
    want = (q * q + q) // 2
    return {"q": q, "size": size, "expected": want, "ok": size == want}


def _hm_properties_case(q):
    ctx = make_field_of_order(q)
    fam = families.hilton_milner(ctx, (0, 1), 0, 0)
    ok_int, _ = families.is_t_intersecting(ctx, fam, 1)
    cp = families.common_point(ctx, fam)
    return {"q": q, "intersecting": ok_int, "commonPoint": list(cp) if cp else None,
            "ok": ok_int and cp is None}


def _hm_threshold_case(q):
    size = (q * q + q) // 2
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
        want = q * (q - 1) // 2 + 1
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
                                         fast=(4,), full=(4, 8), extended=(4, 8, 9, 16))),
    ("square-value-shortcut", _per_field(lambda ctx, seed: charsum.shortcut_scan(ctx),
                                         fast=(25,), extended=(25, 49))),
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


def cmd_suite(args) -> int:
    if args.claim:
        missing = [c for c in args.claim if c not in dict(SUITE)]
        if missing:
            raise ValueError(f"unknown claim ids: {', '.join(missing)}")
    reports = [
        r for n, fn in SUITE if not args.claim or n in args.claim
        for r in fn(args.tier, args.seed)
    ]
    return _emit(reports, args.format)


# ---------------------------------------------------------------------------
# parser


def _add_format(p):
    p.add_argument(
        "--format", choices=("jsonl", "csv", "human"), default="jsonl",
        help="report output format",
    )


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

    p = sub.add_parser("field", help="field construction and arithmetic")
    fsub = p.add_subparsers(dest="sub", required=True)
    pi = fsub.add_parser("info", help="tables and parameters of a field")
    pi.add_argument("--field", required=True, help="field spec, p^n or p^n/c0,c1,...,cn")
    pi.set_defaults(func=cmd_field_info)
    pa = fsub.add_parser("arith", help="single arithmetic operation")
    pa.add_argument("--field", required=True)
    pa.add_argument("--op", required=True,
                    choices=("add", "sub", "mul", "div", "pow", "frobenius", "trace", "norm", "char"))
    pa.add_argument("--x", type=int, required=True)
    pa.add_argument("--y", type=int, default=0)
    pa.set_defaults(func=cmd_field_arith)

    p = sub.add_parser("poly", help="evaluate and intersect polynomials")
    psub = p.add_subparsers(dest="sub", required=True)
    pe = psub.add_parser("eval", help="evaluate at a point")
    pe.add_argument("--field", required=True)
    pe.add_argument("--poly", required=True, help="coefficient indices, low degree first")
    pe.add_argument("--x", type=int, required=True)
    pe.set_defaults(func=cmd_poly_eval)
    px = psub.add_parser("intersect", help="shared points of two graphs")
    px.add_argument("--field", required=True)
    px.add_argument("--f", required=True)
    px.add_argument("--g", required=True)
    px.set_defaults(func=cmd_poly_intersect)

    p = sub.add_parser("directions", help="direction sets of function graphs")
    dsub = p.add_subparsers(dest="sub", required=True)
    dd = dsub.add_parser("set", help="direction set of a value table")
    dd.add_argument("--field", required=True)
    dd.add_argument("--values", required=True, help="q comma-separated element indices")
    dd.set_defaults(func=cmd_directions_set)
    dc = dsub.add_parser("carlitz", help="proper direction span forces affine")
    dc.add_argument("--field", required=True)
    _add_format(dc)
    dc.set_defaults(func=cmd_directions_carlitz)

    p = sub.add_parser("charsum", help="character sums and square scans")
    csub = p.add_subparsers(dest="sub", required=True)
    cw = csub.add_parser("weil", help="character sum against the root bound")
    cw.add_argument("--field", required=True)
    cw.add_argument("--poly", required=True)
    cw.add_argument("--a", type=int, default=1)
    cw.set_defaults(func=cmd_charsum_weil)
    cq = csub.add_parser("quad", help="closed form vs brute force for a quadratic")
    cq.add_argument("--field", required=True)
    cq.add_argument("--abc", required=True, help="a,b,c for a x^2 + b x + c")
    cq.set_defaults(func=cmd_charsum_quad)
    ct = csub.add_parser("square-test", help="polynomial square root, if any")
    ct.add_argument("--field", required=True)
    ct.add_argument("--poly", required=True)
    ct.set_defaults(func=cmd_charsum_square_test)
    cs = csub.add_parser("square-scan", help="coefficient relations on square shapes")
    cs.add_argument("--field", required=True)
    cs.add_argument("--frob-k", type=int, default=1, dest="frob_k")
    _add_format(cs)
    cs.set_defaults(func=cmd_charsum_square_scan)
    ch = csub.add_parser("shortcut", help="large square-value sets force the coefficient relation")
    ch.add_argument("--field", required=True)
    _add_format(ch)
    ch.set_defaults(func=cmd_charsum_shortcut)
    cm = csub.add_parser("mcconnel", help="power map classification scan")
    cm.add_argument("--field", required=True)
    cm.add_argument("--delta", type=int, required=True)
    _add_format(cm)
    cm.set_defaults(func=cmd_charsum_mcconnel)

    p = sub.add_parser("families", help="family constructions and file checks")
    msub = p.add_subparsers(dest="sub", required=True)
    mc = msub.add_parser("construct", help="write a construction as a family file")
    mc.add_argument("kind", choices=("pencil", "hm", "tangent"))
    mc.add_argument("--field", required=True)
    mc.add_argument("--point", help="alpha,beta (pencil, hm)")
    mc.add_argument("--line", help="v,w for the line y = v x + w (hm)")
    mc.add_argument("--quad", help="A,B,C for the base parabola (tangent)")
    mc.add_argument("--k", type=int, default=2, help="degree bound (pencil)")
    mc.add_argument("--out", help="write to file instead of stdout")
    mc.set_defaults(func=cmd_families_construct)
    mv = msub.add_parser("verify", help="check a family file")
    mv.add_argument("--file", required=True)
    mv.add_argument("--t", type=int, default=1)
    _add_format(mv)
    mv.set_defaults(func=cmd_families_verify)
    me = msub.add_parser("extend", help="extend a family to its pencil(s)")
    me.add_argument("--file", required=True)
    me.set_defaults(func=cmd_families_extend)
    mt = msub.add_parser("threshold", help="exact stability threshold decision")
    mt.add_argument("--q", type=int, required=True)
    mt.add_argument("--size", type=int, required=True)
    mt.add_argument("--k", type=int, default=2)
    mt.set_defaults(func=cmd_families_threshold)

    p = sub.add_parser("search", help="clique search and randomized probes")
    ssub = p.add_subparsers(dest="sub", required=True)
    se = ssub.add_parser("ekr", help="maximum clique equals the pencil size")
    se.add_argument("--field", required=True)
    se.add_argument("--k", type=int, default=2)
    se.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="search node budget")
    _add_format(se)
    se.set_defaults(func=cmd_search_ekr)
    sc = ssub.add_parser("clique", help="exact maximum clique of an intersection graph")
    sc.add_argument("--field", required=True)
    sc.add_argument("--k", type=int, default=2)
    sc.add_argument("--t", type=int, default=1)
    sc.add_argument("--predicate", choices=("min", "max"), default="min")
    sc.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="search node budget")
    sc.set_defaults(func=cmd_search_clique)
    s0 = ssub.add_parser("sam0", help="clique bounds on both sides of t-intersection")
    s0.add_argument("--field", required=True)
    s0.add_argument("--k", type=int, required=True)
    s0.add_argument("--t", type=int, required=True)
    _add_format(s0)
    s0.set_defaults(func=cmd_search_sam0)
    sp = ssub.add_parser("probe", help="randomized maximal intersecting families")
    sp.add_argument("--field", required=True)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_format(sp)
    sp.set_defaults(func=cmd_search_probe)
    sg = ssub.add_parser("graph", help="dump an intersection graph")
    sg.add_argument("--field", required=True)
    sg.add_argument("--k", type=int, default=2)
    sg.add_argument("--t", type=int, default=1)
    sg.add_argument("--predicate", choices=("min", "max"), default="min")
    sg.add_argument("--out")
    sg.set_defaults(func=cmd_search_graph)

    p = sub.add_parser("suite", help="run the claim suite")
    p.add_argument("--tier", choices=("fast", "full", "extended"), default="fast")
    p.add_argument("--claim", action="append", help="run only this claim id (repeatable)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _add_format(p)
    p.set_defaults(func=cmd_suite)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FieldError, families.FamilyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
