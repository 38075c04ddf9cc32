"""Workloads of the benchmark: the fields each one builds in its set-up
phase, the units its run phase calls, and the check on each unit's output.

A unit's ``run`` does only program work and returns the program's output;
its ``check`` turns that output into a list of errors, empty when the
output is right. Units call the program through module attributes at call
time (``cli.main``, ``charsum.weil_check``), so the span recorder and the
tests can replace those names.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("suite-full", "scan-large", "bigfield")

# Counters of every report as the program printed them when the benchmark
# was added (suite claims at seed 20248). Never re-record them to make a
# failing check pass.
EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

# Effort counters: optimisations change them on purpose; the trace reports
# the work instead (search.max_clique.nodes, directions.carlitz_scan.nodes).
WORK_COUNTERS = frozenset({"nodesExplored", "nodesVisited"})

# Claims whose counters follow a seeded stream that the roadmap changes on
# purpose: only these counters are pinned.
SEEDED_COUNTERS = {"stability-probe": frozenset({"trials"})}

SUITE_CLAIMS = (
    "ekr-bound",
    "pencil-size",
    "hm-size",
    "hm-properties",
    "hm-threshold",
    "tangent-size",
    "quad-sum-identity",
    "weil-bound",
    "direction-span-affine",
    "square-value-shortcut",
    "square-coeff-relation",
    "power-map-class",
    "clique-bounds",
    "rootable-count",
    "stability-probe",
    "pencil-extension",
)
TINY_SUITE_CLAIMS = ("ekr-bound", "pencil-size", "square-coeff-relation", "clique-bounds")

SCANS = (
    ("charsum", "shortcut", "--field", "7^2"),
    ("search", "ekr", "--field", "2^4", "--k", "2"),
    ("charsum", "square-scan", "--field", "3^3"),
)
TINY_SCANS = (
    ("charsum", "shortcut", "--field", "5^2"),
    ("search", "ekr", "--field", "2^2", "--k", "2"),
    ("charsum", "square-scan", "--field", "3^2"),
)

# bigfield: (p, n) of the Weil fields, the pair field and the pair count
BIGFIELD = {"weil": ((3, 10), (251, 2)), "pairs": (2, 16), "n_pairs": 100_000}
TINY_BIGFIELD = {"weil": ((3, 4), (11, 2)), "pairs": (2, 8), "n_pairs": 1000}
WEIL_DEGREES = range(1, 6)


@dataclass
class Unit:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def setup_fields(workload: str, tiny: bool = False) -> list[tuple[int, int]]:
    """The fields the set-up phase builds cold, as (p, n)."""
    if workload == "suite-full":
        return []  # the suite builds its own small fields, as users see it
    if workload == "scan-large":
        return [_spec_pn(argv[argv.index("--field") + 1]) for argv in (TINY_SCANS if tiny else SCANS)]
    if workload == "bigfield":
        cfg = TINY_BIGFIELD if tiny else BIGFIELD
        return [cfg["pairs"], *cfg["weil"]]
    raise ValueError(f"unknown workload {workload!r}")


def _spec_pn(spec: str) -> tuple[int, int]:
    p, n = spec.split("^")
    return int(p), int(n)


def make_units(workload: str, seed: int, tiny: bool = False) -> list[Unit]:
    """The run phase of one workload, its inputs drawn from ``seed``."""
    if workload == "suite-full":
        claims = TINY_SUITE_CLAIMS if tiny else SUITE_CLAIMS
        return [
            _cli_unit(("suite", "--tier", "full", "--claim", c), ("--seed", str(seed)))
            for c in claims
        ]
    if workload == "scan-large":
        # exhaustive and unseeded: every seed runs the same scans
        return [_cli_unit(argv) for argv in (TINY_SCANS if tiny else SCANS)]
    if workload == "bigfield":
        return _bigfield_units(seed, TINY_BIGFIELD if tiny else BIGFIELD)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# CLI units: reports checked against the recorded counters


def _cli_unit(argv: tuple, extra: tuple = ()) -> Unit:
    name = " ".join(argv)
    expected = EXPECTED[name]

    def run():
        from polyfam import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, *extra])
        return code, out.getvalue()

    return Unit(name, run, lambda output: check_reports(output, expected))


def check_reports(output, expected: list) -> list:
    """Exit code 0, every verdict ``pass`` and every recorded report
    present with its pinned counters. Counters added later are allowed."""
    code, text = output
    errors = [] if code == 0 else [f"exit code {code}"]
    reports = [json.loads(line) for line in text.splitlines() if line.strip()]
    for r in reports:
        if r["verdict"] != "pass":
            errors.append(f"{r['claimId']} [{r['fieldSpec']}] verdict {r['verdict']}")
    by_key: dict = {}
    for r in reports:
        by_key.setdefault((r["claimId"], r["fieldSpec"]), []).append(r)
    seen: dict = {}
    for want in expected:
        key = (want["claimId"], want["fieldSpec"])
        i = seen.get(key, 0)
        seen[key] = i + 1
        got = by_key.get(key, [])
        if i >= len(got):
            errors.append(f"{key[0]} [{key[1]}] report #{i + 1} missing")
            continue
        pinned = SEEDED_COUNTERS.get(key[0])
        for name, value in want["counters"].items():
            if name in WORK_COUNTERS or (pinned is not None and name not in pinned):
                continue
            if got[i]["counters"].get(name) != value:
                errors.append(
                    f"{key[0]} [{key[1]}] #{i + 1} {name}="
                    f"{got[i]['counters'].get(name)!r}, recorded {value!r}"
                )
    return errors


# ---------------------------------------------------------------------------
# bigfield units: Weil checks on the digit-addition path, k=2 pairs at 2^16


def _bigfield_units(seed: int, cfg: dict) -> list[Unit]:
    from polyfam import charsum, gf, polyfun

    units = []
    for p, n in cfg["weil"]:
        ctx = gf.make_field(p, n)
        rng = random.Random(seed * 1_000_003 + ctx.q)
        for deg in WEIL_DEGREES:
            # one monic non-square per degree keeps the work per seed even
            while True:
                f = tuple(rng.randrange(ctx.q) for _ in range(deg)) + (1,)
                if charsum.perfect_square_test(ctx, f) is None:
                    break
            units.append(_weil_unit(ctx, f))
    units.append(_pairs_unit(gf.make_field(*cfg["pairs"]), seed, cfg["n_pairs"]))
    return units


def _weil_unit(ctx, f) -> Unit:
    def run():
        from polyfam import charsum

        return charsum.weil_check(ctx, f)

    def check(res):
        if res.within_bound:
            return []
        return [f"|sum|={abs(res.sum_value)} over the bound {res.bound:.3f}"]

    name = f"weil {ctx.short_spec_string()} deg{len(f) - 1}"
    return Unit(name, run, check)


def _pairs_unit(ctx, seed: int, n_pairs: int) -> Unit:
    from polyfam.polyfun import PolyK

    rng = random.Random(seed * 1_000_003 + ctx.q)
    pairs = []
    while len(pairs) < n_pairs:
        f = PolyK(2, tuple(rng.randrange(ctx.q) for _ in range(3)))
        g = PolyK(2, tuple(rng.randrange(ctx.q) for _ in range(3)))
        if f != g:
            pairs.append((f, g))
    verified: list = []  # counts already cross-checked, to skip on later passes

    def run():
        from polyfam import polyfun

        count = polyfun.intersection_count
        return [count(ctx, f, g) for f, g in pairs]

    def check(counts):
        if counts == verified:
            return []
        from polyfam import polyfun

        errors = []
        for (f, g), c in zip(pairs, counts):
            if (c > 0) != polyfun.pair_intersects_fast(ctx, f, g):
                errors.append(f"intersection_count={c} disagrees with the fast test on {f}, {g}")
                if len(errors) == 8:
                    break
        if len(counts) != len(pairs):
            errors.append(f"{len(counts)} counts for {len(pairs)} pairs")
        if not errors:
            verified[:] = counts
        return errors

    return Unit(f"pairs {ctx.short_spec_string()} x{n_pairs}", run, check)
