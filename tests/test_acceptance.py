"""Acceptance sweep: every deliverable claim at its stated scale.

Each test covers one numbered criterion: it runs the full tier of its
claims through the suite's own runners (cli.SUITE) at DEFAULT_SEED,
enforces a wall-clock budget and prints a single [PASS]/[FAIL] line
(visible with pytest -s or in the captured output of a failing run).
"""

import contextlib
import sys
import time

from polyfam import cli, directions
from polyfam.gf import make_field
from polyfam.report import DEFAULT_SEED
from test_golden import TIERS


def has(rep, **want):
    return {name: rep.counters[name] for name in want} == want


# claim id -> what each of its full-tier reports must show besides a
# pass with no witnesses, given the report and its field order q; q is
# None for a report that spans several fields. How many reports each
# claim makes is read from the pinned tiers (test_golden.TIERS).
FULL_TIER = {
    # no clique of q^2 members lacks a common point, so every maximum
    # clique is the pencil through one point
    "ekr-bound": lambda r, q: has(r, maxClique=q * q, maximumCliques=q * q)
    and len(r.parameters["pencilPoints"]) == q * q,
    "pencil-size": lambda r, q: has(r, cases=3),
    "hm-size": lambda r, q: has(r, cases=7),
    "hm-properties": lambda r, q: has(r, cases=7),
    # the 35 odd primes from 11 to 167, and 25, 27, 49, 81, 121, 125, 169
    "hm-threshold": lambda r, q: has(r, cases=42),
    # the alternate closed form for the tangent count is non-integral
    # and must surface in the suite output instead of being dropped
    "tangent-size": lambda r, q: has(r, cases=5) and "non-integral" in r.parameters["note"]
    and r.parameters["sizeConstructed"]["5"] == 11
    and r.parameters["altClosedFormTwice"]["5"] == 21
    and all(v % 2 for v in r.parameters["altClosedFormTwice"].values()),
    "quad-sum-identity": lambda r, q: has(r, checked=(q - 1) * q * q),
    "weil-bound": lambda r, q: has(r, checked=1000) and r.seed == DEFAULT_SEED + q,
    "direction-span-affine": lambda r, q: has(r, scanned=q**q, affine=q * q),
    "square-value-shortcut": lambda r, q: r.counters["largeValueSets"] > 0
    and has(r, scanned=375000, violations=0, controlTriples=24 * 25 * 24),
    "square-coeff-relation": lambda r, q: has(r, scanned=6561, violations=0),
    "power-map-class": lambda r, q: has(r, found=r.counters["predicted"]),
    "clique-bounds": lambda r, q: q <= 5 and 1 <= r.parameters["t"] <= r.parameters["k"] <= 2,
    "rootable-count": lambda r, q: has(r, cases=8),
    "stability-probe": lambda r, q: has(r, trials=10_000) and r.counters["maxSize"] <= q * q
    and sum(r.parameters["sizeDistribution"].values()) == 10_000,
    "pencil-extension": lambda r, q: has(r, cases=2) and r.seed == DEFAULT_SEED,
}
# claim id -> the field specs of its full-tier reports, in order
FULL_SPECS = TIERS["full"][1]


@contextlib.contextmanager
def criterion(label, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}", file=sys.stderr)
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] {label} ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"{label}: {elapsed:.1f}s exceeded {budget_s}s"


def sweep(label, budget_s, *claims):
    runners = dict(cli.SUITE)
    with criterion(label, budget_s):
        for claim in claims:
            check = FULL_TIER[claim]
            reports = runners[claim]("full", DEFAULT_SEED)
            assert [r.field_spec for r in reports] == FULL_SPECS[claim], claim
            for rep in reports:
                p, _, n = rep.field_spec.partition("^")
                q = int(p) ** int(n) if n else None
                assert rep.claim_id == claim
                assert rep.verdict == "pass" and not rep.witnesses, rep.to_json()
                assert check(rep, q), rep.to_json()


def test_every_suite_claim_is_swept():
    assert sorted(FULL_TIER) == sorted(name for name, _ in cli.SUITE)


def test_c01_ekr_oracle_exact_maximum():
    sweep("C1 ekr oracle q=3,4 k=2", 60, "ekr-bound")


def test_c02_construction_sizes():
    sweep("C2 construction sizes", 30, "pencil-size", "hm-size", "tangent-size")


def test_c03_hm_properties_and_threshold():
    sweep("C3 hm properties + threshold sweep", 10, "hm-properties", "hm-threshold")


def test_c04_quadratic_sum_identity_full_sweep():
    sweep("C4 quadratic sum identity q=3..13", 30, "quad-sum-identity")


def test_c05_weil_bound_random_non_squares():
    sweep("C5 weil bound 1000 samples x 4 fields", 60, "weil-bound")


def test_c06_direction_scan_exhaustive():
    sweep("C6 direction scan q=4 and q=8", 600, "direction-span-affine")


def test_c07_shortcut_scan_q25():
    sweep("C7 square-value shortcut q=25", 300, "square-value-shortcut")


def test_c08_square_coefficient_scan_q9():
    sweep("C8 square coefficient relations q=9", 10, "square-coeff-relation")


def test_c09_power_map_classification():
    sweep("C9 power map scan q=5 and q=9", 120, "power-map-class")


def test_c09_power_map_solution_lists():
    assert directions.mcconnel_scan(make_field(5, 1), 2) == [tuple(range(5))]
    c9 = make_field(3, 2)
    cube = tuple(c9.pow(x, 3) for x in range(9))
    assert directions.mcconnel_scan(c9, 2) == sorted([tuple(range(9)), cube])
    assert directions.power_map_prediction(c9, 2) == sorted([tuple(range(9)), cube])


def test_c10_clique_bounds_and_rootable_counts():
    sweep("C10 clique bounds + rootable census", 60, "clique-bounds", "rootable-count")


def test_c11_stability_probe():
    sweep("C11 stability probe 10^4 x 5 fields", 300, "stability-probe")


def test_c12_pencil_extension_unique():
    sweep("C12 drop-one extension q=5,7", 30, "pencil-extension")
