"""Acceptance sweep: every deliverable claim at its stated scale.

Each test covers one numbered criterion, enforces its wall-clock budget,
and prints a single [PASS]/[FAIL] line (visible with pytest -s or in the
captured output of a failing run).
"""

import contextlib
import itertools
import random
import sys
import time

from polyfam.gf import FieldError, factor_prime_power, make_field, make_field_of_order
from polyfam.polyfun import PolyK, evaluate, intersection_count
from polyfam import charsum, cli, directions, families, search


@contextlib.contextmanager
def criterion(label, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}", file=sys.stderr)
        raise
    elapsed = time.monotonic() - start
    line = f"[PASS] {label} ({elapsed:.1f}s, budget {budget_s}s)"
    print(line)
    assert elapsed < budget_s, f"{label}: {elapsed:.1f}s exceeded {budget_s}s"


def prime_powers(lo, hi, parity=None):
    out = []
    for q in range(lo, hi + 1):
        if parity == "odd" and q % 2 == 0:
            continue
        try:
            factor_prime_power(q)
        except FieldError:
            continue
        out.append(q)
    return out


def test_c01_ekr_oracle_exact_maximum():
    with criterion("C1 ekr oracle q=3,4 k=2", 60):
        for q in (3, 4):
            ctx = make_field_of_order(q)
            rep = search.ekr_oracle(ctx, 2)
            assert rep.verdict == "pass", rep.to_json()
            assert rep.counters["maxClique"] == q * q
            # every maximum clique was enumerated and is a pencil
            assert rep.counters["maximumCliques"] == len(
                rep.parameters["pencilPoints"]
            )


def test_c02_construction_sizes():
    with criterion("C2 construction sizes", 30):
        for q, k in ((5, 2), (7, 2), (3, 3)):
            ctx = make_field_of_order(q)
            assert len(families.pencil(ctx, 0, 0, k)) == q**k
        for q in (3, 4, 5, 7, 8, 9, 11):
            ctx = make_field_of_order(q)
            fam = families.hilton_milner(ctx, (0, 1), 0, 0)
            assert len(fam) == (q * q + q) // 2
        base = PolyK(2, (0, 0, 1))
        for q in (5, 7, 9, 11, 13):
            ctx = make_field_of_order(q)
            fam = families.tangent_family(ctx, 1, 0, 0)
            assert len(fam) == q * (q - 1) // 2 + 1
            for g in fam.members:
                if g != base:
                    assert intersection_count(ctx, base, g) == 1
        # the alternate closed form for the tangent count is non-integral
        # and must surface in the suite output instead of being dropped
        (rep,) = cli.run_tangent_size("full", 0)
        assert rep.verdict == "pass"
        assert "non-integral" in rep.parameters["note"]
        assert rep.parameters["sizeConstructed"]["5"] == 11
        assert rep.parameters["altClosedFormTwice"]["5"] == 21
        assert all(v % 2 == 1 for v in rep.parameters["altClosedFormTwice"].values())


def test_c03_hm_properties_and_threshold():
    with criterion("C3 hm properties + threshold sweep", 10):
        for q in (3, 4, 5, 7, 8, 9, 11):
            ctx = make_field_of_order(q)
            fam = families.hilton_milner(ctx, (0, 1), 0, 0)
            ok, witness = families.is_t_intersecting(ctx, fam, 1)
            assert ok, witness
            assert families.common_point(ctx, fam) is None
        for q in prime_powers(11, 169, "odd"):
            size = (q * q + q) // 2
            assert not families.exceeds_threshold(q, size, 2), q


def test_c04_quadratic_sum_identity_full_sweep():
    with criterion("C4 quadratic sum identity q=3..13", 30):
        for q in (3, 5, 7, 9, 11, 13):
            ctx = make_field_of_order(q)
            for a in range(1, q):
                for b in range(q):
                    for c in range(q):
                        exact = charsum.quad_sum_exact(ctx, a, b, c)
                        brute = charsum.char_sum(ctx, charsum.poly_trim((c, b, a)))
                        assert exact == brute, (q, a, b, c)


def test_c05_weil_bound_random_non_squares():
    with criterion("C5 weil bound 1000 samples x 4 fields", 60):
        for q in (9, 25, 49, 121):
            ctx = make_field_of_order(q)
            rng = random.Random(20248 + q)
            checked = 0
            while checked < 1000:
                deg = rng.randint(1, 5)
                f = tuple(rng.randrange(q) for _ in range(deg)) + (1,)
                if charsum.perfect_square_test(ctx, f) is not None:
                    continue
                checked += 1
                res = charsum.weil_check(ctx, f)
                assert res.within_bound, (q, f, res.sum_value)
                # the decision is integer arithmetic, no floats involved
                assert res.sum_value**2 <= (res.distinct_roots - 1) ** 2 * q


def test_c06_direction_scan_exhaustive():
    with criterion("C6 direction scan q=4 and q=8", 600):
        for p, n in ((2, 2), (2, 3)):
            ctx = make_field(p, n)
            rep = directions.carlitz_scan(ctx)
            q = ctx.q
            assert rep.verdict == "pass", rep.to_json()
            assert rep.counters["scanned"] == q**q
            assert rep.counters["affine"] == q * q
            assert not rep.witnesses


def test_c07_shortcut_scan_q25():
    with criterion("C7 square-value shortcut q=25", 300):
        rep = charsum.shortcut_scan(make_field(5, 2))
        assert rep.verdict == "pass", rep.to_json()
        assert rep.counters["scanned"] == 375000
        assert rep.counters["violations"] == 0
        assert rep.counters["largeValueSets"] > 0
        assert rep.counters["controlTriples"] == 24 * 25 * 24


def test_c08_square_coefficient_scan_q9():
    with criterion("C8 square coefficient relations q=9", 10):
        rep = charsum.square_coefficient_scan(make_field(3, 2), 1)
        assert rep.verdict == "pass", rep.to_json()
        assert rep.counters["scanned"] == 6561
        assert rep.counters["violations"] == 0


def test_c09_power_map_classification():
    with criterion("C9 power map scan q=5 and q=9", 120):
        c5 = make_field(5, 1)
        assert charsum.mcconnel_scan(c5, 2) == [tuple(range(5))]
        c9 = make_field(3, 2)
        got = charsum.mcconnel_scan(c9, 2)
        ident = tuple(range(9))
        cube = tuple(c9.pow(x, 3) for x in range(9))
        assert got == sorted([ident, cube])
        assert got == charsum.power_map_prediction(c9, 2)


def test_c10_clique_bounds_and_rootable_counts():
    with criterion("C10 clique bounds + rootable census", 60):
        for q in (2, 3, 4, 5):
            ctx = make_field_of_order(q)
            for k in (1, 2):
                for t in range(1, k + 1):
                    rep = search.sam0_check(ctx, k, t)
                    assert rep.verdict == "pass", (q, k, t)
        for q in (3, 4, 5, 7, 8, 9, 11, 13):
            ctx = make_field_of_order(q)
            for d in range(1, q):
                for w in range(1, q):
                    got = search.rootable_count(ctx, d, w)
                    if q % 2 == 0:
                        want = q // 2
                    else:
                        want = (
                            (q + 1) // 2
                            if ctx.quadratic_character(ctx.div(w, d)) == 1
                            else (q - 1) // 2
                        )
                    assert got == want, (q, d, w)


def test_c11_stability_probe():
    with criterion("C11 stability probe 10^4 x 5 fields", 300):
        for q in (4, 5, 7, 8, 9):
            ctx = make_field_of_order(q)
            rep = search.stability_probe(ctx, 10_000)
            assert rep.verdict == "pass", rep.to_json()
            assert rep.counters["trials"] == 10_000
            assert rep.counters["maxSize"] <= q * q
            dist = rep.parameters["sizeDistribution"]
            assert sum(dist.values()) == 10_000


def test_c12_pencil_extension_unique():
    with criterion("C12 drop-one extension q=5,7", 30):
        for q in (5, 7):
            ctx = make_field(q, 1)
            rng = random.Random(20248 + q)
            for _ in range(20):
                alpha, beta = rng.randrange(q), rng.randrange(q)
                pen = families.pencil(ctx, alpha, beta, 2)
                for drop in range(len(pen)):
                    rest = families.Family.from_polys(
                        2, [f for i, f in enumerate(pen.members) if i != drop]
                    )
                    res = families.extend_unique(ctx, rest)
                    assert res.unique, (q, alpha, beta, drop)
                    assert len(res.pencils) == 1
                    assert res.pencils[0].members == pen.members
