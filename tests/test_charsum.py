"""Character sums, square detection, and the value-set scans."""

import copy
import functools
import itertools
import random
import sys

import pytest

from polyfam.directions import mcconnel_scan, power_map_prediction
from polyfam.gf import FieldError, make_field, make_field_of_order
from polyfam.report import WITNESS_CAP, Report, Stopwatch
from polyfam.charsum import (
    _in_at_most,
    char_sum,
    distinct_root_count,
    perfect_square_test,
    poly_deg,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_pth_root,
    poly_radical,
    poly_trim,
    quad_sum_exact,
    shortcut_scan,
    square_coefficient_scan,
    weil_check,
)


def monic_irreducibles(ctx, max_deg):
    """All monic irreducibles up to max_deg by sieve over monic polys."""
    out = []
    composites = set()
    for deg in range(1, max_deg + 1):
        for tail in itertools.product(range(ctx.q), repeat=deg):
            f = poly_trim(tail + (1,))
            if f in composites:
                continue
            out.append(f)
            # mark all multiples within reach as composite
            for deg2 in range(1, max_deg - deg + 1):
                for tail2 in itertools.product(range(ctx.q), repeat=deg2):
                    g = poly_trim(tail2 + (1,))
                    composites.add(poly_mul(ctx, f, g))
    return out


def test_poly_divmod_identity():
    ctx = make_field(5, 1)
    rng = random.Random(0)
    for _ in range(200):
        f = poly_trim(rng.randrange(5) for _ in range(rng.randint(1, 7)))
        g = poly_trim(rng.randrange(5) for _ in range(rng.randint(1, 5)))
        if not g:
            continue
        quo, rem = poly_divmod(ctx, f, g)
        s = poly_mul(ctx, quo, g)
        m = max(len(s), len(rem), 1)
        back = poly_trim(
            ctx.add(s[i] if i < len(s) else 0, rem[i] if i < len(rem) else 0)
            for i in range(m)
        )
        assert back == f
        assert poly_deg(rem) < poly_deg(g) or not rem
    with pytest.raises(ZeroDivisionError):
        poly_divmod(ctx, (1, 1), ())


def test_poly_gcd_divides_both():
    ctx = make_field(3, 1)
    rng = random.Random(1)
    for _ in range(100):
        f = poly_trim(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        g = poly_trim(rng.randrange(3) for _ in range(rng.randint(1, 6)))
        if not f or not g:
            continue
        d = poly_gcd(ctx, f, g)
        assert poly_divmod(ctx, f, d)[1] == ()
        assert poly_divmod(ctx, g, d)[1] == ()
        assert d[-1] == 1  # monic


@pytest.mark.parametrize("q", [3, 5, 9])
def test_radical_from_known_factorization(q):
    ctx = make_field_of_order(q)
    irred = [f for f in monic_irreducibles(ctx, 2)]
    rng = random.Random(q)
    for _ in range(60):
        chosen = rng.sample(irred, rng.randint(1, 3))
        mults = [rng.randint(1, 6) for _ in chosen]
        f = (1,)
        rad = (1,)
        for base, m in zip(chosen, mults):
            rad = poly_mul(ctx, rad, base)
            for _ in range(m):
                f = poly_mul(ctx, f, base)
        lead = rng.randrange(1, q)
        f = tuple(ctx.mul(lead, c) for c in f)
        assert poly_radical(ctx, f) == rad
        assert distinct_root_count(ctx, f) == poly_deg(rad)


def test_radical_mixed_multiplicity_divisible_by_p():
    # (x-1)^3 (x-2) over F_3: the naive f/gcd(f,f') formula drops the
    # p-th-power factor entirely; the radical must keep both roots
    ctx = make_field(3, 1)
    pm = functools.partial(poly_mul, ctx)
    f = functools.reduce(pm, [(2, 1)] * 3 + [(1, 1)])
    assert poly_radical(ctx, f) == poly_mul(ctx, (2, 1), (1, 1))
    assert distinct_root_count(ctx, f) == 2
    g = functools.reduce(pm, [(2, 1)] * 6 + [(1, 1)] * 2)
    assert distinct_root_count(ctx, g) == 2


@pytest.mark.parametrize("q", [3, 5, 9])
def test_distinct_root_count_matches_a_brute_force_count(q):
    """Every monic f of degree <= 4: f has as many distinct roots in the
    algebraic closure as the degrees of its distinct monic irreducible
    factors add up to. Those factors come from a sieve of products here,
    with no gcd or derivative."""
    ctx = make_field_of_order(q)

    def monic(deg):
        return [tail + (1,) for tail in itertools.product(range(q), repeat=deg)]

    factor_degrees = {f: [] for deg in range(5) for f in monic(deg)}
    for deg in range(1, 5):
        for f in monic(deg):
            if factor_degrees[f]:
                continue  # a multiple of an irreducible of lower degree
            for deg2 in range(5 - deg):
                for g in monic(deg2):
                    factor_degrees[poly_mul(ctx, f, g)].append(deg)
    for f, degrees in factor_degrees.items():
        assert distinct_root_count(ctx, f) == sum(degrees), f


def test_distinct_root_count_frozen():
    c5 = make_field(5, 1)
    assert distinct_root_count(c5, (0, 0, 1)) == 1
    assert distinct_root_count(c5, (4, 0, 1)) == 2
    assert distinct_root_count(c5, (0, 4, 0, 0, 0, 1)) == 5
    with pytest.raises(ValueError):
        distinct_root_count(c5, ())


def test_poly_pth_root():
    ctx = make_field(3, 2)
    rng = random.Random(3)
    for _ in range(40):
        g = poly_trim(rng.randrange(9) for _ in range(rng.randint(1, 4)))
        if not g:
            continue
        f = functools.reduce(functools.partial(poly_mul, ctx), [g] * 3)
        assert poly_pth_root(ctx, f) == g
    with pytest.raises(ValueError):
        poly_pth_root(ctx, (0, 1))  # exponent not divisible by p


def horner(ctx, f, x):
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def brute_char_sum(ctx, f, a):
    return sum(
        ctx.quadratic_character(ctx.mul(a, horner(ctx, f, x)))
        for x in range(ctx.q)
    )


@pytest.mark.parametrize("q", [3, 5, 9])
def test_char_sum_is_the_plain_sum(q):
    ctx = make_field_of_order(q)
    rng = random.Random(q)
    for _ in range(30):
        f = poly_trim(rng.randrange(q) for _ in range(rng.randint(2, 5)))
        if not f:
            continue
        for a in (1, 2):
            assert char_sum(ctx, f, a) == brute_char_sum(ctx, f, a)


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 3), (5, 2), (3, 6), (17, 2)])
def test_char_sum_every_degree_and_scalar(p, n):
    """Constants, zero, a = 0 and fields past the flat addition table
    (3^6, 17^2), against the pointwise sum."""
    ctx = make_field(p, n)
    rng = random.Random(p * n)
    assert char_sum(ctx, (), 1) == 0
    for deg in range(0, 6):
        f = tuple(rng.randrange(ctx.q) for _ in range(deg)) + (rng.randrange(1, ctx.q),)
        for a in (0, 1, rng.randrange(1, ctx.q)):
            assert char_sum(ctx, f, a) == brute_char_sum(ctx, f, a), (f, a)


@pytest.mark.parametrize("p,n", [(3, 10), (251, 2)])
def test_char_sum_matches_the_pointwise_sum_in_large_fields(p, n):
    ctx = make_field(p, n)
    rng = random.Random(ctx.q)
    nonsquare = ctx.exp[1]
    polys = [
        tuple(rng.randrange(ctx.q) for _ in range(deg)) + (rng.randrange(1, ctx.q),)
        for deg in (1, 2, 3, 5)
    ]
    # a zero constant term (chi(f(0)) = 0) and zero inner coefficients
    polys += [(0, 0, 0, rng.randrange(1, ctx.q)), (nonsquare, 0, 1, 0, 0, 1)]
    for f in polys:
        values = [horner(ctx, f, x) for x in range(ctx.q)]
        for a in (1, nonsquare):
            want = sum(ctx.quadratic_character(ctx.mul(a, y)) for y in values)
            assert char_sum(ctx, f, a) == want, (f, a)


def test_char_sum_frozen():
    c5 = make_field(5, 1)
    assert char_sum(c5, (0, 1), 1) == 0
    assert char_sum(c5, (0, 0, 1), 1) == 4
    assert char_sum(c5, (1, 0, 1), 1) == -1


def test_char_sum_rejects_even_q():
    with pytest.raises(FieldError):
        char_sum(make_field(2, 2), (0, 1), 1)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_quad_sum_exact_full_sweep(q):
    ctx = make_field_of_order(q)
    for a in range(1, q):
        for b in range(q):
            for c in range(q):
                assert quad_sum_exact(ctx, a, b, c) == char_sum(
                    ctx, poly_trim((c, b, a)), 1
                ), (q, a, b, c)


def test_quad_sum_exact_frozen():
    assert quad_sum_exact(make_field(5, 1), 1, 0, 0) == 4
    assert quad_sum_exact(make_field(3, 1), 2, 0, 0) == -2
    assert quad_sum_exact(make_field(7, 1), 1, 0, 1) == -1
    with pytest.raises(ValueError):
        quad_sum_exact(make_field(5, 1), 0, 1, 1)


def test_weil_check_frozen_equality_case():
    # x^3 + x over F_9 splits with three distinct roots and hits the
    # bound exactly: sum 6 against (3-1) * 3
    ctx = make_field(3, 2)
    res = weil_check(ctx, (0, 1, 0, 1))
    assert res.sum_value == 6
    assert res.distinct_roots == 3
    assert res.within_bound
    assert not res.is_square_shape
    assert res.bound == 6.0


@pytest.mark.parametrize("q", [9, 25])
def test_weil_check_random_non_squares(q):
    ctx = make_field_of_order(q)
    rng = random.Random(q * 11)
    checked = 0
    while checked < 120:
        deg = rng.randint(1, 5)
        f = tuple(rng.randrange(q) for _ in range(deg)) + (1,)
        if perfect_square_test(ctx, f) is not None:
            continue
        checked += 1
        res = weil_check(ctx, f)
        assert res.within_bound
        # the comparison is exact on integers
        s = res.sum_value
        assert s * s <= (res.distinct_roots - 1) ** 2 * q


def test_weil_check_square_shape_flagged():
    ctx = make_field(5, 1)
    sq = poly_mul(ctx, (1, 1), (1, 1))
    res = weil_check(ctx, sq)
    assert res.is_square_shape
    # the sum over a square of a linear is q - 1 and may exceed the
    # squarefree bound; the flag is what downstream callers filter on
    assert res.sum_value == 4


def test_weil_check_validation():
    with pytest.raises(FieldError):
        weil_check(make_field(2, 2), (0, 1))
    with pytest.raises(ValueError):
        weil_check(make_field(5, 1), (3,))
    with pytest.raises(ValueError):
        weil_check(make_field(5, 1), (0, 1), a=0)


@pytest.mark.parametrize("q", [3, 5, 9])
def test_perfect_square_test_exhaustive_small(q):
    ctx = make_field_of_order(q)
    squares = set()
    for deg in range(0, 3):
        for tail in itertools.product(range(q), repeat=deg + 1):
            g = poly_trim(tail)
            squares.add(poly_mul(ctx, g, g))
    for f in sorted(squares):
        got = perfect_square_test(ctx, f)
        assert got is not None
        assert poly_mul(ctx, got, got) == f
    # odd-degree and shifted non-squares come back None
    assert perfect_square_test(ctx, (0, 1)) is None
    assert perfect_square_test(ctx, (0, 1, 1)) is None


def test_perfect_square_root_is_canonical():
    # both g and -g square to f; the reported root has its leading
    # coefficient fixed by the canonical square root of the lead of f
    ctx = make_field(5, 1)
    g = (2, 3)
    f = poly_mul(ctx, g, g)
    got = perfect_square_test(ctx, f)
    assert got in (g, tuple(ctx.sub(0, c) for c in g))


def brute_square_census(ctx, pk):
    """Squares of the scan shape built from the generic square formula."""
    q = ctx.q
    found = set()
    for leg in itertools.product(range(q), repeat=(pk + 1) // 2 + 1):
        g = poly_trim(leg)
        f = poly_mul(ctx, g, g)
        coeffs = list(f) + [0] * (pk + 2 - len(f))
        if all(coeffs[i] == 0 for i in range(2, pk)) and len(f) <= pk + 2:
            found.add((coeffs[pk + 1], coeffs[pk], coeffs[1], coeffs[0]))
    return found


def tuple_loop_square_scan(ctx, frob_k):
    """The report square_coefficient_scan gave before it built the squares
    of the shape: one perfect_square_test per (a, d, b, c), in that
    order."""
    q = ctx.q
    pk = ctx.p**frob_k
    squares = 0
    violations = []
    for a in range(q):
        fa = ctx.frobenius(a, frob_k)
        for d in range(q):
            fd = ctx.frobenius(d, frob_k)
            rel1_lhs = ctx.mul(fd, a)
            rel2_lhs = ctx.mul(ctx.mul(fd, d), a)
            for b in range(q):
                rel1_ok = rel1_lhs == ctx.mul(b, fa)
                for c in range(q):
                    coeffs = [0] * (pk + 2)
                    coeffs[0] = c
                    coeffs[1] = b
                    coeffs[pk] = d
                    coeffs[pk + 1] = a
                    if perfect_square_test(ctx, poly_trim(coeffs)) is None:
                        continue
                    squares += 1
                    if a != 0:
                        ok = rel1_ok and rel2_lhs == ctx.mul(c, ctx.mul(fa, a))
                    else:
                        ok = b == 0 and d == 0
                    if not ok and len(violations) < 8:
                        violations.append({"a": a, "d": d, "b": b, "c": c})
    return Report(
        claim_id="square-coeff-relation",
        field_spec=ctx.report_spec_string(),
        verdict="pass" if not violations else "fail",
        parameters={"frobPower": frob_k, "shapeDegree": pk + 1},
        witnesses=violations,
        counters={"scanned": q**4, "squares": squares, "violations": len(violations)},
        primary_counter="squares",
    )


def report_dict(rep):
    return {**rep.to_dict(), "wallTimeMs": 0}


@pytest.mark.parametrize(
    "p,n,frob_k",
    [(3, 1, 1), (3, 1, 2), (3, 1, 4), (5, 1, 1), (5, 1, 2), (7, 1, 1), (7, 1, 2),
     (11, 1, 1), (11, 1, 2), (3, 2, 1), (3, 2, 2)],
)
def test_square_coefficient_scan_matches_tuple_loop(p, n, frob_k):
    ctx = make_field(p, n)
    assert report_dict(square_coefficient_scan(ctx, frob_k)) == report_dict(
        tuple_loop_square_scan(ctx, frob_k)
    )


def frobenius_off_by_one(ctx):
    """A copy of the field whose frobenius(x, k) is x^(p^(k+1)), so that
    the relations fail on some squares. make_field caches its contexts,
    so the cached one is never touched."""
    bad = copy.copy(ctx)
    bad.frobenius = lambda x, k=1: ctx.frobenius(x, k + 1)
    return bad


def frobenius_squared(ctx):
    """A copy of the field whose frobenius(x, k) is x^2: over a prime
    field the true one is the identity."""
    bad = copy.copy(ctx)
    bad.frobenius = lambda x, k=1: ctx.mul(x, x)
    return bad


@pytest.mark.parametrize(
    "p,n,frob_k,wrong,violations",
    [(3, 2, 1, frobenius_off_by_one, 8), (3, 2, 2, frobenius_off_by_one, 8),
     (5, 1, 1, frobenius_squared, 6), (7, 1, 2, frobenius_squared, 8),
     (3, 1, 1, frobenius_squared, 1)],
)
def test_square_coefficient_scan_violations_match_tuple_loop(p, n, frob_k, wrong, violations):
    """With a wrong frobenius the relations fail: the witnesses, their
    (a, d, b, c) order and the cap at 8 must be the tuple loop's."""
    ctx = wrong(make_field(p, n))
    rep = square_coefficient_scan(ctx, frob_k)
    assert report_dict(rep) == report_dict(tuple_loop_square_scan(ctx, frob_k))
    assert rep.verdict == "fail"
    assert rep.counters["violations"] == len(rep.witnesses) == violations


def inverse_times(ctx, k):
    """A copy of the field whose inv(x) is k / x."""
    bad = copy.copy(ctx)
    bad.inv = lambda x: ctx.mul(k, ctx.inv(x))
    return bad


@pytest.mark.parametrize(
    "p,n,frob_k,k", [(3, 1, 1, 2), (5, 1, 1, 3), (7, 1, 2, 5), (3, 2, 1, 4), (3, 2, 2, 7)]
)
def test_square_coefficient_scan_wrong_inverse_matches_tuple_loop(p, n, frob_k, k):
    """Over a field every root the recursion builds squares to the shape,
    so the check at positions 2..p^k-1 never rejects one. A wrong inverse
    breaks the recursion: then that check alone keeps the roots with
    d != 0 out, as perfect_square_test keeps their tuples out."""
    ctx = inverse_times(make_field(p, n), k)
    rep = square_coefficient_scan(ctx, frob_k)
    assert report_dict(rep) == report_dict(tuple_loop_square_scan(ctx, frob_k))
    assert rep.counters["squares"] == (ctx.q + 1) // 2 + (ctx.q - 1) // 2


def test_square_coefficient_scan_q9():
    ctx = make_field(3, 2)
    rep = square_coefficient_scan(ctx, 1)
    assert rep.verdict == "pass"
    assert rep.counters == {"scanned": 6561, "squares": 41, "violations": 0}
    # census cross-check from the other direction: enumerate squares g^2
    # of the right shape instead of testing all tuples
    assert len(brute_square_census(ctx, 3)) == 41


@pytest.mark.parametrize(
    "p,n,frob_k,scanned,squares",
    [(3, 3, 1, 531441, 365), (3, 3, 2, 531441, 365), (5, 2, 1, 390625, 313)],
)
def test_square_coefficient_scan_frozen_larger_fields(p, n, frob_k, scanned, squares):
    rep = square_coefficient_scan(make_field(p, n), frob_k)
    assert rep.verdict == "pass"
    assert rep.counters == {"scanned": scanned, "squares": squares, "violations": 0}
    assert rep.witnesses == []


def test_square_census_q27():
    assert len(brute_square_census(make_field(3, 3), 3)) == 365


def test_square_coefficient_scan_q5():
    rep = square_coefficient_scan(make_field(5, 1), 1)
    assert rep.verdict == "pass"
    assert rep.counters["scanned"] == 625


def test_square_coefficient_scan_validation():
    with pytest.raises(FieldError):
        square_coefficient_scan(make_field(2, 2), 1)
    with pytest.raises(ValueError):
        square_coefficient_scan(make_field(3, 2), 0)


def test_square_coefficient_scan_rejects_a_shape_past_the_cap():
    # p^frob_k past MAX_FIELD_ORDER = 2^16: 3^11 = 177,147 and 257^2 = 66,049
    with pytest.raises(ValueError, match="exceeds the cap"):
        square_coefficient_scan(make_field(3, 2), 11)
    with pytest.raises(ValueError, match="exceeds the cap"):
        square_coefficient_scan(make_field(257, 1), 2)
    # decided without the power itself: 3^(10^18) would never be computed
    with pytest.raises(ValueError, match="exceeds the cap"):
        square_coefficient_scan(make_field(3, 1), 10**18)


def test_shortcut_scan_q25():
    rep = shortcut_scan(make_field(5, 2))
    assert rep.verdict == "pass"
    assert rep.counters == {
        "scanned": 375000,
        "largeValueSets": 1500,
        "violations": 0,
        "controlTriples": 14400,
    }
    assert rep.parameters["minLargeCount"] == 24


def test_shortcut_scan_q49_frozen():
    rep = shortcut_scan(make_field(7, 2))
    assert rep.verdict == "pass"
    assert rep.counters == {
        "scanned": 5647152,
        "largeValueSets": 8232,
        "violations": 0,
        "controlTriples": 112896,
    }
    assert rep.parameters["minLargeCount"] == 47
    assert rep.witnesses == []


def pointwise_shortcut_scan(ctx):
    """(largeValueSets, violations, control witnesses) by the loops
    shortcut_scan used before its mask kernels: one polynomial and one
    control triple at a time, x in element order."""
    q, s, half_n = ctx.q, ctx.sqrt_q, ctx.n // 2
    qc, norm, add, mul = ctx.qchar_table, ctx.norm_table, ctx.add, ctx.mul
    xs = range(q)
    allowed = q - ((2 * q - s + 1) // 2 + 1)
    xp_s = [ctx.pow(x, s) for x in xs]
    xp_s1 = [ctx.pow(x, s + 1) for x in xs]
    large = 0
    violations = []
    for a in range(1, q):
        fa = ctx.frobenius(a, half_n)
        for d in range(q):
            rel_rhs = mul(ctx.frobenius(d, half_n), a)
            t2 = [add(mul(a, xp_s1[x]), mul(d, xp_s[x])) for x in xs]
            for b in range(q):
                t3 = [add(t2[x], mul(b, x)) for x in xs]
                for c in range(q):
                    bad = 0
                    for v in t3:
                        bad += qc[add(v, c)] < 0
                        if bad > allowed:
                            break
                    else:
                        large += 1
                        if mul(fa, b) != rel_rhs and len(violations) < 8:
                            violations.append({"a": a, "d": d, "b": b, "c": c})
    control = []
    for s0 in range(1, q):
        for t in xs:
            for r in range(1, q):
                for x in xs:
                    if qc[mul(mul(s0, s0), norm[add(t, mul(r, x))])] < 0:
                        if len(control) < 8:
                            control.append({"s": s0, "t": t, "r": r, "x": x})
                        break
    return large, violations, control


def per_pair_mask_shortcut_scan(ctx):
    """The report by the mask kernel shortcut_scan used before it took
    every d of one a in one mask: one mask per (a, d), its row indices
    and the masks of each (w, x) built one ctx.add / ctx.mul call at a
    time. The control is the same loop as in shortcut_scan."""
    watch = Stopwatch()
    q = ctx.q
    s = ctx.sqrt_q
    half_n = ctx.n // 2
    qc = ctx.qchar_table
    norm = ctx.norm_table
    xs = list(range(q))
    xp_s = [ctx.pow(x, s) for x in xs]
    xp_s1 = [ctx.pow(x, s + 1) for x in xs]
    min_large = (2 * q - s + 1) // 2 + 1
    allowed_nonsquare = q - min_large
    add = ctx.add
    mul = ctx.mul
    nonsq_c = [sum(1 << c for c in xs if qc[add(w, c)] < 0) for w in xs]
    nonsq = [
        sum(nonsq_c[add(w, mul(b, x))] << b * q for b in xs) for w in xs for x in xs
    ]
    all_bc = (1 << q * q) - 1
    large = 0
    violations = []
    for a in range(1, q):
        fa = ctx.frobenius(a, half_n)
        t1 = [mul(a, v) for v in xp_s1]
        for d in range(q):
            row = [add(t1[x], mul(d, xp_s[x])) * q + x for x in xs]
            ok = _in_at_most(map(nonsq.__getitem__, row), allowed_nonsquare, all_bc)
            if not ok:
                continue
            large += ok.bit_count()
            b_rel = ctx.div(mul(ctx.frobenius(d, half_n), a), fa)
            bad = ok & ~(((1 << q) - 1) << b_rel * q)
            while bad and len(violations) < WITNESS_CAP:
                low = bad & -bad
                b, c = divmod(low.bit_length() - 1, q)
                violations.append({"a": a, "d": d, "b": b, "c": c})
                bad ^= low

    def control_failures():
        for s0 in range(1, q):
            s0sq = mul(s0, s0)
            bad_y = [y for y in xs if qc[mul(s0sq, norm[y])] < 0]
            if bad_y:
                for t in xs:
                    for r in range(1, q):
                        x = min(ctx.div(ctx.sub(y, t), r) for y in bad_y)
                        yield {"s": s0, "t": t, "r": r, "x": x}

    control_bad = list(itertools.islice(control_failures(), WITNESS_CAP))
    return Report(
        claim_id="square-value-shortcut",
        field_spec=ctx.report_spec_string(),
        parameters={"minLargeCount": min_large},
        witnesses=violations + control_bad,
        counters={
            "scanned": (q - 1) * q**3,
            "largeValueSets": large,
            "violations": len(violations),
            "controlTriples": (q - 1) * q * (q - 1),
        },
        wall_time_ms=watch.ms(),
        primary_counter="largeValueSets",
    )


def perturbed_field(p, n, seed, square_rate):
    """A copy of the field whose quadratic-character table calls a share
    of the nonsquares squares and one value of the norm a nonsquare, so
    that violations and control witnesses appear. make_field caches its
    contexts, so the cached one is never touched."""
    ctx = copy.copy(make_field(p, n))
    rng = random.Random(seed)
    qc = list(ctx.qchar_table)
    for w in range(1, ctx.q):
        if rng.random() < square_rate:
            qc[w] = 1
    qc[ctx.norm_table[rng.randrange(1, ctx.q)]] = -1
    ctx.qchar_table = qc
    return ctx


@pytest.mark.parametrize(
    "seed,square_rate", [(None, 0), (1, 0.5), (0, 0.5)]
)
def test_shortcut_scan_matches_pointwise_loops(seed, square_rate):
    ctx = make_field(5, 2) if seed is None else perturbed_field(5, 2, seed, square_rate)
    large, violations, control = pointwise_shortcut_scan(ctx)
    rep = shortcut_scan(ctx)
    assert rep.counters["largeValueSets"] == large
    assert rep.counters["violations"] == len(violations)
    assert rep.witnesses == violations + control
    assert rep.verdict == ("fail" if violations or control else "pass")
    if seed is not None:
        assert len(control) == 8  # every triple of a failing s0 fails
        assert len(violations) == (0 if seed == 1 else 8)
        assert shortcut_scan(make_field(5, 2)).verdict == "pass"


@pytest.mark.parametrize("seed", [None, 0, 1])
def test_shortcut_scan_matches_the_per_pair_mask_kernel_q49(seed):
    ctx = make_field(7, 2) if seed is None else perturbed_field(7, 2, seed, 0.5)
    rep = shortcut_scan(ctx)
    assert report_dict(rep) == report_dict(per_pair_mask_shortcut_scan(ctx))
    if seed is not None:
        assert rep.verdict == "fail"
        assert rep.counters["largeValueSets"] > 8232
        assert rep.counters["violations"] == (0 if seed == 0 else 8)


@pytest.mark.parametrize("seed,square_rate", [(13, 0.5), (24, 0.4), (14, 0.4)])
def test_shortcut_witnesses_past_the_first_coset_and_translate(seed, square_rate):
    """Tables whose violations all lie at one a > 1, fewer than
    WITNESS_CAP at d = 0, so the witnesses run on into d = 1: the images
    of the representatives come out in (a, d, b, c) order."""
    ctx = perturbed_field(5, 2, seed, square_rate)
    large, violations, control = pointwise_shortcut_scan(ctx)
    rep = shortcut_scan(ctx)
    assert rep.counters["largeValueSets"] == large
    assert rep.witnesses == violations + control
    assert len(violations) == WITNESS_CAP
    assert min(w["a"] for w in violations) > 1
    assert {w["d"] for w in violations} == {0, 1}


@pytest.mark.parametrize("p,seed", [(5, None), (5, 3), (7, None), (7, 4)])
def test_affine_substitution_keeps_the_nonsquare_count(p, seed):
    """x -> r x + t reorders the points, so l and its substitute have the
    same nonsquare count under any character table; at d = 0 the
    translation and the scaling give the coefficients that shortcut_scan
    expands its representatives by."""
    ctx = make_field(p, 2) if seed is None else perturbed_field(p, 2, seed, 0.5)
    q, s = ctx.q, ctx.sqrt_q
    add, mul, pw = ctx.add, ctx.mul, ctx.pow
    rng = random.Random(seed)

    def ell(a, d, b, c, x):
        return add(add(mul(a, pw(x, s + 1)), mul(d, pw(x, s))), add(mul(b, x), c))

    def nonsquares(values):
        return sum(ctx.qchar_table[v] < 0 for v in values)

    for _ in range(40):
        a, r = rng.randrange(1, q), rng.randrange(1, q)
        d, b, c, t = (rng.randrange(q) for _ in range(4))
        sub = [ell(a, d, b, c, add(mul(r, x), t)) for x in range(q)]
        assert nonsquares(sub) == nonsquares(ell(a, d, b, c, x) for x in range(q))
        shifted = (a, mul(a, t), add(b, mul(a, pw(t, s))), add(add(c, mul(b, t)), mul(a, pw(t, s + 1))))
        assert [ell(*shifted, x) for x in range(q)] == [ell(a, 0, b, c, add(x, t)) for x in range(q)]
        scaled = (mul(a, pw(r, s + 1)), 0, mul(b, r), c)
        assert [ell(*scaled, x) for x in range(q)] == [ell(a, 0, b, c, mul(r, x)) for x in range(q)]


def test_shortcut_control_witnesses_with_one_bad_norm():
    """A norm table with one nonsquare entry N(y0): the failing set is
    {y0}, not closed under y -> -y as real norms are, so the first failing
    x = y0 / r of each triple pins the sign of y - t."""
    ctx = copy.copy(make_field(5, 2))
    nonsquare = next(w for w in range(1, ctx.q) if ctx.qchar_table[w] < 0)
    ctx.norm_table = list(ctx.norm_table)
    ctx.norm_table[7] = nonsquare
    _, violations, control = pointwise_shortcut_scan(ctx)
    rep = shortcut_scan(ctx)
    assert rep.witnesses == violations + control
    assert [w["x"] for w in control] == [ctx.div(7, r) for r in range(1, 9)]
    assert ctx.div(7, 2) != ctx.div(ctx.sub(0, 7), 2)


@pytest.mark.parametrize("allowed", range(5))
def test_in_at_most_matches_a_naive_count(allowed):
    rng = random.Random(allowed)
    for width in (1, 7, 64, 200):
        full = (1 << width) - 1
        for n_masks in (0, 1, 3, 9):
            masks = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(n_masks)]
            want = sum(
                1 << i
                for i in range(width)
                if sum(m >> i & 1 for m in masks) <= allowed
            )
            assert _in_at_most(iter(masks), allowed, full) == want


def test_shortcut_scan_validation():
    with pytest.raises(FieldError):
        shortcut_scan(make_field(3, 2))  # q = 9 is excluded
    with pytest.raises(FieldError):
        shortcut_scan(make_field(7, 1))  # not a square
    with pytest.raises(FieldError):
        shortcut_scan(make_field(2, 4))  # even


def brute_mcconnel(ctx, delta):
    """Backtracking-free oracle: test every bijection fixing 0 and 1."""
    q = ctx.q
    e = (q - 1) // delta
    pw = [ctx.pow(x, e) for x in range(q)]
    out = []
    for perm in itertools.permutations(range(2, q)):
        full = (0, 1) + perm
        ok = True
        for x in range(q):
            for y in range(x + 1, q):
                lhs = pw[ctx.sub(full[x], full[y])]
                if lhs != pw[ctx.sub(x, y)]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(full)
    return sorted(out)


def test_mcconnel_scan_q5_matches_brute():
    ctx = make_field(5, 1)
    got = mcconnel_scan(ctx, 2)
    assert got == brute_mcconnel(ctx, 2)
    assert got == [(0, 1, 2, 3, 4)]
    assert got == power_map_prediction(ctx, 2)


def test_mcconnel_scan_q4_delta3():
    ctx = make_field(2, 2)
    got = mcconnel_scan(ctx, 3)
    assert got == brute_mcconnel(ctx, 3)
    assert got == [(0, 1, 2, 3)]
    assert got == power_map_prediction(ctx, 3)


@pytest.mark.parametrize("q, delta", [(7, 2), (7, 3), (7, 6), (8, 7), (9, 2), (9, 4)])
def test_mcconnel_scan_matches_brute(q, delta):
    ctx = make_field_of_order(q)
    got = mcconnel_scan(ctx, delta)
    assert got == brute_mcconnel(ctx, delta)
    assert got == power_map_prediction(ctx, delta)


def test_mcconnel_scan_q9():
    ctx = make_field(3, 2)
    got = mcconnel_scan(ctx, 2)
    pred = power_map_prediction(ctx, 2)
    assert got == pred
    assert len(got) == 2
    ident = tuple(range(9))
    cube = tuple(ctx.pow(x, 3) for x in range(9))
    assert got == sorted([ident, cube])


def test_mcconnel_scan_validation_and_budget():
    ctx = make_field(5, 1)
    with pytest.raises(ValueError):
        mcconnel_scan(ctx, 3)  # 3 does not divide q - 1
    with pytest.raises(ValueError):
        mcconnel_scan(ctx, 1)
    assert mcconnel_scan(make_field(3, 2), 2, node_budget=5) is None


def test_mcconnel_scan_walks_past_the_recursion_limit():
    """At 2^10 the scan's descents run toward q = 1024 positions deep: a
    walk that recursed once per position raised RecursionError within
    this budget instead of returning None."""
    ctx = make_field(2, 10)
    assert ctx.q > sys.getrecursionlimit()
    assert mcconnel_scan(ctx, 3, node_budget=10**6) is None


def test_power_map_prediction_q9_delta4():
    ctx = make_field(3, 2)
    # delta = 4 needs 4 | 3^j - 1: only j = 1 fails, j = 0 gives identity
    pred = power_map_prediction(ctx, 4)
    assert tuple(range(9)) in pred
