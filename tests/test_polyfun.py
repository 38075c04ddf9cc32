"""Bounded-degree polynomials and graph intersection, brute force checked."""

import functools
import itertools
import math
import random

import pytest

from polyfam.gf import (
    FieldError,
    factor_prime_power,
    make_field,
    make_field_of_order,
)
from polyfam.polyfun import (
    PointAG,
    PolyK,
    evaluate,
    difference,
    format_poly,
    intersection_count,
    common_lanes,
    graph_vector,
    lane_masks,
    lane_points,
    pair_intersects_fast,
    parse_poly,
    shared_points,
    values_by_log,
)


def brute_eval(ctx, coeffs, x):
    acc = 0
    for i, c in enumerate(coeffs):
        acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, i)))
    return acc


def graph_points(ctx, f):
    return [PointAG(x, evaluate(ctx, f, x)) for x in range(ctx.q)]


def shift_argument(ctx, f, alpha):
    """The polynomial x -> f(x + alpha), same degree bound."""
    out = [0] * (f.k + 1)
    for i, c in enumerate(f.coeffs):
        if c == 0:
            continue
        # expand c*(x+alpha)^i by the binomial theorem; binomials live in F_p
        term = 1
        for j in range(i, -1, -1):
            binom = math.comb(i, j) % ctx.p
            if binom and term:
                out[j] = ctx.add(out[j], ctx.mul(c, ctx.mul(binom, term)))
            term = ctx.mul(term, alpha)
    return PolyK(f.k, tuple(out))


def brute_count(ctx, f, g):
    return sum(1 for x in range(ctx.q) if evaluate(ctx, f, x) == evaluate(ctx, g, x))


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_evaluate_matches_power_sum(q):
    ctx = make_field_of_order(q)
    for coeffs in itertools.product(range(q), repeat=3):
        f = PolyK(2, coeffs)
        for x in range(q):
            assert evaluate(ctx, f, x) == brute_eval(ctx, coeffs, x)


def test_poly_validation():
    PolyK(2, (0, 1, 1))
    with pytest.raises(ValueError):
        PolyK(2, (0, 1))
    with pytest.raises(ValueError):
        PolyK(1, (0, 1, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_intersection_count_exhaustive_quadratic(q):
    ctx = make_field_of_order(q)
    polys = [PolyK(2, c) for c in itertools.product(range(q), repeat=3)]
    # full pairwise sweep is q^6 pairs at q=3; slice the list above that
    if q > 3:
        polys = polys[:: max(1, len(polys) // 40)]
    for f in polys:
        for g in polys:
            assert intersection_count(ctx, f, g) == brute_count(ctx, f, g), (f, g)


def test_intersection_count_identical_is_q():
    ctx = make_field(7, 1)
    f = PolyK(2, (3, 1, 4))
    assert intersection_count(ctx, f, f) == 7


def test_intersection_count_cubic():
    ctx = make_field(3, 1)
    for fc in itertools.product(range(3), repeat=4):
        for gc in itertools.product(range(3), repeat=4):
            f, g = PolyK(3, fc), PolyK(3, gc)
            assert intersection_count(ctx, f, g) == brute_count(ctx, f, g)


def test_frozen_intersection_counts():
    c5 = make_field(5, 1)
    assert intersection_count(c5, PolyK(2, (0, 0, 1)), PolyK(2, (0, 1, 0))) == 2
    assert intersection_count(c5, PolyK(2, (1, 0, 1)), PolyK(2, (0, 0, 1))) == 0
    assert intersection_count(c5, PolyK(2, (0, 3, 1)), PolyK(2, (4, 1, 2))) == 0


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_pair_intersects_fast_agrees(q):
    ctx = make_field_of_order(q)
    polys = [PolyK(2, c) for c in itertools.product(range(q), repeat=3)]
    step = max(1, len(polys) // 60)
    sample = polys[::step]
    for f in sample:
        for g in sample:
            if f == g:
                continue
            want = intersection_count(ctx, f, g) > 0
            assert pair_intersects_fast(ctx, f, g) == want, (f, g)


def test_pair_intersects_fast_requires_distinct_quadratics():
    ctx = make_field(5, 1)
    f = PolyK(2, (0, 0, 1))
    with pytest.raises(ValueError):
        pair_intersects_fast(ctx, f, f)
    with pytest.raises(ValueError):
        pair_intersects_fast(ctx, PolyK(1, (0, 1)), PolyK(1, (1, 1)))


def test_difference():
    ctx = make_field(5, 1)
    f, g = PolyK(2, (1, 2, 3)), PolyK(2, (4, 4, 3))
    d = difference(ctx, f, g)
    assert d.coeffs == (ctx.sub(1, 4), ctx.sub(2, 4), 0)
    with pytest.raises(ValueError):
        difference(ctx, f, PolyK(1, (0, 1)))


@pytest.mark.parametrize("q", [3, 5, 8, 9])
def test_shift_argument(q):
    ctx = make_field_of_order(q)
    for coeffs in itertools.product(range(q), repeat=3):
        f = PolyK(2, coeffs)
        for s in range(q):
            shifted = shift_argument(ctx, f, s)
            for x in range(q):
                assert evaluate(ctx, shifted, x) == evaluate(ctx, f, ctx.add(x, s))


def test_shift_argument_cubic():
    ctx = make_field(3, 1)
    f = PolyK(3, (1, 0, 2, 1))
    sh = shift_argument(ctx, f, 2)
    for x in range(3):
        assert evaluate(ctx, sh, x) == evaluate(ctx, f, ctx.add(x, 2))


def test_format_parse_roundtrip():
    ctx = make_field(7, 1)
    f = PolyK(2, (4, 0, 6))
    assert format_poly(f) == "4,0,6"
    assert parse_poly(ctx, format_poly(f)) == f
    with pytest.raises(ValueError):
        parse_poly(ctx, "1,2,9")  # coefficient out of range
    with pytest.raises(ValueError):
        parse_poly(ctx, "")


def test_polyk_is_hashable_and_ordered_by_coeffs():
    a = PolyK(2, (0, 1, 2))
    b = PolyK(2, (0, 1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


# -- packed graph vectors ----------------------------------------------------


def _all_polys(q, k):
    return [PolyK(k, c) for c in itertools.product(range(q), repeat=k + 1)]


@pytest.mark.parametrize(
    "q,k", [(q, 2) for q in (2, 3, 4, 5, 7, 8, 9)] + [(2, 3), (3, 3)]
)
def test_shared_points_matches_closed_form_and_brute_force(q, k):
    ctx = make_field_of_order(q)
    polys = _all_polys(q, k)
    values = [graph_points(ctx, f) for f in polys]
    vectors = [graph_vector(ctx, f) for f in polys]
    for i, f in enumerate(polys):
        row = shared_points(q, vectors[i], vectors[i:])
        for j, packed in enumerate(row, i):
            brute = sum(a == b for a, b in zip(values[i], values[j]))
            assert packed == brute == intersection_count(ctx, f, polys[j]), (f, polys[j])


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (2, 16), (3, 10), (251, 2)])
def test_shared_points_sampled_pairs_large_lanes(p, n):
    # every g also comes shifted to share a point with f; the fields past
    # 2^12 take fewer pairs, each build costing a few ms
    ctx = make_field(p, n)
    q = ctx.q
    rng = random.Random(q)
    for _ in range(300 if q < 4096 else 20):
        f = PolyK(2, tuple(rng.randrange(q) for _ in range(3)))
        g = PolyK(2, tuple(rng.randrange(q) for _ in range(3)))
        x = rng.randrange(q)
        shift = ctx.sub(evaluate(ctx, f, x), evaluate(ctx, g, x))
        h = PolyK(2, (ctx.add(g.coeffs[0], shift), *g.coeffs[1:]))
        got = shared_points(q, graph_vector(ctx, f), [graph_vector(ctx, g), graph_vector(ctx, h)])
        assert got == [intersection_count(ctx, f, g), intersection_count(ctx, f, h)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16, 289, 65536])
def test_graph_vector_lanes_hold_the_values(q):
    # 289 = 17^2 and 2^16 are past the flat addition table; at 2^16 the
    # evaluate oracle reads 1000 sampled lanes and the last one
    ctx = make_field_of_order(q)
    f = PolyK(2, (q - 1, 1 % q, q - 1))
    v = graph_vector(ctx, f)
    xs = [*ctx.exp, 0]
    js = range(q) if q < 1000 else [*random.Random(q).sample(range(q - 1), 1000), q - 1]
    assert [(v >> (32 * j)) & 0xFFFFFFFF for j in js] == [evaluate(ctx, f, xs[j]) for j in js]
    assert v >> (32 * q) == 0


@pytest.mark.parametrize(
    "p,n,k",
    [(7, 1, 3), (2, 3, 2), (3, 2, 1), (17, 2, 2), (3, 6, 2), (5, 1, 0), (2, 5, 3), (251, 2, 2)],
)
def test_graph_values_match_evaluate(p, n, k):
    """Random f, plus the first Horner step's edge cases: a zero top
    coefficient (no rotation), a monic f (rotation by log 1 = 0) and, at
    k = 0, the constants 0 and 1. 3^6, 17^2 and 251^2 add past the flat
    addition table, 2^3 and 2^5 by XOR. The graph's values are f(0), the
    constant term, and entry j of values_by_log at x = g^j."""
    ctx = make_field(p, n)
    q = ctx.q
    rng = random.Random(q + k)
    polys = [PolyK(k, tuple(rng.randrange(q) for _ in range(k + 1))) for _ in range(4)]
    low = tuple(rng.randrange(q) for _ in range(k))
    polys += [PolyK(k, low + (0,)), PolyK(k, low + (1,))]
    for f in polys:
        values = [f.coeffs[0], *values_by_log(ctx, f)]
        assert values == [evaluate(ctx, f, x) for x in [0, *ctx.exp]], f
    assert list(values_by_log(ctx, PolyK(0, (5 % q,)))) == [5 % q] * (q - 1)


@pytest.mark.parametrize("p,n", [(2, 16), (3, 10), (251, 2), (65521, 1)])
def test_graph_values_match_evaluate_in_large_fields(p, n):
    """The digit-lane kernel at sampled x, for k = 0..7, so that terms are
    read at strides i with gcd(i, q - 1) > 1. 65521 has one 17-bit digit.
    Zero coefficients skip a term; 7 + x (x - r) sums to 7 at x = r."""
    ctx = make_field(p, n)
    q = ctx.q
    rng = random.Random(q)
    xs = [0, 1, q - 1] + rng.sample(range(q), 200)
    for k in range(8):
        polys = [PolyK(k, tuple(rng.randrange(q) for _ in range(k + 1)))]
        if k >= 1:
            polys.append(PolyK(k, tuple(rng.randrange(q) for _ in range(k)) + (0,)))
        if k >= 2:
            # 7 + x (x - r): the partial value x - r vanishes at x = r
            polys.append(PolyK(k, (7, ctx.sub(0, rng.randrange(1, q)), 1) + (0,) * (k - 2)))
        for f in polys:
            values = values_by_log(ctx, f)
            assert len(values) == q - 1
            got = [values[ctx.log[x]] if x else f.coeffs[0] for x in xs]
            assert got == [evaluate(ctx, f, x) for x in xs], f


@pytest.mark.parametrize("k", [0, 1, 2])
def test_intersection_count_matches_brute_force_at_2_16(k):
    ctx = make_field(2, 16)
    q = ctx.q
    rng = random.Random(k)

    def rand(k):
        return PolyK(k, tuple(rng.randrange(q) for _ in range(k + 1)))

    pairs = []  # (f, g, brute-force count)
    for _ in range(3):
        f, g = rand(k), rand(k)
        pairs.append((f, g, brute_count(ctx, f, g)))
    # differences c (x - r_1) .. (x - r_j) with j = 0..k distinct roots
    f = rand(k)
    for j in range(k + 1):
        h = [rng.randrange(1, q)]
        for r in rng.sample(range(q), j):  # h(x) (x - r), low degree first
            h = [ctx.sub(b, ctx.mul(r, a)) for a, b in zip(h + [0], [0] + h)]
        h += [0] * (k + 1 - len(h))
        g = PolyK(k, tuple(ctx.add(a, b) for a, b in zip(f.coeffs, h)))
        assert brute_count(ctx, f, g) == j
        pairs.append((f, g, j))
    for f, g, want in pairs:
        assert intersection_count(ctx, f, g) == want, (f, g)
    f = rand(k)
    assert intersection_count(ctx, f, PolyK(k, f.coeffs)) == q
    with pytest.raises(ValueError):
        intersection_count(ctx, f, rand(k + 1))


def _prime_powers(lo, hi):
    out = []
    for q in range(lo, hi + 1):
        try:
            factor_prime_power(q)
        except FieldError:
            continue
        out.append(q)
    return out


@functools.lru_cache(maxsize=None)
def as_root(ctx):
    """{z^2 + z: z} over F_q in characteristic two: the preimage table
    that root extraction needs and the count does not, built by trying
    every z."""
    return {ctx.add(ctx.mul(z, z), z): z for z in range(ctx.q)}


def method_call_quadratic_roots(ctx, a, b, c):
    """The root set of a + b x + c x^2, every product and quotient a mul,
    div or inv method call; the zero polynomial has every x as a root."""
    if c == 0:
        if b == 0:
            return frozenset(range(ctx.q)) if a == 0 else frozenset()
        return frozenset({ctx.div(ctx.sub(0, a), b)})
    if ctx.p == 2:
        if b == 0:
            return frozenset({ctx.sqrt(ctx.div(a, c))})
        u = ctx.div(ctx.mul(a, c), ctx.mul(b, b))
        z = as_root(ctx).get(u)
        if z is None:
            return frozenset()
        scale = ctx.div(b, c)
        return frozenset({ctx.mul(scale, z), ctx.mul(scale, ctx.add(z, 1))})
    disc = ctx.sub(ctx.mul(b, b), ctx.mul(4 % ctx.p, ctx.mul(a, c)))
    if ctx.quadratic_character(disc) == -1:
        return frozenset()
    s = ctx.sqrt(disc)
    inv2c = ctx.inv(ctx.mul(2 % ctx.p, c))
    mb = ctx.sub(0, b)
    return frozenset({ctx.mul(ctx.add(mb, s), inv2c), ctx.mul(ctx.sub(mb, s), inv2c)})


def _check_roots_and_count(ctx, a, b, c, want, g):
    """want is the root set of a + b x + c x^2 by pointwise evaluation;
    g is added to both sides for the intersection_count check."""
    assert method_call_quadratic_roots(ctx, a, b, c) == want, (ctx.q, a, b, c)
    assert ctx.quadratic_root_count(a, b, c) == len(want), (ctx.q, a, b, c)
    f = PolyK(2, tuple(map(ctx.add, (a, b, c), g.coeffs)))
    assert intersection_count(ctx, f, g) == len(want), (f, g)


@pytest.mark.parametrize("q", _prime_powers(2, 64))
def test_quadratic_roots_match_the_method_call_version_exhaustively(q):
    """Every (a, b, c) at q <= 64: the method-call roots are the
    pointwise root set, and the root count and intersection_count are its
    size."""
    ctx = make_field_of_order(q)
    rng = random.Random(q)
    squares = [ctx.mul(x, x) for x in range(q)]
    for b in range(q):
        for c in range(q):
            # the x with b x + c x^2 = -a, for every a at once
            zeros = {a: set() for a in range(q)}
            for x, xx in enumerate(squares):
                zeros[ctx.sub(0, ctx.add(ctx.mul(b, x), ctx.mul(c, xx)))].add(x)
            g = PolyK(2, tuple(rng.randrange(q) for _ in range(3)))
            for a in range(q):
                _check_roots_and_count(ctx, a, b, c, frozenset(zeros[a]), g)


def test_quadratic_roots_match_the_method_call_version_up_to_1024():
    """Seeded random (a, b, c) at every prime power 64 < q <= 1024, each
    coefficient 0 one time in four: the root count is the number of
    method-call roots, every one of which must evaluate to 0, and for a
    few triples per field the root set is the pointwise one."""
    for q in _prime_powers(65, 1024):
        ctx = make_field_of_order(q)
        rng = random.Random(q)
        squares = [ctx.mul(x, x) for x in range(q)]
        for i in range(300):
            a, b, c = (0 if rng.randrange(4) == 0 else rng.randrange(1, q) for _ in range(3))
            roots = method_call_quadratic_roots(ctx, a, b, c)
            assert ctx.quadratic_root_count(a, b, c) == len(roots), (q, a, b, c)
            for r in roots:
                assert ctx.add(a, ctx.add(ctx.mul(b, r), ctx.mul(c, squares[r]))) == 0
            if i < 10:
                want = frozenset(
                    x
                    for x, xx in enumerate(squares)
                    if ctx.add(a, ctx.add(ctx.mul(b, x), ctx.mul(c, xx))) == 0
                )
                g = PolyK(2, tuple(rng.randrange(q) for _ in range(3)))
                _check_roots_and_count(ctx, a, b, c, want, g)


@pytest.mark.parametrize("p,n", [(3, 10), (251, 2)])
def test_root_count_matches_graph_values_at_large_odd_q(p, n):
    """Seeded quadratics at 3^10 and 251^2 in each branch of the count:
    b = 0, a zero discriminant (a = b^2 / 4c, one root), and the generic
    read of the table; the oracle counts the zeros of values_by_log, plus
    x = 0 when the constant term is 0."""
    ctx = make_field(p, n)
    q = ctx.q
    rng = random.Random(20248 + q)

    def nonzero():
        return rng.randrange(1, q)

    cases = []
    for _ in range(4):
        cases.append((nonzero(), 0, nonzero()))
        b, c = nonzero(), nonzero()
        cases.append((ctx.div(ctx.mul(b, b), ctx.mul(4 % p, c)), b, c))
        cases.append((nonzero(), nonzero(), nonzero()))
    seen = set()
    for a, b, c in cases:
        want = (a == 0) + values_by_log(ctx, PolyK(2, (a, b, c))).count(0)
        assert ctx.quadratic_root_count(a, b, c) == want, (a, b, c)
        seen.add(want)
        if b and ctx.sub(ctx.mul(b, b), ctx.mul(4 % p, ctx.mul(a, c))) == 0:
            assert want == 1
    assert seen == {0, 1, 2}


@pytest.mark.parametrize("p,n,k", [(2, 4, 3), (3, 2, 4), (7, 1, 5), (3, 6, 3), (2, 10, 4)])
def test_intersection_count_above_k2_matches_pointwise(p, n, k):
    """k > 2 counts the zeros of the difference's value list; the oracle
    evaluates both polynomials at every x. Differences with a zero top
    coefficient and with k distinct roots are included."""
    ctx = make_field(p, n)
    q = ctx.q
    rng = random.Random(q + k)
    pairs = []
    for _ in range(4):
        pairs.append(tuple(PolyK(k, tuple(rng.randrange(q) for _ in range(k + 1))) for _ in "fg"))
    f = pairs[0][0]
    pairs.append((f, PolyK(k, f.coeffs[:-1] + (ctx.add(f.coeffs[-1], 1),))))
    pairs.append((f, PolyK(k, (ctx.add(f.coeffs[0], 1),) + f.coeffs[1:])))
    h = [1]
    for r in rng.sample(range(q), k):  # h(x) (x - r), low degree first
        h = [ctx.sub(b, ctx.mul(r, a)) for a, b in zip(h + [0], [0] + h)]
    pairs.append((f, PolyK(k, tuple(map(ctx.add, f.coeffs, h)))))
    pairs.append((f, f))
    for f, g in pairs:
        assert intersection_count(ctx, f, g) == brute_count(ctx, f, g), (f, g)
    assert brute_count(ctx, *pairs[-2]) == k
    assert intersection_count(ctx, f, f) == q


@pytest.mark.parametrize("q", [2, 5, 127, 128, 289, 32768, 32769, 65536])
def test_lane_masks_mark_every_lane(q):
    m, h = lane_masks(q)
    ones = h >> 31
    assert h.bit_count() == q and h.bit_length() == 32 * q
    assert ones * 0xFFFFFFFF == (1 << (32 * q)) - 1  # one 1 at the foot of every lane
    assert m == ones * 0x7FFFFFFF


def test_common_lanes_and_points():
    ctx = make_field(7, 1)
    polys = [PolyK(2, (3, 0, 0)), PolyK(2, (3, 1, 0)), PolyK(2, (3, 0, 1))]
    vs = [graph_vector(ctx, f) for f in polys]
    # all three take the value 3 at x = 0 and nowhere else in common
    assert lane_points(ctx, vs[0], common_lanes(7, vs)) == [PointAG(0, 3)]
    assert common_lanes(7, []) == 0
    one = lane_points(ctx, vs[1], common_lanes(7, vs[1:2]))
    assert one == graph_points(ctx, polys[1])
