"""Bounded-degree polynomials and graph intersection, brute force checked."""

import itertools
import random

import pytest

from polyfam.gf import make_field, make_field_of_order
from polyfam.polyfun import (
    PointAG,
    PolyK,
    evaluate,
    difference,
    format_poly,
    graph_points,
    intersection_count,
    common_lanes,
    graph_values,
    graph_vector,
    lane_masks,
    lane_points,
    lane_width,
    pair_intersects_fast,
    parse_poly,
    poly,
    shared_points,
    shift_argument,
)


def brute_eval(ctx, coeffs, x):
    acc = 0
    for i, c in enumerate(coeffs):
        acc = ctx.add(acc, ctx.mul(c, ctx.pow(x, i)))
    return acc


def brute_count(ctx, f, g):
    return sum(1 for x in range(ctx.q) if evaluate(ctx, f, x) == evaluate(ctx, g, x))


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_evaluate_matches_power_sum(q):
    ctx = make_field_of_order(q)
    for coeffs in itertools.product(range(q), repeat=3):
        f = poly(2, coeffs)
        for x in range(q):
            assert evaluate(ctx, f, x) == brute_eval(ctx, coeffs, x)


def test_poly_validation():
    poly(2, (0, 1, 1))
    with pytest.raises(ValueError):
        poly(2, (0, 1))
    with pytest.raises(ValueError):
        poly(1, (0, 1, 1))


def test_graph_points():
    ctx = make_field(5, 1)
    f = poly(2, (1, 0, 1))
    pts = graph_points(ctx, f)
    assert len(pts) == 5
    assert pts[2] == PointAG(2, evaluate(ctx, f, 2))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_intersection_count_exhaustive_quadratic(q):
    ctx = make_field_of_order(q)
    polys = [poly(2, c) for c in itertools.product(range(q), repeat=3)]
    # full pairwise sweep is q^6 pairs at q=3; slice the list above that
    if q > 3:
        polys = polys[:: max(1, len(polys) // 40)]
    for f in polys:
        for g in polys:
            assert intersection_count(ctx, f, g) == brute_count(ctx, f, g), (f, g)


def test_intersection_count_identical_is_q():
    ctx = make_field(7, 1)
    f = poly(2, (3, 1, 4))
    assert intersection_count(ctx, f, f) == 7


def test_intersection_count_cubic():
    ctx = make_field(3, 1)
    for fc in itertools.product(range(3), repeat=4):
        for gc in itertools.product(range(3), repeat=4):
            f, g = poly(3, fc), poly(3, gc)
            assert intersection_count(ctx, f, g) == brute_count(ctx, f, g)


def test_frozen_intersection_counts():
    c5 = make_field(5, 1)
    assert intersection_count(c5, poly(2, (0, 0, 1)), poly(2, (0, 1, 0))) == 2
    assert intersection_count(c5, poly(2, (1, 0, 1)), poly(2, (0, 0, 1))) == 0
    assert intersection_count(c5, poly(2, (0, 3, 1)), poly(2, (4, 1, 2))) == 0


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_pair_intersects_fast_agrees(q):
    ctx = make_field_of_order(q)
    polys = [poly(2, c) for c in itertools.product(range(q), repeat=3)]
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
    f = poly(2, (0, 0, 1))
    with pytest.raises(ValueError):
        pair_intersects_fast(ctx, f, f)
    with pytest.raises(ValueError):
        pair_intersects_fast(ctx, poly(1, (0, 1)), poly(1, (1, 1)))


def test_difference():
    ctx = make_field(5, 1)
    f, g = poly(2, (1, 2, 3)), poly(2, (4, 4, 3))
    d = difference(ctx, f, g)
    assert d.coeffs == (ctx.sub(1, 4), ctx.sub(2, 4), 0)
    with pytest.raises(ValueError):
        difference(ctx, f, poly(1, (0, 1)))


@pytest.mark.parametrize("q", [3, 5, 8, 9])
def test_shift_argument(q):
    ctx = make_field_of_order(q)
    for coeffs in itertools.product(range(q), repeat=3):
        f = poly(2, coeffs)
        for s in range(q):
            shifted = shift_argument(ctx, f, s)
            for x in range(q):
                assert evaluate(ctx, shifted, x) == evaluate(ctx, f, ctx.add(x, s))


def test_shift_argument_cubic():
    ctx = make_field(3, 1)
    f = poly(3, (1, 0, 2, 1))
    sh = shift_argument(ctx, f, 2)
    for x in range(3):
        assert evaluate(ctx, sh, x) == evaluate(ctx, f, ctx.add(x, 2))


def test_format_parse_roundtrip():
    ctx = make_field(7, 1)
    f = poly(2, (4, 0, 6))
    assert format_poly(f) == "4,0,6"
    assert parse_poly(ctx, format_poly(f)) == f
    with pytest.raises(ValueError):
        parse_poly(ctx, "1,2,9")  # coefficient out of range
    with pytest.raises(ValueError):
        parse_poly(ctx, "")


def test_polyk_is_hashable_and_ordered_by_coeffs():
    a = poly(2, (0, 1, 2))
    b = poly(2, (0, 1, 2))
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


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5)])
def test_shared_points_sampled_pairs_large_lanes(p, n):
    # nine-bit lanes; every g also comes shifted to share a point with f
    ctx = make_field(p, n)
    q = ctx.q
    rng = random.Random(q)
    for _ in range(300):
        f = PolyK(2, tuple(rng.randrange(q) for _ in range(3)))
        g = PolyK(2, tuple(rng.randrange(q) for _ in range(3)))
        x = rng.randrange(q)
        shift = ctx.sub(evaluate(ctx, f, x), evaluate(ctx, g, x))
        h = PolyK(2, (ctx.add(g.coeffs[0], shift), *g.coeffs[1:]))
        got = shared_points(q, graph_vector(ctx, f), [graph_vector(ctx, g), graph_vector(ctx, h)])
        assert got == [intersection_count(ctx, f, g), intersection_count(ctx, f, h)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 16, 289])
def test_graph_vector_lanes_hold_the_values(q):
    # 289 = 17^2 is past the flat addition table and has two-byte lanes
    ctx = make_field_of_order(q)
    w = lane_width(q)
    assert w % 8 == 0 and 1 << (w - 1) >= q  # whole bytes, values below the guard
    f = PolyK(2, (q - 1, 1 % q, q - 1))
    v = graph_vector(ctx, f)
    assert [(v >> (x * w)) & ((1 << w) - 1) for x in range(q)] == [
        evaluate(ctx, f, x) for x in range(q)
    ]
    assert v >> (q * w) == 0


@pytest.mark.parametrize("p,n,k", [(7, 1, 3), (2, 3, 2), (3, 2, 1), (17, 2, 2), (3, 6, 2)])
def test_graph_values_match_evaluate(p, n, k):
    ctx = make_field(p, n)
    rng = random.Random(ctx.q + k)
    for _ in range(4):
        f = PolyK(k, tuple(rng.randrange(ctx.q) for _ in range(k + 1)))
        assert graph_values(ctx, f) == [evaluate(ctx, f, x) for x in ctx.elements()]
    assert graph_values(ctx, PolyK(0, (5 % ctx.q,))) == [5 % ctx.q] * ctx.q


@pytest.mark.parametrize("p,n", [(2, 16), (3, 10), (251, 2)])
def test_graph_values_match_evaluate_in_large_fields(p, n):
    """The log-domain Horner step at sampled x, for k = 0..5. A zero top
    coefficient and a root of the top part make some entries 0 mid-way."""
    ctx = make_field(p, n)
    q = ctx.q
    rng = random.Random(q)
    xs = [0, 1, q - 1] + rng.sample(range(q), 200)
    for k in range(6):
        polys = [PolyK(k, tuple(rng.randrange(q) for _ in range(k + 1)))]
        if k >= 1:
            polys.append(PolyK(k, tuple(rng.randrange(q) for _ in range(k)) + (0,)))
        if k >= 2:
            # 7 + x (x - r): the partial value x - r vanishes at x = r
            polys.append(PolyK(k, (7, ctx.neg(rng.randrange(1, q)), 1) + (0,) * (k - 2)))
        for f in polys:
            values = graph_values(ctx, f)
            assert len(values) == q
            assert [values[x] for x in xs] == [evaluate(ctx, f, x) for x in xs], f


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
            h = [ctx.sub(a, ctx.mul(r, b)) for a, b in zip(h + [0], [0] + h)]
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


@pytest.mark.parametrize("q", [2, 5, 127, 128, 289, 32768, 32769])
def test_lane_masks_mark_every_lane(q):
    w = lane_width(q)
    assert (q - 1).bit_length() < w <= (q - 1).bit_length() + 8
    m, h = lane_masks(q)
    ones = h >> (w - 1)
    assert h.bit_count() == q and h.bit_length() == q * w
    assert ones * ((1 << w) - 1) == (1 << (q * w)) - 1  # one 1 at the foot of every lane
    assert m == ones * ((1 << (w - 1)) - 1)


def test_common_lanes_and_points():
    ctx = make_field(7, 1)
    polys = [poly(2, (3, 0, 0)), poly(2, (3, 1, 0)), poly(2, (3, 0, 1))]
    vs = [graph_vector(ctx, f) for f in polys]
    # all three take the value 3 at x = 0 and nowhere else in common
    assert lane_points(7, vs[0], common_lanes(7, vs)) == [PointAG(0, 3)]
    assert common_lanes(7, []) == 0
    one = lane_points(7, vs[1], common_lanes(7, vs[1:2]))
    assert one == graph_points(ctx, polys[1])
