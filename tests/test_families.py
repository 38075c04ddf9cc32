"""Family constructions, intersection checks, thresholds, and files."""

import itertools
import random

import pytest

from polyfam import families
from polyfam.gf import make_field, make_field_of_order
from polyfam.polyfun import PointAG, PolyK, evaluate, intersection_count
from polyfam.families import (
    Family,
    FamilyError,
    all_common_points,
    common_point,
    exceeds_threshold,
    extend_unique,
    family_from_lines,
    family_to_lines,
    hilton_milner,
    is_t_intersecting,
    load_family,
    pencil,
    tangent_family,
    threshold_for,
    top_coeff_injective,
    verify_file,
)


def pairwise_t_intersecting(ctx, fam, t):
    """Reference check: intersection_count on every pair, in (i, j) order."""
    ms = fam.members
    for i in range(len(ms)):
        for j in range(i + 1, len(ms)):
            if intersection_count(ctx, ms[i], ms[j]) < t:
                return False, (ms[i], ms[j])
    return True, None


def evaluated_common_points(ctx, fam):
    """Reference: evaluate every member at every x."""
    out = []
    for alpha in range(ctx.q):
        beta = evaluate(ctx, fam.members[0], alpha)
        if all(evaluate(ctx, g, alpha) == beta for g in fam.members[1:]):
            out.append(PointAG(alpha, beta))
    return out


def brute_intersecting(ctx, fam, t):
    for f, g in itertools.combinations(fam.members, 2):
        if intersection_count(ctx, f, g) < t:
            return False
    return True


@pytest.mark.parametrize("q,k", [(5, 2), (7, 2), (3, 3), (4, 2)])
def test_pencil_size_and_membership(q, k):
    ctx = make_field_of_order(q)
    fam = pencil(ctx, 1, 2, k)
    assert len(fam) == q**k
    assert len({f.coeffs for f in fam.members}) == q**k
    for f in fam.members:
        assert evaluate(ctx, f, 1) == 2
    assert brute_intersecting(ctx, fam, 1)
    assert common_point(ctx, fam) == PointAG(1, 2)


def test_pencil_frozen_q3_k1():
    ctx = make_field(3, 1)
    fam = pencil(ctx, 1, 1, 1)
    assert [f.coeffs for f in fam.members] == [(0, 1), (1, 0), (2, 2)]


def test_pencil_common_point_unique_for_k2():
    ctx = make_field(5, 1)
    fam = pencil(ctx, 0, 0, 2)
    assert all_common_points(ctx, fam) == [PointAG(0, 0)]


HM_SIZES = {3: 6, 4: 10, 5: 15, 7: 28, 8: 36, 9: 45, 11: 66}


@pytest.mark.parametrize("q", sorted(HM_SIZES))
def test_hilton_milner_census(q):
    ctx = make_field_of_order(q)
    fam = hilton_milner(ctx, (0, 1), 0, 0)
    assert len(fam) == HM_SIZES[q] == (q * q + q) // 2
    assert brute_intersecting(ctx, fam, 1)
    assert common_point(ctx, fam) is None
    # the line itself leads the family
    assert PolyK(2, (0, 0, 0)) in fam
    # every member passes through the distinguished off-line point
    for f in fam.members:
        if f.coeffs == (0, 0, 0):
            continue
        assert evaluate(ctx, f, 0) == 1


def test_hilton_milner_members_meet_the_line():
    ctx = make_field(5, 1)
    fam = hilton_milner(ctx, (0, 1), 0, 0)
    line = PolyK(2, (0, 0, 0))
    for f in fam.members:
        assert intersection_count(ctx, f, line) >= 1


def test_hilton_milner_rejects_point_on_line():
    ctx = make_field(5, 1)
    with pytest.raises(FamilyError):
        hilton_milner(ctx, (2, 0), 0, 0)


def test_hilton_milner_other_lines():
    ctx = make_field(7, 1)
    fam = hilton_milner(ctx, (3, 5), 2, 1)  # line y = 2x + 1
    assert len(fam) == 28
    assert brute_intersecting(ctx, fam, 1)
    assert common_point(ctx, fam) is None


TANGENT_SIZES = {5: 11, 7: 22, 9: 37, 11: 56, 13: 79}


@pytest.mark.parametrize("q", sorted(TANGENT_SIZES))
def test_tangent_family_census(q):
    ctx = make_field_of_order(q)
    fam = tangent_family(ctx, 1, 0, 0)
    assert len(fam) == TANGENT_SIZES[q] == q * (q - 1) // 2 + 1
    base = PolyK(2, (0, 0, 1))
    assert base in fam
    for g in fam.members:
        if g == base:
            continue
        assert intersection_count(ctx, base, g) == 1
    assert brute_intersecting(ctx, fam, 1)


def test_tangent_family_validation():
    with pytest.raises(FamilyError):
        tangent_family(make_field(2, 2), 1, 0, 0)
    with pytest.raises(FamilyError):
        tangent_family(make_field(5, 1), 0, 1, 0)


def test_family_from_polys_dedups_and_sorts():
    fam = Family.from_polys(2, [PolyK(2, (1, 0, 0)), PolyK(2, (0, 1, 0)), PolyK(2, (1, 0, 0))])
    assert len(fam) == 2
    assert [f.coeffs for f in fam.members] == [(0, 1, 0), (1, 0, 0)]
    with pytest.raises(FamilyError):
        Family.from_polys(2, [])
    with pytest.raises(FamilyError):
        Family.from_polys(2, [PolyK(1, (0, 1))])


def test_is_t_intersecting_witness():
    ctx = make_field(5, 1)
    fam = Family.from_polys(2, [PolyK(2, (0, 0, 1)), PolyK(2, (1, 0, 1))])
    ok, witness = is_t_intersecting(ctx, fam, 1)
    assert not ok
    f, g = witness
    assert intersection_count(ctx, f, g) == 0
    pen = pencil(ctx, 2, 2, 2)
    ok2, w2 = is_t_intersecting(ctx, pen, 1)
    assert ok2 and w2 is None


def test_family_checks_are_per_field():
    # x^2 and the constant 2 meet over F_7 (2 = 3^2) but not over F_5
    fam = Family.from_polys(2, [PolyK(2, (0, 0, 1)), PolyK(2, (2, 0, 0))])
    f7, f5 = make_field(7, 1), make_field(5, 1)
    assert is_t_intersecting(f7, fam, 1)[0]
    assert not is_t_intersecting(f5, fam, 1)[0]
    assert common_point(f7, fam) == PointAG(3, 2)
    assert common_point(f5, fam) is None
    assert all_common_points(f7, fam) == [PointAG(3, 2), PointAG(4, 2)]
    assert all_common_points(f5, fam) == []


def test_extend_unique_drop_one():
    ctx = make_field(5, 1)
    pen = pencil(ctx, 2, 3, 2)
    for drop in (0, 7, 24):
        rest = Family.from_polys(
            2, [f for i, f in enumerate(pen.members) if i != drop]
        )
        res = extend_unique(ctx, rest)
        assert res.unique
        assert res.points == (PointAG(2, 3),)
        assert pencil(ctx, *res.points[0], 2).members == pen.members


def test_common_points_answer_the_pair_check(monkeypatch):
    """t common points give every pair t shared points, so the pairwise
    scan is skipped; with fewer it still runs."""
    class PairScan(Exception):
        pass

    def no_pair_scan(*args):
        raise PairScan

    monkeypatch.setattr("polyfam.families.shared_points", no_pair_scan)
    ctx = make_field(7, 1)
    # x + c (x - 1)(x - 2): every member passes through (1, 1) and (2, 2)
    two = Family.from_polys(2, [PolyK(2, (2 * c % 7, (1 - 3 * c) % 7, c)) for c in range(7)])
    assert all_common_points(ctx, two) == [PointAG(1, 1), PointAG(2, 2)]
    for t in (0, 1, 2):
        assert is_t_intersecting(ctx, two, t) == (True, None)
    with pytest.raises(PairScan):
        is_t_intersecting(ctx, two, 3)
    pen = pencil(ctx, 3, 4, 2)
    assert is_t_intersecting(ctx, pen, 1) == (True, None)
    assert extend_unique(ctx, pen).points == (PointAG(3, 4),)
    hm = hilton_milner(ctx, (0, 1), 0, 0)
    with pytest.raises(PairScan):
        is_t_intersecting(ctx, hm, 1)


def test_common_points_come_in_ascending_x_not_lane_order():
    """Lane j holds x = g^j and the last lane x = 0, so at q = 7 (g = 3)
    the common points of f + c x (x - 2)(x - 3) sit in lane order 3, 2, 0."""
    ctx = make_field(7, 1)
    assert ctx.generator == 3 and (ctx.log[3], ctx.log[2]) == (1, 2)
    f = (1, 2, 3, 0)
    h = (0, 6, 2, 1)  # x (x - 2)(x - 3) = x^3 - 5 x^2 + 6 x
    fam = Family.from_polys(
        3, [PolyK(3, tuple((a + c * b) % 7 for a, b in zip(f, h))) for c in range(7)]
    )
    want = [PointAG(x, evaluate(ctx, PolyK(3, f), x)) for x in (0, 2, 3)]
    assert all_common_points(ctx, fam) == want
    assert common_point(ctx, fam) == want[0]


def test_family_checks_at_2_16():
    """24 members through one point of the 2^16 plane, and the same
    members with one moved off the point."""
    ctx = make_field(2, 16)
    q = ctx.q
    rng = random.Random(20248)
    point = PointAG(rng.randrange(q), rng.randrange(q))
    alpha, beta = point
    members = []
    for _ in range(24):
        c1, c2 = rng.randrange(q), rng.randrange(q)
        c0 = ctx.sub(beta, ctx.add(ctx.mul(c1, alpha), ctx.mul(c2, ctx.mul(alpha, alpha))))
        members.append(PolyK(2, (c0, c1, c2)))
    fam = Family.from_polys(2, members)
    moved = members[:]
    moved[5] = PolyK(2, (ctx.add(members[5].coeffs[0], 1), *members[5].coeffs[1:]))
    moved = Family.from_polys(2, moved)
    assert all_common_points(ctx, fam) == [point]
    assert all_common_points(ctx, moved) == []
    for t in (1, 2, 3):
        assert is_t_intersecting(ctx, fam, t) == pairwise_t_intersecting(ctx, fam, t)
        assert is_t_intersecting(ctx, moved, t) == pairwise_t_intersecting(ctx, moved, t)
    assert is_t_intersecting(ctx, fam, 1) == (True, None)
    res = extend_unique(ctx, fam)
    assert res.points == (point,) and not res.unique  # 24 <= q^(k-1)


def test_extend_unique_small_family_is_ambiguous():
    ctx = make_field(5, 1)
    fam = Family.from_polys(2, [PolyK(2, (0, 0, 1))])
    res = extend_unique(ctx, fam)
    assert not res.unique
    assert len(res.points) == 5  # one pencil per graph point


def test_extend_unique_needs_intersecting_with_common_point():
    ctx = make_field(5, 1)
    bad = Family.from_polys(2, [PolyK(2, (0, 0, 1)), PolyK(2, (1, 0, 1))])
    with pytest.raises(FamilyError):
        extend_unique(ctx, bad)
    hm = hilton_milner(ctx, (0, 1), 0, 0)
    with pytest.raises(FamilyError):
        extend_unique(ctx, hm)


def test_top_coeff_injective():
    ctx = make_field(5, 1)
    pen = pencil(ctx, 0, 0, 2)
    assert top_coeff_injective(ctx, pen, 1)
    with pytest.raises(FamilyError):
        bad = Family.from_polys(2, [PolyK(2, (0, 0, 1)), PolyK(2, (1, 0, 1))])
        top_coeff_injective(ctx, bad, 1)


# first size that clears the threshold, checked exactly on integers
THRESHOLD_EDGES = {4: 15, 5: 25, 16: 243, 25: 604, 169: 28077}


@pytest.mark.parametrize("q", sorted(THRESHOLD_EDGES))
def test_threshold_edges(q):
    edge = THRESHOLD_EDGES[q]
    th = threshold_for(q)
    assert not th.exceeded_by(edge - 1)
    assert th.exceeded_by(edge)
    assert exceeds_threshold(q, edge, 2)
    assert not exceeds_threshold(q, edge - 1, 2)


def test_threshold_float_agrees_with_exact():
    for q in (4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 81, 121, 169):
        th = threshold_for(q)
        bound = th.as_float()
        for size in range(max(0, int(bound) - 3), int(bound) + 4):
            assert th.exceeded_by(size) == (8 * size > 8 * bound + 1e-9) or abs(
                8 * size - 8 * bound
            ) < 1e-6


def test_threshold_only_quadratic_refined():
    with pytest.raises(ValueError):
        threshold_for(5, k=3)
    assert exceeds_threshold(3, 19, 3)  # 27 - 9 = 18
    assert not exceeds_threshold(3, 18, 3)


def test_threshold_needs_k_at_least_one():
    for k in (0, -1):
        with pytest.raises(FamilyError):
            exceeds_threshold(7, 1, k)
    assert exceeds_threshold(7, 7, 1)  # 7 - 1 = 6
    assert not exceeds_threshold(7, 6, 1)


def test_stability_thresholds_frozen_parameters():
    th = threshold_for(25)
    assert (th.M, th.K, th.c) == (8 * 625 + 75, -49, 3)
    th2 = threshold_for(16)
    assert (th2.M, th2.K, th2.c) == (8 * 256 + 16, -31, 1)


def write_family(path, ctx, fam):
    """The family file that `families construct --out` writes."""
    path.write_text("\n".join(family_to_lines(ctx, fam)) + "\n", encoding="utf-8")


def test_family_file_roundtrip(tmp_path):
    ctx = make_field(3, 2)
    fam = pencil(ctx, 4, 7, 2)
    path = tmp_path / "pencil.fam"
    write_family(path, ctx, fam)
    ctx2, fam2, warnings = load_family(str(path))
    assert ctx2 is ctx
    assert fam2.members == fam.members
    assert warnings == []


def test_family_from_lines_parses_comments_and_blanks():
    lines = [
        "# a pencil",
        "5^1",
        "",
        "0,0,1",
        "# middle comment",
        "1,1,0",
        "0,0,1",
    ]
    ctx, fam, warnings = family_from_lines(lines)
    assert ctx.q == 5
    assert len(fam) == 2
    assert len(warnings) == 1 and "duplicate" in warnings[0]


def test_family_from_lines_errors_carry_line_numbers():
    with pytest.raises(FamilyError) as ei:
        family_from_lines(["5^1", "0,0,9"])
    assert "line 2" in str(ei.value)
    with pytest.raises(FamilyError) as ei:
        family_from_lines(["not-a-field", "0,0,1"])
    assert "line 1" in str(ei.value)
    with pytest.raises(FamilyError):
        family_from_lines(["5^1"])
    with pytest.raises(FamilyError) as ei:
        family_from_lines(["5^1", "0,0,1", "0,1"])
    assert "line 3" in str(ei.value)


def test_verify_file_pass_and_fail(tmp_path):
    ctx = make_field(5, 1)
    good = tmp_path / "good.fam"
    write_family(good, ctx, pencil(ctx, 0, 0, 2))
    rep = verify_file(str(good), 1)
    assert rep.verdict == "pass"
    assert rep.counters["size"] == 25
    assert rep.parameters["commonPoint"] == [0, 0]
    assert rep.parameters["familyType"] == "pencil-like"

    hmf = tmp_path / "hm.fam"
    write_family(hmf, ctx, hilton_milner(ctx, (0, 1), 0, 0))
    rep2 = verify_file(str(hmf))
    assert rep2.verdict == "pass"
    assert rep2.parameters["familyType"] == "hm-type"
    assert rep2.parameters["commonPoint"] is None

    bad = tmp_path / "bad.fam"
    bad.write_text("5^1\n0,0,1\n1,0,1\n", encoding="utf-8")
    rep3 = verify_file(str(bad), 1)
    assert rep3.verdict == "fail"
    assert rep3.witnesses


def test_verify_file_checks_t_intersection_once(monkeypatch, tmp_path):
    ctx = make_field(5, 1)
    calls = []
    real = families.is_t_intersecting

    def counted(ctx, fam, t):
        calls.append(t)
        return real(ctx, fam, t)

    monkeypatch.setattr(families, "is_t_intersecting", counted)
    path = tmp_path / "family.fam"
    for fam in (pencil(ctx, 0, 0, 2), hilton_milner(ctx, (0, 1), 0, 0)):
        write_family(path, ctx, fam)
        calls.clear()
        assert verify_file(str(path), 1).parameters["topCoeffInjective"] is True
        assert calls == [1]
    # a direct caller of top_coeff_injective still gets the check
    calls.clear()
    assert top_coeff_injective(ctx, pencil(ctx, 0, 0, 2), 1)
    assert calls == [1]


# -- packed family checks against the evaluate and pairwise loops -------------


def _random_families(ctx, k, seed):
    """Seeded random families: free ones (mostly not intersecting) and
    pencil subsets with a stray member (intersecting, few common points)."""
    rng = random.Random(seed)
    q = ctx.q

    def rand():
        return PolyK(k, tuple(rng.randrange(q) for _ in range(k + 1)))

    out = []
    for size in (1, 2, 3, 5, 9):
        out.append(Family.from_polys(k, [rand() for _ in range(size)]))
        pen = pencil(ctx, rng.randrange(q), rng.randrange(q), k).members
        part = rng.sample(pen, min(size + 1, len(pen)))
        out.append(Family.from_polys(k, part))
        out.append(Family.from_polys(k, part + [rand()]))
    return out


def _cross_check_families():
    cases = []
    for q, k in ((3, 2), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2), (5, 1), (3, 3), (4, 3)):
        ctx = make_field_of_order(q)
        for fam in _random_families(ctx, k, seed=100 * q + k):
            cases.append((ctx, fam))
        cases.append((ctx, pencil(ctx, 1, q - 1, k)))
    for q in (3, 4, 5, 7, 8, 9):
        ctx = make_field_of_order(q)
        cases.append((ctx, hilton_milner(ctx, (0, 1), 0, 0)))
        cases.append((ctx, hilton_milner(ctx, (0, 0), 1, 1)))
    for q in (5, 7, 9):
        ctx = make_field_of_order(q)
        cases.append((ctx, tangent_family(ctx, 1, 0, 0)))
        cases.append((ctx, tangent_family(ctx, 2, 1, 3)))
    return cases


def test_packed_checks_match_evaluate_and_pairwise_loops():
    cases = _cross_check_families()
    seen = {True: 0, False: 0}
    for ctx, fam in cases:
        for t in (0, 1, 2):
            fresh = Family.from_polys(fam.k, fam.members)
            got = is_t_intersecting(ctx, fresh, t)
            assert got == pairwise_t_intersecting(ctx, fam, t), (ctx, fam.members, t)
            seen[got[0]] += 1
        fresh = Family.from_polys(fam.k, fam.members)
        want = evaluated_common_points(ctx, fam)
        assert all_common_points(ctx, fresh) == want, (ctx, fam.members)
        assert common_point(ctx, fresh) == (want[0] if want else None)
    assert seen[True] and seen[False]  # both verdicts and witnesses exercised
