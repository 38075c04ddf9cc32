"""Families of polynomial graphs: constructions and structural checks.

A Family is a deduplicated set of PolyK with one shared degree bound,
kept in canonical order (lexicographic on the coefficient index vector,
low-degree coefficient most significant). Constructions: the pencil of
all polynomials through one point, a Hilton-Milner-style family built by
filtration, and the tangent family of parabolas touching a fixed one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .gf import FieldCtx, Fe, parse_field_spec
from .polyfun import (
    PointAG,
    PolyK,
    common_lanes,
    evaluate,
    format_poly,
    graph_vector,
    intersection_count,
    lane_points,
    parse_poly,
    shared_points,
)
from .report import Report, Stopwatch


class FamilyError(ValueError):
    """A family construction or check was asked outside its domain."""


@dataclass(frozen=True)
class Family:
    k: int
    members: tuple[PolyK, ...]

    @classmethod
    def from_polys(cls, k: int, polys) -> "Family":
        seen = {}
        for f in polys:
            if f.k != k:
                raise FamilyError(f"member degree bound {f.k} != family bound {k}")
            seen[f.coeffs] = f
        if not seen:
            raise FamilyError("a family needs at least one member")
        members = tuple(seen[c] for c in sorted(seen))
        return cls(k, members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, f):
        return f in self.members


def pencil_size(q: int, k: int) -> int:
    """q^k, the number of polynomials of degree at most k through a point."""
    return q**k


def hilton_milner_size(q: int) -> int:
    """(q^2 + q) / 2, the size of the hilton_milner family."""
    return (q * q + q) // 2


def tangent_size(q: int) -> int:
    """q(q - 1) / 2 + 1, the size of the tangent_family at odd q."""
    return q * (q - 1) // 2 + 1


def pencil(ctx: FieldCtx, alpha: Fe, beta: Fe, k: int) -> Family:
    """All q^k polynomials of degree at most k through (alpha, beta):
    the constant coefficient is determined by the k free upper ones."""
    if k < 1:
        raise FamilyError("pencil needs k >= 1")
    q = ctx.q
    powers = [ctx.pow(alpha, i) for i in range(k + 1)]
    out = []
    upper = [0] * k
    while True:
        s = 0
        for i, c in enumerate(upper):
            if c:
                s = ctx.add(s, ctx.mul(c, powers[i + 1]))
        out.append(PolyK(k, (ctx.sub(beta, s), *upper)))
        for i in range(k):
            upper[i] += 1
            if upper[i] < q:
                break
            upper[i] = 0
        else:
            break
    return Family.from_polys(k, out)


def hilton_milner(ctx: FieldCtx, point: PointAG, v: Fe, w: Fe) -> Family:
    """Intersecting family with no common point, k = 2: the line
    y = v x + w, plus every parabola through `point` whose graph meets
    that line. `point` must lie off the line. Built by filtering all q^3
    polynomials. Size comes to (q^2 + q) / 2."""
    alpha, beta = point
    line = PolyK(2, (w, v, 0))
    if evaluate(ctx, line, alpha) == beta:
        raise FamilyError("the special point must lie off the line")
    q = ctx.q
    members = [line]
    alpha2 = ctx.mul(alpha, alpha)
    for c2 in range(q):
        for c1 in range(q):
            # through the point: c0 is forced
            c0 = ctx.sub(beta, ctx.add(ctx.mul(c2, alpha2), ctx.mul(c1, alpha)))
            h = PolyK(2, (c0, c1, c2))
            if intersection_count(ctx, h, line) > 0:
                members.append(h)
    return Family.from_polys(2, members)


def tangent_family(ctx: FieldCtx, A: Fe, B: Fe, C: Fe) -> Family:
    """For odd q: f = A x^2 + B x + C plus every parabola
    a x^2 + b x + C - (B-b)^2 / (4(A-a)) with A - a a nonzero square.
    Each non-f member meets f in exactly one point."""
    if ctx.q % 2 == 0:
        raise FamilyError("tangent family needs odd q")
    if A == 0:
        raise FamilyError("the base parabola needs a nonzero leading coefficient")
    q = ctx.q
    inv4 = ctx.inv(4 % ctx.p)
    members = [PolyK(2, (C, B, A))]
    for s in range(1, q):
        if ctx.quadratic_character(s) != 1:
            continue
        a = ctx.sub(A, s)
        inv_gap = ctx.mul(inv4, ctx.inv(s))  # 1 / (4 (A - a))
        for b in range(q):
            gap = ctx.sub(B, b)
            c = ctx.sub(C, ctx.mul(ctx.mul(gap, gap), inv_gap))
            members.append(PolyK(2, (c, b, a)))
    return Family.from_polys(2, members)


# Family checks meet the same polynomials in many families: the
# pencil-extension claim drops each member of a 25- or 49-member pencil in
# turn and checks the rest, so 64 vectors keep a whole pencil in memory
# (at q = 2^16 they would take 64 x 256 KB, about 16.8 MB).
_member_vector = functools.lru_cache(maxsize=64)(graph_vector)


def _graph_vectors(ctx: FieldCtx, fam: Family) -> list[int]:
    """The members' packed graph vectors (polyfun.graph_vector), in
    member order."""
    return [_member_vector(ctx, f) for f in fam.members]


def is_t_intersecting(ctx: FieldCtx, fam: Family, t: int):
    """(ok, witness): every pair of members shares at least t points.
    witness is the lexicographically least failing pair, or None."""
    if t < 0:
        raise FamilyError("t must be nonnegative")
    vs = _graph_vectors(ctx, fam)
    if common_lanes(ctx.q, vs).bit_count() >= t:
        # t points on every graph are t points shared by every pair
        return True, None
    for i, vi in enumerate(vs):
        for j, shared in enumerate(shared_points(ctx.q, vi, vs[i + 1 :]), i + 1):
            if shared < t:
                return False, (fam.members[i], fam.members[j])
    return True, None


def common_point(ctx: FieldCtx, fam: Family) -> PointAG | None:
    """The lex-least point on every member's graph, or None."""
    points = all_common_points(ctx, fam)
    return points[0] if points else None


def all_common_points(ctx: FieldCtx, fam: Family) -> list[PointAG]:
    """Every point on all members' graphs, in ascending order of x."""
    vs = _graph_vectors(ctx, fam)
    if not vs:
        return []
    return lane_points(ctx, vs[0], common_lanes(ctx.q, vs))


@dataclass(frozen=True)
class ExtensionResult:
    """The common points of a family: the pencil through each of them
    contains it."""

    unique: bool
    points: tuple[PointAG, ...]


def extend_unique(ctx: FieldCtx, fam: Family) -> ExtensionResult:
    """Extend an intersecting family to the pencil(s) through its common
    point(s). A family lies in the pencil of P exactly when P is a common
    point, so the points fix the pencils. More members than q^(k-1) pins
    the pencil down uniquely (two distinct common points can only support
    q^(k-1) polynomials); smaller families get every candidate with
    unique=False."""
    points = all_common_points(ctx, fam)
    if not points:
        # a common point makes the family intersecting; without one, say
        # which pair fails if any does
        ok, witness = is_t_intersecting(ctx, fam, 1)
        if not ok:
            raise FamilyError(f"family is not intersecting: {witness}")
        raise FamilyError("no common point; the family extends to no pencil")
    unique = len(fam) > ctx.q ** (fam.k - 1) and len(points) == 1
    return ExtensionResult(unique, tuple(points))


def top_coeff_injective(ctx: FieldCtx, fam: Family, t: int) -> bool:
    """For a t-intersecting family, whether members are pairwise distinct
    on coefficients t..k (they must be; two members agreeing there differ
    by a polynomial of degree under t, which has under t roots)."""
    ok, witness = is_t_intersecting(ctx, fam, t)
    if not ok:
        raise FamilyError(f"family is not {t}-intersecting: {witness}")
    return _distinct_tails(fam, t)


def _distinct_tails(fam: Family, t: int) -> bool:
    """Whether the members are pairwise distinct on coefficients t..k."""
    tails = [f.coeffs[t:] for f in fam.members]
    return len(set(tails)) == len(tails)


# ---------------------------------------------------------------------------
# stability threshold


@dataclass(frozen=True)
class StabilityThreshold:
    """Exact encoding of the k = 2 size threshold
    q^2 - q sqrt(q)/4 + c q/8 + sqrt(q)/8 with c = 1 for even q, 3 for
    odd q: a family size N exceeds it iff 8N > M + K sqrt(q), with
    M = 8 q^2 + c q and K = 1 - 2q."""

    q: int
    c: int
    M: int
    K: int

    def exceeded_by(self, size: int) -> bool:
        lhs = 8 * size
        if lhs >= self.M:
            return True  # K is negative, so the right side is below M
        gap = self.M - lhs
        return gap * gap < self.K * self.K * self.q

    def as_float(self) -> float:
        return (self.M + self.K * math.sqrt(self.q)) / 8


def threshold_for(q: int, k: int = 2) -> StabilityThreshold:
    if k != 2:
        raise FamilyError("the refined threshold is defined for k = 2")
    c = 1 if q % 2 == 0 else 3
    return StabilityThreshold(q, c, 8 * q * q + c * q, 1 - 2 * q)


def threshold(q: int, k: int = 2) -> int | float:
    """The stability threshold q^k - q^(k-1) for k = 1 or k > 2, or the
    refined k = 2 threshold as a float."""
    if k < 1:
        raise FamilyError(f"the threshold needs k >= 1, got {k}")
    if k == 2:
        return threshold_for(q).as_float()
    return q**k - q ** (k - 1)


def exceeds_threshold(q: int, size: int, k: int = 2) -> bool:
    """Integer-only decision of size > threshold(q, k): the k = 2
    threshold is irrational, so it is decided by its exact encoding."""
    if k == 2:
        return threshold_for(q).exceeded_by(size)
    return size > threshold(q, k)


# ---------------------------------------------------------------------------
# family files: a field spec header, then one polynomial per line as
# comma-separated coefficient indices, low degree first


def family_to_lines(ctx: FieldCtx, fam: Family) -> list[str]:
    return [ctx.spec_string()] + [format_poly(f) for f in fam.members]


def family_from_lines(lines) -> tuple[FieldCtx, Family, list[str]]:
    """Parse a family file. Duplicate polynomial lines are dropped with a
    warning; malformed lines raise with their line number."""
    rows = [ln.strip() for ln in lines]
    rows = [(i + 1, ln) for i, ln in enumerate(rows) if ln and not ln.startswith("#")]
    if not rows:
        raise FamilyError("empty family file")
    try:
        ctx = parse_field_spec(rows[0][1])
    except Exception as e:
        raise FamilyError(f"line {rows[0][0]}: bad field spec ({e})") from None
    if len(rows) < 2:
        raise FamilyError("family file has no polynomials")
    k = rows[1][1].count(",")
    warnings = []
    seen = set()
    polys = []
    for lineno, ln in rows[1:]:
        try:
            f = parse_poly(ctx, ln, k)
        except ValueError as e:
            raise FamilyError(f"line {lineno}: {e}") from None
        if f.coeffs in seen:
            warnings.append(f"line {lineno}: duplicate polynomial dropped")
            continue
        seen.add(f.coeffs)
        polys.append(f)
    return ctx, Family.from_polys(k, polys), warnings


def load_family(path) -> tuple[FieldCtx, Family, list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_lines(fh.readlines())


def verify_file(path, t: int = 1) -> Report:
    """Check a family file: t-intersecting verdict, common point, top
    coefficient injectivity, and an hm-type note for intersecting
    families with no shared point."""
    watch = Stopwatch()
    ctx, fam, warnings = load_family(path)
    ok, witness = is_t_intersecting(ctx, fam, t)
    params: dict = {"t": t, "k": fam.k, "warnings": warnings}
    witnesses: list = []
    if ok:
        cp = common_point(ctx, fam)
        params["commonPoint"] = list(cp) if cp else None
        params["familyType"] = "pencil-like" if cp else "hm-type"
        # top_coeff_injective, without checking t-intersection again
        params["topCoeffInjective"] = _distinct_tails(fam, t)
    else:
        witnesses.append({"pair": [list(witness[0].coeffs), list(witness[1].coeffs)]})
    return Report(
        claim_id="family-verify",
        field_spec=ctx.report_spec_string(),
        parameters=params,
        witnesses=witnesses,
        counters={"size": len(fam)},
        wall_time_ms=watch.ms(),
        primary_counter="size",
    )
