"""Bounded-degree polynomials as functions on F_q and their graphs.

A PolyK holds the k+1 coefficients (element indices, low degree first) of
a polynomial of degree at most k. Its graph is the point set
{(x, f(x)) : x in F_q} in the affine plane; two graphs intersect where
the difference polynomial vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .gf import IDENTICALLY_ZERO, FieldCtx, Fe


class PointAG(NamedTuple):
    """Affine plane point (x, y), both element indices."""

    x: Fe
    y: Fe


@dataclass(frozen=True, slots=True)
class PolyK:
    """Degree bound k plus exactly k+1 coefficients, low degree first.
    Trailing coefficients may be zero; equality is on (k, coeffs)."""

    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"degree bound must be >= 0, got {self.k}")
        if len(self.coeffs) != self.k + 1:
            raise ValueError(
                f"need {self.k + 1} coefficients for k={self.k}, got {len(self.coeffs)}"
            )


def poly(k: int, coeffs) -> PolyK:
    return PolyK(k, tuple(coeffs))


def evaluate(ctx: FieldCtx, f: PolyK, x: Fe) -> Fe:
    """f(x) by Horner's rule."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc


def difference(ctx: FieldCtx, f: PolyK, g: PolyK) -> PolyK:
    if f.k != g.k:
        raise ValueError("difference needs matching degree bounds")
    return PolyK(f.k, tuple(ctx.sub(a, b) for a, b in zip(f.coeffs, g.coeffs)))


def graph_points(ctx: FieldCtx, f: PolyK) -> list[PointAG]:
    return [PointAG(x, evaluate(ctx, f, x)) for x in ctx.elements()]


def intersection_count(ctx: FieldCtx, f: PolyK, g: PolyK) -> int:
    """Number of x with f(x) = g(x). Equal polynomials give q.

    For k <= 2 the count comes from the closed-form root finder on the
    difference; larger k falls back to exhaustive evaluation.
    """
    h = difference(ctx, f, g)
    if f.k <= 2:
        c2 = h.coeffs[2] if f.k == 2 else 0
        roots = ctx.quadratic_roots(h.coeffs[0], h.coeffs[1] if f.k >= 1 else 0, c2)
        if roots is IDENTICALLY_ZERO:
            return ctx.q
        return len(roots)
    return sum(1 for x in ctx.elements() if evaluate(ctx, h, x) == 0)


def pair_intersects_fast(ctx: FieldCtx, f: PolyK, g: PolyK) -> bool:
    """Existence-only intersection test for k = 2, no root extraction.

    Odd q decides by the quadratic character of the discriminant of the
    difference; even q by the additive trace criterion. Degenerate
    (linear or constant) differences are split out explicitly.
    """
    if f.k != 2 or g.k != 2:
        raise ValueError("fast path is defined for k = 2 only")
    if f == g:
        raise ValueError("fast path needs distinct polynomials")
    a = ctx.sub(f.coeffs[0], g.coeffs[0])
    b = ctx.sub(f.coeffs[1], g.coeffs[1])
    c = ctx.sub(f.coeffs[2], g.coeffs[2])
    if c == 0:
        return b != 0
    if ctx.p == 2:
        if b == 0:
            return True
        u = ctx.div(ctx.mul(a, c), ctx.mul(b, b))
        return ctx.trace(u) == 0
    four = 4 % ctx.p
    disc = ctx.sub(ctx.mul(b, b), ctx.mul(four, ctx.mul(a, c)))
    return ctx.quadratic_character(disc) >= 0


def shift_argument(ctx: FieldCtx, f: PolyK, alpha: Fe) -> PolyK:
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


def format_poly(f: PolyK) -> str:
    """Comma-separated coefficient indices, low degree first."""
    return ",".join(str(c) for c in f.coeffs)


def parse_poly(ctx: FieldCtx, text: str, k: int | None = None) -> PolyK:
    """Inverse of format_poly; k defaults to the token count minus one."""
    try:
        coeffs = tuple(int(t) for t in text.strip().split(","))
    except ValueError:
        raise ValueError(f"bad polynomial text {text!r}") from None
    if k is None:
        k = len(coeffs) - 1
    if len(coeffs) != k + 1:
        raise ValueError(f"expected {k + 1} coefficients, got {len(coeffs)}")
    if any(not (0 <= c < ctx.q) for c in coeffs):
        raise ValueError(f"coefficient index out of range in {text!r}")
    return PolyK(k, coeffs)
