"""Bounded-degree polynomials as functions on F_q and their graphs.

A PolyK holds the k+1 coefficients (element indices, low degree first) of
a polynomial of degree at most k. Its graph is the point set
{(x, f(x)) : x in F_q} in the affine plane; two graphs intersect where
the difference polynomial vanishes. Family checks work on packed graph
vectors instead, one int per polynomial: the values_by_log words
f(g^j) in lane j, then f(0) in lane q - 1, 32 bits per lane. Two vectors
compare all q points of two graphs in a few big-int operations.
"""

from __future__ import annotations

import functools
import sys
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from .gf import FieldCtx, Fe, digit_bits


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


def intersection_count(ctx: FieldCtx, f: PolyK, g: PolyK) -> int:
    """Number of x with f(x) = g(x). Equal polynomials give q.

    For k <= 2 the count is the root count of the coefficient differences,
    read from the field's table; larger k counts the zeros of the
    difference over the whole field.
    """
    if f.k != g.k:
        raise ValueError("intersection count needs matching degree bounds")
    if f.k > 2:
        h = difference(ctx, f, g)
        return (h.coeffs[0] == 0) + values_by_log(ctx, h).count(0)
    if f.k == 2:
        f0, f1, f2 = f.coeffs
        g0, g1, g2 = g.coeffs
        sub = ctx.sub
        return ctx.quadratic_root_count(sub(f0, g0), sub(f1, g1), sub(f2, g2))
    return ctx.quadratic_root_count(*map(ctx.sub, f.coeffs, g.coeffs))


# ---------------------------------------------------------------------------
# packed graph vectors: lane j of 32 bits holds f(g^j) for j < q - 1 and
# lane q - 1 holds f(0); the top bit of every lane is a guard that stays 0,
# so lanewise adds never carry across


@functools.lru_cache(maxsize=None)
def lane_masks(q: int) -> tuple[int, int]:
    """(M, H) for q lanes: M holds 2^31 - 1 in every lane, H the guard
    bit of every lane. ((u ^ v) + M) & H keeps a lane's guard bit exactly
    when u and v differ in that lane."""
    ones = ((1 << (32 * q)) - 1) // 0xFFFFFFFF
    return ones * 0x7FFFFFFF, ones << 31


def values_by_log(ctx: FieldCtx, f: PolyK) -> array:
    """[f(g^j) for j below q-1], g = ctx.generator, as an array('I'), by
    big-int arithmetic on digit-lane words with no Python step per entry.

    Each nonzero term c x^i is ctx.lane_exp rotated by log c, read at
    stride i: entry j is c g^(i j). At p = 2 lane words add by XOR; at odd
    p by adding digitwise and taking p off every digit that reached p,
    which the top bit of digit + 2^(b-1) - p marks (b = digit_bits(p)).
    The constant term is broadcast; at odd p the sum is decoded back to
    element indices digit by digit."""
    log, p, n, m = ctx.log, ctx.p, ctx.n, ctx.q - 1
    lanes = ctx.lane_exp
    order = sys.byteorder
    ones = int.from_bytes(array("I", [1]) * m, order)
    c0 = f.coeffs[0]
    acc = lanes[log[c0]] * ones if c0 else 0
    if p != 2:
        b = digit_bits(p)
        bias = ones * sum(((1 << (b - 1)) - p) << (k * b) for k in range(n))
        top = ones * sum(1 << (k * b + b - 1) for k in range(n))
    for i, c in enumerate(f.coeffs[1:], 1):
        if not c:
            continue
        t = log[c]
        r = lanes[t:] + lanes[:t]
        if i > 1:
            # the j with u m <= i j < (u+1) m read r from i j - u m on
            gathered = array("I")
            for u in range(i):
                gathered += r[-(-u * m // i) * i - u * m :: i]
            r = gathered
        term = int.from_bytes(r, order)
        if p == 2:
            acc ^= term
        else:
            s = acc + term
            acc = s - (((s + bias) & top) >> (b - 1)) * p
    if p != 2:
        low = ones * ((1 << b) - 1)
        acc = sum(((acc >> (k * b)) & low) * p**k for k in range(n))
    return array("I", acc.to_bytes(4 * m, order))


def graph_vector(ctx: FieldCtx, f: PolyK) -> int:
    """The graph of f packed into one int: the values_by_log words, then
    f(0) in the last lane, read little-endian."""
    words = values_by_log(ctx, f)
    words.append(f.coeffs[0])
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words, "little")


def shared_points(q: int, v: int, others) -> list[int]:
    """For each graph vector u of others, the number of x at which the
    graphs of v and u agree."""
    m, h = lane_masks(q)
    return [q - (((v ^ u) + m) & h).bit_count() for u in others]


def common_lanes(q: int, vectors) -> int:
    """Guard bits of the lanes in which every vector of the sequence
    agrees with the first one; 0 for an empty sequence."""
    if not vectors:
        return 0
    m, e = lane_masks(q)
    v0 = vectors[0]
    for v in vectors[1:]:
        e &= ~((v0 ^ v) + m)
        if not e:
            break
    return e


def lane_points(ctx: FieldCtx, v: int, lanes: int) -> list[PointAG]:
    """The points (x, f(x)) of graph vector v at the lanes whose guard bit
    is set in `lanes`, in ascending order of x."""
    out = []
    while lanes:
        bit = lanes & -lanes
        j = (bit.bit_length() - 1) >> 5
        x = ctx.exp[j] if j < ctx.q - 1 else 0
        out.append(PointAG(x, v >> (32 * j) & 0x7FFFFFFF))
        lanes ^= bit
    return sorted(out)


def pair_intersects_fast(ctx: FieldCtx, f: PolyK, g: PolyK) -> bool:
    """Existence-only intersection test for k = 2, no root extraction.

    Odd q decides by the quadratic character of the discriminant of the
    difference; even q by the additive trace criterion. Degenerate
    (linear or constant) differences are split out explicitly. It keeps
    to mul/div method calls on purpose: it is the independent oracle that
    intersection_count is checked against, so it shares no log-domain code.
    Past exp/log, which both read, they read different tables: this test
    reads trace_table and qchar_table, the root count its own census of
    z -> -(z^2 + z), taken from exp/log alone. A fault in either table
    shows as a disagreement.
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


def format_poly(f: PolyK) -> str:
    """Comma-separated coefficient indices, low degree first."""
    return ",".join(str(c) for c in f.coeffs)


def check_elements(ctx: FieldCtx, values, text: str) -> tuple[int, ...]:
    """values as a tuple of element indices, or ValueError naming text
    when one lies outside 0..q-1."""
    values = tuple(values)
    if any(not (0 <= v < ctx.q) for v in values):
        raise ValueError(f"element index out of range 0..{ctx.q - 1} in {text!r}")
    return values


def parse_elements(ctx: FieldCtx, text: str) -> tuple[int, ...]:
    """Comma-separated element indices, each checked to lie in 0..q-1."""
    try:
        values = [int(t) for t in text.strip().split(",")]
    except ValueError:
        raise ValueError(f"bad element list {text!r}") from None
    return check_elements(ctx, values, text)


def parse_poly(ctx: FieldCtx, text: str, k: int | None = None) -> PolyK:
    """Inverse of format_poly; k defaults to the token count minus one."""
    coeffs = parse_elements(ctx, text)
    if k is None:
        k = len(coeffs) - 1
    if len(coeffs) != k + 1:
        raise ValueError(f"expected {k + 1} coefficients, got {len(coeffs)}")
    return PolyK(k, coeffs)
