"""Quadratic-character sums, square testing, and the coefficient scans.

Polynomials here are dense coefficient tuples over F_q, low degree first,
always trimmed of trailing zeros; the empty tuple is the zero polynomial.
This representation is separate from polyfun.PolyK because these routines
care about true degree, not a degree bound.

The power-map scan behind `charsum mcconnel` bounds the directions of a
function, so it is directions.mcconnel_scan.
"""

from __future__ import annotations

import itertools
import math
from operator import lshift

from .gf import MAX_FIELD_ORDER, FieldCtx, Fe, FieldError
from .polyfun import PolyK, values_by_log
from .record import FrozenRecord
from .report import WITNESS_CAP, Report, Stopwatch

DensePoly = tuple  # tuple[int, ...], trimmed


# ---------------------------------------------------------------------------
# dense polynomial arithmetic


def poly_trim(coeffs) -> DensePoly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_deg(f: DensePoly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(f) - 1


def poly_scale(ctx: FieldCtx, f: DensePoly, c: Fe) -> DensePoly:
    if c == 0:
        return ()
    return tuple(ctx.mul(a, c) for a in f)


def poly_mul(ctx: FieldCtx, f: DensePoly, g: DensePoly) -> DensePoly:
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return poly_trim(out)


def poly_divmod(ctx: FieldCtx, f: DensePoly, g: DensePoly):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    dg = len(g) - 1
    inv_lead = ctx.inv(g[-1])
    quo = [0] * max(len(f) - dg, 0)
    while len(rem) - 1 >= dg and rem:
        lead = rem[-1]
        if lead:
            c = ctx.mul(lead, inv_lead)
            shift = len(rem) - 1 - dg
            quo[shift] = c
            for j in range(dg + 1):
                rem[shift + j] = ctx.sub(rem[shift + j], ctx.mul(c, g[j]))
        rem.pop()
    return poly_trim(quo), poly_trim(rem)


def poly_monic(ctx: FieldCtx, f: DensePoly) -> DensePoly:
    if not f:
        raise ValueError("zero polynomial has no monic form")
    if f[-1] == 1:
        return f
    return poly_scale(ctx, f, ctx.inv(f[-1]))


def poly_gcd(ctx: FieldCtx, f: DensePoly, g: DensePoly) -> DensePoly:
    """Monic gcd by the Euclidean algorithm."""
    a, b = poly_trim(f), poly_trim(g)
    while b:
        a, b = b, poly_divmod(ctx, a, b)[1]
    if not a:
        return ()
    return poly_monic(ctx, a)


def poly_deriv(ctx: FieldCtx, f: DensePoly) -> DensePoly:
    out = []
    for i in range(1, len(f)):
        out.append(ctx.mul(i % ctx.p, f[i]))
    return poly_trim(out)


def poly_pth_root(ctx: FieldCtx, f: DensePoly) -> DensePoly:
    """g with g^p = f, valid exactly when f' = 0 (all exponents divisible
    by p); coefficientwise p-th roots are Frobenius inverses."""
    p = ctx.p
    if any(c != 0 for i, c in enumerate(f) if i % p):
        raise ValueError("polynomial is not a p-th power composition")
    return poly_trim(
        [ctx.frobenius(f[p * i], ctx.n - 1) for i in range(len(f) // p + 1) if p * i < len(f)]
    )


def poly_radical(ctx: FieldCtx, f: DensePoly) -> DensePoly:
    """Monic product of the distinct irreducible factors of f.

    The usual gcd trick alone misses factors whose multiplicity the
    characteristic divides, so the p-th power part is split off and
    handled by recursion on its p-th root.
    """
    f = poly_trim(f)
    if not f:
        raise ValueError("zero polynomial has no radical")
    if len(f) == 1:
        return (1,)
    fp = poly_deriv(ctx, f)
    if not fp:
        return poly_radical(ctx, poly_pth_root(ctx, poly_monic(ctx, f)))
    g = poly_gcd(ctx, f, fp)
    if poly_deg(g) < 1:
        return poly_monic(ctx, f)  # squarefree
    w = poly_monic(ctx, poly_divmod(ctx, f, g)[0])
    c = g
    while True:
        d = poly_gcd(ctx, c, w)
        if poly_deg(d) < 1:
            break
        c = poly_divmod(ctx, c, d)[0]
    if poly_deg(c) < 1:
        return w
    return poly_mul(ctx, w, poly_radical(ctx, c))


def distinct_root_count(ctx: FieldCtx, f: DensePoly) -> int:
    """Number of distinct roots of f in the algebraic closure: the degree
    of the radical."""
    f = poly_trim(f)
    if not f:
        raise ValueError("zero polynomial")
    return poly_deg(poly_radical(ctx, f))


# ---------------------------------------------------------------------------
# character sums


def char_sum(ctx: FieldCtx, f: DensePoly, a: Fe = 1) -> int:
    """Sum over x of the quadratic character of a*f(x). Odd q."""
    if ctx.q % 2 == 0:
        raise FieldError("character sums need odd q")
    if not f:
        return 0
    # chi(a y) = chi(a) chi(y); x = 0 gives f's constant term
    qc = ctx.qchar_table
    values = values_by_log(ctx, PolyK(len(f) - 1, tuple(f)))
    return qc[a] * (qc[f[0]] + sum(map(qc.__getitem__, values)))


def quad_sum_exact(ctx: FieldCtx, a: Fe, b: Fe, c: Fe) -> int:
    """Closed form of char_sum for f = a x^2 + b x + c with a nonzero:
    (q-1) * chi(a) when b^2 - 4ac = 0, else -chi(a)."""
    if ctx.q % 2 == 0:
        raise FieldError("character sums need odd q")
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    four = 4 % ctx.p
    disc = ctx.sub(ctx.mul(b, b), ctx.mul(four, ctx.mul(a, c)))
    ch = ctx.quadratic_character(a)
    return (ctx.q - 1) * ch if disc == 0 else -ch


class CharSumResult(FrozenRecord):
    _fields = ("sum_value", "distinct_roots", "bound", "within_bound", "is_square_shape")

    def __init__(
        self, sum_value: int, distinct_roots: int, bound: float, within_bound: bool, is_square_shape: bool
    ):
        object.__setattr__(self, "sum_value", sum_value)
        object.__setattr__(self, "distinct_roots", distinct_roots)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "within_bound", within_bound)
        object.__setattr__(self, "is_square_shape", is_square_shape)


def weil_check(ctx: FieldCtx, f: DensePoly, a: Fe = 1) -> CharSumResult:
    """Compare |char_sum(f, a)| against (d-1) * sqrt(q) exactly.

    d counts distinct roots in the closure. The comparison squares both
    sides instead of using floats. is_square_shape flags f equal to a
    perfect square times a constant; the bound is only claimed for
    polynomials that are not of that shape.
    """
    f = poly_trim(f)
    if ctx.q % 2 == 0:
        raise FieldError("character sums need odd q")
    if poly_deg(f) < 1:
        raise ValueError("positive degree required")
    if a == 0:
        raise ValueError("a must be nonzero")
    s = char_sum(ctx, f, a)
    d = distinct_root_count(ctx, f)
    is_sq = perfect_square_test(ctx, poly_monic(ctx, f)) is not None
    within = s * s <= (d - 1) * (d - 1) * ctx.q
    return CharSumResult(s, d, (d - 1) * math.sqrt(ctx.q), within, is_sq)


# ---------------------------------------------------------------------------
# perfect squares


def _root_from_top(ctx: FieldCtx, top, gm: Fe) -> list:
    """The g of degree m = len(top) with leading coefficient gm whose
    square has the coefficients top = f[m:2m] at positions m..2m-1: each
    g[i], from i = m-1 down to 0, is the one value that makes position
    m+i of g*g come out right. gm must be nonzero and q odd."""
    m = len(top)
    g = [0] * (m + 1)
    g[m] = gm
    inv2gm = ctx.inv(ctx.mul(2 % ctx.p, gm))
    for i in range(m - 1, -1, -1):
        s = 0
        for j in range(i + 1, m):
            s = ctx.add(s, ctx.mul(g[j], g[m + i - j]))
        g[i] = ctx.mul(ctx.sub(top[i], s), inv2gm)
    return g


def perfect_square_test(ctx: FieldCtx, f: DensePoly):
    """Return g with g*g = f, or None. Odd q.

    g is found top-down from the leading coefficient and verified by one
    multiplication. Of the two signs, the one whose leading coefficient
    has the smaller element index is returned.
    """
    if ctx.q % 2 == 0:
        raise FieldError("square testing implemented for odd q")
    f = poly_trim(f)
    if not f:
        return ()
    d = poly_deg(f)
    if d % 2:
        return None
    m = d // 2
    gm = ctx.sqrt(f[-1])
    if gm is None:
        return None
    cand = poly_trim(_root_from_top(ctx, f[m:d], gm))
    if poly_mul(ctx, cand, cand) != f:
        return None
    return cand


def square_coefficient_scan(ctx: FieldCtx, frob_k: int = 1) -> Report:
    """Check the shape f = a x^(p^k+1) + d x^(p^k) + b x + c over all q^4
    coefficient tuples: perfect squares with a != 0 must satisfy
    d^(p^k) a = b a^(p^k) and d^(p^k+1) a = c a^(p^k+1); with a = 0 they
    must have b = d = 0.

    The squares of the shape are built, not searched for. p is odd, so
    m = (p^k+1)/2 is at least 2. A square f = g^2 with a != 0 has
    g_m^2 = a, and its coefficients at positions m..2m are (0, ..., 0, d, a),
    which fix g up to sign by the top-down recursion of
    perfect_square_test. So each (a, d) with a a nonzero square gives one
    candidate g, and g^2 has the shape exactly when it vanishes at
    positions 2..p^k-1; then (b, c) = (g^2[1], g^2[0]), and no other
    (b, c) makes a square. With a = 0 the squares are the (q+1)/2
    constants c that are 0 or a square, and they never violate. Every one
    of the q^4 tuples is thereby decided, so `scanned` stays q^4.
    Violations are listed in (a, d, b, c) order, at most WITNESS_CAP."""
    watch = Stopwatch()
    if ctx.q % 2 == 0:
        raise FieldError("square scan needs odd q")
    if frob_k < 1:
        raise ValueError("frob_k must be at least 1")
    # p >= 3, so p^frob_k is past the cap once 2^frob_k is: no huge power
    if frob_k >= MAX_FIELD_ORDER.bit_length() or ctx.p**frob_k > MAX_FIELD_ORDER:
        raise ValueError(f"p^frob_k = {ctx.p}^{frob_k} exceeds the cap {MAX_FIELD_ORDER}")
    q = ctx.q
    pk = ctx.p**frob_k
    zeros = (0,) * ((pk - 1) // 2)  # positions m..2m-2 of the shape
    squares = (q + 1) // 2
    violations = []
    for a in range(1, q):
        gm = ctx.sqrt(a)
        if gm is None:
            continue
        fa = ctx.frobenius(a, frob_k)
        for d in range(q):
            g = _root_from_top(ctx, zeros + (d,), gm)
            f = poly_mul(ctx, g, g)
            if any(f[2:pk]):
                continue
            squares += 1
            b, c = f[1], f[0]
            fd = ctx.frobenius(d, frob_k)
            ok = ctx.mul(fd, a) == ctx.mul(b, fa)
            ok = ok and ctx.mul(ctx.mul(fd, d), a) == ctx.mul(c, ctx.mul(fa, a))
            if not ok and len(violations) < WITNESS_CAP:
                violations.append({"a": a, "d": d, "b": b, "c": c})
    return Report(
        claim_id="square-coeff-relation",
        field_spec=ctx.report_spec_string(),
        parameters={"frobPower": frob_k, "shapeDegree": pk + 1},
        witnesses=violations,
        counters={"scanned": q**4, "squares": squares, "violations": len(violations)},
        wall_time_ms=watch.ms(),
        primary_counter="squares",
    )


def _in_at_most(masks, allowed: int, full: int) -> int:
    """The bits of full that are set in at most `allowed` of the masks.
    at_least[j] holds the bits seen in at least j + 1 masks so far; the
    scan stops once every bit is over the limit."""
    at_least = [0] * (allowed + 1)
    for m in masks:
        for j in range(allowed, 0, -1):
            at_least[j] |= at_least[j - 1] & m
        at_least[0] |= m
        if at_least[-1] == full:
            return 0
    return full ^ at_least[-1]


def _bits(mask: int, width: int):
    """(b, c) for each set bit b width + c of mask, in bit order."""
    while mask:
        low = mask & -mask
        yield divmod(low.bit_length() - 1, width)
        mask ^= low


def _shortcut_violations(ctx: FieldCtx, large_bc, width: int):
    """The large l(x) = a x^(s+1) + d x^s + b x + c with a^s b != d^s a,
    in (a, d, b, c) order. large_bc[i] has bit b width + c set when
    (g^i, 0, b, c) is large. a = g^i r^(s+1) with r = g^k, k the quotient
    of log a by s + 1, so the large (b, c) of (a, 0) are the (b r, c); of
    (a, d) the images of those under x -> x + d/a. Each image is checked
    on its own coefficients."""
    q, s, half_n = ctx.q, ctx.sqrt_q, ctx.n // 2
    add, mul = ctx.add, ctx.mul
    for a in range(1, q):
        k, i = divmod(ctx.log[a], s + 1)
        if not large_bc[i] >> width:  # b = 0 throughout: no violation in this coset
            continue
        r = ctx.exp[k]
        fa = ctx.frobenius(a, half_n)
        at_d0 = [(mul(b, r), c) for b, c in _bits(large_bc[i], width)]
        for d in range(q):
            t = ctx.div(d, a)
            at_s, at_s1 = mul(a, ctx.pow(t, s)), mul(a, ctx.pow(t, s + 1))
            rhs = mul(ctx.frobenius(d, half_n), a)
            for b, c in sorted((add(b, at_s), add(add(c, mul(b, t)), at_s1)) for b, c in at_d0):
                if mul(fa, b) != rhs:
                    yield {"a": a, "d": d, "b": b, "c": c}


def shortcut_scan(ctx: FieldCtx) -> Report:
    """For odd square q > 9, decide every l(x) = a x^(s+1) + d x^s + b x + c
    with a != 0 (s = sqrt(q)): whenever l takes square values on more
    than q - s/2 + 1/2 points, assert a^s b = d^s a. Also runs the
    positive control: s0^2 (t + r x)^(s+1) takes only square values.

    The (q-1) q^3 polynomials are decided from (s+1) q^2 representatives.
    A change of variable x -> r x + t (r != 0) only reorders the q points,
    so l and its substitute take the same values and have the same
    nonsquare count, whatever the character table. As
    (x + t)^s = x^s + t^s, x -> x + t maps (a, 0, b, c) to
    (a, a t, b + a t^s, c + b t + a t^(s+1)), and x -> r x maps
    (a, 0, b, c) to (a r^(s+1), 0, b r, c), where r^(s+1) runs over
    F_s^*. So the scan takes d = 0 and one a per coset of F_s^* in F_q^*,
    a = g^i for 0 <= i <= s, g the generator, and each large (b, c) of a
    representative stands for q (s-1) large polynomials. The relation is
    invariant under both maps and reads b = 0 at d = 0, so the images are
    expanded, for the witnesses, only when some large representative has
    b != 0. `scanned` counts the polynomials decided, (q-1) q^3.

    One mask per x holds every (b, c) of one representative a: bit
    b width + c is set when a x^(s+1) + b x + c is a nonsquare, width
    being q rounded up to a multiple of 8, so that a mask is its q rows'
    bytes joined, built in time linear in its length."""
    watch = Stopwatch()
    q = ctx.q
    if q % 2 == 0 or ctx.sqrt_q is None:
        raise FieldError("shortcut scan needs odd square q")
    if q <= 9:
        raise FieldError("shortcut scan needs q > 9")
    s = ctx.sqrt_q
    qc = ctx.qchar_table
    norm = ctx.norm_table
    xs = list(range(q))
    xp_s1 = [ctx.pow(x, s + 1) for x in xs]
    # smallest integer count clearing q - s/2 + 1/2
    min_large = (2 * q - s + 1) // 2 + 1
    allowed_nonsquare = q - min_large

    add = ctx.add
    mul = ctx.mul
    add_rows = [[add(u, v) for v in xs] for u in xs]  # add_rows[u][v] = u + v
    mul_rows = [[mul(u, v) for v in xs] for u in xs]  # mul_rows[u][v] = u v
    nonsquare = [int(v < 0) for v in qc]
    # a mask holds one row of bits c per b, each padded to nbytes whole
    # bytes so that rows join as bytes; nonsq_c[w]: the c with w + c a
    # nonsquare
    nbytes = (q + 7) // 8
    nonsq_c = [sum(map(lshift, map(nonsquare.__getitem__, row), xs)).to_bytes(nbytes, "little") for row in add_rows]
    all_bc = int.from_bytes(((1 << q) - 1).to_bytes(nbytes, "little") * q, "little")
    large_bc = []  # large_bc[i]: the large (b, c) of a = g^i, bit 8 nbytes b + c
    for a in ctx.exp[: s + 1]:
        # the mask of x: row b read at w = a x^(s+1) + b x, the rows
        # joined in b order
        masks = (
            int.from_bytes(b"".join(map(nonsq_c.__getitem__, map(add_rows[ax].__getitem__, bx))), "little")
            for ax, bx in zip(map(mul_rows[a].__getitem__, xp_s1), mul_rows)
        )
        large_bc.append(_in_at_most(masks, allowed_nonsquare, all_bc))
    large = q * (s - 1) * sum(ok.bit_count() for ok in large_bc)
    violations = list(itertools.islice(_shortcut_violations(ctx, large_bc, 8 * nbytes), WITNESS_CAP))

    def control_failures():
        # x -> t + r x is a bijection for r != 0, so (s0, t, r) fails exactly
        # when some y has s0^2 N(y) nonsquare, first at x = min (y - t) / r
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
