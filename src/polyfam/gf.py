"""Finite field construction and arithmetic backed by lookup tables.

A field F_{p^n} is built once into an immutable FieldCtx. The constructor
builds the arithmetic: exp/log, negation and, for odd p, one digitwise
addition table over chunks of base-p digits; for p = 2 addition is XOR.
Every table derived from those (quadratic character, trace, norm, the
digit-lane powers, the quadratic root counts) is built, and checked, on
first use. Elements are plain ints in [0, q): the base-p packing of
the coefficient vector of the residue class, low degree first. Index 0 is
the zero element and indices 0..p-1 are the prime subfield in the obvious
way. All operations are pure functions of (context, operands).

The q-length tables are filled in whole-table passes, not one Python step
per element. In a field of two chunks of digits (see FieldCtx), the powers
of the generator g come in blocks of B, B the least power of two with
B^2 >= q: each block is the one before it times g^B, one list
comprehension over the block through the tables of multiplication by g^B.
The norm and the Frobenius check of the trace are read in exp order, and
the F_p-linear trace is expanded from its values on a basis.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import operator
from array import array

from .record import FrozenRecord

Fe = int  # element index in [0, q)

MAX_FIELD_ORDER = 1 << 16
# the addition table covers chunks of digits with at most this many values
_CHUNK_MAX = 256


def digit_bits(p: int) -> int:
    """Bits per base-p digit in the digit-lane form of an element: 1 at
    p = 2, where digits add by XOR; otherwise enough that 2^(b-1) >= p, so
    the sum of two digits, or a digit plus 2^(b-1) - p, stays in b bits."""
    return 1 if p == 2 else (p - 1).bit_length() + 1


class FieldError(ValueError):
    """Invalid field spec, or an operation outside its domain."""


def _check_order(p: int, n: int) -> None:
    """FieldError unless p is prime, n >= 1 and p^n is within the table cap.

    Trial division stops at the least factor and at isqrt(cap) = 256: a
    composite p within the cap has a factor that small. A p or n past the
    cap is then refused before p^n is formed, so a large prime p or a
    large n costs at most 255 divisions."""
    if p < 2 or any(p % f == 0 for f in range(2, min(math.isqrt(p), math.isqrt(MAX_FIELD_ORDER)) + 1)):
        raise FieldError(f"p must be prime, got {p}")
    if n < 1:
        raise FieldError(f"n must be positive, got {n}")
    # 2^17 is past the cap, so no n over 16 fits
    if p > MAX_FIELD_ORDER or n >= MAX_FIELD_ORDER.bit_length() or p**n > MAX_FIELD_ORDER:
        raise FieldError(f"field order {p}^{n} exceeds the table cap {MAX_FIELD_ORDER}")


def _prime_factors(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        out.append(m)
    return out


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, n) with p prime and q = p^n, or raise FieldError."""
    if q < 2:
        raise FieldError(f"field order must be at least 2, got {q}")
    fs = _prime_factors(q)
    if len(fs) != 1:
        raise FieldError(f"{q} is not a prime power")
    p = fs[0]
    n = 0
    while q > 1:
        q //= p
        n += 1
    return p, n


# ---------------------------------------------------------------------------
# raw coefficient-vector arithmetic used only while building tables


def _vec_mul_mod(a, b, modulus, p):
    # schoolbook product reduced by the monic modulus
    n = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(n + 1):
                prod[d - n + j] = (prod[d - n + j] - c * modulus[j]) % p
    return prod[:n]


def _vec_pow_mod(a, e, modulus, p):
    n = len(modulus) - 1
    r = [0] * n
    r[0] = 1
    base = list(a)
    while e:
        if e & 1:
            r = _vec_mul_mod(r, base, modulus, p)
        base = _vec_mul_mod(base, base, modulus, p)
        e >>= 1
    return r


def _poly_divides(d, f, p):
    # trial division of f by monic d over F_p, True when remainder is zero
    rem = list(f)
    dd = len(d) - 1
    while len(rem) - 1 >= dd:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - dd
            for j in range(dd + 1):
                rem[shift + j] = (rem[shift + j] - lead * d[j]) % p
        rem.pop()
    return all(c == 0 for c in rem)


# ---------------------------------------------------------------------------
# packed-int arithmetic for the modulus and generator searches: one Python
# int per polynomial, so a product or a division step is a few int operations


def _gf2_divides(d: int, f: int) -> bool:
    """Whether d divides f over F_2, both packed with bit i the
    coefficient of x^i: XOR in shifted copies of d until the remainder's
    degree is below d's."""
    dd = d.bit_length()
    while f.bit_length() >= dd:
        f ^= d << (f.bit_length() - dd)
    return f == 0


def _packed_ring(p: int, modulus: tuple[int, ...]):
    """(pack, mul) for F_p[x]/(modulus): pack takes an element index to a
    packed int, mul multiplies two packed residues; 1 packs to 1.

    At p = 2 the index is already packed, bit i the coefficient of x^i,
    and a product is shift-and-XOR, reduced by the modulus as it goes. At
    odd p coefficient i sits at bit i*s (Kronecker packing), s wide enough
    that no digit of a product carries, so a product is one int product.
    Its digits are read back mod p, and the high half is folded in through
    the packed x^k mod modulus for k = n..2n-2. At n = 1 an element is its
    own residue mod p."""
    n = len(modulus) - 1
    if p == 2:
        m = sum(c << i for i, c in enumerate(modulus))

        def mul(a, b):
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a >> n:
                    a ^= m
            return r

        return int, mul
    if n == 1:
        return int, lambda a, b: a * b % p

    # a digit of the folded sum is at most (2n-1)(p-1)^2
    s = ((2 * n - 1) * (p - 1) ** 2).bit_length()
    mask = (1 << s) - 1
    shifts = range(0, s * n, s)
    # x^n, then x^(k+1) = x * x^k: the top digit of x^k wraps round
    # through x^n
    xn = xk = [(-c) % p for c in modulus[:n]]
    folds = []
    for k in range(n, 2 * n - 1):
        folds.append((s * k, sum(c << sh for c, sh in zip(xk, shifts))))
        xk = [(c + xk[-1] * w) % p for c, w in zip([0, *xk[:-1]], xn)]
    low = (1 << s * n) - 1

    def pack(x):
        out = 0
        for sh in shifts:
            x, d = divmod(x, p)
            out |= d << sh
        return out

    def mul(a, b):
        prod = a * b
        acc = prod & low
        for sh, t in folds:
            acc += (prod >> sh & mask) % p * t
        out = 0
        for sh in shifts:
            out |= (acc >> sh & mask) % p << sh
        return out

    return pack, mul


def _packed_pow(x: int, e: int, mul) -> int:
    r = 1
    while e:
        if e & 1:
            r = mul(r, x)
        x = mul(x, x)
        e >>= 1
    return r


@functools.lru_cache(maxsize=None)
def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Whether the monic modulus has no monic factor of degree 1..n/2,
    by trial division, on packed ints at p = 2. Memoized: FieldSpec tests
    again the modulus that default_modulus has just proven irreducible."""
    n = len(modulus) - 1
    if n == 1:
        return True
    if modulus[0] == 0:
        return False
    # the modulus has a nonzero constant term, so a divisor with constant
    # term 0 (a multiple of x) cannot divide it
    if p == 2:
        f = sum(c << i for i, c in enumerate(modulus))
        # the ints 2 .. 2^(n/2+1) - 1 are the monic polynomials of degree
        # 1..n/2, in the order of the loop below; the odd ones have
        # constant term 1
        return not any(_gf2_divides(d, f) for d in range(3, 1 << (n // 2 + 1), 2))
    for deg in range(1, n // 2 + 1):
        for low in range(p**deg):
            if low % p == 0:
                continue
            d = []
            t = low
            for _ in range(deg):
                d.append(t % p)
                t //= p
            d.append(1)
            if _poly_divides(d, modulus, p):
                return False
    return True


@functools.lru_cache(maxsize=None)
def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over F_p,
    coefficient tuples compared low degree first."""
    # past degree 1 a zero constant term leaves the factor x, so the
    # search starts at constant term 1
    first = range(p) if n == 1 else range(1, p)
    for low in itertools.product(first, *[range(p)] * (n - 1)):
        coeffs = (*low, 1)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise FieldError(f"no irreducible of degree {n} over F_{p}")  # unreachable


def _add_table(p: int, c: int) -> list[int]:
    """The flat digitwise addition table over c base-p digits: entry
    x * p^c + y is x + y digit by digit mod p. It is built by rows, whole
    lists at a time: row x of F_p is a slice of range(p) twice over, and
    row x + p^i * d over i+1 digits joins p copies of row x over i digits,
    the j-th shifted by p^i * ((d + j) mod p). Row x over i digits is the
    slice of the table over i digits at x * p^i."""
    base = list(range(p)) * 2
    table = []
    for x in range(p):
        table += base[x : x + p]
    w = p
    for _ in range(c - 1):
        shifts = [w * d for d in range(p)]
        rows = [table[x : x + w] for x in range(0, w * w, w)]
        # the p shifted copies of each row, twice over, so that every d
        # reads its p copies as one slice
        copies = [[[t + s for t in row] for s in shifts] * 2 for row in rows]
        table = []
        for d in range(p):
            for cc in copies:
                for part in cc[d : d + p]:
                    table += part
        w *= p
    return table


class FieldSpec(FrozenRecord):
    """Validated description of F_{p^n}: prime p, degree n, monic modulus
    of degree n given low degree first."""

    _fields = ("p", "n", "modulus")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        _check_order(p, n)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree n, low degree first")
        if any(not (0 <= c < p) for c in modulus):
            raise FieldError("modulus coefficients must be reduced mod p")
        if not _is_irreducible(tuple(modulus), p):
            raise FieldError(f"modulus {modulus} is reducible over F_{p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "modulus", modulus)

    @property
    def q(self) -> int:
        return self.p**self.n


class FieldCtx:
    """Immutable arithmetic context for one finite field.

    One build rule: the constructor builds the arithmetic, and every table
    derived from it is a cached property, built and checked on first use
    and None where it does not apply. The arithmetic is exp/log for a
    fixed generator, the first element index of multiplicative order q-1,
    and at odd p negation and one digitwise addition table over chunks of
    c base-p digits, c the largest with p^c <= 256. For q <= 256 the chunk
    is the whole element and the table is the flat q*q addition table;
    past that an add reads it once per chunk. For p = 2 the digitwise sum
    mod 2 is the XOR of the indices, so add and sub are operator.xor and
    no table is built.

    Multiplication by a fixed element is F_p-linear, so it is tabulated
    per chunk of digits (the chunk maps). A field of two chunks (q > 256,
    p <= 256, except the three-chunk 7^5 and p^3 for 17 <= p <= 37) walks
    the first B powers of g one at a time through the chunk maps of g, B
    the least power of two with B^2 >= q. Each later block of B powers is
    the block before it times g^B: one comprehension per block over the
    chunk maps of g^B, the XOR of the two chunk images at p = 2, one read
    of the flat addition table per chunk of their sum at odd p. Every other
    field walks all q - 1 powers. The log table is one inverse pass.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.n = spec.n
        self.q = spec.q
        q, p, n = self.q, self.p, self.n
        self._pw = [p**i for i in range(n)]

        c = 1
        while c < n and p ** (c + 1) <= _CHUNK_MAX:
            c += 1
        b = p**c
        if p == 2:
            # digits mod 2 add as bits: the instance binding shadows the
            # table-reading methods below
            self.add = self.sub = operator.xor
        elif b > _CHUNK_MAX:
            # F_p with p > 256: its one digit is too wide to tabulate
            self._chunk, self._add = b, None
        else:
            # None marks one chunk: the flat table, read whole
            self._chunk = None if b == q else b
            self._add = _add_table(p, c)

        if p > 2:  # at p = 2 negation is the identity and nothing reads _neg
            self._neg = self._digitwise(0, n, sign=-1)
        self.generator = self._find_generator()
        self.exp, self.log = self._exp_log(c)
        self.sqrt_q = p ** (n // 2) if n % 2 == 0 else None

    # -- construction helpers ------------------------------------------------

    def _pack(self, vec) -> Fe:
        return sum(c * w for c, w in zip(vec, self._pw))

    def _digitwise(self, x: Fe, m: int, sign: int = 1, radix: int = 0) -> list[Fe]:
        """[x + sign * y for y below p^m], digit by digit mod p, in O(p^m)
        list steps: the table for the low i+1 digits is p copies of the
        table for the low i digits, the j-th shifted by digit
        (x_i + sign * j). Digit i of an entry weighs radix^i, p^i when
        radix is 0."""
        p = self.p
        table = [0]
        weight = 1
        for _ in range(m):
            x, d = divmod(x, p)
            shifts = [(d + sign * j) % p * weight for j in range(p)]
            table = [t + s for s in shifts for t in table]
            weight *= radix or p
        return table

    def _chunk_maps(self, hvec, c: int) -> list[list[Fe]]:
        """Multiplication by h (digit vector hvec) is F_p-linear, so it is
        tabulated per chunk of c digits: one table of p^c products per
        chunk, and h x is the sum of the tables' entries at the chunks of x."""
        p = self.p
        mod = list(self.spec.modulus)
        images = [
            self._pack(_vec_mul_mod(hvec, self.digits_of(w), mod, p)) for w in self._pw
        ]
        add = self.add
        maps = []
        for j in range(0, self.n, c):
            table = [0]
            for hw in images[j : j + c]:
                multiples = [0]
                for _ in range(p - 1):
                    multiples.append(add(multiples[-1], hw))
                table = [add(t, m) for m in multiples for t in table]
            maps.append(table)
        return maps

    def _exp_log(self, c: int) -> tuple[list[Fe], list[int | None]]:
        """Powers of the generator and their inverse, with its order checked.

        The powers are walked one at a time through the chunk maps of g.
        A field of two chunks walks only the first B, B the least power of
        two with B^2 >= q; each later block of B is the block before it
        times g^B, in one comprehension through the chunk maps of g^B."""
        q, p = self.q, self.p
        gvec = self.digits_of(self.generator)
        maps = self._chunk_maps(gvec, c)
        add = self.add
        b = p**c

        def times_g(x):
            y = 0
            for m in maps:
                x, v = divmod(x, b)
                y = add(y, m[v])
            return y

        walk = q - 1
        if len(maps) == 2:
            walk = 1
            while walk * walk < q:
                walk *= 2
        exp = [1]
        x = 1
        for _ in range(1, walk):
            x = times_g(x)
            exp.append(x)
        if walk < q - 1:
            hvec = _vec_pow_mod(gvec, walk, list(self.spec.modulus), p)
            lo, hi = self._chunk_maps(hvec, c)
            block = exp
            if p == 2:
                # the product is the XOR of the two chunk images
                low = b - 1
                while len(exp) < q - 1:
                    block = [lo[x & low] ^ hi[x >> c] for x in block]
                    exp += block
            else:
                # the product's chunk i is one read of the flat addition
                # table, at row (chunk i of lo[x % b]) and column (chunk i
                # of hi[x // b])
                table = self._add
                rows0 = [y % b * b for y in lo]
                rows1 = [y // b * b for y in lo]
                cols0 = [y % b for y in hi]
                cols1 = [y // b for y in hi]
                while len(exp) < q - 1:
                    block = [
                        table[rows0[x % b] + cols0[x // b]]
                        + table[rows1[x % b] + cols1[x // b]] * b
                        for x in block
                    ]
                    exp += block
            exp = exp[: q - 1]
        log: list[int | None] = [None] * q
        for i, x in enumerate(exp):
            log[x] = i
        # q - 1 distinct powers leave exactly one index without a log
        if log.count(None) != 1:
            raise FieldError("generator order check failed: a power repeats")
        if times_g(exp[-1]) != 1:
            raise FieldError("generator order check failed: g^(q-1) != 1")
        return exp, log

    def _find_generator(self) -> Fe:
        """The least element index c of order q - 1: c^((q-1)/r) != 1 for
        every prime r dividing q - 1, the powers taken on packed ints."""
        q = self.q
        if q == 2:
            return 1
        cofactors = [(q - 1) // r for r in _prime_factors(q - 1)]
        pack, mul = _packed_ring(self.p, self.spec.modulus)
        # past degree 1 the prime subfield 0..p-1 holds no generator: the
        # order of each of its elements divides p - 1
        for c in range(2 if self.n == 1 else self.p, q):
            x = pack(c)
            if all(_packed_pow(x, e, mul) != 1 for e in cofactors):
                return c
        raise FieldError("no generator found")  # unreachable for true fields

    # -- derived tables: each built, and its check run, on first use ----------

    @functools.cached_property
    def qchar_table(self) -> list[int] | None:
        """The quadratic character at every element; None at even q.
        Checked: exactly (q-1)/2 nonzero elements are squares."""
        if self.q % 2 == 0:
            return None
        qc = [0] + [1 - 2 * (e & 1) for e in self.log[1:]]
        if qc.count(1) != (self.q - 1) // 2:
            raise FieldError("square count check failed")
        return qc

    @functools.cached_property
    def norm_table(self) -> list[Fe] | None:
        """The norm to F_s, s = sqrt(q), at every element; None at odd n.

        N(g^i) = g^(i(s+1)) and q - 1 = (s-1)(s+1), so in exp order the
        norm cycles through sub = [g^(j(s+1)) for j < s-1], the nonzero
        elements of the subfield."""
        s, qm, exp, log = self.sqrt_q, self.q - 1, self.exp, self.log
        if s is None:
            return None
        sub = exp[:: s + 1]
        # the norm is fixed by x -> x^s, the Frobenius of the subfield
        if any(exp[log[y] * s % qm] != y for y in sub):
            raise FieldError("norm landed outside the subfield")
        norm = [0] * self.q
        for x, y in zip(exp, itertools.cycle(sub)):
            norm[x] = y
        return norm

    @functools.cached_property
    def trace_table(self) -> list[int]:
        """The absolute trace to F_p at every element. It is F_p-linear:
        take it on the basis 1, a, .., a^(n-1) from its definition, then
        expand digit by digit. Checked: each basis trace lies in F_p, and
        Tr(x^p) = Tr(x) for every x."""
        p, n, qm, exp = self.p, self.n, self.q - 1, self.exp
        basis_traces = []
        for w in self._pw:
            t = y = w
            for _ in range(n - 1):
                y = self.frobenius(y)
                t = self.add(t, y)
            if t >= p:
                raise FieldError("trace landed outside the prime subfield")
            basis_traces.append(t)
        trace = [0]
        for t in basis_traces:
            trace = [(u + j * t) % p for j in range(p) for u in trace]
        # x -> x^p takes g^i to g^(ip mod (q-1)): read the trace in exp
        # order and at those powers
        pth_logs = map(operator.mod, range(0, p * qm, p), itertools.repeat(qm))
        read = trace.__getitem__
        pth_powers = map(read, map(exp.__getitem__, pth_logs))
        if any(map(operator.ne, pth_powers, map(read, exp))):
            raise FieldError("trace is not invariant under Frobenius")
        return trace

    @functools.cached_property
    def lane_exp(self) -> array:
        """[g^j for j below q-1] in digit-lane form: digit k of an element
        moved to bit k*b, b = digit_bits(p), one 32-bit word per entry."""
        words = array("I")
        assert words.itemsize == 4
        if self.p == 2:
            words.extend(self.exp)
            return words
        lanes = self._digitwise(0, self.n, radix=1 << digit_bits(self.p))
        words.extend(map(lanes.__getitem__, self.exp))
        return words

    # -- arithmetic ----------------------------------------------------------

    def add(self, x: Fe, y: Fe) -> Fe:
        if self._chunk is None:
            return self._add[x * self.q + y]
        b = self._chunk
        table = self._add
        if table is None:
            return (x + y) % b
        # one read per chunk of digits, low chunk first
        s = 0
        w = 1
        while x or y:
            x, u = divmod(x, b)
            y, v = divmod(y, b)
            s += table[u * b + v] * w
            w *= b
        return s

    def sub(self, x: Fe, y: Fe) -> Fe:
        return self.add(x, self._neg[y])

    def mul(self, x: Fe, y: Fe) -> Fe:
        if x == 0 or y == 0:
            return 0
        return self.exp[(self.log[x] + self.log[y]) % (self.q - 1)]

    # -- whole rows: one list of q elements, no Python call per element --------

    def add_row(self, x: Fe) -> list[Fe]:
        """[x + y for y below q]."""
        return self._digitwise(x, self.n)

    def mul_row(self, x: Fe) -> list[Fe]:
        """[x y for y below q]: x g^j = g^(log x + j), so the row reads the
        powers of g rotated by log x at log y."""
        if x == 0:
            return [0] * self.q
        exp, i = self.exp, self.log[x]
        return [0, *map((exp[i:] + exp[:i]).__getitem__, self.log[1:])]

    def inv(self, x: Fe) -> Fe:
        if x == 0:
            raise FieldError("division by zero")
        return self.exp[(-self.log[x]) % (self.q - 1)]

    def div(self, x: Fe, y: Fe) -> Fe:
        return self.mul(x, self.inv(y))

    def pow(self, x: Fe, e: int) -> Fe:
        """x^e for integer e >= 0, with 0^0 = 1."""
        if e < 0:
            raise FieldError("negative exponent; use inv")
        if x == 0:
            return 1 if e == 0 else 0
        return self.exp[(self.log[x] * e) % (self.q - 1)]

    def frobenius(self, x: Fe, j: int = 1) -> Fe:
        """x^(p^j); j = n is the identity."""
        if x == 0:
            return 0
        return self.exp[(self.log[x] * pow(self.p, j, self.q - 1)) % (self.q - 1)]

    def trace(self, x: Fe) -> int:
        """Absolute trace to F_p, returned as an int in [0, p) (which is
        also the element index of that prime-subfield value)."""
        return self.trace_table[x]

    def norm_to_subfield(self, x: Fe) -> Fe:
        """Norm to F_sqrt(q) for even n: x^(sqrt(q)+1). The result index
        lies in the embedded subfield."""
        norm = self.norm_table
        if norm is None:
            raise FieldError("norm to the half-degree subfield needs even n")
        return norm[x]

    def quadratic_character(self, x: Fe) -> int:
        """1 for nonzero squares, -1 for nonsquares, 0 for zero. Odd q."""
        qc = self.qchar_table
        if qc is None:
            raise FieldError("quadratic character is defined for odd q only")
        return qc[x]

    def sqrt(self, x: Fe) -> Fe | None:
        """A square root of x, or None when x is a nonsquare (odd q).
        Even q has a unique root. Of the two odd-q roots the smaller
        element index is returned."""
        if x == 0:
            return 0
        if self.q % 2 == 0:
            return self.exp[(self.log[x] * (self.q // 2)) % (self.q - 1)]
        e = self.log[x]
        if e % 2 == 1:
            return None
        r = self.exp[e // 2]
        return min(r, self._neg[r])

    # -- quadratics ------------------------------------------------------

    @functools.cached_property
    def _roots_by_log(self) -> bytes:
        """Entry j: the number of z in F_q with z^2 + z + g^j = 0, that is,
        how often z -> -(z^2 + z) = -z (z + 1) hits g^j, counted over every
        z outside {0, -1} in log form: log(-1) + log z + log(z + 1). It
        reads neither trace_table nor qchar_table, which the existence test
        pair_intersects_fast decides by."""
        q, p, log = self.q, self.p, self.log
        qm = q - 1
        # log(z + 1) at every z: z + 1 raises the low digit of z, which
        # wraps from p - 1 to 0
        log_next = log[1:] + [None]
        log_next[p - 1 :: p] = log[::p]
        # every z but 0 and -1 (index p - 1), where z (z + 1) = 0
        log_z = log[1 : p - 1] + log[p:]
        log_z1 = log_next[1 : p - 1] + log_next[p:]
        image_logs = map(
            operator.add, map(operator.add, log_z, log_z1), itertools.repeat(log[p - 1])
        )
        hits = collections.Counter(map(operator.mod, image_logs, itertools.repeat(qm)))
        return bytes(map(hits.get, range(qm), itertools.repeat(0)))

    def quadratic_root_count(self, a: Fe, b: Fe = 0, c: Fe = 0) -> int:
        """Number of roots of a + b x + c x^2 in F_q; q for the zero
        polynomial. Omitted coefficients are 0, so a linear or constant
        difference passes its coefficients as they are.

        With a, b, c != 0, x = (b/c) z turns the equation into
        z^2 + z + u = 0, u = ac/b^2, in every characteristic, so the count
        is one read of _roots_by_log at log u."""
        if c == 0:
            if b == 0:
                return self.q if a == 0 else 0
            return 1
        if a == 0:
            # x (b + c x): 0 and -b/c, one root when b = 0
            return 2 if b else 1
        log = self.log
        if b == 0:
            # x^2 = -a/c: squaring is one to one at p = 2; at odd p two
            # roots when -a/c is a square, i.e. has an even log
            if self.p == 2:
                return 1
            return 0 if (log[self._neg[a]] - log[c]) & 1 else 2
        return self._roots_by_log[(log[a] + log[c] - 2 * log[b]) % (self.q - 1)]

    # -- misc ----------------------------------------------------------------

    def digits_of(self, x: Fe) -> tuple[int, ...]:
        out = []
        for _ in range(self.n):
            x, d = divmod(x, self.p)
            out.append(d)
        return tuple(out)

    def spec_string(self) -> str:
        return f"{self.p}^{self.n}/" + ",".join(str(c) for c in self.spec.modulus)

    def short_spec_string(self) -> str:
        return f"{self.p}^{self.n}"

    @functools.cached_property
    def _default_modulus(self) -> bool:
        return self.spec.modulus == default_modulus(self.p, self.n)

    def report_spec_string(self) -> str:
        """Short 'p^n' for the default modulus, the full form otherwise."""
        return self.short_spec_string() if self._default_modulus else self.spec_string()

    def __repr__(self):
        return f"FieldCtx(q={self.q}, modulus={self.spec.modulus})"


@functools.lru_cache(maxsize=None)
def _build(p: int, n: int, modulus: tuple[int, ...]) -> FieldCtx:
    return FieldCtx(FieldSpec(p, n, modulus))


def make_field(p: int, n: int, modulus=None) -> FieldCtx:
    """Build (or fetch from cache) the context for F_{p^n}.

    modulus is a low-degree-first monic coefficient sequence of length
    n+1; omit it to get the lexicographically smallest irreducible.
    """
    _check_order(p, n)
    if modulus is None:
        modulus = default_modulus(p, n)
    return _build(p, n, tuple(modulus))


def make_field_of_order(q: int) -> FieldCtx:
    """make_field from a bare prime-power order, default modulus."""
    p, n = factor_prime_power(q)
    return make_field(p, n)


def parse_field_spec(text: str) -> FieldCtx:
    """Parse 'p^n' or 'p^n/c0,c1,...,cn' (modulus low degree first)."""
    body = text.strip()
    mod = None
    if "/" in body:
        body, mtxt = body.split("/", 1)
        try:
            mod = tuple(int(t) for t in mtxt.split(","))
        except ValueError:
            raise FieldError(f"bad modulus in field spec {text!r}") from None
    if "^" in body:
        parts = body.split("^")
        if len(parts) != 2:
            raise FieldError(f"bad field spec {text!r}")
        try:
            p, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise FieldError(f"bad field spec {text!r}") from None
    else:
        try:
            p, n = int(body), 1
        except ValueError:
            raise FieldError(f"bad field spec {text!r}") from None
    return make_field(p, n, mod)
