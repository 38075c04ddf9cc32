"""Field construction and arithmetic against brute-force oracles."""

import pytest

from polyfam.gf import (
    IDENTICALLY_ZERO,
    FieldError,
    factor_prime_power,
    make_field,
    make_field_of_order,
    parse_field_spec,
)

SMALL_Q = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]


def brute_irreducible(p, coeffs):
    """Trial division over F_p with plain integer tuples."""
    def mul(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
        return out

    def divides(d, f):
        r = list(f)
        while len(r) >= len(d) and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < len(d):
                break
            c = r[-1]
            shift = len(r) - len(d)
            for i, a in enumerate(d):
                r[shift + i] = (r[shift + i] - c * a) % p
        return not any(r)

    n = len(coeffs) - 1
    for deg in range(1, n // 2 + 1):
        for idx in range(p**deg):
            low = []
            v = idx
            for _ in range(deg):
                low.append(v % p)
                v //= p
            if divides(low + [1], coeffs):
                return False
    return True


# default moduli are pinned: changing them silently changes every element
# index, so any drift must be caught here
FROZEN_MODULI = {
    4: (1, 1, 1),
    8: (1, 0, 1, 1),
    9: (1, 0, 1),
    16: (1, 0, 0, 1, 1),
    25: (1, 1, 1),
    27: (1, 0, 2, 1),
}


@pytest.mark.parametrize("q", sorted(FROZEN_MODULI))
def test_default_modulus_frozen_and_irreducible(q):
    ctx = make_field_of_order(q)
    assert ctx.spec.modulus == FROZEN_MODULI[q]
    assert brute_irreducible(ctx.p, ctx.spec.modulus)


@pytest.mark.parametrize("q", sorted(FROZEN_MODULI))
def test_default_modulus_is_lex_smallest(q):
    ctx = make_field_of_order(q)
    p, n = ctx.p, ctx.n
    mod = ctx.spec.modulus
    # every monic tuple strictly below it must be reducible
    for idx in range(p**n):
        low = []
        v = idx
        for _ in range(n):
            low.append(v % p)
            v //= p
        cand = tuple(low) + (1,)
        if cand >= mod:
            continue
        assert not brute_irreducible(p, cand), cand


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms(q):
    ctx = make_field_of_order(q)
    els = list(ctx.elements())
    assert els == list(range(q))
    for x in els:
        assert ctx.add(x, 0) == x
        assert ctx.mul(x, 1) == x
        assert ctx.add(x, ctx.neg(x)) == 0
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1
    # commutativity and associativity on a full sweep for tiny q,
    # a fixed slice otherwise
    probe = els if q <= 9 else els[:6]
    for x in probe:
        for y in probe:
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
            for z in probe:
                assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))
                assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
                assert ctx.mul(x, ctx.add(y, z)) == ctx.add(
                    ctx.mul(x, y), ctx.mul(x, z)
                )


@pytest.mark.parametrize("q", SMALL_Q)
def test_generator_has_full_order(q):
    ctx = make_field_of_order(q)
    g = ctx.generator
    seen = set()
    acc = 1
    for _ in range(q - 1):
        seen.add(acc)
        acc = ctx.mul(acc, g)
    assert acc == 1
    assert len(seen) == q - 1


@pytest.mark.parametrize("q", SMALL_Q)
def test_pow_matches_repeated_mul(q):
    ctx = make_field_of_order(q)
    for x in range(q):
        acc = 1
        for e in range(5):
            assert ctx.pow(x, e) == acc
            acc = ctx.mul(acc, x)
    assert ctx.pow(0, 0) == 1


def test_scalar_embedding():
    # indices below p are the prime subfield and behave like ints mod p
    for q in (9, 25, 8):
        ctx = make_field_of_order(q)
        p = ctx.p
        for a in range(p):
            for b in range(p):
                assert ctx.add(a, b) == (a + b) % p
                assert ctx.mul(a, b) == (a * b) % p


def test_frozen_arithmetic_values():
    c5 = make_field(5, 1)
    assert c5.div(3, 2) == 4
    assert c5.quadratic_character(4) == 1
    assert c5.quadratic_character(2) == -1
    assert c5.quadratic_character(0) == 0
    c4 = make_field(2, 2)
    assert c4.trace(1) == 0
    assert c4.trace(2) == 1
    c9 = make_field(3, 2)
    assert c9.trace(1) == 2
    assert c9.norm_to_subfield(c9.generator) != 0


@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_trace_properties(q):
    ctx = make_field_of_order(q)
    p = ctx.p
    for x in range(q):
        assert 0 <= ctx.trace(x) < p
        # additivity
        for y in range(0, q, 3):
            assert ctx.trace(ctx.add(x, y)) == (ctx.trace(x) + ctx.trace(y)) % p
        # frobenius invariance
        assert ctx.trace(ctx.frobenius(x)) == ctx.trace(x)
    # trace is onto and balanced: q/p preimages per value
    from collections import Counter

    counts = Counter(ctx.trace(x) for x in range(q))
    assert all(counts[v] == q // p for v in range(p))


@pytest.mark.parametrize("q", [4, 9, 16, 25])
def test_norm_properties(q):
    ctx = make_field_of_order(q)
    s = ctx.sqrt_q
    assert s * s == q
    for x in range(q):
        nx = ctx.norm_to_subfield(x)
        assert nx == ctx.pow(x, s + 1)
        # the norm lands in the subfield: fixed by frobenius^(n/2)
        assert ctx.frobenius(nx, ctx.n // 2) == nx
    ones = [x for x in range(q) if ctx.norm_to_subfield(x) == 1]
    assert len(ones) == s + 1


def test_norm_frozen_q9():
    c9 = make_field(3, 2)
    ones = [x for x in range(9) if c9.norm_to_subfield(x) == 1]
    assert len(ones) == 4


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_quadratic_character_multiplicative(q):
    ctx = make_field_of_order(q)
    psi = ctx.quadratic_character
    squares = {ctx.mul(x, x) for x in range(1, q)}
    assert len(squares) == (q - 1) // 2
    for x in range(q):
        assert psi(x) == (0 if x == 0 else (1 if x in squares else -1))
        for y in range(q):
            if x and y:
                assert psi(ctx.mul(x, y)) == psi(x) * psi(y)


@pytest.mark.parametrize("q", [3, 5, 9, 13, 25, 4, 8, 16])
def test_sqrt(q):
    ctx = make_field_of_order(q)
    for x in range(q):
        s = ctx.sqrt(x)
        if s is not None:
            assert ctx.mul(s, s) == x
    if q % 2 == 1:
        roots = [x for x in range(q) if ctx.sqrt(x) is not None]
        assert len(roots) == (q + 1) // 2
    else:
        # squaring is a bijection in characteristic two
        assert all(ctx.sqrt(x) is not None for x in range(q))


def brute_quadratic_roots(ctx, a, b, c):
    return frozenset(
        x
        for x in range(ctx.q)
        if ctx.add(a, ctx.add(ctx.mul(b, x), ctx.mul(c, ctx.mul(x, x)))) == 0
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_quadratic_roots_exhaustive(q):
    ctx = make_field_of_order(q)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                got = ctx.quadratic_roots(a, b, c)
                if a == b == c == 0:
                    assert got is IDENTICALLY_ZERO
                    continue
                assert got == brute_quadratic_roots(ctx, a, b, c), (q, a, b, c)


def test_quadratic_roots_frozen():
    c4 = make_field(2, 2)
    assert c4.quadratic_roots(1, 1, 1) == frozenset({2, 3})
    c2 = make_field(2, 1)
    assert c2.quadratic_roots(1, 1, 1) == frozenset()
    c5 = make_field(5, 1)
    assert c5.quadratic_roots(1, 0, 1) == frozenset({2, 3})


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27])
def test_frobenius_is_automorphism(q):
    ctx = make_field_of_order(q)
    for x in range(q):
        assert ctx.frobenius(x) == ctx.pow(x, ctx.p)
        assert ctx.frobenius(x, ctx.n) == x
        for y in range(0, q, 2):
            assert ctx.frobenius(ctx.mul(x, y)) == ctx.mul(
                ctx.frobenius(x), ctx.frobenius(y)
            )
            assert ctx.frobenius(ctx.add(x, y)) == ctx.add(
                ctx.frobenius(x), ctx.frobenius(y)
            )


@pytest.mark.parametrize("p,n", [(2, 1), (5, 1), (2, 4), (3, 2), (3, 3), (17, 2)])
def test_translation_matches_add(p, n):
    ctx = make_field(p, n)
    for c in ctx.elements():
        assert ctx.translation(c) == [ctx.add(c, y) for y in ctx.elements()], c


def test_digit_roundtrip():
    ctx = make_field(3, 3)
    for x in range(27):
        assert ctx.element_from_digits(ctx.digits_of(x)) == x


def test_construction_rejections():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(1, 2)
    with pytest.raises(FieldError):
        make_field(2, 0)
    with pytest.raises(FieldError):
        make_field(2, 17)  # 2^17 exceeds the order cap
    with pytest.raises(FieldError):
        make_field(2, 2, modulus=(0, 1, 1))  # reducible: x^2 + x
    with pytest.raises(FieldError):
        make_field(2, 2, modulus=(1, 1))  # wrong degree
    with pytest.raises(FieldError):
        make_field(3, 2, modulus=(1, 0, 2))  # not monic
    with pytest.raises(FieldError):
        make_field_of_order(12)
    with pytest.raises(FieldError):
        ctx = make_field(5, 1)
        ctx.inv(0)


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(121) == (11, 2)
    with pytest.raises(FieldError):
        factor_prime_power(6)
    with pytest.raises(FieldError):
        factor_prime_power(1)


def test_parse_field_spec():
    assert parse_field_spec("7").q == 7
    assert parse_field_spec("3^2").q == 9
    ctx = parse_field_spec("3^2/2,2,1")
    assert ctx.spec.modulus == (2, 2, 1)
    assert parse_field_spec(ctx.spec_string()).spec == ctx.spec
    for bad in ("", "x", "3^", "4^2", "3^2/1,1", "3^2/1,0,2"):
        with pytest.raises(FieldError):
            parse_field_spec(bad)


def test_spec_strings():
    ctx = make_field(3, 2)
    assert ctx.spec_string() == "3^2/1,0,1"
    assert ctx.short_spec_string() == "3^2"
    assert ctx.report_spec_string() == "3^2"
    other = make_field(3, 2, modulus=(2, 2, 1))
    assert other.report_spec_string() == "3^2/2,2,1"


def test_make_field_caches():
    assert make_field(3, 2) is make_field(3, 2)
    assert make_field_of_order(9) is make_field(3, 2)


def test_even_char_artin_schreier_table():
    # quadratic_roots in characteristic two hits the preimage table; the
    # solvable cases are exactly trace zero
    for q in (4, 8, 16):
        ctx = make_field_of_order(q)
        for u in range(q):
            roots = ctx.quadratic_roots(u, 1, 1)  # x^2 + x + u
            if ctx.trace(u) == 0:
                assert len(roots) == 2
            else:
                assert roots == frozenset()
