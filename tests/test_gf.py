"""Field construction and arithmetic against brute-force oracles."""

import itertools
import random

import pytest

from polyfam.gf import (
    FieldCtx,
    FieldError,
    FieldSpec,
    MAX_FIELD_ORDER,
    _prime_factors,
    _vec_mul_mod,
    _vec_pow_mod,
    default_modulus,
    digit_bits,
    factor_prime_power,
    make_field,
    make_field_of_order,
    parse_field_spec,
)
from polyfam.polyfun import PolyK, values_by_log

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


@pytest.mark.parametrize("p,n", [(2, 1), (5, 1), (2, 16), (3, 10), (251, 2), (7, 5)])
def test_default_modulus_matches_the_full_search(p, n):
    """The search skips constant term 0 past degree 1; the first
    irreducible over every monic tuple is the same."""
    full = next(
        low + (1,)
        for low in itertools.product(range(p), repeat=n)
        if brute_irreducible(p, low + (1,))
    )
    assert default_modulus(p, n) == full


@pytest.mark.parametrize("q", SMALL_Q)
def test_field_axioms(q):
    ctx = make_field_of_order(q)
    els = list(range(ctx.q))
    assert els == list(range(q))
    for x in els:
        assert ctx.add(x, 0) == x
        assert ctx.mul(x, 1) == x
        assert ctx.add(x, ctx.sub(0, x)) == 0
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


def root_census(ctx, b, c):
    """For every a at once, the number of x with a + b x + c x^2 = 0: how
    often -(b x + c x^2) hits a, x over the whole field."""
    counts = [0] * ctx.q
    for x in range(ctx.q):
        counts[ctx.sub(0, ctx.add(ctx.mul(b, x), ctx.mul(c, ctx.mul(x, x))))] += 1
    return counts


@pytest.mark.parametrize("q", [q for q in range(2, 33) if len(_prime_factors(q)) == 1])
def test_quadratic_roots_exhaustive(q):
    """Every (a, b, c) at q <= 32: the root count is the brute-force
    census, and q for the zero polynomial."""
    ctx = make_field_of_order(q)
    for b in range(q):
        for c in range(q):
            census = root_census(ctx, b, c)
            for a in range(q):
                assert ctx.quadratic_root_count(a, b, c) == census[a], (q, a, b, c)
    assert ctx.quadratic_root_count(0) == q


def test_quadratic_roots_frozen():
    c4 = make_field(2, 2)
    assert brute_quadratic_roots(c4, 1, 1, 1) == frozenset({2, 3})
    assert c4.quadratic_root_count(1, 1, 1) == 2
    c2 = make_field(2, 1)
    assert brute_quadratic_roots(c2, 1, 1, 1) == frozenset()
    assert c2.quadratic_root_count(1, 1, 1) == 0
    c5 = make_field(5, 1)
    assert brute_quadratic_roots(c5, 1, 0, 1) == frozenset({2, 3})
    assert c5.quadratic_root_count(1, 0, 1) == 2


def test_root_count_table_is_built_on_first_use():
    """A cold build leaves the census out, so the set-up never pays for
    it; the first count builds it, and later counts read it."""
    ctx = build(2, 16)
    assert "_roots_by_log" not in vars(ctx)
    assert ctx.quadratic_root_count(1, 1, 1) == 2 - 2 * ctx.trace(1)
    table = vars(ctx)["_roots_by_log"]
    assert isinstance(table, bytes) and len(table) == ctx.q - 1
    assert ctx._roots_by_log is table


DERIVED = ("qchar_table", "norm_table", "trace_table", "lane_exp", "_roots_by_log", "_default_modulus")


@pytest.mark.parametrize("pn", [(2, 16), (3, 10)], ids=["2^16", "3^10"])
def test_derived_tables_are_built_on_first_use(pn):
    """A cold build holds none of the derived values; the first method
    that reads one builds it, and later reads return the same object."""
    ctx = build(*pn)
    assert not set(DERIVED) & set(vars(ctx))
    x = ctx.exp[5]
    readers = [
        ("trace_table", lambda: ctx.trace(x)),
        ("lane_exp", lambda: values_by_log(ctx, PolyK(1, (1, 1)))),
        ("_roots_by_log", lambda: ctx.quadratic_root_count(1, 1, 1)),
        ("_default_modulus", ctx.report_spec_string),
        ("norm_table", lambda: ctx.norm_to_subfield(x)),
    ]
    if ctx.q % 2:
        readers.append(("qchar_table", lambda: ctx.quadratic_character(x)))
    for name, read in readers:
        assert name not in vars(ctx), name
        read()
        table = vars(ctx)[name]
        read()
        assert getattr(ctx, name) is table, name
    assert ctx.report_spec_string() == f"{pn[0]}^{pn[1]}"
    if ctx.q % 2 == 0:
        assert ctx.qchar_table is None


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


def test_every_field_fits_digit_lanes_in_32_bits():
    """Arithmetic only: n digits of digit_bits(p) bits fit one 32-bit lane
    word for every p^n up to the table cap; 3^10 is the widest."""
    cap = MAX_FIELD_ORDER
    sieve = bytearray([1]) * (cap + 1)
    widest = (0, None)
    for p in range(2, cap + 1):
        if not sieve[p]:
            continue
        sieve[p * p :: p] = bytes(len(range(p * p, cap + 1, p)))
        n = 1
        while p ** (n + 1) <= cap:
            n += 1
        widest = max(widest, (n * digit_bits(p), (p, n)))
        assert 2 ** (digit_bits(p) - 1) >= p or p == 2, p
    assert widest == (30, (3, 10))


@pytest.mark.parametrize("p,n", [(2, 1), (2, 16), (3, 1), (3, 10), (251, 2), (65521, 1)])
def test_lane_exp_holds_the_digits_of_exp(p, n):
    ctx = make_field(p, n)
    b = digit_bits(p)
    lanes = ctx.lane_exp
    assert lanes.itemsize == 4 and len(lanes) == ctx.q - 1
    for word, e in zip(lanes, ctx.exp):
        assert tuple(word >> (k * b) & ((1 << b) - 1) for k in range(n)) == ctx.digits_of(e)
        assert word >> (n * b) == 0
    assert ctx.lane_exp is lanes


def test_digit_roundtrip():
    ctx = make_field(3, 3)
    for x in range(27):
        assert sum(d * 3**i for i, d in enumerate(ctx.digits_of(x))) == x


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


@pytest.mark.parametrize("p", [0, 1, 4, -3, 17 * 58823529411764705882352941176471])
def test_non_prime_characteristic_is_rejected(p):
    """The last p is 10^33 + 7: the check stops at its factor 17 rather
    than trial-dividing the 32-digit cofactor."""
    with pytest.raises(FieldError, match=f"^p must be prime, got {p}$"):
        make_field(p, 1)


@pytest.mark.parametrize(
    "p,n", [(65537, 1), (2**61 - 1, 1), (2**127 - 1, 2), (2, 17), (3, 10**18), (257, 2)]
)
def test_orders_past_the_cap_are_refused_before_factoring(p, n):
    """A prime p past the cap is not trial-divided to its square root, and
    p^n is not formed for a large n."""
    with pytest.raises(FieldError, match=f"^field order {p}\\^{n} exceeds the table cap {MAX_FIELD_ORDER}$"):
        make_field(p, n)


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
    # in characteristic two x^2 + x + u has two roots when Tr(u) = 0 and
    # none otherwise: the census agrees with the trace it never reads
    for q in (4, 8, 16, 1024):
        ctx = make_field_of_order(q)
        for u in range(q):
            want = 2 if ctx.trace(u) == 0 else 0
            assert ctx.quadratic_root_count(u, 1, 1) == want, (q, u)


# ---------------------------------------------------------------------------
# the digit-by-digit constructor the chunked addition table replaced, kept
# here as the oracle for every table


def digit_add(p, n, x, y):
    """x + y digit by digit mod p, as the old constructor added."""
    out = 0
    for w in (p**i for i in range(n)):
        out += (x // w + y // w) % p * w
    return out


def digit_neg(p, n, x):
    return sum((-(x // w)) % p * w for w in (p**i for i in range(n)))


def digit_field(p, n):
    """Every table of F_{p^n} (default modulus) as the digit-by-digit
    constructor built it: additions digit by digit, powers of the
    generator by schoolbook products, and the trace as the sum of the
    Frobenius conjugates of each element."""
    q = p**n
    mod = list(default_modulus(p, n))
    pw = [p**i for i in range(n)]
    digits = [tuple(x // w % p for w in pw) for x in range(q)]

    def pack(vec):
        return sum(c * w for c, w in zip(vec, pw))

    # negation is the identity at p = 2, and the field keeps no table for it
    out = {"_neg": [digit_neg(p, n, x) for x in range(q)]} if p > 2 else {}

    g = 1
    if q > 2:
        rs = _prime_factors(q - 1)
        g = next(
            c
            for c in range(2, q)
            if all(pack(_vec_pow_mod(digits[c], (q - 1) // r, mod, p)) != 1 for r in rs)
        )
    exp = [1] * (q - 1)
    acc = list(digits[1])
    for i in range(1, q - 1):
        acc = _vec_mul_mod(acc, digits[g], mod, p)
        exp[i] = pack(acc)
    log = [None] * q
    for i, x in enumerate(exp):
        assert log[x] is None
        log[x] = i
    assert pack(_vec_mul_mod(acc, digits[g], mod, p)) == 1

    def mul(x, y):
        return 0 if x == 0 or y == 0 else exp[(log[x] + log[y]) % (q - 1)]

    def frobenius(x, j=1):
        return 0 if x == 0 else exp[log[x] * pow(p, j, q - 1) % (q - 1)]

    trace = []
    for x in range(q):
        t = y = x
        for _ in range(n - 1):
            y = frobenius(y)
            t = digit_add(p, n, t, y)
        assert t < p
        trace.append(t)
    out.update(generator=g, exp=exp, log=log, trace_table=trace)

    out["qchar_table"] = None
    if q % 2:
        out["qchar_table"] = [0] + [1 if log[x] % 2 == 0 else -1 for x in range(1, q)]
    roots = [0] * (q - 1)
    for z in range(q):
        u = digit_neg(p, n, digit_add(p, n, mul(z, z), z))
        if u:
            roots[log[u]] += 1
    out["_roots_by_log"] = bytes(roots)

    out["sqrt_q"] = out["norm_table"] = None
    if n % 2 == 0:
        s = p ** (n // 2)
        out["sqrt_q"] = s
        out["norm_table"] = [0] + [exp[log[x] * (s + 1) % (q - 1)] for x in range(1, q)]
    return out


def prime_powers(limit):
    return [
        (p, n)
        for p in range(2, limit + 1)
        if _prime_factors(p) == [p]
        for n in range(1, limit.bit_length())
        if p**n <= limit
    ]


def field_id(pn):
    return f"{pn[0]}^{pn[1]}"


# every field up to 1024, and the three-chunk fields 7^5, 17^3 and 31^3
ORACLE_FIELDS = prime_powers(1024) + [(2, 12), (7, 5), (17, 3), (31, 3)]


@pytest.mark.parametrize("pn", ORACLE_FIELDS, ids=field_id)
def test_tables_match_the_digit_constructor(pn):
    p, n = pn
    want = digit_field(p, n)
    ctx = FieldCtx(FieldSpec(p, n, default_modulus(p, n)))
    for name, table in want.items():
        assert getattr(ctx, name) == table, name
    # the sums themselves, whether a table or XOR gives them
    if ctx.q <= 256:
        pairs = [(x, y) for x in range(ctx.q) for y in range(ctx.q)]
        assert [ctx.add(x, y) for x, y in pairs] == [digit_add(p, n, x, y) for x, y in pairs]


@pytest.mark.parametrize("n", range(1, 9))
def test_char2_add_sub_neg_are_xor_and_identity(n):
    ctx = make_field(2, n)
    for x in range(ctx.q):
        assert ctx.sub(0, x) == x == digit_neg(2, n, x)
        for y in range(ctx.q):
            want = digit_add(2, n, x, y)
            assert ctx.add(x, y) == ctx.sub(x, y) == want == x ^ y, (x, y)


def test_char2_root_and_negation_tables_match_the_loop_build():
    """At p = 2 the root counts are read in log form from z and z + 1
    and negation is the identity. The loop that tried every z, added
    with the field's own add and counted each z^2 + z, gives the same
    table; digitwise negation is the identity, so the field keeps no
    negation table."""
    for n in range(1, 17):
        ctx = build(2, n)
        q, exp, log = ctx.q, ctx.exp, ctx.log
        roots = [0] * (q - 1)
        for z, zz in enumerate([0] + [exp[2 * e % (q - 1)] for e in log[1:]]):
            u = ctx.add(zz, z)
            if u:
                roots[log[u]] += 1
        assert ctx._roots_by_log == bytes(roots), n
        assert ctx._digitwise(0, n, sign=-1) == list(range(q)), n
        assert not hasattr(ctx, "_neg"), n


@pytest.mark.parametrize("pn", [(2, 12), (3, 10), (251, 2), (2, 16)], ids=field_id)
def test_add_matches_the_digit_oracle(pn):
    p, n = pn
    ctx = make_field(p, n)
    rng = random.Random(20248 + ctx.q)
    for _ in range(20_000):
        x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
        assert ctx.add(x, y) == digit_add(p, n, x, y), (x, y)


# ---------------------------------------------------------------------------
# the walk the block steps replaced, kept as the oracle for the fields the
# benchmark builds: past ORACLE_FIELDS, too large for digit_field


def walk_tables(ctx):
    """exp, log and the tables read from them, one element at a time.

    Each power of g is the one before it times g: one table of products
    per chunk of digits, c digits a chunk with p^c <= 256, and the product
    is the sum of the chunk images. log inverts the walk; qchar and norm
    are read per element through log; the root counts tally -(z^2 + z)
    per element, added with the field's own add; the trace is the sum of
    the Frobenius conjugates of each element."""
    p, n, q = ctx.p, ctx.n, ctx.q
    qm = q - 1
    mod = list(ctx.spec.modulus)
    pw = [p**i for i in range(n)]
    c = 1
    while c < n and p ** (c + 1) <= 256:
        c += 1
    b = p**c
    gvec = ctx.digits_of(ctx.generator)

    def times_g_of(x):
        return sum(d * w for d, w in zip(_vec_mul_mod(gvec, ctx.digits_of(x), mod, p), pw))

    maps = [[times_g_of(v * b**i) for v in range(b)] for i in range((n + c - 1) // c)]

    def times_g(x):
        y = 0
        for m in maps:
            x, v = divmod(x, b)
            y = ctx.add(y, m[v])
        return y

    exp = [1]
    for _ in range(qm - 1):
        exp.append(times_g(exp[-1]))
    assert times_g(exp[-1]) == 1
    log = [None] * q
    for i, x in enumerate(exp):
        assert log[x] is None
        log[x] = i

    out = {"exp": exp, "log": log, "qchar_table": None, "norm_table": None}
    if q % 2:
        out["qchar_table"] = [0] + [1 - 2 * (e & 1) for e in log[1:]]
    if n % 2 == 0:
        s = p ** (n // 2)
        out["norm_table"] = [0] + [exp[e * (s + 1) % qm] for e in log[1:]]
    roots = [0] * qm
    for z in range(1, q):
        u = ctx.sub(0, ctx.add(exp[2 * log[z] % qm], z))
        if u:
            roots[log[u]] += 1
    out["_roots_by_log"] = bytes(roots)
    trace = [0]
    for e in log[1:]:
        t = 0
        for j in range(n):
            t = ctx.add(t, exp[e * p**j % qm])
        trace.append(t)
    out["trace_table"] = trace
    return out


@pytest.mark.parametrize("pn", [(2, 16), (3, 10), (251, 2)], ids=field_id)
def test_big_field_tables_match_the_walk(pn):
    ctx = make_field(*pn)
    for name, table in walk_tables(ctx).items():
        assert getattr(ctx, name) == table, name


# ---------------------------------------------------------------------------
# each construction check fires on a table built wrong


def build(p, n):
    return FieldCtx(FieldSpec(p, n, default_modulus(p, n)))


@pytest.mark.parametrize("pn", [(7, 1), (5, 2), (7, 5), (2, 16)], ids=field_id)
def test_non_primitive_generator_repeats_a_power(monkeypatch, pn):
    # g^3 has order (q-1)/3
    cube = make_field(*pn).exp[3]
    monkeypatch.setattr(FieldCtx, "_find_generator", lambda self: cube)
    with pytest.raises(FieldError, match="a power repeats"):
        build(*pn)


def test_generator_order_closes_through_the_chunk_map(monkeypatch):
    # at q = 3 the powers of 0 are [1, 0], with no repeat: only the
    # product g^(q-1) = 0 shows that 0 is no generator
    monkeypatch.setattr(FieldCtx, "_find_generator", lambda self: 0)
    with pytest.raises(FieldError, match=r"g\^\(q-1\) != 1"):
        build(3, 1)


def corrupt_log(monkeypatch, change):
    real = FieldCtx._exp_log

    def corrupted(self, *args):
        exp, log = real(self, *args)
        return exp, change(list(log))

    monkeypatch.setattr(FieldCtx, "_exp_log", corrupted)


@pytest.mark.parametrize("pn", [(5, 1), (3, 3)], ids=field_id)
def test_square_count_check(monkeypatch, pn):
    q = pn[0] ** pn[1]
    corrupt_log(monkeypatch, lambda log: [None] + [2 * e % (q - 1) for e in log[1:]])
    with pytest.raises(FieldError, match="square count"):
        build(*pn).qchar_table


def swap_logs(log, x, y):
    log[x], log[y] = log[y], log[x]
    return log


@pytest.mark.parametrize("pn", [(2, 4), (3, 2)], ids=field_id)
def test_norm_check(monkeypatch, pn):
    # 1 and g^2 trade logs; both are even, so the square count still holds
    exp = make_field(*pn).exp
    corrupt_log(monkeypatch, lambda log: swap_logs(log, exp[0], exp[2]))
    with pytest.raises(FieldError, match="norm landed outside"):
        build(*pn).norm_table


@pytest.mark.parametrize("pn", [(3, 2), (5, 3)], ids=field_id)
def test_basis_trace_check(monkeypatch, pn):
    # with the identity for Frobenius, Tr(a) = n a, outside F_p for p > n
    monkeypatch.setattr(FieldCtx, "frobenius", lambda self, x, j=1: x)
    with pytest.raises(FieldError, match="outside the prime subfield"):
        build(*pn).trace_table


def test_trace_frobenius_invariance_check(monkeypatch):
    # Frobenius taken as x + 1 on F_4 gives Tr(1) = Tr(a) = 1, both in F_2,
    # so the basis passes; but Tr(a^2) = Tr(a + 1) = 0 differs from Tr(a)
    monkeypatch.setattr(FieldCtx, "frobenius", lambda self, x, j=1: self.add(x, 1))
    with pytest.raises(FieldError, match="not invariant under Frobenius"):
        build(2, 2).trace_table
