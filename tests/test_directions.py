"""Direction sets and the exhaustive affine-or-spanning scan."""

import itertools
import random
import sys

import pytest

from polyfam import directions
from polyfam.gf import make_field, make_field_of_order
from polyfam.directions import (
    additive_span,
    carlitz_scan,
    direction_set,
    is_affine,
    mcconnel_scan,
)


def brute_directions(ctx, values):
    out = set()
    for x in range(ctx.q):
        for y in range(x + 1, ctx.q):
            num = ctx.sub(values[x], values[y])
            out.add(ctx.div(num, ctx.sub(x, y)))
    return out


def brute_span_size(ctx, elems):
    """Grow the additive closure of the prime-field multiples."""
    span = {0}
    frontier = True
    scaled = [ctx.mul(s, e) for e in elems for s in range(ctx.p)]
    while frontier:
        frontier = False
        for a in list(span):
            for b in scaled:
                c = ctx.add(a, b)
                if c not in span:
                    span.add(c)
                    frontier = True
    return len(span)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_direction_set_matches_brute_force(q):
    ctx = make_field_of_order(q)
    rng = random.Random(q)
    tables = [[ctx.mul(x, x) for x in range(q)], [ctx.add(x, 1) for x in range(q)]]
    tables += [[rng.randrange(q) for _ in range(q)] for _ in range(20)]
    for values in tables:
        ds = direction_set(ctx, values)
        assert set(ds.members) == brute_directions(ctx, values)
        assert ctx.p ** ds.span_dim == brute_span_size(ctx, ds.members)


def test_direction_set_frozen_examples():
    c5 = make_field(5, 1)
    ds = direction_set(c5, [c5.mul(x, x) for x in range(5)])
    assert ds.members == frozenset(range(5))
    assert ds.span_dim == 1
    c4 = make_field(2, 2)
    ds4 = direction_set(c4, [c4.mul(x, x) for x in range(4)])
    assert ds4.members == frozenset({1, 2, 3})
    assert ds4.span_dim == 2


def test_direction_set_requires_full_table():
    ctx = make_field(3, 1)
    with pytest.raises(ValueError):
        direction_set(ctx, [0, 1])


@pytest.mark.parametrize("q", [4, 8, 9, 27])
def test_additive_span_dimension(q):
    ctx = make_field_of_order(q)
    assert additive_span(ctx, []) == 0
    assert additive_span(ctx, [0]) == 0
    assert additive_span(ctx, [1]) == 1
    assert additive_span(ctx, list(range(q))) == ctx.n
    # a single nonzero element spans one dimension
    for x in range(1, q):
        assert additive_span(ctx, [x]) == 1


def mask_members(span):
    return [e for e in range(span.bit_length()) if span >> e & 1]


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 81, 125])
def test_mask_span_matches_the_brute_closure(q):
    """Adding seeded random elements one at a time, each mask is the
    span: a subgroup holding every element so far, of the brute-force
    closure's size."""
    ctx = make_field_of_order(q)
    full = (1 << q) - 1
    rng = random.Random(q)
    grew_past_one = False
    for _ in range(4):
        elems = [rng.randrange(q) for _ in range(ctx.n + 2)]
        span = 1
        for i, x in enumerate(elems):
            before = span
            span = directions._span_with(ctx, span, x)
            members = mask_members(span)
            assert len(members) == brute_span_size(ctx, elems[: i + 1])
            assert ctx.p ** additive_span(ctx, elems[: i + 1]) == len(members)
            assert all(span >> e & 1 for e in elems[: i + 1])
            assert all(span >> ctx.add(a, b) & 1 for a in members for b in members)
            grew_past_one |= before.bit_count() >= ctx.p and span != before
            # an element already in the span leaves it as it is
            inside = ctx.add(ctx.mul(rng.randrange(ctx.p), x), rng.choice(members))
            assert directions._span_with(ctx, span, inside) == span
    # odd p too: some step grows a span of dimension 1 or more
    assert grew_past_one
    # the step from dimension n - 1 to the whole field
    hyperplane = 1
    for x in range(q):
        grown = directions._span_with(ctx, hyperplane, x)
        if grown != full:
            hyperplane = grown
    assert hyperplane.bit_count() * ctx.p == q
    outside = next(x for x in range(q) if not hyperplane >> x & 1)
    assert directions._span_with(ctx, hyperplane, outside) == full
    assert additive_span(ctx, mask_members(hyperplane)) == ctx.n - 1
    assert additive_span(ctx, mask_members(hyperplane) + [outside]) == ctx.n


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_is_affine(q):
    ctx = make_field_of_order(q)
    for a in range(q):
        for b in range(q):
            table = [ctx.add(ctx.mul(a, x), b) for x in range(q)]
            assert is_affine(ctx, table)
    if q > 2:
        square = [ctx.mul(x, x) for x in range(q)]
        assert not is_affine(ctx, square)


def naive_scan(ctx):
    """Every function table, no pruning: the oracle for carlitz_scan."""
    q = ctx.q
    affine = 0
    candidates = 0
    bad = []
    for values in itertools.product(range(q), repeat=q):
        ds = direction_set(ctx, list(values))
        if ds.span_dim < ctx.n:
            candidates += 1
            if is_affine(ctx, list(values)):
                affine += 1
            else:
                bad.append(values)
    return affine, candidates, bad


def unreduced_walk(ctx):
    """carlitz_scan's odometer walk over all q^q tables, sigma(0) free:
    the oracle for its sigma(0) = 0 reduction. Returns affine,
    candidates and nodes visited."""
    q = ctx.q
    affine = candidates = nodes = 0
    vals = [0] * q

    def walk(m, span):
        nonlocal affine, candidates, nodes
        for v in range(q):
            nodes += 1
            vals[m] = v
            child = span
            for j in range(m):
                child = directions._span_with(ctx, child, ctx.div(ctx.sub(v, vals[j]), ctx.sub(m, j)))
            if child == (1 << q) - 1:
                continue
            if m + 1 < q:
                walk(m + 1, child)
            else:
                candidates += 1
                affine += is_affine(ctx, vals)

    walk(0, 1)
    return affine, candidates, nodes


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (5, 1), (2, 3), (3, 2)])
def test_carlitz_scan_matches_the_unreduced_walk(p, n):
    ctx = make_field(p, n)
    affine, candidates, nodes = unreduced_walk(ctx)
    rep = carlitz_scan(ctx)
    assert rep.counters["affine"] == affine
    assert rep.counters["candidates"] == candidates
    # every node of the reduced walk stands for its q translates
    assert nodes == ctx.q * rep.counters["nodesVisited"]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_carlitz_scan_matches_naive(q):
    ctx = make_field_of_order(q)
    affine, candidates, bad = naive_scan(ctx)
    assert not bad
    rep = carlitz_scan(ctx)
    # the classification needs q > 2, so q = 2 counts but does not judge
    assert rep.verdict == ("inapplicable" if q == 2 else "pass")
    assert rep.counters["affine"] == affine
    assert rep.counters["candidates"] == candidates
    assert rep.counters["scanned"] == q**q
    # over a prime field only constants have a proper span; with n >= 2
    # every affine map does, so the census is q^2
    assert affine == (q * q if ctx.n >= 2 else q)


def test_carlitz_scan_frozen_q4():
    rep = carlitz_scan(make_field(2, 2))
    assert rep.counters == {
        "scanned": 256,
        "affine": 16,
        "candidates": 16,
        "nodesVisited": 37,
    }


def test_carlitz_scan_q2_vacuous_flag():
    rep = carlitz_scan(make_field(2, 1))
    assert rep.verdict == "inapplicable"
    assert "hypothesisNote" in rep.parameters


def test_carlitz_scan_q8_prunes_hard():
    rep = carlitz_scan(make_field(2, 3))
    assert rep.verdict == "pass"
    assert rep.counters["affine"] == 64
    assert rep.counters["scanned"] == 8**8
    # the whole point of the span pruning: visits stay tiny
    assert rep.counters["nodesVisited"] < 10_000


def test_carlitz_scan_frozen_q9():
    rep = carlitz_scan(make_field(3, 2))
    assert rep.verdict == "pass"
    assert rep.counters == {
        "scanned": 9**9,
        "affine": 81,
        "candidates": 81,
        "nodesVisited": 793,
    }


def test_carlitz_scan_budget_exceeded():
    rep = carlitz_scan(make_field(3, 2), node_budget=500)
    assert rep.verdict == "budget-exceeded"
    assert rep.parameters["nodeBudget"] == 500
    assert rep.counters["nodesVisited"] == 501
    assert "scanned" not in rep.counters
    assert rep.counters["affine"] <= rep.counters["candidates"] < 81
    # partial counts are weighted by the q translates too
    assert rep.counters["candidates"] % 9 == 0
    # a budget the scan fits in changes nothing
    assert carlitz_scan(make_field(3, 2), node_budget=793).verdict == "pass"


def test_carlitz_scan_walks_past_the_recursion_limit():
    """At 2^10 the all-zero prefix never gains a direction, so the first
    leaf lies q = 1024 positions deep, past the interpreter's recursion
    limit: a walk that recursed once per position raised RecursionError
    here instead of reporting the spent budget."""
    ctx = make_field(2, 10)
    assert ctx.q > sys.getrecursionlimit()
    rep = carlitz_scan(ctx, node_budget=2000)
    assert rep.verdict == "budget-exceeded"
    assert rep.parameters["nodeBudget"] == 2000
    # the first leaf, the constant 0, and its q translates
    assert rep.counters == {"affine": 1024, "candidates": 1024, "nodesVisited": 2001}
    assert rep.witnesses == []


def test_carlitz_scan_setup_is_linear_in_q(monkeypatch):
    """The scan reads one q-entry inverse table: a short budget at 2^10
    inverts at most q elements, and at 2^16 it stops after 101 nodes
    where a q-by-q table would first fill 2^32 entries."""
    ctx = make_field(2, 10)
    calls = 0
    field_inv = ctx.inv

    def counting_inv(x):
        nonlocal calls
        calls += 1
        return field_inv(x)

    monkeypatch.setattr(ctx, "inv", counting_inv)
    assert carlitz_scan(ctx, node_budget=100).verdict == "budget-exceeded"
    assert 0 < calls <= ctx.q
    rep = carlitz_scan(make_field(2, 16), node_budget=100)
    assert rep.verdict == "budget-exceeded"
    assert rep.counters == {"affine": 0, "candidates": 0, "nodesVisited": 101}


def test_carlitz_scan_writes_progress_every_interval(monkeypatch, capsys):
    monkeypatch.setattr(directions, "PROGRESS_EVERY", 200)
    rep = carlitz_scan(make_field(3, 2))  # 793 nodes
    assert rep.counters["nodesVisited"] == 793
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" nodes, ")[0] for line in lines] == [f"direction-span-affine 3^2: {n}" for n in (200, 400, 600)]
    assert all(line.endswith(" nodes/s") for line in lines)
    monkeypatch.setattr(directions, "PROGRESS_EVERY", 10**6)
    carlitz_scan(make_field(3, 2))
    assert capsys.readouterr().err == ""


def test_mcconnel_scan_writes_progress_every_interval(monkeypatch, capsys):
    # 226 nodes at 2^4, delta 5: the fixed F(0) = 0 and F(1) = 1 count too
    monkeypatch.setattr(directions, "PROGRESS_EVERY", 50)
    assert mcconnel_scan(make_field(2, 4), 5) == [tuple(range(16))]
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(" nodes, ")[0] for line in lines] == [
        f"power-map-class 2^4 delta 5: {n}" for n in (50, 100, 150, 200)
    ]
    assert all(line.endswith(" nodes/s") for line in lines)
    assert mcconnel_scan(make_field(2, 4), 5, node_budget=225) is None
    assert mcconnel_scan(make_field(2, 4), 5, node_budget=226) is not None
    capsys.readouterr()
    monkeypatch.setattr(directions, "PROGRESS_EVERY", 10**6)
    mcconnel_scan(make_field(2, 4), 5)
    assert capsys.readouterr().err == ""


def test_carlitz_scan_counterexample_outlives_the_budget(monkeypatch):
    # with every candidate taken as non-affine, the first leaf is a
    # counterexample, and a scan stopped afterwards still fails
    monkeypatch.setattr(directions, "is_affine", lambda ctx, values: False)
    rep = carlitz_scan(make_field(3, 2), node_budget=500)
    assert rep.verdict == "fail"
    assert rep.witnesses[0] == {"values": [0] * 9}
    assert rep.parameters["nodeBudget"] == 500
