"""Intersection graphs, exact cliques, and the randomized probes."""

import gc
import inspect
import itertools
import math
import os
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction

import pytest

from polyfam import search
from polyfam.directions import carlitz_scan, mcconnel_scan
from polyfam.families import Family, common_point, exceeds_threshold, hilton_milner, pencil
from polyfam.gf import make_field, make_field_of_order
from polyfam.polyfun import evaluate, intersection_count
from polyfam.report import DEFAULT_NODE_BUDGET, WITNESS_CAP
from polyfam.search import (
    CliqueResult,
    IntersectionGraph,
    _nth_set_bit,
    build_graph,
    ekr_oracle,
    graph_dump_lines,
    max_clique,
    rootable_count,
    sam0_check,
    stability_probe,
    vertex_to_poly,
)


def poly_to_vertex(q, f):
    """Inverse oracle of vertex_to_poly: the base-q packing of f's
    coefficients, low degree least significant."""
    v = 0
    for c in reversed(f.coeffs):
        v = v * q + c
    return v


def family_from_vertices(q, k, vertices):
    """The family whose members are the polynomials of the vertices."""
    return Family.from_polys(k, [vertex_to_poly(q, k, v) for v in vertices])


def all_points(q):
    return [(x, y) for x in range(q) for y in range(q)]


def y0_masks(ctx):
    """The probe's through masks: the k = 2 pencils through each (x, 0)."""
    return search._through_masks(ctx, 2, [(x, 0) for x in range(ctx.q)])


@pytest.mark.parametrize("q,k", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 2)])
def test_vertex_poly_roundtrip(q, k):
    for v in range(q ** (k + 1)):
        f = vertex_to_poly(q, k, v)
        assert poly_to_vertex(q, f) == v
        assert f.k == k


@pytest.mark.parametrize(
    "q,k,t,predicate",
    [
        (2, 1, 1, "min_shared"),
        (3, 1, 1, "min_shared"),
        (2, 2, 1, "min_shared"),
        (3, 2, 1, "min_shared"),
        (3, 2, 2, "min_shared"),
        (4, 2, 1, "min_shared"),
        (3, 2, 0, "max_shared"),
        (4, 2, 1, "max_shared"),
        (2, 2, 0, "max_shared"),
    ],
)
def test_build_graph_matches_pairwise_counts(q, k, t, predicate):
    ctx = make_field_of_order(q)
    g = build_graph(ctx, k, t, predicate)
    nv = q ** (k + 1)
    assert g.n_vertices == nv
    edges = 0
    for u in range(nv):
        fu = vertex_to_poly(q, k, u)
        for v in range(nv):
            fv = vertex_to_poly(q, k, v)
            if u == v:
                want = False
            else:
                c = intersection_count(ctx, fu, fv)
                want = c >= t if predicate == "min_shared" else c <= t
            assert bool(g.adj[u] >> v & 1) == want, (u, v)
            edges += want
    assert g.edge_count == edges // 2
    # symmetry comes with the census above; spot the degree helper too
    assert sum(g.adj[u].bit_count() for u in range(nv)) == 2 * g.edge_count


def test_build_graph_rejects_bad_input():
    ctx = make_field(2, 1)
    with pytest.raises(ValueError):
        build_graph(ctx, 1, 1, "weird")
    with pytest.raises(ValueError):
        build_graph(make_field(2, 4), 3, 1, "min_shared")  # 16^4 vertices


def digit_add_graph(ctx, k, t, predicate):
    """Adjacency by the loop build_graph used before its translate kernel:
    for every vertex u and eligible difference h, add the coefficient
    digits of u and h in the field."""
    q = ctx.q
    nv = q ** (k + 1)
    zero = vertex_to_poly(q, k, 0)
    good = []
    for h in range(1, nv):
        count = intersection_count(ctx, vertex_to_poly(q, k, h), zero)
        if count >= t if predicate == "min_shared" else count <= t:
            good.append(vertex_to_poly(q, k, h).coeffs)
    adj = []
    for u in range(nv):
        du = vertex_to_poly(q, k, u).coeffs
        mask = 0
        for hd in good:
            v = 0
            for i in reversed(range(k + 1)):
                v = v * q + ctx.add(du[i], hd[i])
            mask |= 1 << v
        adj.append(mask)
    return adj


@pytest.mark.parametrize(
    "p,n,k",
    [
        (2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1),
        (2, 3, 2), (3, 1, 1), (3, 1, 2), (3, 1, 3), (3, 2, 1), (3, 2, 2), (3, 3, 1),
        (5, 1, 1), (5, 1, 2), (5, 2, 1), (7, 1, 1), (7, 1, 2), (2, 2, 0), (3, 1, 0),
        (5, 1, 0),
    ],
)
def test_build_graph_matches_digit_add_loop(p, n, k):
    ctx = make_field(p, n)
    q = ctx.q
    for predicate, t in sorted(
        {("min_shared", 1), ("min_shared", k), ("max_shared", 0), ("max_shared", k - 1)}
    ):
        g = build_graph(ctx, k, t, predicate)
        want = digit_add_graph(ctx, k, t, predicate)
        assert g.adj == want, (predicate, t)
        assert g.edge_count == sum(m.bit_count() for m in want) // 2
        assert g.n_vertices == q ** (k + 1)


def test_build_graph_q16_k2():
    ctx = make_field(2, 4)
    g = build_graph(ctx, 2, 1)
    assert g.n_vertices == 4096
    assert g.edge_count == 4669440
    assert sum(m.bit_count() for m in g.adj) == 2 * g.edge_count
    rng = random.Random(16)
    for _ in range(2000):
        u, v = rng.randrange(4096), rng.randrange(4096)
        want = u != v and intersection_count(
            ctx, vertex_to_poly(16, 2, u), vertex_to_poly(16, 2, v)
        ) >= 1
        assert bool(g.adj[u] >> v & 1) == want, (u, v)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_build_graph_row0_matches_pointwise_roots(q, k):
    """Row 0 against root counts taken by evaluating each difference at
    every x, which reads no root-count table."""
    ctx = make_field_of_order(q)
    roots = [
        sum(evaluate(ctx, vertex_to_poly(q, k, h), x) == 0 for x in range(q))
        for h in range(q ** (k + 1))
    ]
    for predicate in ("min_shared", "max_shared"):
        for t in range(k + 1):
            row0 = build_graph(ctx, k, t, predicate).adj[0]
            assert not row0 & 1
            for h in range(1, q ** (k + 1)):
                want = roots[h] >= t if predicate == "min_shared" else roots[h] <= t
                assert bool(row0 >> h & 1) == want, (predicate, t, h)


def test_build_graph_counts_no_intersections_at_k_le_2(monkeypatch):
    """Rows 0 at k <= 2 come from the root-count table alone; above k = 2
    each difference is one intersection_count, which the patch sees."""
    calls = Counter()

    def counting(ctx, f, g):
        calls[f.k] += 1
        return intersection_count(ctx, f, g)

    monkeypatch.setattr(search, "intersection_count", counting)
    monkeypatch.setattr("polyfam.polyfun.intersection_count", counting)
    for q, k in [(16, 2), (9, 2), (7, 1), (4, 0)]:
        for predicate, t in [("min_shared", 1), ("max_shared", k)]:
            build_graph(make_field_of_order(q), k, t, predicate)
    assert not calls
    build_graph(make_field(2, 1), 3, 1)
    assert calls == {3: 15}


@pytest.mark.parametrize(
    "call",
    [
        lambda g: max_clique(g),
        lambda g: max_clique(g, floor=8, through=search._through_masks(make_field(3, 1), 2, all_points(3))),
        lambda g: ekr_oracle(make_field(3, 1), 2),
        lambda g: mcconnel_scan(make_field(5, 1), 2),
        lambda g: carlitz_scan(make_field(3, 1)),
    ],
    ids=["max_clique", "enumerate", "ekr_oracle", "mcconnel_scan", "carlitz_scan"],
)
def test_recursive_searches_leave_no_cycles(call):
    """A recursive closure names itself through its cell. Unless the
    search clears that name, the closure and everything it holds (the
    whole adjacency list, for max_clique) lives until a full collection."""
    g = build_graph(make_field(3, 1), 2, 1)
    make_field(5, 1)
    gc.collect()
    gc.disable()
    try:
        call(g)
        assert gc.collect() == 0
    finally:
        gc.enable()


def brute_max_clique(adj, nv):
    best = 0
    best_set = ()
    for r in range(nv, 0, -1):
        if r <= best:
            break
        for comb in itertools.combinations(range(nv), r):
            if all(adj[u] >> v & 1 for u, v in itertools.combinations(comb, 2)):
                if r > best:
                    best = r
                    best_set = comb
                break
    return best, best_set


def random_graph(nv, density, seed):
    rng = random.Random(seed)
    adj = [0] * nv
    edges = 0
    for u in range(nv):
        for v in range(u + 1, nv):
            if rng.random() < density:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                edges += 1
    return IntersectionGraph(
        q=0, k=0, t=0, predicate="min_shared", n_vertices=nv, adj=adj, edge_count=edges
    )


@pytest.mark.parametrize("seed", range(8))
def test_max_clique_matches_brute_force_random(seed):
    g = random_graph(13, 0.5, seed)
    want, _ = brute_max_clique(g.adj, g.n_vertices)
    res = max_clique(g)
    assert res.proven
    assert res.size == want
    # the witness really is a clique
    for u, v in itertools.combinations(res.witness, 2):
        assert g.adj[u] >> v & 1


def assert_clique(g, vertices):
    for u, v in itertools.combinations(vertices, 2):
        assert g.adj[u] >> v & 1, (u, v)


@pytest.mark.parametrize("seed", range(8))
def test_max_clique_from_a_start_matches_brute_force_random(seed):
    g = random_graph(13, 0.5, seed)
    want, best = brute_max_clique(g.adj, g.n_vertices)
    for start in (best, best[:-1], ()):
        res = max_clique(g, start=start)
        assert res.proven
        assert res.size == want
        assert_clique(g, res.witness)


def assert_same_search(g, start):
    plain = max_clique(g)
    res = max_clique(g, start=start)
    assert (res.size, res.proven) == (plain.size, plain.proven)
    assert len(res.witness) == res.size
    assert_clique(g, res.witness)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_max_clique_from_the_pencil_matches_the_plain_search(q):
    g = build_graph(make_field_of_order(q), 2, 1)
    pencil = range(0, q**3, q)  # through (0, 0): constant term 0
    assert_same_search(g, pencil)
    assert max_clique(g, start=pencil).nodes_explored == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_max_clique_from_a_witness_prefix_matches_the_plain_search_on_sam0_graphs(q):
    # the graphs of clique-bounds at the full tier, both sides
    ctx = make_field_of_order(q)
    for k, t in ((1, 1), (2, 1), (2, 2)):
        for g in (build_graph(ctx, k, t, "min_shared"), build_graph(ctx, k, t - 1, "max_shared")):
            witness = max_clique(g).witness
            for n in (1, len(witness) // 2, len(witness)):
                assert_same_search(g, witness[:n])


def test_max_clique_rejects_a_start_that_is_not_a_clique():
    g = random_graph(13, 0.5, 0)
    u, v = next(
        (u, v) for u, v in itertools.combinations(range(13), 2) if not g.adj[u] >> v & 1
    )
    with pytest.raises(ValueError, match="not a clique"):
        max_clique(g, start=(u, v))
    with pytest.raises(ValueError, match="not a clique"):
        max_clique(g, start=(u, u))  # a vertex twice
    with pytest.raises(ValueError, match="outside"):
        max_clique(g, start=(13,))


def test_max_clique_keeps_its_start_when_the_budget_is_zero():
    g = random_graph(20, 0.7, 3)
    _, best = brute_max_clique(g.adj, g.n_vertices)
    for start in (best, best[:2], ()):
        res = max_clique(g, budget=0, start=start)
        assert not res.proven
        assert res.size >= len(start)
        assert_clique(g, res.witness)


def test_missing_edge_names_the_first_pair_that_is_not_an_edge():
    g = random_graph(13, 0.5, 0)
    pairs = [
        (u, v) for u, v in itertools.combinations(range(13), 2) if not g.adj[u] >> v & 1
    ]
    assert search.missing_edge(g, range(13)) == pairs[0]
    assert search.missing_edge(g, reversed(pairs[-1])) == pairs[-1]
    assert search.missing_edge(g, ()) is None
    assert search.missing_edge(g, max_clique(g).witness) is None


def test_max_clique_on_intersection_graphs():
    for q, k in ((2, 2), (3, 1)):
        ctx = make_field_of_order(q)
        g = build_graph(ctx, k, 1, "min_shared")
        want, _ = brute_max_clique(g.adj, g.n_vertices)
        res = max_clique(g)
        assert res.proven and res.size == want == q**k


def test_max_clique_walks_past_the_recursion_limit():
    """Any two distinct polynomials of degree <= 2 share at most 2 points,
    so this graph is complete on 512 vertices and the search walks one
    path 512 nodes deep, past the recursion limit set here. A search that
    recursed once per clique member raised RecursionError."""
    g = build_graph(make_field(2, 3), 2, 2, "max_shared")
    assert g.edge_count == 512 * 511 // 2
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        res = max_clique(g)
    finally:
        sys.setrecursionlimit(limit)
    assert res == CliqueResult(512, tuple(range(512)), 512, True)


def test_max_clique_budget_abort():
    g = random_graph(20, 0.7, 3)
    res = max_clique(g, budget=1)
    assert not res.proven
    full = max_clique(g)
    assert full.proven
    assert res.size <= full.size


@pytest.mark.parametrize("budget", [1, 2, 5])
def test_max_clique_keeps_its_path_when_the_budget_runs_out(budget):
    # the first dive is longer than the budget, so no leaf is reached: the
    # path it stopped on is the best clique found
    g = random_graph(20, 0.7, 3)
    res = max_clique(g, budget=budget)
    assert not res.proven
    assert res.size == len(res.witness) >= budget
    for u, v in itertools.combinations(res.witness, 2):
        assert g.adj[u] >> v & 1


def test_sam0_check_reports_a_clique_when_the_budget_runs_out_early():
    rep = sam0_check(make_field(2, 3), 2, 1, budget=50)
    assert rep.verdict == "budget-exceeded"
    assert rep.parameters["exhaustedSides"] == ["min_shared", "max_shared"]
    assert rep.counters["intersectingMax"] >= 1
    assert rep.counters["scatteredMax"] >= 1
    assert rep.witnesses == []


def brute_all_maximum_cliques(adj, nv, size):
    out = []
    for comb in itertools.combinations(range(nv), size):
        if all(adj[u] >> v & 1 for u, v in itertools.combinations(comb, 2)):
            out.append(comb)
    return sorted(out)


def brute_cliques(adj, nv):
    """Every nonempty clique, as a vertex mask."""
    out = []
    for mask in range(1, 1 << nv):
        vs = [v for v in range(nv) if mask >> v & 1]
        if all(adj[u] >> v & 1 for u, v in itertools.combinations(vs, 2)):
            out.append(mask)
    return out


@pytest.mark.parametrize("seed", range(4))
def test_enumerate_maximum_cliques_random(seed):
    """Decision mode against brute force, for random point masks at every
    floor: max_clique returns the largest clique that lies in none of the
    masks when it beats the floor, and the empty clique otherwise. Half
    of the masks hold a random clique, so large cliques have common
    points too."""
    g = random_graph(11, 0.55, 100 + seed)
    nv = g.n_vertices
    cliques = brute_cliques(g.adj, nv)
    rng = random.Random(seed)
    for points in (0, 1, 2, 4, 7):
        through = [rng.getrandbits(nv) | (rng.choice(cliques) if j % 2 else 0) for j in range(points)]
        escaping = [c for c in cliques if not any(c & t == c for t in through)]
        best = max((c.bit_count() for c in escaping), default=0)
        for floor in range(nv + 1):
            res = max_clique(g, floor=floor, through=through)
            assert res.proven
            if best > floor:
                assert res.size == best
                assert sum(1 << v for v in res.witness) in escaping
            else:
                assert (res.size, res.witness) == (0, ())
        if not through:
            assert max_clique(g, floor=0, through=through) == max_clique(g)


def test_family_from_vertices():
    fam = family_from_vertices(3, 2, [0, 4, 9])
    assert len(fam) == 3
    assert poly_to_vertex(3, fam.members[0]) == 0


def test_ekr_oracle_q2_q3():
    c2 = make_field(2, 1)
    rep = ekr_oracle(c2, 2)
    assert rep.verdict == "pass"
    assert rep.counters["maxClique"] == 4
    assert rep.counters["maximumCliques"] == 4
    c3 = make_field(3, 1)
    rep3 = ekr_oracle(c3, 2)
    assert rep3.verdict == "pass"
    assert rep3.counters == {
        "vertices": 27,
        "edges": 243,
        "maxClique": 9,
        "nodesExplored": 0,
        "maximumCliques": 9,
    }
    assert len(rep3.parameters["pencilPoints"]) == 9


@pytest.mark.parametrize("q,k", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)])
def test_ekr_certificate_matches_the_search(q, k):
    """The row-0 certificate proves q^k with no node; the plain search,
    with no start, proves the same maximum on the whole graph."""
    ctx = make_field_of_order(q)
    res = max_clique(build_graph(ctx, k, 1))
    assert res.proven and res.size == q**k
    rep = ekr_oracle(ctx, k)
    assert rep.verdict == "pass"
    assert rep.counters["maxClique"] == q**k
    assert rep.counters["nodesExplored"] == 0


def patch_row0(monkeypatch, extra=0, drop=0):
    """Patch the row-0 helper, which build_graph reads too, to add the
    differences in `extra` and drop those in `drop`."""
    real = search._row0

    def patched(ctx, k, t=1, predicate="min_shared"):
        return real(ctx, k, t, predicate) & ~drop | extra

    monkeypatch.setattr(search, "_row0", patched)


@pytest.mark.parametrize("c", [1, 3])
def test_ekr_oracle_searches_when_a_constant_is_an_edge(monkeypatch, c):
    """Negative control: with the constant c an edge (the first and the
    last nonzero constant at 2^2, each its own negative), the cosets
    f + F_q are no colouring, so the certificate fails and the verdict
    comes from the search on the patched graph."""
    patch_row0(monkeypatch, extra=1 << c)
    ctx = make_field(2, 2)
    rep = ekr_oracle(ctx, 2)
    want = max_clique(build_graph(ctx, 2, 1), start=range(0, 64, 4))
    assert rep.counters["nodesExplored"] == want.nodes_explored > 0
    assert rep.counters["maxClique"] == want.size == 16
    assert rep.counters["edges"] == 1344 + 32
    assert rep.verdict == "pass"


def test_ekr_oracle_search_finds_a_clique_the_constants_make(monkeypatch):
    """At 3^1, with every nonzero constant an edge, the search the failed
    certificate falls back on finds a clique of 9 with no common point."""
    patch_row0(monkeypatch, extra=(1 << 3) - 2)
    rep = ekr_oracle(make_field(3, 1), 2)
    assert rep.counters["nodesExplored"] > 0
    assert rep.verdict == "fail"
    assert rep.witnesses == [{"clique": list(range(18, 27)), "commonPoint": None}]


def test_ekr_oracle_past_the_vertex_cap(monkeypatch):
    """The certificate needs row 0 alone, up to ROW0_CAP differences: the
    32,768-vertex graph at 2^5 is never built. A certificate that fails
    there needs the graph, and build_graph refuses it."""
    assert search.VERTEX_CAP < 2**15 <= search.ROW0_CAP
    rep = ekr_oracle(make_field(2, 5), 2)
    assert rep.verdict == "pass"
    assert rep.counters == {"vertices": 2**15, "edges": 284426240, "maxClique": 2**10, "nodesExplored": 0}
    patch_row0(monkeypatch, extra=1 << 1)
    with pytest.raises(ValueError, match="graph would have 32768 vertices, cap is 4096"):
        ekr_oracle(make_field(2, 5), 2)


def test_row0_refuses_past_its_cap_before_building(monkeypatch):
    """The cap is checked before any list is built: the field's root
    counts are never read."""
    ctx = make_field(2, 6)
    monkeypatch.setattr(ctx, "quadratic_root_count", None)
    with pytest.raises(ValueError, match="ROW0_CAP"):
        ekr_oracle(ctx, 3)  # 2^24 differences
    with pytest.raises(ValueError, match="ROW0_CAP"):
        search._row0(make_field(3, 1), 11)  # 3^12 differences


@pytest.mark.parametrize("q", [3, 5])
def test_ekr_oracle_k1_is_inapplicable(q):
    """At k = 1 the maximum is still q, but the equality case fails:
    lines of distinct slopes meet pairwise with no common point. The
    oracle names its hypothesis k >= 2 and searches nothing, where it
    used to fail with those cliques as witnesses."""
    ctx = make_field(q, 1)
    g = build_graph(ctx, 1, 1)
    cliques = brute_all_maximum_cliques(g.adj, g.n_vertices, max_clique(g, DEFAULT_NODE_BUDGET).size)
    assert len(cliques[0]) == q
    assert any(common_point(ctx, family_from_vertices(q, 1, cl)) is None for cl in cliques)
    rep = ekr_oracle(ctx, 1)
    assert rep.verdict == "inapplicable"
    assert rep.parameters == {"k": 1, "hypothesis": "k >= 2"}
    assert rep.witnesses == [] and rep.counters == {}


def test_ekr_oracle_budget_exceeded():
    rep = ekr_oracle(make_field(2, 2), 2, budget=0)
    assert rep.verdict == "budget-exceeded"
    assert rep.parameters["nodeBudget"] == 0
    assert rep.witnesses == []
    assert rep.counters["maxClique"] == 16  # the verified pencil


def test_ekr_oracle_decision_obeys_the_budget():
    """The equality case's decision stops at the node budget too: the
    maximum is proven from row 0 with no node, but the decision needs
    436 nodes at 2^2, so a smaller budget reports neither entry."""
    ctx = make_field(2, 2)
    for budget in (1, 100, 435):
        rep = ekr_oracle(ctx, 2, budget=budget)
        assert rep.verdict == "budget-exceeded"
        assert rep.parameters == {"k": 2, "proven": True, "nodeBudget": budget}
        assert rep.counters == {"vertices": 64, "edges": 1344, "maxClique": 16, "nodesExplored": 0}
        assert rep.witnesses == []
    rep = ekr_oracle(ctx, 2, budget=436)
    assert rep.verdict == "pass"
    assert rep.counters["maximumCliques"] == 16
    assert rep.canonical_json() == ekr_oracle(ctx, 2).canonical_json()


def test_ekr_oracle_lists_a_clique_without_a_common_point(monkeypatch):
    """Negative control: with vertex 0, the zero polynomial, taken out of
    every pencil mask, the pencils through the points (x, 0) hold it and
    lie in no mask, so the decision finds one and it is the witness."""
    real = search._through_masks
    monkeypatch.setattr(search, "_through_masks", lambda ctx, k, points: [m & ~1 for m in real(ctx, k, points)])
    ctx = make_field(3, 1)
    rep = ekr_oracle(ctx, 2)
    assert rep.verdict == "fail"
    [witness] = rep.witnesses
    assert witness["commonPoint"] is None
    clique = witness["clique"]
    assert 0 in clique and len(clique) == 9
    assert any(clique == sorted(poly_to_vertex(3, f) for f in pencil(ctx, x, 0, 2).members) for x in range(3))
    assert "maximumCliques" not in rep.counters and "pencilPoints" not in rep.parameters


@pytest.mark.parametrize("q,k,floor,size", [(3, 2, 5, 7), (4, 2, 9, 10), (5, 2, 14, 15), (3, 1, 2, 3), (5, 1, 4, 5)])
def test_decision_finds_a_family_without_a_common_point(q, k, floor, size):
    """Positive controls: at k = 2 and floor (q^2 + q)/2 - 1, the size of
    a Hilton-Milner family less one, and at k = 1 and floor q - 1, the
    decision finds a pairwise intersecting family with no common point:
    the largest, of `size` members."""
    ctx = make_field_of_order(q)
    g = build_graph(ctx, k, 1)
    res = max_clique(g, floor=floor, through=search._through_masks(ctx, k, all_points(q)))
    assert res.proven and res.size == size > floor
    assert search.missing_edge(g, res.witness) is None
    assert common_point(ctx, family_from_vertices(q, k, res.witness)) is None


@pytest.mark.parametrize("q,k", [(2, 3), (3, 2), (4, 1)])
def test_through_masks_are_the_pencils_through_each_point(q, k):
    ctx = make_field_of_order(q)
    points = all_points(q)
    through = search._through_masks(ctx, k, points)
    for (x, y), mask in zip(points, through):
        assert mask == sum(1 << v for v in range(q ** (k + 1)) if evaluate(ctx, vertex_to_poly(q, k, v), x) == y)
        assert mask.bit_count() == q**k


def test_ekr_oracle_refutes_a_pencil_that_is_not_a_clique(monkeypatch):
    """Negative control: with the difference 12 = 4 + 8 dropped from row
    0 (3 x, the sum of 1 x and 2 x at 2^2), no pencil through a point
    (0, y) is a clique: (0, 12) is the witness, and the search runs
    without a start."""
    patch_row0(monkeypatch, drop=1 << 12)
    ctx = make_field(2, 2)
    rep = ekr_oracle(ctx, 2)
    assert rep.verdict == "fail"
    assert rep.witnesses[0] == {"construction": "pencil through (0, 0)", "missingEdge": [0, 12]}
    assert rep.parameters["proven"]
    assert rep.counters["nodesExplored"] > 1  # the plain search ran
    # the 12 pencils through points (x, y), x != 0, are the maximum cliques
    assert rep.counters["maximumCliques"] == 12
    assert all(x != 0 for x, _ in rep.parameters["pencilPoints"])
    monkeypatch.undo()
    rep = ekr_oracle(ctx, 2)
    assert rep.verdict == "pass"
    assert rep.counters["nodesExplored"] == 0


@pytest.mark.parametrize(
    "fn", [max_clique, ekr_oracle, sam0_check, carlitz_scan, mcconnel_scan],
    ids=lambda fn: fn.__name__,
)
def test_every_search_defaults_to_the_node_budget(fn):
    params = inspect.signature(fn).parameters
    budget = params.get("budget", params.get("node_budget"))
    assert budget.default == DEFAULT_NODE_BUDGET


def fake_unproven(size):
    """max_clique for min_shared graphs reporting an unproven maximum of
    `size`; max_shared graphs are searched for real."""
    real = search.max_clique

    def fake(g, budget=DEFAULT_NODE_BUDGET, start=(), floor=0, through=()):
        if g.predicate == "min_shared":
            return CliqueResult(size, tuple(range(size)), budget + 1, False)
        return real(g, budget)

    return fake


def test_ekr_oracle_unproven_maximum_over_the_bound_fails(monkeypatch):
    # every nonzero constant an edge: the certificate fails and the
    # (faked) search decides
    patch_row0(monkeypatch, extra=(1 << 3) - 2)
    monkeypatch.setattr(search, "max_clique", fake_unproven(10))
    rep = ekr_oracle(make_field(3, 1), 2)
    assert rep.verdict == "fail"
    assert rep.witnesses[0]["maxClique"] == 10
    monkeypatch.setattr(search, "max_clique", fake_unproven(9))
    assert ekr_oracle(make_field(3, 1), 2).verdict == "budget-exceeded"


def brute_rootable(ctx, d, w):
    n = 0
    for v in range(ctx.q):
        if any(
            ctx.add(w, ctx.add(ctx.mul(v, x), ctx.mul(d, ctx.mul(x, x)))) == 0
            for x in range(ctx.q)
        ):
            n += 1
    return n


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_rootable_count_matches_brute_and_closed_form(q):
    ctx = make_field_of_order(q)
    for d in range(1, q):
        for w in range(1, q):
            got = rootable_count(ctx, d, w)
            assert got == brute_rootable(ctx, d, w)
            if q % 2 == 0:
                want = q // 2
            else:
                ratio = ctx.div(w, d)
                want = (
                    (q + 1) // 2
                    if ctx.quadratic_character(ratio) == 1
                    else (q - 1) // 2
                )
            assert got == want


def test_rootable_count_frozen():
    c5 = make_field(5, 1)
    assert rootable_count(c5, 1, 1) == 3
    assert rootable_count(c5, 1, 2) == 2
    assert rootable_count(make_field(2, 2), 1, 1) == 2
    with pytest.raises(ValueError):
        rootable_count(c5, 0, 1)
    with pytest.raises(ValueError):
        rootable_count(c5, 1, 0)


def test_sam0_check_frozen_q3():
    rep = sam0_check(make_field(3, 1), 2, 2)
    assert rep.verdict == "pass"
    assert rep.counters == {
        "intersectingMax": 3,
        "intersectingBound": 3,
        "intersectingNodes": 3,
        "scatteredMax": 9,
        "scatteredBound": 9,
        "scatteredNodes": 11,
    }


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sam0_check_matrix(q):
    ctx = make_field_of_order(q)
    for k in (1, 2):
        for t in range(1, k + 1):
            rep = sam0_check(ctx, k, t)
            assert rep.verdict == "pass", (q, k, t)
            assert rep.counters["intersectingMax"] <= q ** (k + 1 - t)
            assert rep.counters["scatteredMax"] <= q**t


def test_sam0_check_budget_exceeded():
    t0 = time.perf_counter()
    rep = sam0_check(make_field(2, 4), 2, 1, budget=10**4)
    assert time.perf_counter() - t0 < 20
    assert rep.verdict == "budget-exceeded"
    # the intersecting side is proven at once, the scattered side is not
    assert rep.parameters == {"k": 2, "t": 1, "nodeBudget": 10**4, "exhaustedSides": ["max_shared"]}
    assert rep.counters["intersectingNodes"] == 256
    assert rep.counters["scatteredNodes"] == 10**4 + 1  # the node over the budget stops it
    assert rep.witnesses == []
    # an unproven maximum is a lower bound: under its bound it proves nothing
    assert rep.counters["intersectingMax"] <= rep.counters["intersectingBound"]


def test_sam0_check_unproven_side_over_its_bound_fails(monkeypatch):
    # q = 3, k = 2, t = 1: the intersecting side's bound is 9
    monkeypatch.setattr(search, "max_clique", fake_unproven(10))
    rep = sam0_check(make_field(3, 1), 2, 1)
    assert rep.verdict == "fail"
    assert rep.parameters["nodeBudget"] == DEFAULT_NODE_BUDGET
    assert rep.parameters["exhaustedSides"] == ["min_shared"]
    assert [w["side"] for w in rep.witnesses] == ["min_shared"]
    assert rep.witnesses[0]["max"] == 10
    assert rep.witnesses[0]["bound"] == 9


def test_sam0_check_validation():
    with pytest.raises(ValueError):
        sam0_check(make_field(3, 1), 2, 0)
    with pytest.raises(ValueError):
        sam0_check(make_field(3, 1), 2, 3)


def test_stability_probe_deterministic_and_bounded():
    ctx = make_field(2, 2)
    a = stability_probe(ctx, 300, seed=9)
    b = stability_probe(ctx, 300, seed=9)
    assert a.canonical_json() == b.canonical_json()
    assert a.verdict == "pass"
    assert a.counters["trials"] == 300
    assert a.counters["maxSize"] <= 16
    dist = a.parameters["sizeDistribution"]
    assert sum(dist.values()) == 300
    assert all(isinstance(k, str) and int(k) > 0 for k in dist)
    c = stability_probe(ctx, 300, seed=10)
    assert c.parameters["sizeDistribution"] != dist or c.seed != a.seed


def test_stability_probe_over_threshold_counter():
    from polyfam.families import exceeds_threshold

    for q in (3, 4, 5):
        ctx = make_field_of_order(q)
        rep = stability_probe(ctx, 500, seed=4)
        dist = {int(k): v for k, v in rep.parameters["sizeDistribution"].items()}
        assert max(dist) <= q * q
        want = sum(v for s, v in dist.items() if exceeds_threshold(q, s, 2))
        assert rep.counters["overThreshold"] == want


def test_graph_dump_roundtrip():
    ctx = make_field(3, 1)
    g = build_graph(ctx, 1, 1, "min_shared")
    lines = graph_dump_lines(g)
    assert lines[0].startswith("#")
    masks = [int(ln, 16) for ln in lines if not ln.startswith("#")]
    assert masks == g.adj


def test_stability_probe_zero_trials_inapplicable_negative_rejected():
    ctx = make_field(3, 1)
    rep = stability_probe(ctx, 0)
    assert rep.verdict == "inapplicable"
    assert rep.counters == {"trials": 0, "distinctSizes": 0, "overThreshold": 0, "maxSize": 0}
    with pytest.raises(ValueError):
        stability_probe(ctx, -5)


def _bisect_nth_set_bit(mask, r):
    """Reference select for _nth_set_bit's strip paths: bisection on the
    popcount of mask's high bits, at every rank."""
    above = mask.bit_count() - 1 - r
    lo, hi = 0, mask.bit_length()
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (mask >> mid).bit_count() > above:
            lo = mid
        else:
            hi = mid
    return lo


def test_nth_set_bit_matches_sorted_bits():
    rng, sparse = random.Random(5), random.Random(6)
    T = search.STRIP_CUT
    for bits in (1, 7, 64, 300, 729):
        masks = [rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(40)]
        # popcounts up to 2T + 2 put every rank within T of an end, so only
        # the strip paths run; 2T + 3 is the first whose middle rank bisects
        for count in range(1, min(bits, 2 * T + 3) + 1):
            masks += [sum(1 << i for i in sparse.sample(range(bits), count)) for _ in range(5)]
        for mask in masks:
            ones = [i for i in range(bits) if mask >> i & 1]
            n = len(ones)
            ranks = {0, 1, 15, 16, 17, n // 2, n - 17, n - 16, n - 15, n - 1}
            ranks |= {T - 1, T, T + 1, n - T, n - 1 - T, n - 2 - T}  # the cut, from both ends
            if n <= 2 * T + 3:
                ranks = range(n)
            for r in ranks:
                if 0 <= r < n:
                    assert _nth_set_bit(mask, n, r) == ones[r] == _bisect_nth_set_bit(mask, r)


def _shuffle_greedy(adj, start, order):
    """Reference greedy: complete the clique of `start` with the vertices
    of `order` that are still candidates when their turn comes."""
    clique = [start]
    cand = adj[start]
    for v in order:
        if cand >> v & 1:
            clique.append(v)
            cand &= adj[v]
    return clique


def _size_distribution(dist):
    out: Counter = Counter()
    for clique, prob in dist.items():
        out[len(clique)] += prob
    return out


def _shuffled_cliques(adj, nv, start):
    """Exact distribution of the shuffled greedy from `start`, over every
    order of the other vertices."""
    rest = [v for v in range(nv) if v != start]
    counts = Counter(frozenset(_shuffle_greedy(adj, start, order)) for order in itertools.permutations(rest))
    perms = math.factorial(nv - 1)
    return {cl: Fraction(c, perms) for cl, c in counts.items()}


def test_uniform_candidate_draws_match_shuffled_greedy_exactly():
    g = build_graph(make_field(2, 1), 2, 1)
    adj, nv = g.adj, g.n_vertices
    assert nv == 8
    shuffled = _shuffled_cliques(adj, nv, 0)
    uniform = _completions(adj, frozenset([0]), {})
    assert sum(uniform.values()) == 1
    assert uniform == shuffled  # the same cliques, equally likely
    assert _size_distribution(uniform) == _size_distribution(shuffled)


def test_shuffled_greedy_from_every_start_translates_the_one_from_zero():
    """The graph is a Cayley graph: at p = 2 adding s to every coefficient
    is v -> v ^ s on vertex numbers, an automorphism taking 0 to s. So the
    shuffled greedy from s draws the translates of the cliques drawn from
    0, with the same probabilities."""
    g = build_graph(make_field(2, 1), 2, 1)
    adj, nv = g.adj, g.n_vertices
    for s in range(nv):
        assert all(adj[u ^ s] == sum(1 << (v ^ s) for v in range(nv) if adj[u] >> v & 1) for u in range(nv))
    from_zero = _shuffled_cliques(adj, nv, 0)
    for s in range(1, nv):
        want = {frozenset(v ^ s for v in cl): prob for cl, prob in from_zero.items()}
        assert _shuffled_cliques(adj, nv, s) == want, s


def _completions(adj, members, memo):
    """Exact distribution of the cliques that uniform candidate draws
    complete the clique `members` (a frozenset) to, memoized on it."""
    if members not in memo:
        cand = -1
        for v in members:
            cand &= adj[v]
        dist: Counter = Counter()
        if not cand:
            dist[members] = Fraction(1)
        ones = [v for v in range(cand.bit_length()) if cand >> v & 1]
        for v in ones:
            for cl, p in _completions(adj, members | {v}, memo).items():
                dist[cl] += p / len(ones)
        memo[members] = dist
    return memo[members]


def _seeded_cliques(adj, nv, memo):
    """Exact distribution of the probe's earlier process, kept here as the
    oracle: the seeds rng.sample(range(nv), rng.randint(1, 3)), each kept
    while it is still a candidate, then uniform candidate draws. The seed
    draw is enumerated: a count of 1 to 3 with probability 1/3 each, then
    every ordered tuple of that many distinct vertices, equally likely."""
    dist: Counter = Counter()
    for count in (1, 2, 3):
        tuples = list(itertools.permutations(range(nv), count))
        for seeds in tuples:
            members, cand = frozenset(), (1 << nv) - 1
            for v in seeds:
                if cand >> v & 1:
                    members |= {v}
                    cand &= adj[v]
            for cl, p in _completions(adj, members, memo).items():
                dist[cl] += p / (3 * len(tuples))
    return dist


@pytest.mark.parametrize("q", [2, 3])
def test_zero_frame_matches_the_seeded_process_exactly(q):
    """Starting every trial at vertex 0 draws the sizes and the common
    points of the seeded process exactly, though not the same cliques.
    At q = 2 every maximal clique is a pencil of 4; q = 3 has non-pencil
    cliques and several sizes."""
    ctx = make_field_of_order(q)
    g = build_graph(ctx, 2, 1)
    adj, nv = g.adj, g.n_vertices
    memo: dict = {}
    seeded = _seeded_cliques(adj, nv, memo)
    zero = _completions(adj, frozenset([0]), memo)
    if q == 2:
        assert zero == _shuffled_cliques(adj, nv, 0)
    assert sum(seeded.values()) == sum(zero.values()) == 1
    assert zero != seeded
    assert _size_distribution(zero) == _size_distribution(seeded)

    def with_a_common_point(dist):
        return sum(p for cl, p in dist.items() if common_point(ctx, family_from_vertices(q, 2, cl)))

    assert with_a_common_point(zero) == with_a_common_point(seeded)
    if q == 3:
        assert len(_size_distribution(zero)) > 1
        assert 0 < with_a_common_point(zero) < 1
    # the through masks see the common points that common_point finds
    through = y0_masks(ctx)
    for cl in zero:
        has_point = common_point(ctx, family_from_vertices(q, 2, cl)) is not None
        assert _in_a_pencil(cl, through) == has_point, cl


def _vertex(q, f):
    return sum(c * q**i for i, c in enumerate(f.coeffs))


def _in_a_pencil(clique, through):
    """Oracle for the probe's common-point test: whether every vertex of
    clique lies in one of the through masks."""
    mask = sum(1 << v for v in clique)
    return any(mask & t == mask for t in through)


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_through_masks_hold_the_pencils_on_y0_and_miss_hilton_milner(q):
    ctx = make_field_of_order(q)
    through = y0_masks(ctx)
    # entry x: the polynomials that vanish at x, found by evaluation
    for x, mask in enumerate(through):
        assert mask == sum(1 << v for v in range(q**3) if evaluate(ctx, vertex_to_poly(q, 2, v), x) == 0)
    for x in range(q):
        assert _in_a_pencil([_vertex(q, f) for f in pencil(ctx, x, 0, 2).members], through)
    # Hilton-Milner: the line y = 0 (vertex 0) and the parabolas through
    # (0, 1) that meet it; intersecting, but with no common point
    hm = [_vertex(q, f) for f in hilton_milner(ctx, (0, 1), 0, 0).members]
    assert 0 in hm
    g = build_graph(ctx, 2, 1)
    assert search.missing_edge(g, hm) is None
    assert common_point(ctx, family_from_vertices(q, 2, hm)) is None
    assert not _in_a_pencil(hm, through)
    # a pencil through a point off y = 0 lies in none of the masks
    off = [_vertex(q, f) for f in pencil(ctx, 0, 1, 2).members]
    assert not _in_a_pencil(off, through)


def _every_trial_a_witness(monkeypatch, ctx):
    """The probe's N(0) frame with empty through masks, every size over
    the threshold and no witness cap: each trial of _probe_trials lists
    its clique."""
    monkeypatch.setattr(search, "exceeds_threshold", lambda q, m, k: True)
    monkeypatch.setattr(search, "WITNESS_CAP", sys.maxsize)
    adj = build_graph(ctx, 2, 1).adj
    return adj, search._zero_frame(adj, [0] * ctx.q)


def _witness_cliques(q, frame, seed, trials):
    """The clique of every trial of a run of _probe_trials, read from its
    witnesses; the cap must be raised (_every_trial_a_witness)."""
    _, _, witnesses = search._probe_trials(q, frame, seed, trials)
    assert [w["trial"] for w in witnesses] == list(range(trials))
    assert all(w["size"] == len(w["clique"]) for w in witnesses)
    return [w["clique"] for w in witnesses]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_probe_cliques_are_maximal_cliques(monkeypatch, q):
    ctx = make_field_of_order(q)
    g = build_graph(ctx, 2, 1)
    adj, frame = _every_trial_a_witness(monkeypatch, ctx)
    for i, clique in enumerate(_witness_cliques(q, frame, 20248, 300)):
        assert clique[0] == 0
        assert clique == sorted(set(clique)) and len(clique) <= q * q
        assert search.missing_edge(g, clique) is None
        common = (1 << g.n_vertices) - 1
        for v in clique:
            common &= adj[v]
        assert common == 0, (i, clique)


def _randrange_greedy_clique(adj, rng, stop=True):
    """Reference walk for one trial of _probe_trials on the whole graph:
    from vertex 0, rng.randrange over the candidates, then plain bisection
    for the drawn rank. With stop, as in _probe_trials, once the
    candidates form a clique they all join and nothing more is drawn;
    without it, the walk draws until no candidate is left."""
    clique = [0]
    cand = adj[0]
    while cand:
        if stop and _forms_a_clique(adj, cand):
            return clique + [v for v in range(cand.bit_length()) if cand >> v & 1]
        v = _bisect_nth_set_bit(cand, rng.randrange(cand.bit_count()))
        clique.append(v)
        cand &= adj[v]
    return clique


def _forms_a_clique(adj, mask):
    """Whether the vertices of mask are pairwise adjacent."""
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        if mask & ~adj[v] != 1 << v:
            return False
        rest &= rest - 1
    return True


@pytest.mark.parametrize("seed", [20248, 1])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_greedy_clique_matches_the_randrange_loop(monkeypatch, q, seed):
    # one generator across the trials, as in stability_probe: the inline
    # draws and the N(0) frame must leave every trial's clique as randrange
    # over the whole graph draws it, and from the same generator state the
    # stop at a clique of candidates must leave the full walk's vertex set
    adj, frame = _every_trial_a_witness(monkeypatch, make_field_of_order(q))
    rng, full = random.Random(seed), random.Random()
    for i, clique in enumerate(_witness_cliques(q, frame, seed, 2000)):
        full.setstate(rng.getstate())
        assert clique == sorted(_randrange_greedy_clique(adj, rng)), i
        assert clique == sorted(_randrange_greedy_clique(adj, full, stop=False)), i


def _replayed_trials(ctx, adj, through, seed, trials):
    """Reference for _probe_trials: the trials walked in turn by
    _randrange_greedy_clique on the whole graph from one random.Random(seed),
    the common point tested by _in_a_pencil, the first WITNESS_CAP
    witnesses kept with their cliques sorted."""
    q = ctx.q
    rng = random.Random(seed)
    sizes, over, witnesses = Counter(), 0, []
    for i in range(trials):
        clique = sorted(_randrange_greedy_clique(adj, rng))
        m = len(clique)
        sizes[m] += 1
        if m > q * q:
            witnesses.append({"trial": i, "size": m, "clique": clique})
        elif exceeds_threshold(q, m, 2):
            over += 1
            if not _in_a_pencil(clique, through):
                witnesses.append({"trial": i, "size": m, "clique": clique, "commonPoint": None})
    return dict(sizes), over, witnesses[:WITNESS_CAP]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_zero_frame_restricts_and_renumbers_by_position(q):
    ctx = make_field_of_order(q)
    adj = build_graph(ctx, 2, 1).adj
    through = y0_masks(ctx)
    members, fadj, fthrough = search._zero_frame(adj, through)
    assert members == [v for v in range(q**3) if adj[0] >> v & 1]
    # N(0): the nonzero polynomials with a root, that is all but the q - 1
    # nonzero constants and the (q - 1) q (q - 1) / 2 irreducible quadratics
    assert len(fadj) == len(members) == q**3 - q - q * (q - 1) ** 2 // 2

    def restricted(mask):
        return sum(1 << j for j, v in enumerate(members) if mask >> v & 1)

    assert fadj == [restricted(adj[v]) for v in members]
    assert fthrough == [restricted(t) for t in through]


@pytest.mark.parametrize("seed", [20248, 1])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_probe_trials_match_the_replayed_greedy_walk(q, seed):
    """The N(0) frame and the stop at a clique of candidates leave every
    trial's size, threshold test and common-point answer as the reference
    walk on the same stream has them. With no vertex in the through masks,
    every over-threshold trial is a witness, up to WITNESS_CAP, its clique
    in ascending order."""
    ctx = make_field_of_order(q)
    adj = build_graph(ctx, 2, 1).adj
    for through in (y0_masks(ctx), [0] * q):
        frame = search._zero_frame(adj, through)
        got = search._probe_trials(q, frame, seed, 2000)
        assert got == _replayed_trials(ctx, adj, through, seed, 2000)
        if not any(through):
            assert len(got[2]) == min(got[1], WITNESS_CAP)
            # witnesses are listed: only at q = 3 does no size exceed the threshold
            assert (got[1] > 0) == (q != 3)


# no clique size exceeds the stability threshold at q = 3
@pytest.mark.parametrize("q,witnessed", [(3, False), (4, False), (4, True)])
def test_probe_trials_merge_over_uneven_ranges(monkeypatch, q, witnessed):
    """A run of t trials is the first t trials of a longer run: the same
    sizes, over-threshold count and capped witnesses, for any t."""
    ctx = make_field_of_order(q)
    adj = build_graph(ctx, 2, 1).adj
    # witnessed: the masks hold no vertex, so every over-threshold clique
    # is a witness
    through = [0] * q if witnessed else y0_masks(ctx)
    frame = search._zero_frame(adj, through)
    T = 401
    whole = search._probe_trials(q, frame, 7, T)
    # the size of each of the T trials, from a run that lists them all
    with monkeypatch.context() as patch:
        _, every = _every_trial_a_witness(patch, ctx)
        seq = [len(clique) for clique in _witness_cliques(q, every, 7, T)]
    for t in (0, 1, 2, 57, 58, 300, T):
        sizes, over, witnesses = search._probe_trials(q, frame, 7, t)
        assert sizes == Counter(seq[:t])
        assert over == sum(exceeds_threshold(q, m, 2) for m in seq[:t])
        assert witnesses == [w for w in whole[2] if w["trial"] < t]
    assert bool(whole[2]) == witnessed
    if witnessed:
        # the cap keeps the first WITNESS_CAP of more over-threshold trials
        assert len(whole[2]) == WITNESS_CAP < whole[1]


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("the stability probe forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)


@pytest.mark.skipif(not hasattr(os, "WNOHANG"), reason="reaps with os.waitpid")
@pytest.mark.parametrize(
    "q,parts,witnessed",
    [(3, 2, False), (3, 3, False), (4, 2, False), (4, 3, False), (4, 3, True)],
    ids=["3-2", "3-3", "4-2", "4-3", "4-3-witnessed"],
)
def test_forked_probe_split_matches_the_in_process_run(monkeypatch, q, parts, witnessed):
    """The probe runs in its caller alone. With os.fork raising, its report
    is the one the reference walk gives, and `parts` probes running at
    once in threads each give that report, leaving no child process."""
    ctx = make_field_of_order(q)
    T = 1001
    through = [0] * q if witnessed else y0_masks(ctx)
    if witnessed:
        monkeypatch.setattr(search, "_through_masks", lambda ctx, k, points: [0] * len(points))
    _forbid_fork(monkeypatch)
    whole = stability_probe(ctx, T, seed=20248)
    sizes, over, witnesses = _replayed_trials(ctx, build_graph(ctx, 2, 1).adj, through, 20248, T)
    assert whole.parameters["sizeDistribution"] == {str(m): c for m, c in sorted(sizes.items())}
    assert whole.counters["overThreshold"] == over
    assert whole.witnesses == witnesses
    assert len(witnesses) == (WITNESS_CAP if witnessed else 0)
    reports = [None] * parts

    def run(j):
        reports[j] = stability_probe(ctx, T, seed=20248).canonical_json()

    threads = [threading.Thread(target=run, args=(j,)) for j in range(parts)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == [whole.canonical_json()] * parts
    _assert_no_children()


@pytest.mark.skipif(not hasattr(os, "WNOHANG"), reason="reaps with os.waitpid")
def test_split_trials_merges_in_range_order_and_raises_for_any_failed_part(monkeypatch):
    """Witnesses come in ascending trial order, and a trial that fails
    raises in the caller, with no child to reap; the next run gives the
    same report again."""
    _forbid_fork(monkeypatch)
    ctx = make_field_of_order(4)
    monkeypatch.setattr(search, "_through_masks", lambda ctx, k, points: [0] * len(points))
    rep = stability_probe(ctx, 300, seed=7)
    trials = [w["trial"] for w in rep.witnesses]
    assert len(trials) == WITNESS_CAP and trials == sorted(set(trials))
    _assert_no_children()
    selects = itertools.count()
    real_select = search._nth_set_bit

    def select(mask, n, r):
        if next(selects) == 1000:  # partway through the trials
            raise ZeroDivisionError("select")
        return real_select(mask, n, r)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_nth_set_bit", select)
        with pytest.raises(ZeroDivisionError):
            stability_probe(ctx, 300, seed=7)
    assert next(selects) > 1000
    _assert_no_children()
    assert stability_probe(ctx, 300, seed=7).canonical_json() == rep.canonical_json()


@pytest.mark.skipif(not hasattr(os, "WNOHANG"), reason="reaps with os.waitpid")
def test_probe_parts_splits_only_where_it_pays_and_is_safe(monkeypatch):
    """Nothing about the host changes the report: not the core count, not
    another thread running, not a missing os.fork."""
    ctx = make_field_of_order(4)
    counts = (0, 1, 2, 1000)
    want = [stability_probe(ctx, t, seed=3).canonical_json() for t in counts]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    _forbid_fork(monkeypatch)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert [stability_probe(ctx, t, seed=3).canonical_json() for t in counts] == want
    finally:
        done.set()
        other.join(timeout=10)
    assert not other.is_alive()
    monkeypatch.delattr(os, "fork")
    assert [stability_probe(ctx, t, seed=3).canonical_json() for t in counts] == want
    _assert_no_children()
