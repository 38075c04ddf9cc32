"""Intersection graphs of polynomial families and exact clique search.

Vertices are all q^(k+1) polynomials of degree at most k, numbered by the
base-q packing of their coefficient index vectors (low-degree coefficient
is the least significant digit). Adjacency is kept as one bitmask int per
vertex; the graphs are Cayley graphs, so row 0 (_row0) determines them.
`ekr_oracle` proves its maximum from row 0 alone, by a pencil that is a
clique and a colouring by the cosets f + F_q, and builds and searches
the graph only when that certificate fails. The solver is a
deterministic branch and bound with a greedy colouring bound; it can
start from a known clique, or decide whether some clique above a floor
has no common point, as `ekr_oracle`'s equality case does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter

from .families import exceeds_threshold, pencil
from .gf import FieldCtx
from .polyfun import PolyK, intersection_count
from .report import DEFAULT_NODE_BUDGET, DEFAULT_SEED, WITNESS_CAP, Report, Stopwatch

VERTEX_CAP = 4096
ROW0_CAP = 1 << 18  # most differences _row0 counts, q^(k+1)
DECISION_CAP = 64  # most vertices on which ekr_oracle decides its equality case


@dataclass
class IntersectionGraph:
    q: int
    k: int
    t: int
    predicate: str  # "min_shared": count >= t; "max_shared": count <= t
    n_vertices: int
    adj: list[int]
    edge_count: int


def vertex_to_poly(q: int, k: int, v: int) -> PolyK:
    coeffs = []
    for _ in range(k + 1):
        coeffs.append(v % q)
        v //= q
    return PolyK(k, tuple(coeffs))


def _row0(ctx: FieldCtx, k: int, t: int = 1, predicate: str = "min_shared") -> int:
    """Row 0 of the graph build_graph describes, as one vertex mask: bit h
    is set when the difference h, a degree-<=k polynomial numbered as a
    vertex, has an eligible root count. For k <= 2 the counts are read
    from the root-count table (ctx.quadratic_root_count) in one pass over
    the coefficients of h = 1, ..., q^(k+1) - 1 in vertex order, and the
    mask is read from one string of bits; larger k counts each difference
    with intersection_count. At most ROW0_CAP differences."""
    q = ctx.q
    nv = q ** (k + 1)
    if nv > ROW0_CAP:
        raise ValueError(f"row 0 would have {nv} differences, cap is ROW0_CAP = {ROW0_CAP}")
    if predicate not in ("min_shared", "max_shared"):
        raise ValueError(f"unknown predicate {predicate!r}")
    # shared points of u and u + h = roots of h
    if k <= 2:
        # digit i of h = 0, 1, ..., nv - 1, its degree-i coefficient: each
        # value q^i times in a row, the run repeated q^(k-i) times. One
        # list per digit, not a tuple per h: thousands of short tuples
        # would stay in the interpreter's tuple free list after the build
        digits = [[d for d in range(q) for _ in range(q**i)] * q ** (k - i) for i in range(k + 1)]
        counts = islice(map(ctx.quadratic_root_count, *digits), 1, None)
    else:
        zero = PolyK(k, (0,) * (k + 1))
        counts = (intersection_count(ctx, vertex_to_poly(q, k, h), zero) for h in range(1, nv))
    # bit[c]: "1" when a difference with c roots is an edge; c <= q
    bit = ["01"[c >= t if predicate == "min_shared" else c <= t] for c in range(q + 1)]
    # int(..., 2) reads the highest bit first: reverse the bits of
    # h = 1, 2, ..., then shift past h = 0, which is no edge
    return int("".join(map(bit.__getitem__, counts))[::-1], 2) << 1


def build_graph(
    ctx: FieldCtx, k: int, t: int = 1, predicate: str = "min_shared"
) -> IntersectionGraph:
    """Graph on all degree-<=k polynomials; u ~ v when their graphs share
    at least t points ("min_shared") or at most t points ("max_shared").

    The shared-point count of (u, v) only depends on u - v, so this is a
    Cayley graph on (Z_p)^((k+1)n): a vertex number is the base-p packing
    of its coefficients' digits, and coefficientwise field addition adds
    those digits mod p. Row 0 (_row0) holds the differences h with an
    eligible root count. Every other row is an earlier row translated by
    one unit in a single digit, which is two masked shifts.
    """
    nv = ctx.q ** (k + 1)
    if nv > VERTEX_CAP:
        raise ValueError(f"graph would have {nv} vertices, cap is {VERTEX_CAP}")
    row0 = _row0(ctx, k, t, predicate)
    p = ctx.p
    full = (1 << nv) - 1
    adj = [row0]
    w = 1  # p^i, the weight of digit i
    while w < nv:
        # top: the vertices whose digit i is p - 1, which wrap round to 0
        period = p * w
        top = full // ((1 << period) - 1) * (((1 << w) - 1) << (period - w))
        rest = full ^ top
        wrap = period - w
        # row u = row (u - w) translated by +1 in digit i, digit i of u >= 1
        for u in range(w, period):
            m = adj[u - w]
            adj.append((m & rest) << w | (m & top) >> wrap)
        w = period
    # every row of a Cayley graph has the same degree
    return IntersectionGraph(ctx.q, k, t, predicate, nv, adj, nv * row0.bit_count() // 2)


def missing_edge(graph: IntersectionGraph, vertices) -> tuple[int, int] | None:
    """The first pair (u, v), u < v, of distinct vertices that is not an
    edge of the graph, or None when the vertices form a clique. A vertex
    listed twice is a pair of itself, which is never an edge."""
    adj = graph.adj
    vs = sorted(vertices)
    members = 0
    for v in vs:
        members |= 1 << v
    for i, v in enumerate(vs):
        if i and vs[i - 1] == v:
            return v, v
        gap = members & ~adj[v] & ~(1 << v)
        if gap:
            u = (gap & -gap).bit_length() - 1
            return min(u, v), max(u, v)
    return None


@dataclass(frozen=True)
class CliqueResult:
    size: int
    witness: tuple[int, ...]
    nodes_explored: int
    proven: bool


def max_clique(
    graph: IntersectionGraph, budget: int = DEFAULT_NODE_BUDGET, start=(), floor: int = 0, through=()
) -> CliqueResult:
    """Exact maximum clique via branch and bound.

    Candidates are greedily coloured in ascending vertex order and
    expanded from the highest colour down, pruning branches whose colour
    bound cannot beat the incumbent. Fully deterministic: ties always
    resolve toward the lowest vertex index. `start`, a clique of the
    graph (ValueError otherwise), is the incumbent before the root
    expands, so a known construction prunes from the first node and the
    result is the larger of `start` and what the search finds. Expanding
    more than `budget` nodes stops the search: the result is then a
    best-effort lower bound with proven=False.

    `floor` is a size the result must beat, with no clique behind it:
    when nothing beats it, the result is `start`. With `through`, one
    vertex mask per point, a clique counts only if it lies in none of
    them (has no common point among them): each node carries `live`, the
    points its whole path lies on, and while `live` is not empty branches
    escape-first, only on E = cand & ~through[x] for the live x with the
    fewest such candidates, in colour order, bounded by the node's top
    colour. An empty E prunes the node.
    """
    adj = graph.adj
    n = graph.n_vertices
    best = sorted(start)
    if best and not 0 <= best[0] <= best[-1] < n:
        raise ValueError(f"start {best} has a vertex outside 0..{n - 1}")
    gap = missing_edge(graph, best)
    if gap is not None:
        raise ValueError(f"start is not a clique: {gap[0]} and {gap[1]} are not adjacent")
    top = max(len(best), floor)  # the size a clique must beat
    on = [0] * n  # on[v]: the points whose mask holds v
    for x, t in enumerate(through):
        for v in range(n):
            on[v] |= (t >> v & 1) << x
    nodes = 0
    aborted = False

    def colour(cand: int):
        order: list[int] = []
        colours: list[int] = []
        c = 0
        while cand:
            c += 1
            cls = cand
            while cls:
                v = (cls & -cls).bit_length() - 1
                bit = 1 << v
                cls &= ~adj[v]
                cls ^= bit
                cand ^= bit
                order.append(v)
                colours.append(c)
        return order, colours

    # The walk, in a loop rather than a recursion as deep as the clique:
    # stack[d] = [order, colours, i, cand, live] for the node at depth d,
    # where clique[:d] is its path and order[i] is the next vertex it tries.
    clique: list[int] = []
    stack: list[list] = []
    cand = (1 << n) - 1
    live = (1 << len(through)) - 1
    while cand or stack:
        if cand:  # enter a node whose candidates are cand
            nodes += 1
            if nodes > budget:
                # the path so far is a clique: keep it if it counts and beats the best
                aborted = True
                if not live and len(clique) > top:
                    best = clique.copy()
                break
            order, colours = colour(cand)
            if live:  # escape-first
                esc = min((cand & ~t for x, t in enumerate(through) if live >> x & 1), key=int.bit_count)
                order = [v for v in order if esc >> v & 1]
                colours = [colours[-1]] * len(order)
            stack.append([order, colours, len(order) - 1, cand, live])
        node = stack[-1]
        order, colours, i, cand, live = node
        if i < 0 or len(clique) + colours[i] <= top:
            # the node is done: back up, and drop its vertex from the parent
            stack.pop()
            if stack:
                node = stack[-1]
                node[2] -= 1
                node[3] &= ~(1 << clique.pop())
            cand = 0
            continue
        v = order[i]
        clique.append(v)
        cand &= adj[v]
        live &= on[v]
        if cand:
            continue
        if not live and len(clique) > top:
            best = clique.copy()
            top = len(best)
        clique.pop()
        node[2] = i - 1
        node[3] &= ~(1 << v)
    return CliqueResult(len(best), tuple(sorted(best)), nodes, not aborted)


# ---------------------------------------------------------------------------
# claim-level searches


def ekr_oracle(ctx: FieldCtx, k: int, budget: int = DEFAULT_NODE_BUDGET) -> Report:
    """Exact maximum-clique check on the 1-intersection graph: the
    maximum must be q^k, and on graphs of at most DECISION_CAP vertices,
    every maximum clique must be a pencil (share a point). An unproven
    maximum is a lower bound: over q^k it still refutes the claim.

    The maximum is decided from row 0 (_row0) alone, with no graph and no
    search node, by a clique and a colouring that meet. The graph is
    Cayley, u ~ v exactly when u - v is in row 0, so two mask tests
    suffice. The pencil through (0, 0), the q^k polynomials with constant
    term 0 (vertices 0, q, 2q, ...), is a clique when row 0 holds its
    nonzero members. The q^k cosets f + F_q are independent sets that
    cover every vertex when row 0 holds none of the nonzero constants
    (vertices 1, ..., q - 1). Then a clique has at most one vertex per
    coset, so none beats q^k (the clique-colouring bound, Godsil-Meagher,
    Erdos-Ko-Rado Theorems: Algebraic Approaches, 2015), and the pencil
    reaches it. This works up to q^(k+1) = ROW0_CAP vertices.

    When either test fails, the graph is built (up to VERTEX_CAP
    vertices) and searched: a pencil that is not a clique is a witness,
    and the search then runs without a start; otherwise the pencil is
    its start.

    The equality case is max_clique's decision, with its own `budget`,
    at floor q^k - 1 with the pencil masks of all q^2 points. A clique it
    finds is a witness; otherwise each maximum clique is the pencil
    through its common point, and `maximumCliques` and `pencilPoints`
    come from the pencils that are cliques. It needs k >= 2: at k = 1,
    lines of distinct slopes meet pairwise with no common point, so a
    smaller k is inapplicable and nothing is searched."""
    watch = Stopwatch()
    if k < 2:
        return Report(
            claim_id="ekr-bound",
            field_spec=ctx.report_spec_string(),
            verdict="inapplicable",
            parameters={"k": k, "hypothesis": "k >= 2"},
            wall_time_ms=watch.ms(),
            primary_counter="maxClique",
        )
    q = ctx.q
    nv = q ** (k + 1)
    row0 = _row0(ctx, k)
    witnesses: list = []
    pencil = range(0, nv, q)
    # the pencil less vertex 0: bits q, 2q, ..., nv - q
    spokes = ((1 << nv) - 1) // ((1 << q) - 1) - 1
    g = None
    # the pencil is a clique, and the constants 1, ..., q - 1 are no edge
    if row0 & spokes == spokes and not row0 & ((1 << q) - 2):
        res = CliqueResult(q**k, tuple(pencil), 0, True)
    else:
        g = build_graph(ctx, k, 1)
        gap = missing_edge(g, pencil)
        if gap is None:
            res = max_clique(g, budget, pencil)
        else:
            witnesses.append({"construction": "pencil through (0, 0)", "missingEdge": list(gap)})
            res = max_clique(g, budget)
    counters = {
        "vertices": nv,
        "edges": nv * row0.bit_count() // 2,
        "maxClique": res.size,
        "nodesExplored": res.nodes_explored,
    }
    params: dict = {"k": k, "proven": res.proven}
    if not res.proven:
        params["nodeBudget"] = budget
    if res.size > q**k or (res.proven and res.size < q**k):
        witnesses.append({"maxClique": res.size, "expected": q**k, "witness": list(res.witness)})
    elif res.proven and nv <= DECISION_CAP:
        # can a clique of q^k vertices lack a common point?
        if g is None:
            g = build_graph(ctx, k, 1)
        points = [(x, y) for x in range(q) for y in range(q)]
        through = _through_masks(ctx, k, points)
        dec = max_clique(g, budget, floor=q**k - 1, through=through)
        if dec.size >= q**k:
            witnesses.append({"clique": list(dec.witness), "commonPoint": None})
        elif not dec.proven:
            params["nodeBudget"] = budget
        else:
            # each maximum clique is the whole pencil through its common
            # point: list the pencils that are cliques, in the
            # lexicographic order of their vertex lists
            pencils = []
            for point, mask in zip(points, through):
                members = [v for v in range(nv) if mask >> v & 1]
                if missing_edge(g, members) is None:
                    pencils.append((members, list(point)))
            counters["maximumCliques"] = len(pencils)
            params["pencilPoints"] = [point for _, point in sorted(pencils)]
    return Report(
        claim_id="ekr-bound",
        field_spec=ctx.report_spec_string(),
        verdict="budget-exceeded" if "nodeBudget" in params else None,
        parameters=params,
        witnesses=witnesses,
        counters=counters,
        wall_time_ms=watch.ms(),
        primary_counter="maxClique",
    )


def rootable_count(ctx: FieldCtx, d: int, w: int) -> int:
    """How many v in F_q make d x^2 + v x + w rootable over F_q.
    Closed form: q odd gives (q+1)/2 when w/d is a square else (q-1)/2;
    q even gives q/2. This routine counts directly; tests compare."""
    if d == 0 or w == 0:
        raise ValueError("d and w must be nonzero")
    count = 0
    for v in range(ctx.q):
        if ctx.quadratic_root_count(w, v, d) > 0:
            count += 1
    return count


def sam0_check(ctx: FieldCtx, k: int, t: int, budget: int = DEFAULT_NODE_BUDGET) -> Report:
    """Exact clique bounds on both sides of t-intersection: families with
    every pair sharing >= t points have at most q^(k+1-t) members, and
    families with every pair sharing <= t-1 points have at most q^t.
    Each side's search stops after `budget` nodes, and the report names
    the sides that did. An unproven maximum is a lower bound, so it can
    break its bound but never prove it."""
    watch = Stopwatch()
    if not (1 <= t <= k):
        raise ValueError("need 1 <= t <= k")
    q = ctx.q
    g1 = build_graph(ctx, k, t, "min_shared")
    r1 = max_clique(g1, budget)
    bound1 = q ** (k + 1 - t)
    g2 = build_graph(ctx, k, t - 1, "max_shared")
    r2 = max_clique(g2, budget)
    bound2 = q**t
    exhausted = [side for side, r in (("min_shared", r1), ("max_shared", r2)) if not r.proven]
    params: dict = {"k": k, "t": t}
    if exhausted:
        params.update(nodeBudget=budget, exhaustedSides=exhausted)
    witnesses = []
    if r1.size > bound1:
        witnesses.append({"side": "min_shared", "max": r1.size, "bound": bound1, "witness": list(r1.witness)})
    if r2.size > bound2:
        witnesses.append({"side": "max_shared", "max": r2.size, "bound": bound2, "witness": list(r2.witness)})
    return Report(
        claim_id="clique-bounds",
        field_spec=ctx.report_spec_string(),
        verdict="budget-exceeded" if exhausted else None,
        parameters=params,
        witnesses=witnesses,
        counters={
            "intersectingMax": r1.size,
            "intersectingBound": bound1,
            "intersectingNodes": r1.nodes_explored,
            "scatteredMax": r2.size,
            "scatteredBound": bound2,
            "scatteredNodes": r2.nodes_explored,
        },
        wall_time_ms=watch.ms(),
        primary_counter="intersectingMax",
    )


# Ranks this close to either end of the mask are found by stripping set
# bits one at a time; farther in, bisection is cheaper. Timed on the
# probe's own (mask, rank) pairs at q = 4..9, where about three quarters
# of the ranks lie within 8 of an end.
STRIP_CUT = 8


def _nth_set_bit(mask: int, n: int, r: int) -> int:
    """Index of the r-th of the n set bits of mask (r = 0 is the lowest).
    Within STRIP_CUT of either end, strip the set bits below it (or above
    it) one at a time; otherwise bisect on the popcount of mask's high
    bits."""
    above = n - 1 - r  # set bits above the one sought
    if r <= above:
        if r <= STRIP_CUT:
            for _ in range(r):
                mask &= mask - 1
            return (mask & -mask).bit_length() - 1
    elif above <= STRIP_CUT:
        for _ in range(above):
            mask ^= 1 << (mask.bit_length() - 1)
        return mask.bit_length() - 1
    lo, hi = 0, mask.bit_length()
    # mask >> lo has more than `above` set bits, mask >> hi at most that
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (mask >> mid).bit_count() > above:
            lo = mid
        else:
            hi = mid
    return lo


def _through_masks(ctx: FieldCtx, k: int, points) -> list[int]:
    """Entry i: the vertex mask, at degree k, of the pencil through
    points[i], an (x, y) pair. A clique has a common point among the
    points exactly when its mask lies inside one of these masks."""
    q = ctx.q
    masks = []
    for x, y in points:
        members = pencil(ctx, x, y, k).members
        masks.append(sum(1 << sum(c * q**i for i, c in enumerate(f.coeffs)) for f in members))
    return masks


def _zero_frame(adj: list[int], through: list[int]) -> tuple[list[int], list[int], list[int]]:
    """adj and through restricted to N(0), the neighbours of vertex 0,
    with each vertex renumbered by its position in N(0): (members,
    frame adjacency, frame through masks), where members lists N(0) in
    ascending order, so frame vertex j is vertex members[j]. Every probe
    member after vertex 0 lies in N(0). The renumbering keeps the order,
    so the r-th set bit of a frame mask is the frame number of the r-th
    set bit of the full one."""
    nv = len(adj)
    members = [v for v in range(nv) if adj[0] >> v & 1]
    # the binary digits of a full mask, most significant first, picked
    # down to those of the members
    pick = itemgetter(*[nv - 1 - v for v in reversed(members)])

    def restrict(mask: int) -> int:
        return int("".join(pick(format(mask, f"0{nv}b"))), 2)

    return members, [restrict(adj[v]) for v in members], [restrict(t) for t in through]


def _probe_trials(q: int, frame: tuple[list[int], list[int], list[int]], seed: int, trials: int):
    """The trials of stability_probe at k = 2, as (sizes, overThreshold,
    witnesses). One generator, seeded once with seed, draws every trial in
    turn, so a trial's draws depend on every trial before it: a witness's
    trial is its position in this one stream, and replaying it means
    replaying trials 0..trial in order.

    A trial starts from vertex 0, the zero polynomial, and adds a
    uniformly random current candidate until none is left. This draws the
    same cliques, with the same probabilities, as taking the other
    vertices in a uniformly shuffled order: candidate sets only shrink,
    so every current candidate lies in the unexamined part of the order,
    and the first of them there is uniform over the candidates. Any other
    start draws the translates of these cliques: the graph is a Cayley
    graph. Each draw is made inline the way CPython 3.10-3.13's Random
    makes randrange(n): k = n.bit_length() bits, redrawn while r >= n.

    The walk runs in the N(0) frame (_zero_frame) and stops once its
    candidates form a clique: every later draw would keep all the others,
    so all of them join, in any order, and the vertex set, its size and
    the common-point test are the full walk's. The test keeps one
    candidate u and its non-neighbours among the candidates as a
    certificate; only when that breaks does it scan the candidates from
    the lowest up, for a new u or for the stop. An over-threshold clique
    is a witness unless it lies inside one of the frame's through masks;
    the first WITNESS_CAP witnesses are kept, in trial order, each with
    its clique in ascending vertex order."""
    members, fadj, fthrough = frame
    n0 = len(fadj)
    k0 = n0.bit_length()
    # non[v]: the frame vertices other than v that v is not adjacent to
    full = (1 << n0) - 1
    non = [full ^ m ^ (1 << v) for v, m in enumerate(fadj)]
    over = [exceeds_threshold(q, m, 2) for m in range(q * q + 1)]
    getrandbits = random.Random(seed).getrandbits
    sizes: dict[int, int] = {}
    witnesses = []
    over_threshold = 0
    for i in range(trials):
        # the first draw is over all of N(0): its rank is its frame number
        v = getrandbits(k0)
        while v >= n0:
            v = getrandbits(k0)
        mask = 1 << v
        cand = fadj[v]
        u = v  # not a candidate, so the first test scans
        while True:
            if not (cand >> u & 1 and cand & non[u]):
                c = cand
                while c:
                    u = (c & -c).bit_length() - 1
                    if cand & non[u]:
                        break
                    c &= c - 1
                else:
                    break
            n = cand.bit_count()
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            v = _nth_set_bit(cand, n, r)
            mask |= 1 << v
            cand &= fadj[v]
        mask |= cand
        m = mask.bit_count() + 1  # and vertex 0
        sizes[m] = sizes.get(m, 0) + 1
        if m <= q * q:
            if not over[m]:
                continue
            over_threshold += 1
            if any(mask & t == mask for t in fthrough):
                continue
        if len(witnesses) < WITNESS_CAP:
            clique = [0] + [v for j, v in enumerate(members) if mask >> j & 1]
            witness = {"trial": i, "size": m, "clique": clique}
            if m <= q * q:
                witness["commonPoint"] = None
            witnesses.append(witness)
    return sizes, over_threshold, witnesses


def stability_probe(ctx: FieldCtx, trials: int, seed: int = DEFAULT_SEED) -> Report:
    """Randomized maximal intersecting families at k = 2: start from the
    zero polynomial, complete greedily with uniformly random candidates
    (_probe_trials), then check that no family beats q^2 and that every
    family over the size threshold has a common point: every probe
    clique holds vertex 0, whose graph is y = 0, so any point its members
    share is some (x, 0), and _through_masks gives those q pencils.
    Every trial runs in this process, drawn in order from one generator
    seeded with seed. The witnesses are the first WITNESS_CAP in trial
    order; overThreshold counts every over-threshold trial. Zero trials
    check nothing and are inapplicable."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    watch = Stopwatch()
    adj = build_graph(ctx, 2, 1).adj
    frame = _zero_frame(adj, _through_masks(ctx, 2, [(x, 0) for x in range(ctx.q)]))
    sizes, over_threshold, witnesses = _probe_trials(ctx.q, frame, seed, trials)
    return Report(
        claim_id="stability-probe",
        field_spec=ctx.report_spec_string(),
        verdict=None if trials else "inapplicable",
        parameters={
            "trials": trials,
            "k": 2,
            "sizeDistribution": {str(s): c for s, c in sorted(sizes.items())},
        },
        witnesses=witnesses,
        counters={
            "trials": trials,
            "distinctSizes": len(sizes),
            "overThreshold": over_threshold,
            "maxSize": max(sizes) if sizes else 0,
        },
        wall_time_ms=watch.ms(),
        seed=seed,
        primary_counter="maxSize",
    )


def graph_dump_lines(graph: IntersectionGraph) -> list[str]:
    """Adjacency dump: a '#' header documenting the format, then one hex
    bitmask per vertex in index order."""
    head = (
        f"# intersection-graph q={graph.q} k={graph.k} t={graph.t} "
        f"predicate={graph.predicate} vertices={graph.n_vertices} "
        f"edges={graph.edge_count}"
    )
    doc = "# vertex i = polynomial with base-q digits of i as coefficients, low degree first; line i = hex adjacency bitmask"
    return [head, doc] + [format(m, "x") for m in graph.adj]
