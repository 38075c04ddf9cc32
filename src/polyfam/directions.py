"""Direction sets of function graphs and the two direction scans.

The direction set of sigma: F_q -> F_q collects the slopes
(sigma(x) - sigma(y)) / (x - y) over unordered pairs of distinct points.
carlitz_scan verifies, per field, that any function whose direction set
spans a proper F_p-subspace must be affine, and counts the affine
functions it meets along the way. mcconnel_scan lists the F with
F(0) = 0, F(1) = 1 whose directions all lie in the group of e-th roots
of unity, e = (q-1)/delta, to compare with the power maps x -> x^(p^j)
that McConnel's theorem predicts.

Both walk the value tables in one odometer, _walk, which holds a set of
directions per position as a q-bit int, bit e set for each element e in
it, and prunes once that set is the whole field. For carlitz_scan the
set is the additive subgroup the directions span, from {0} (the int 1);
adding x outside the span S takes the union of the translates S + j*x,
j < p, with the field's addition, the same code at every characteristic.
For mcconnel_scan it is the group of roots itself, and a direction
outside it prunes.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .gf import FieldCtx, Fe
from .report import DEFAULT_NODE_BUDGET, WITNESS_CAP, Report, Stopwatch


# each direction scan writes one progress line on stderr every this many nodes
PROGRESS_EVERY = 10**6


@dataclass(frozen=True)
class DirectionSet:
    members: frozenset
    span_dim: int


def _span_with(ctx: FieldCtx, span: int, x: Fe) -> int:
    """The additive span of the subgroup `span` and x: span itself when x
    is in it, F_q when span has index p, else the union of the translates
    span + j*x for j < p."""
    if span >> x & 1:
        return span
    q = ctx.q
    if span.bit_count() * ctx.p == q:
        return (1 << q) - 1
    out = rest = span
    while rest:  # each member e, lowest first, adds e + x, ..., e + (p-1)x
        low = rest & -rest
        rest ^= low
        y = low.bit_length() - 1
        for _ in range(ctx.p - 1):
            y = ctx.add(y, x)
            out |= 1 << y
    return out


def additive_span(ctx: FieldCtx, elems) -> int:
    """Dimension of the F_p-span of the given elements: the exact log_p
    of the span's size."""
    span = 1
    for x in elems:
        span = _span_with(ctx, span, x)
    size, dim = span.bit_count(), 0
    while size > 1:
        size //= ctx.p
        dim += 1
    return dim


def direction_set(ctx: FieldCtx, values) -> DirectionSet:
    """Direction set of the function given as a full value table.

    The member set has exactly one element iff the function is affine
    (constants contribute the single direction 0).
    """
    vals = tuple(values)
    if len(vals) != ctx.q:
        raise ValueError(f"value table must have q={ctx.q} entries")
    members = set()
    for i in range(ctx.q):
        for j in range(i + 1, ctx.q):
            d = ctx.mul(ctx.sub(vals[i], vals[j]), ctx.inv(ctx.sub(i, j)))
            members.add(d)
    return DirectionSet(frozenset(members), additive_span(ctx, members))


def is_affine(ctx: FieldCtx, values) -> bool:
    a = ctx.sub(values[1], values[0])  # element 1 is the unit, so slope = diff
    b = values[0]
    return all(values[x] == ctx.add(ctx.mul(a, x), b) for x in range(2, ctx.q))


def _walk(ctx: FieldCtx, label: str, prefix, start: int, grow, leaf, node_budget: int) -> int:
    """Walk the value tables that begin with prefix, in odometer order
    (low position first, low value first), and prune every prefix whose
    directions leave a proper set.

    masks[m] is the q-bit set reached by the directions of vals[:m],
    start at m = 0. Each value v at position m adds its direction to
    every earlier position j through grow(ctx, mask, d), which returns
    the full mask to prune; a table that survives every position goes to
    leaf(vals). The prefix positions are walked, and counted, like the
    rest, each with its one value. Returns the nodes visited, which is
    node_budget + 1 when the budget stopped the walk. Every
    PROGRESS_EVERY nodes the walk writes label, the nodes so far and the
    rate to stderr."""
    q = ctx.q
    sub = ctx.sub
    inv = [0] + [ctx.inv(d) for d in range(1, q)]
    # a direction (v - w) / (m - j) is exp[log(v - w) + log(1 / (m - j))],
    # or 0 when v = w; exp runs twice round, so the sum needs no reduction
    log, exp = ctx.log, ctx.exp * 2
    full = (1 << q) - 1
    t0 = time.perf_counter()
    # position m takes the values first[m], ..., stop[m] - 1, and
    # vals[m] + 1 is the next one to try once its subtree is done: a
    # loop rather than a recursion q deep
    first = list(prefix) + [0] * (q - len(prefix))
    stop = [v + 1 for v in prefix] + [q] * (q - len(prefix))
    vals = [v - 1 for v in first]
    masks = [start] * q
    # rows[m][j] = log(1 / (m - j)), built when the walk first reaches m
    rows = [[]] + [None] * (q - 1)
    nodes = 0
    m = 0
    while m >= 0:
        v = vals[m] + 1
        if v == stop[m]:
            vals[m] = first[m] - 1
            m -= 1
            continue
        nodes += 1
        if nodes > node_budget:
            break
        if nodes % PROGRESS_EVERY == 0:
            rate = nodes / (time.perf_counter() - t0)
            print(f"{label}: {nodes} nodes, {rate:.0f} nodes/s", file=sys.stderr, flush=True)
        vals[m] = v
        child = masks[m]
        row = rows[m]
        for j in range(m):
            x = sub(v, vals[j])
            child = grow(ctx, child, exp[log[x] + row[j]] if x else 0)
            if child == full:
                break
        if child == full:
            continue
        if m + 1 == q:
            leaf(vals)
        else:
            m += 1
            masks[m] = child
            if rows[m] is None:
                rows[m] = [log[inv[sub(m, j)]] for j in range(m)]
    return nodes


def carlitz_scan(ctx: FieldCtx, node_budget: int = DEFAULT_NODE_BUDGET) -> Report:
    """Check that a proper direction span forces affinity.

    The scan covers all q^q value tables. sigma and sigma + c have the
    same directions and are affine together, so it walks only the tables
    with sigma(0) = 0, in odometer order, and weights each candidate by
    its q translates: `affine` and `candidates` count all q^q tables, the
    partial counts of a stopped scan too, and the unreduced walk visits
    exactly q * nodesVisited nodes. Witnesses have sigma(0) = 0; every
    counterexample has a translate there. Subtrees whose assigned prefix
    already has directions spanning all of F_q are skipped: no completion
    of such a prefix can be a candidate, and affine functions (span dim
    at most 1) are never skipped, so the verdict and the affine count are
    exact. Visiting more than node_budget nodes stops the scan with
    verdict budget-exceeded and partial counters, unless a counterexample
    was already found. At q = 2 the claim does not apply, so the verdict
    is inapplicable. Every PROGRESS_EVERY nodes the scan writes the nodes
    so far and the rate to stderr.
    """
    watch = Stopwatch()
    q, n = ctx.q, ctx.n
    spec = ctx.report_spec_string()
    params: dict = {"mode": "exhaustive", "order": "odometer, low element index first"}
    if q == 2:
        params["hypothesisNote"] = "classification needs q > 2; this run is vacuous"

    affine = 0
    candidates = 0
    witnesses: list = []

    def leaf(vals):
        # a proper direction span: the table must be affine
        nonlocal affine, candidates
        candidates += q  # with its q translates
        if is_affine(ctx, vals):
            affine += q
        elif len(witnesses) < WITNESS_CAP:
            witnesses.append({"values": list(vals)})

    # the span starts as the subgroup {0}, the mask 1
    nodes = _walk(ctx, f"direction-span-affine {spec}", (0,), 1, _span_with, leaf, node_budget)
    aborted = nodes > node_budget
    counters = {"affine": affine, "candidates": candidates, "nodesVisited": nodes}
    if aborted:
        params["nodeBudget"] = node_budget
    else:
        counters["scanned"] = q**q
        # over a prime field only constants have a proper span, since any
        # single nonzero direction already spans F_p
        expected_affine = q * q if n >= 2 else q
        if affine != expected_affine and not witnesses:
            witnesses.append({"affineCount": affine, "expected": expected_affine})

    return Report(
        claim_id="direction-span-affine",
        field_spec=spec,
        verdict="budget-exceeded" if aborted else "inapplicable" if q == 2 else None,
        parameters=params,
        witnesses=witnesses,
        counters=counters,
        wall_time_ms=watch.ms(),
        primary_counter="affine",
    )


def power_map_exponent(ctx: FieldCtx, delta: int) -> int:
    """(q-1)/delta, or ValueError unless delta exceeds 1 and divides q-1."""
    if delta <= 1 or (ctx.q - 1) % delta != 0:
        raise ValueError("delta must exceed 1 and divide q-1")
    return (ctx.q - 1) // delta


def mcconnel_scan(
    ctx: FieldCtx, delta: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> list | None:
    """All F: F_q -> F_q with F(0) = 0, F(1) = 1 and
    (F(x) - F(y))^e = (x - y)^e for all x != y, e = (q-1)/delta: the F
    whose directions all lie in the group H of e-th roots of unity.
    The walk starts from the mask of H and prunes at the first direction
    outside it. Returns the value tables in odometer order, which is
    sorted, or None when the scan would visit more than node_budget
    nodes, the two fixed positions included. Every PROGRESS_EVERY nodes
    the scan writes the nodes so far and the rate to stderr."""
    q = ctx.q
    e = power_map_exponent(ctx, delta)
    roots = sum(1 << x for x in range(1, q) if ctx.pow(x, e) == 1)
    full = (1 << q) - 1
    found: list = []
    label = f"power-map-class {ctx.report_spec_string()} delta {delta}"
    nodes = _walk(ctx, label, (0, 1), roots, lambda ctx, mask, d: mask if mask >> d & 1 else full,
                  lambda vals: found.append(tuple(vals)), node_budget)
    return None if nodes > node_budget else found


def power_map_prediction(ctx: FieldCtx, delta: int) -> list:
    """Value tables of x -> x^(p^j) for 0 <= j < n with delta | p^j - 1,
    sorted. This is the classified solution set for mcconnel_scan."""
    q = ctx.q
    power_map_exponent(ctx, delta)
    out = set()
    for j in range(ctx.n):
        if (ctx.p**j - 1) % delta == 0:
            out.add(tuple(ctx.frobenius(x, j) for x in range(q)))
    return sorted(out)
