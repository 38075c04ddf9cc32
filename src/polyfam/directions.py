"""Direction sets of function graphs and the affine classification scan.

The direction set of sigma: F_q -> F_q collects the slopes
(sigma(x) - sigma(y)) / (x - y) over unordered pairs of distinct points.
The scan verifies, per field, that any function whose direction set
spans a proper F_p-subspace must be affine, and counts the affine
functions it meets along the way.

A span is kept as the additive subgroup itself: a q-bit int with bit e
set for each element e in it, so {0} is 1 and F_q is 2^q - 1. Adding x
outside the span S takes the union of the translates S + j*x, j < p,
with the field's addition, the same code at every characteristic.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .gf import FieldCtx, Fe
from .report import DEFAULT_NODE_BUDGET, WITNESS_CAP, Report, Stopwatch


# carlitz_scan writes one progress line on stderr every this many nodes
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

    sub, mul = ctx.sub, ctx.mul
    inv = [0] + [ctx.inv(d) for d in range(1, q)]
    full = (1 << q) - 1

    affine = 0
    candidates = 0
    nodes = 0
    aborted = False
    witnesses: list = []
    # the walk, one position m at a time, in a loop rather than a
    # recursion q deep: spans[m] is the span of the directions of vals[:m]
    # as a q-bit mask, bit e set for each element e in it, and
    # vals[m] + 1 is the next value to try at m once its subtree is done
    vals = [-1] * q
    spans = [1] + [0] * (q - 1)
    m = 0
    while m >= 0:
        v = vals[m] + 1
        if v == (q if m else 1):  # sigma(0) = 0
            vals[m] = -1
            m -= 1
            continue
        nodes += 1
        if nodes > node_budget:
            aborted = True
            break
        if nodes % PROGRESS_EVERY == 0:
            rate = nodes / (time.perf_counter() - watch.t0)
            print(f"direction-span-affine {spec}: {nodes} nodes, {rate:.0f} nodes/s", file=sys.stderr, flush=True)
        vals[m] = v
        child = spans[m]
        for j in range(m):
            child = _span_with(ctx, child, mul(sub(v, vals[j]), inv[sub(m, j)]))
            if child == full:
                break
        if child == full:
            continue
        if m + 1 == q:
            # leaf with a proper direction span: must be affine
            candidates += q  # with its q translates
            if is_affine(ctx, vals):
                affine += q
            elif len(witnesses) < WITNESS_CAP:
                witnesses.append({"values": list(vals)})
        else:
            m += 1
            spans[m] = child
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
