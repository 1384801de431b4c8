"""Greedy maximization of beta*TUDiv + mu*TIDiv + rel, for overlapping or
disjoint groupings.

Each unused candidate edge sits in a max priority queue keyed by its exact
marginal gain.  When a (user, category) pair reaches its threshold the key
of every unused edge from that user into that category drops by beta, and
symmetrically by mu for (item, type) pairs; keys only ever decrease, so one
key update per affected edge per saturation event keeps every key exact.
Keys are recomputed from the integer unsaturated-pair counts (not
decremented in floating point) so that they match a from-scratch marginal
computation bit for bit.

The queue is two-level with lazy repair: one small heapq per user over
that user's unused edges, and a global heapq holding each unfilled user's
current best entry.  A key decrease updates only the integer counters; the
key itself is recomputed when the edge surfaces at the top of a heap, and
an entry whose stored key no longer matches is reinserted at its current
key instead of being used.  An entry is acted on only when stored and
current key agree, so the edge extracted each round is exactly the argmax
of the true marginals (with ties toward the lowest edge index), identical
to eager decrease-key but with all heap traffic in C.  Users at capacity
leave the global heap, so their remaining edges are never popped, and
reinsertions are bounded by the number of key decreases — preserving the
O((E + saturation events) log E) bound.

Each entry is a single integer (~(IEEE-754 key bits) << 32 | edge index).
For nonnegative floats the raw bit pattern is order-isomorphic to the
value, so the complemented bits give max-first ordering with exact float
semantics and edge-index tie-breaking at both heap levels, while keeping
heap entries compact.
"""

from __future__ import annotations

import struct
from array import array
from heapq import heapify, heappop, heappush

import numpy as np

from .errors import DuplicateEdgeError
from .graph import DivParams, Grouping, RecGraph, Solution, ThresholdTable, new_solution

_SLICE = 1 << 16  # edges per slice when building the initial heap entries


def marginal_gain(
    sol: Solution, edge_index: int, thresholds: ThresholdTable, params: DivParams
) -> float:
    """Objective gain of adding one unused edge to the current solution."""
    if sol.is_selected(edge_index):
        raise DuplicateEdgeError(f"edge {edge_index} already selected")
    e = sol.graph.edges[edge_index]
    ucats = 0
    for a in sol.item_cats.groups_of(e.item):
        if sol.user_group_degree.get((e.user, a), 0) < thresholds.rho(e.user, a):
            ucats += 1
    itypes = 0
    for b in sol.user_types.groups_of(e.user):
        if sol.item_group_degree.get((e.item, b), 0) < thresholds.lam(e.item, b):
            itypes += 1
    return e.relevance + params.beta * ucats + params.mu * itypes


def greedy_solve(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
    collect_stats: bool = False,
) -> Solution | tuple[Solution, dict[str, int]]:
    """Near-linear greedy: repeatedly extract the max-gain edge, lazily
    discarding edges of users already at capacity.

    With ``collect_stats=True`` also returns counters (pops = edges
    extracted, decrease_keys = key-lowering updates) for the runtime-bound
    checks.
    """
    beta, mu = params.beta, params.mu
    rho, lam = thresholds.rho, thresholds.lam
    euser = _compact(graph.edge_user, "i")
    eitem = _compact(graph.edge_item, "i")
    erel = _compact(graph.edge_rel, "d")
    cats_of = item_cats.membership + [[]] * (graph.num_items - len(item_cats.membership))
    types_of = user_types.membership + [[]] * (graph.num_users - len(user_types.membership))

    pack, unpack = struct.pack, struct.unpack
    mask = (1 << 64) - 1

    # Per-edge counts of not-yet-saturated incident pairs; pairs with a zero
    # threshold are born saturated and carry no key mass.
    edge, cat = item_cats.expand(graph.edge_item)
    user = graph.edge_user[edge]
    live = thresholds.rhos(user, cat) > 0
    pending_uc = _pending(edge[live], user[live], cat[live])
    ucnt = np.bincount(edge[live], minlength=graph.num_edges)
    edge, type_ = user_types.expand(graph.edge_user)
    item = graph.edge_item[edge]
    live = thresholds.lams(item, type_) > 0
    pending_it = _pending(edge[live], item[live], type_[live])
    icnt = np.bincount(edge[live], minlength=graph.num_edges)
    del edge, cat, type_, user, item, live

    # Initial keys in the loop's operation order, so the bits match those
    # user_best recomputes.  Entries are built in slices of the per-user
    # (CSR) order, which keeps the temporary lists small.
    inverted = (~(graph.edge_rel + beta * ucnt + mu * icnt).view(np.uint64))[graph.user_order]
    entries: list[int] = []
    for s in range(0, graph.num_edges, _SLICE):
        entries += [(h << 32) | e for h, e in zip(inverted[s:s + _SLICE].tolist(),
                                                  graph.user_order[s:s + _SLICE].tolist())]
    del inverted
    bounds = graph.user_offsets.tolist()
    user_heaps = [entries[bounds[u]:bounds[u + 1]] for u in range(graph.num_users)]
    del entries
    for h in user_heaps:
        heapify(h)
    ucnt = _compact(ucnt, "i")
    icnt = _compact(icnt, "i")

    sol = new_solution(graph, user_types, item_cats)
    remaining = list(graph.display_constraints)
    dead = bytearray(graph.num_edges)
    ugd = sol.user_group_degree
    igd = sol.item_group_degree
    pops = 0
    decreases = 0

    def user_best(u: int) -> int:
        # fresh top entry of u's heap, or -1; stale tops (their counters
        # moved since insertion) are requeued at their current key,
        # selected edges dropped.  Keys are recomputed from the counters
        # only here, when an edge surfaces, not on every saturation event.
        h = user_heaps[u]
        while h:
            ent = h[0]
            e = ent & 0xFFFFFFFF
            if dead[e]:
                heappop(h)
                continue
            bits = unpack(
                "<Q", pack("<d", erel[e] + beta * ucnt[e] + mu * icnt[e])
            )[0]
            ce = ((mask - bits) << 32) | e
            if ent != ce:
                heappop(h)
                heappush(h, ce)
            else:
                return ent
        return -1

    gheap = []
    for u in range(graph.num_users):
        best = user_best(u)
        if best != -1:
            gheap.append(best)
    heapify(gheap)

    while gheap:
        gent = heappop(gheap)
        pops += 1
        eidx = gent & 0xFFFFFFFF
        u = euser[eidx]
        if remaining[u] == 0:
            continue
        best = user_best(u)
        if best == -1:
            continue
        if best != gent:
            # this user's best changed since the entry was pushed
            heappush(gheap, best)
            continue
        heappop(user_heaps[u])
        dead[eidx] = 1
        remaining[u] -= 1
        v = eitem[eidx]
        sol.selected[u].append(eidx)
        sol._selected_set.add(eidx)
        for a in cats_of[v]:
            d = ugd.get((u, a), 0) + 1
            ugd[(u, a)] = d
            r = rho(u, a)
            if r > 0 and d == r:
                for e2 in pending_uc.pop((u, a)).tolist():
                    if not dead[e2] and remaining[euser[e2]]:
                        ucnt[e2] -= 1
                        decreases += 1
        for b in types_of[u]:
            d = igd.get((v, b), 0) + 1
            igd[(v, b)] = d
            lm = lam(v, b)
            if lm > 0 and d == lm:
                for e2 in pending_it.pop((v, b)).tolist():
                    if not dead[e2] and remaining[euser[e2]]:
                        icnt[e2] -= 1
                        decreases += 1
        if remaining[u]:
            nb = user_best(u)
            if nb != -1:
                heappush(gheap, nb)
    for lst in sol.selected:
        lst.sort()
    if collect_stats:
        return sol, {"pops": pops, "decrease_keys": decreases}
    return sol


def _compact(column: np.ndarray, typecode: str) -> array:
    """A column as a Python array: indexed as fast as a list, without one
    Python object per element."""
    return array(typecode, column.astype(np.dtype(typecode)).tobytes())


def _pending(edges: np.ndarray, owners: np.ndarray,
             groups: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """(owner, group) -> the ``edges`` listed with that pair, in increasing
    edge order: views into one stable argsort of the pair keys."""
    if not len(edges):
        return {}
    width = int(groups.max()) + 1
    keys = owners.astype(np.int64) * width + groups
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    flat = edges[order].astype(np.int32)
    bounds = [0, *(np.flatnonzero(np.diff(keys)) + 1).tolist(), len(keys)]
    heads = keys[bounds[:-1]]
    return {
        pair: flat[start:end]
        for pair, start, end in zip(
            zip((heads // width).tolist(), (heads % width).tolist()), bounds, bounds[1:]
        )
    }


def naive_greedy(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
) -> Solution:
    """Literal quadratic greedy: full argmax scan per round, tie-break by
    lowest edge index.  Reference implementation for equivalence tests."""
    sol = new_solution(graph, user_types, item_cats)
    remaining = list(graph.display_constraints)
    unused = [e.index for e in graph.edges]
    while True:
        best = -1
        best_gain = float("-inf")
        for eidx in unused:
            if remaining[graph.edges[eidx].user] == 0:
                continue
            gain = marginal_gain(sol, eidx, thresholds, params)
            if gain > best_gain:
                best, best_gain = eidx, gain
        if best == -1:
            break
        remaining[graph.edges[best].user] -= 1
        sol.add_edge(best)
        unused.remove(best)
    return sol
