"""Exact optimizers for disjoint groupings via min-cost flow reductions.

The network rewards the first rho_i(R_a) selections a user makes in a
category with -beta each, the first lambda_j(L_b) selections an item
receives from a type with -mu each, and every used candidate edge with
-rel.  Minimizing total cost therefore maximizes
beta*TUDiv + mu*TIDiv + rel.  Costs are scaled to integers; all
quantization error is bounded by |E| / cost_scale.

Nodes: users 0..U-1, the sink at U, and one node n per (user, category)
and one node m per (item, type) pair incident to a candidate edge, so the
network has O(|E|) size.  Each pair gets a bonus arc (u -> n of capacity
rho and cost -beta; m -> sink of capacity lambda and cost -mu) and beside
it a free arc with the same endpoints, infinite capacity and cost 0; each
candidate edge an arc n -> m of capacity 1 and cost -rel; each user a
zero-cost slack arc u -> sink of capacity c_u, which keeps the network
feasible when a user has fewer candidates than its display constraint.
The bonus arc is the path u -> n' -> n of the textbook gadget with its
relay node n' removed: both hops have capacity rho, so the path carries
what one arc of capacity rho and the summed cost carries.  Items need no
node: their type nodes feed the sink directly.

Gadgets are created in edge index order, bonus arc first.  The solver
prices arcs in insertion order, so this order fixes which of several tied
optima is returned.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupingError, GraphError, InfeasibleError
from .graph import (DivParams, Grouping, RecGraph, Solution, ThresholdTable, new_solution,
                    threshold_cells)
from .mincostflow import INF_CAP, FlowNetwork, FlowResult, solve_min_cost_flow

DEFAULT_COST_SCALE = 10**6
_MAX_COST = 1 << 60


def _scaled(value: float, cost_scale: int) -> int:
    scaled = round(value * cost_scale)
    if abs(scaled) >= _MAX_COST:
        raise GraphError(f"scaled cost overflow: {value} * {cost_scale}")
    return scaled


def _cell_of_each(grouping: Grouping, owners: np.ndarray, members: np.ndarray,
                  num_owners: int, what: str) -> list[int]:
    """The (owner, group) cell of each row, which a disjoint grouping must
    give every member incident to a candidate edge exactly one of."""
    if not grouping.disjoint:
        raise GroupingError(f"{what} grouping must be disjoint for the flow reduction")
    position, cell = grouping.cells(owners, members, num_owners)
    if len(cell) < len(members):
        ungrouped = np.ones(len(members), dtype=bool)
        ungrouped[position] = False
        raise GroupingError(f"{what} {int(members[ungrouped].min())} is incident to a "
                            "candidate edge but has no group")
    return cell.tolist()


def build_tdiv_network(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
    cost_scale: int = DEFAULT_COST_SCALE,
) -> tuple[FlowNetwork, list[int]]:
    """Reduction network for the full thresholded two-sided objective, and
    the arc of each candidate edge (``edge_arc[e]`` is edge e's arc)."""
    if cost_scale < 1:
        raise GraphError(f"cost_scale must be a positive integer, got {cost_scale}")
    types = _cell_of_each(user_types, graph.edge_item, graph.edge_user, graph.num_items, "user")
    cats = _cell_of_each(item_cats, graph.edge_user, graph.edge_item, graph.num_users, "item")
    sink = graph.num_users
    rho = memoryview(threshold_cells(thresholds.rho_table, sink, item_cats.num_groups))
    lam = memoryview(threshold_cells(thresholds.lam_table, graph.num_items, user_types.num_groups))

    net = FlowNetwork(sink + 1)
    beta_cost = -_scaled(params.beta, cost_scale)
    mu_cost = -_scaled(params.mu, cost_scale)
    cat_node: dict[int, int] = {}  # (user, category) cell -> n
    type_node: dict[int, int] = {}  # (item, type) cell -> m
    edge_arc: list[int] = []
    for u, rel, a, b in zip(graph.edge_user.tolist(), graph.edge_rel.tolist(), cats, types):
        n = cat_node.get(a)
        if n is None:
            n = cat_node[a] = net.add_node()
            net.add_arc(u, n, rho[a], beta_cost)
            net.add_arc(u, n, INF_CAP, 0)
        m = type_node.get(b)
        if m is None:
            m = type_node[b] = net.add_node()
            net.add_arc(m, sink, lam[b], mu_cost)
            net.add_arc(m, sink, INF_CAP, 0)
        edge_arc.append(net.add_arc(n, m, 1, -_scaled(rel, cost_scale)))

    for u, c in enumerate(graph.display_constraints):
        net.set_supply(u, c)
        net.add_arc(u, sink, c, 0)
    net.set_supply(sink, -sum(graph.display_constraints))
    return net, edge_arc


def decode_solution(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    edge_arc: list[int],
    result: FlowResult,
) -> Solution:
    """Selected subgraph = candidate edges whose edge arc carries flow."""
    sol = new_solution(graph, user_types, item_cats)
    flow = result.flow
    sol.add_edges(e for e, arc in enumerate(edge_arc) if flow[arc] > 0)
    return sol


def solve_tdiv_detailed(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
    cost_scale: int = DEFAULT_COST_SCALE,
) -> tuple[Solution, FlowNetwork, FlowResult, list[int]]:
    net, edge_arc = build_tdiv_network(
        graph, user_types, item_cats, thresholds, params, cost_scale
    )
    result = solve_min_cost_flow(net)
    if not result.feasible:
        raise InfeasibleError("reduction network admits no feasible flow")
    sol = decode_solution(graph, user_types, item_cats, edge_arc, result)
    return sol, net, result, edge_arc


def solve_tdiv(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
    cost_scale: int = DEFAULT_COST_SCALE,
) -> Solution:
    """Exact maximizer of beta*TUDiv + mu*TIDiv + rel for disjoint groupings
    (at the scaled-integer cost resolution)."""
    sol, _, _, _ = solve_tdiv_detailed(
        graph, user_types, item_cats, thresholds, params, cost_scale
    )
    return sol
