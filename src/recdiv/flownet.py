"""Exact optimizers for disjoint groupings via min-cost flow reductions.

The network rewards the first rho_i(R_a) selections a user makes in a
category with -beta each, the first lambda_j(L_b) selections an item
receives from a type with -mu each, and every used candidate edge with
-rel.  Minimizing total cost therefore maximizes
beta*TUDiv + mu*TIDiv + rel.  Costs are scaled to integers; all
quantization error is bounded by |E| / cost_scale.

Gadget nodes are created lazily, only for (user, category) and
(item, type) pairs incident to a candidate edge, so the network has
O(|E|) size.  A zero-cost slack arc from each user to the sink keeps the
network feasible when a user has fewer candidates than its display
constraint.

The UserDiv reduction (one unit per distinct category a user's selection
hits) is this network specialized: zero relevance, a single user type,
every rho = 1 and lambda = 0, beta = 1 and mu = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GroupingError, GraphError, InfeasibleError
from .graph import DivParams, Grouping, RecGraph, Solution, ThresholdTable, new_solution
from .mincostflow import INF_CAP, FlowNetwork, FlowResult, solve_min_cost_flow

DEFAULT_COST_SCALE = 10**6
_MAX_COST = 1 << 60


@dataclass
class ReductionMap:
    """Arc/node bookkeeping needed to decode a flow back into a Solution."""

    edge_arc: dict[int, int] = field(default_factory=dict)
    user_cat_bonus: dict[tuple[int, int], int] = field(default_factory=dict)
    item_type_bonus: dict[tuple[int, int], int] = field(default_factory=dict)
    slack_arc: dict[int, int] = field(default_factory=dict)


def _scaled(value: float, cost_scale: int) -> int:
    scaled = round(value * cost_scale)
    if abs(scaled) >= _MAX_COST:
        raise GraphError(f"scaled cost overflow: {value} * {cost_scale}")
    return scaled


def _require_disjoint_total(grouping: Grouping, incident: list[int], what: str) -> None:
    if not grouping.disjoint:
        raise GroupingError(f"{what} grouping must be disjoint for the flow reduction")
    for ent in incident:
        if not grouping.groups_of(ent):
            raise GroupingError(
                f"{what} {ent} is incident to a candidate edge but has no group"
            )


def build_tdiv_network(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
    cost_scale: int = DEFAULT_COST_SCALE,
) -> tuple[FlowNetwork, ReductionMap]:
    """Reduction network for the full thresholded two-sided objective."""
    if cost_scale < 1:
        raise GraphError(f"cost_scale must be a positive integer, got {cost_scale}")
    _require_disjoint_total(user_types, np.unique(graph.edge_user).tolist(), "user")
    _require_disjoint_total(item_cats, np.unique(graph.edge_item).tolist(), "item")

    net = FlowNetwork(graph.num_users + graph.num_items)
    sink = net.add_node()
    rmap = ReductionMap()
    beta_cost = -_scaled(params.beta, cost_scale)
    mu_cost = -_scaled(params.mu, cost_scale)

    item_node = [graph.num_users + j for j in range(graph.num_items)]
    cat_inner: dict[tuple[int, int], int] = {}  # (user, category) -> n node
    type_inner: dict[tuple[int, int], int] = {}  # (item, type) -> m node

    # Gadgets are created in edge_index order, which fixes arc insertion
    # order; the solver prices arcs in that order, so among tied optima it
    # fixes which one is returned.
    rows = zip(graph.edge_user.tolist(), graph.edge_item.tolist(), graph.edge_rel.tolist())
    for eidx, (u, v, rel) in enumerate(rows):
        a = item_cats.single_group_of(v)
        b = user_types.single_group_of(u)
        if (u, a) not in cat_inner:
            n_node = net.add_node()
            n_prime = net.add_node()
            rho = thresholds.rho(u, a)
            rmap.user_cat_bonus[(u, a)] = net.add_arc(u, n_prime, rho, beta_cost)
            net.add_arc(n_prime, n_node, rho, 0)
            net.add_arc(u, n_node, INF_CAP, 0)
            cat_inner[(u, a)] = n_node
        if (v, b) not in type_inner:
            m_node = net.add_node()
            m_prime = net.add_node()
            lam = thresholds.lam(v, b)
            net.add_arc(m_node, m_prime, lam, 0)
            rmap.item_type_bonus[(v, b)] = net.add_arc(m_prime, item_node[v], lam, mu_cost)
            net.add_arc(m_node, item_node[v], INF_CAP, 0)
            type_inner[(v, b)] = m_node
        rmap.edge_arc[eidx] = net.add_arc(
            cat_inner[(u, a)], type_inner[(v, b)], 1, -_scaled(rel, cost_scale)
        )

    for u, c in enumerate(graph.display_constraints):
        net.set_supply(u, c)
        rmap.slack_arc[u] = net.add_arc(u, sink, c, 0)
    for j in range(graph.num_items):
        net.add_arc(item_node[j], sink, INF_CAP, 0)
    net.set_supply(sink, -sum(graph.display_constraints))
    return net, rmap


def build_userdiv_network(
    graph: RecGraph,
    item_cats: Grouping,
    cost_scale: int = DEFAULT_COST_SCALE,
) -> tuple[FlowNetwork, ReductionMap]:
    """Reduction rewarding only distinct categories per user: the TDiv
    network specialized as the module docstring says, so each
    (user, category) gadget grants a single -1 (scaled) bonus unit."""
    flat = RecGraph(graph.user_ids, graph.display_constraints, graph.item_ids,
                    columns=(graph.edge_user, graph.edge_item, np.zeros(graph.num_edges)))
    one_type = Grouping("user", ["all"], [[0]] * graph.num_users)
    thresholds = ThresholdTable.uniform(flat, one_type, item_cats, rho=1, lam=0)
    return build_tdiv_network(flat, one_type, item_cats, thresholds, DivParams(1, 0),
                              cost_scale)


def decode_solution(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    rmap: ReductionMap,
    result: FlowResult,
) -> Solution:
    """Selected subgraph = candidate edges whose edge arc carries flow."""
    sol = new_solution(graph, user_types, item_cats)
    sol.add_edges(e for e in sorted(rmap.edge_arc) if result.flow[rmap.edge_arc[e]] > 0)
    return sol


def solve_tdiv_detailed(
    graph: RecGraph,
    user_types: Grouping,
    item_cats: Grouping,
    thresholds: ThresholdTable,
    params: DivParams,
    cost_scale: int = DEFAULT_COST_SCALE,
) -> tuple[Solution, FlowNetwork, FlowResult, ReductionMap]:
    net, rmap = build_tdiv_network(
        graph, user_types, item_cats, thresholds, params, cost_scale
    )
    result = solve_min_cost_flow(net)
    if not result.feasible:
        raise InfeasibleError("reduction network admits no feasible flow")
    sol = decode_solution(graph, user_types, item_cats, rmap, result)
    return sol, net, result, rmap


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
