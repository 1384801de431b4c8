"""Tour of the min-cost-flow reduction on a three-item instance.

One user with two display slots chooses among v1 (category A, rel .9),
v2 (A, .8) and v3 (B, .1).  Pure relevance keeps {v1, v2}; with a
category bonus the optimum trades v2 for v3.  The script prints the
network, the raw flow cost and the decoded selection so the cost identity
-(total cost)/scale = objective is visible by eye.

The printed network has 7 nodes and 14 arcs (DIMACS numbers from 1): the
user (1), the sink (2), one node per (user, category) pair, A (3) and
B (6), and one per (item, type) pair, v1 (4), v2 (5) and v3 (7).  Each
pair node has a bonus arc (capacity = threshold, cost -beta or -mu) and a
free arc of capacity 2^60 beside it; each candidate edge is one arc of
capacity 1 and cost -rel, and the last arc is the user's slack to the sink.

Run:  python3 demos/flow_reduction_tour.py
"""

from recdiv.flownet import DEFAULT_COST_SCALE, build_tdiv_network, solve_tdiv_detailed
from recdiv.graph import DivParams, Grouping, RecGraph, ThresholdTable, eval_objective
from recdiv.mincostflow import to_dimacs

graph = RecGraph(
    ["u1"], [2], ["v1", "v2", "v3"],
    [(0, 0, 0.9), (0, 1, 0.8), (0, 2, 0.1)],
)
user_types = Grouping("user", ["T"], [[0]])
item_cats = Grouping("item", ["A", "B"], [[0], [0], [1]])
thresholds = ThresholdTable(
    {(0, 0): 1, (0, 1): 1},
    {(0, 0): 1, (1, 0): 1, (2, 0): 1},
)

for beta in (0.0, 1.0):
    params = DivParams(beta=beta, mu=0.0)
    net, _ = build_tdiv_network(graph, user_types, item_cats, thresholds, params)
    sol, _, result, _ = solve_tdiv_detailed(
        graph, user_types, item_cats, thresholds, params
    )
    picked = [graph.item_ids[graph.edges[e].item] for e in sol.edge_indices()]
    print(f"beta={beta}: picked {picked}")
    print(f"  flow cost {result.total_cost}, "
          f"-cost/scale = {-result.total_cost / DEFAULT_COST_SCALE}")
    print(f"  objective recomputed from the selection: "
          f"{eval_objective(sol, thresholds, params)}")

print()
print("network for beta=1 in DIMACS form:")
net, _ = build_tdiv_network(
    graph, user_types, item_cats, thresholds, DivParams(1.0, 0.0)
)
print(to_dimacs(net))
