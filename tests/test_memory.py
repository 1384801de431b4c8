"""Memory budgets of the million-edge greedy's steps, per candidate edge,
and of the command line's loads and evaluation.

Peaks are traced with ``tracemalloc`` (which sees numpy's buffers too) on a
100k-edge ``movielens_shaped`` instance, counting only what the traced step
allocates.  The greedy's budget sits just above what its solve takes (34.4
bytes per edge, with no per-edge pair array and the (user, category) pending
lists built one block of users at a time), and below the 62.4 it took when
each side kept every edge's pair ids and the loop a copy of the relevances
(108 when the pending lists came from an argsort that returned int64
indices).  The metric oracles' budget sits above what they take (9.5) and
below the 36 they took when they listed the whole item column.
Uniform thresholds peak at 27.4 bytes per edge and keep 0.72: one int32
owner-by-group table per side, filled from each incidence's cell.  Their
kept budget sits above that and below the 18.3 they kept (peaking at 31.9)
as two dicts of (owner, group) keys read off a bool table of occupied
cells.  They peaked at 42.8 when each side also numbered every incidence
with a compacted pair id, and at 63.7 when each side's distinct pairs were
found through ``np.unique`` on int64 keys.  A built graph's budget sits
above what it keeps (16.2 bytes per edge: the three edge columns, the
offsets and the id lists) and below the 24.2 it kept with a per-user edge
permutation.  Generating the instance peaks at 49.9 bytes per edge, with
the relevances rounded in numpy, the generator's temporaries freed before
the graph is built and its duplicate check one sort; it peaked at 49.8
when ``Generator.choice`` drew the candidates (57.5 when this budget was
set); it took 107.9 when each relevance went through Python's ``round``,
the temporaries stayed alive and ``np.unique`` found repeats.

The command line's budgets sit between what each step takes and what it
took when it held one Python object per candidate row.  Loading the
instance's candidates as a TSV file peaks at 68.0 bytes per row and loading
a MovieLens file of half its edges at 90.6, reading blocks of 2**18
characters with int32 codes and line numbers; they took 170.8 and 274.0
with blocks of 2**20 characters and int64 columns.  The intent profile
peaks at 31.3 bytes per edge and keeps 12.3, its relevances one float64
column with a user's dict built when read; it took 143.1 and kept 86.4
with a dict entry per edge.  Ranking the selection peaks at 55.4 bytes per
selected edge, gathering the selected edges' columns alone; it took 770
(61.6 per candidate edge) when it listed both whole columns.  The lookup
that reads a solution file's pairs back into edges peaks at 16.5 bytes per
candidate edge and keeps 9.1, an int32 order of each user's slice by item
and the items in that order, sorted a block of users at a time; it peaked
at 33.1 and kept 17.1 when it sorted int64 keys over every candidate edge
and appended an end entry to copies of the keys and their order.
"""

import tracemalloc

import pytest

from recdiv import data, metrics
from recdiv.graph import DivParams, RecGraph, ThresholdTable
from recdiv.greedy import greedy_solve
from recdiv.synth import movielens_shaped


@pytest.fixture(scope="module")
def instance():
    graph, user_types, item_cats = movielens_shaped(num_users=400, seed=7)
    thresholds = ThresholdTable.uniform(graph, user_types, item_cats, rho=2, lam=2)
    return graph, user_types, item_cats, thresholds


def _traced_peak(step) -> int:
    tracemalloc.start()
    try:
        result = step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_movielens_shaped_peak_per_edge(instance):
    peak = _traced_peak(lambda: movielens_shaped(num_users=400, seed=7))
    assert peak / instance[0].num_edges <= 80


def test_graph_keeps_only_its_columns(instance):
    graph = instance[0]
    columns = (graph.edge_user, graph.edge_item, graph.edge_rel)
    tracemalloc.start()
    try:
        again = RecGraph(graph.user_ids, graph.display_constraints, graph.item_ids,
                         columns=columns)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert again.num_edges == graph.num_edges
    assert kept / graph.num_edges <= 17


def test_greedy_solve_peak_per_edge(instance):
    graph, user_types, item_cats, thresholds = instance
    peak = _traced_peak(
        lambda: greedy_solve(graph, user_types, item_cats, thresholds, DivParams(4.0, 0.2)))
    assert peak / graph.num_edges <= 36


def test_uniform_thresholds_peak_per_edge(instance):
    graph, user_types, item_cats, _ = instance
    peak = _traced_peak(
        lambda: ThresholdTable.uniform(graph, user_types, item_cats, rho=2, lam=2))
    assert peak / graph.num_edges <= 40


def test_uniform_thresholds_keep_two_small_tables(instance):
    graph, user_types, item_cats, _ = instance
    tracemalloc.start()
    try:
        thresholds = ThresholdTable.uniform(graph, user_types, item_cats, rho=2, lam=2)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert thresholds.rho(0, 0) in (0, 2)
    assert kept / graph.num_edges <= 2


def test_metric_oracles_read_only_the_selection(instance):
    graph, user_types, item_cats, thresholds = instance
    sol = greedy_solve(graph, user_types, item_cats, thresholds, DivParams(4.0, 0.2))
    peak = _traced_peak(lambda: (metrics.tudiv(sol, item_cats, thresholds),
                                 metrics.tidiv(sol, user_types, thresholds)))
    assert peak / graph.num_edges <= 16


@pytest.fixture(scope="module")
def files(instance, tmp_path_factory):
    """The instance's candidates as a TSV file and every other edge as a
    MovieLens ratings file, each loaded once untraced so that lazy imports
    stay out of the traced loads."""
    graph = instance[0]
    d = tmp_path_factory.mktemp("files")
    users = list(map(graph.user_ids.__getitem__, graph.edge_user.tolist()))
    items = list(map(graph.item_ids.__getitem__, graph.edge_item.tolist()))
    (d / "candidates.tsv").write_text("".join(
        f"{u}\t{v}\t{r!r}\n" for u, v, r in zip(users, items, graph.edge_rel.tolist())))
    (d / "ratings.dat").write_text("".join(
        f"{u}::{v}::{1 + e % 5}::{978300000 + e}\n"
        for e, (u, v) in enumerate(zip(users[::2], items[::2]))))
    data.load_candidates(d / "candidates.tsv", 10)
    data.load_ratings(d / "ratings.dat")
    return d, graph.num_edges, len(users[::2])


def test_load_candidates_peak_per_row(files):
    d, rows, _ = files
    peak = _traced_peak(lambda: data.load_candidates(d / "candidates.tsv", 10))
    assert peak / rows <= 80


def test_load_ratings_peak_per_row(files):
    d, _, rows = files
    peak = _traced_peak(lambda: data.load_ratings(d / "ratings.dat"))
    assert peak / rows <= 120


def test_intent_profile_keeps_no_dict_per_edge(instance):
    graph, _, item_cats, _ = instance
    metrics.IntentProfile.from_graph(graph, item_cats)  # lazy imports, untraced
    tracemalloc.start()
    try:
        intent = metrics.IntentProfile.from_graph(graph, item_cats)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(intent.norm_rel) == graph.num_users
    assert peak / graph.num_edges <= 48
    assert kept / graph.num_edges <= 16


def test_ranked_lists_read_only_the_selection(instance):
    graph, user_types, item_cats, thresholds = instance
    sol = greedy_solve(graph, user_types, item_cats, thresholds, DivParams(4.0, 0.2))
    peak = _traced_peak(lambda: sol.ranked_lists(10))
    assert peak / sol.num_selected() <= 120


def test_solution_lookup_peak_per_edge(instance):
    graph = instance[0]
    tracemalloc.start()
    try:
        find = data._edge_finder(graph)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert find([graph.user_ids[0]], [graph.item_ids[graph.edge_item[0]]]).tolist() == [0]
    assert peak / graph.num_edges <= 24
    assert kept / graph.num_edges <= 13
