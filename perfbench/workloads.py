"""The benchmark's workloads: input generation, the timed operation and
the output checks of each.

Every workload is batch and closed loop with one client: the next
operation starts only after the previous one returned.  Inputs come only
from the seed.  recdiv is called through module attributes
(``greedy.greedy_solve``, not a name imported once), so the wrappers a
``spans.Tracer`` installs see every call.

A workload is four functions:

* ``setup(seed, size, workdir)`` builds the inputs and returns an instance;
* ``op(inst)`` is the timed section and returns its output;
* ``check(inst, out)`` returns ``(objective, fingerprint, problems)``,
  where ``problems`` lists every failed output check and the fingerprint
  identifies the output, so repeated operations can be compared;
* ``counts(inst, out)`` returns the graph-level counts for the trace.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from recdiv import cli, data, flownet, graph, greedy, metrics, mincostflow, synth

PARAMS = graph.DivParams(beta=4.0, mu=0.2)
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict
    smoke: dict
    setup: Callable
    op: Callable
    check: Callable
    counts: Callable


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# greedy_1m: the paper's million-edge greedy

def greedy_setup(seed: int, size: dict, workdir: Path) -> dict:
    g, user_types, item_cats = synth.movielens_shaped(num_users=size["users"], seed=seed)
    thresholds = graph.ThresholdTable.uniform(g, user_types, item_cats, rho=2, lam=2)
    return {"graph": g, "types": user_types, "cats": item_cats, "thresholds": thresholds,
            "edges": g.num_edges}


def greedy_op(inst: dict):
    return greedy.greedy_solve(
        inst["graph"], inst["types"], inst["cats"], inst["thresholds"], PARAMS
    )


def greedy_check(inst: dict, sol) -> tuple[float, str, list[str]]:
    """Display constraints, edge ownership, and eval_objective against the
    objective recomputed from scratch by the metrics module."""
    g, user_types, item_cats, thresholds = (
        inst["graph"], inst["types"], inst["cats"], inst["thresholds"]
    )
    problems = []
    for u, lst in enumerate(sol.selected):
        if len(lst) > g.display_constraints[u]:
            problems.append(f"user {u} has {len(lst)} > {g.display_constraints[u]} edges")
        if len(set(lst)) != len(lst):
            problems.append(f"user {u} has a repeated edge")
        if any(g.edges[e].user != u for e in lst):
            problems.append(f"user {u} holds another user's edge")
    objective = graph.eval_objective(sol, thresholds, PARAMS)
    scratch = (
        PARAMS.beta * metrics.tudiv(sol, item_cats, thresholds)
        + PARAMS.mu * metrics.tidiv(sol, user_types, thresholds)
        + math.fsum(g.edges[e].relevance for lst in sol.selected for e in lst)
    )
    if not _close(objective, scratch, REL_TOL * max(1.0, abs(scratch))):
        problems.append(f"eval_objective {objective!r} != from-scratch {scratch!r}")
    return objective, _fingerprint(sol.edge_indices()), problems


def greedy_counts(inst: dict, out) -> dict[str, int]:
    g, thresholds = inst["graph"], inst["thresholds"]
    return {
        "graph.edges": g.num_edges,
        "graph.users": g.num_users,
        "graph.items": g.num_items,
        "graph.threshold_pairs": len(thresholds.user_category) + len(thresholds.item_type),
    }


# ---------------------------------------------------------------------------
# cli_pipeline: the command line end to end, on three generated instances.
# The large one goes through split -> derive-thresholds -> diversify greedy
# -> evaluate.  A small disjoint one ("exact_") is solved by greedy and by
# the exact flow method, whose objective must reach greedy's.  A mid-sized
# one ("rerank_") is ranked by top, MMR and xQuAD.  Every solution is then
# evaluated.  The smaller sizes keep the flow solver and MMR, both
# superlinear, at a few seconds per operation.

CONSTRAINT = 10
RERANK_LAMBDA = "0.5"
RERANKERS = ("top", "mmr", "xquad")


def _write_instance(workdir: Path, prefix: str, g, user_types, item_cats) -> dict[str, set]:
    """Candidate and grouping TSVs; returns each user's candidate items."""
    candidates: dict[str, set] = {}
    with open(workdir / f"{prefix}candidates.tsv", "w", encoding="utf-8", newline="\n") as fh:
        for e in g.edges:
            uid, iid = g.user_ids[e.user], g.item_ids[e.item]
            candidates.setdefault(uid, set()).add(iid)
            fh.write(f"{uid}\t{iid}\t{e.relevance!r}\n")
    data.save_grouping(item_cats, g.item_ids, workdir / f"{prefix}categories.tsv")
    data.save_grouping(user_types, g.user_ids, workdir / f"{prefix}types.tsv")
    return candidates


def cli_setup(seed: int, size: dict, workdir: Path) -> dict:
    """The three instances' candidate and grouping TSVs, and MovieLens
    ``::`` ratings for the large one.  The smaller instances' users are the
    first users of the large one, so one training fold serves all three."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    g, user_types, item_cats = synth.movielens_shaped(num_users=size["users"], seed=seed)
    _write_instance(workdir, "", g, user_types, item_cats)
    edges = g.num_edges
    candidates = {}
    for prefix, users, overlapping in (("exact_", size["exact_users"], False),
                                       ("rerank_", size["rerank_users"], True)):
        small, small_types, small_cats = synth.movielens_shaped(
            num_users=users, overlapping_cats=overlapping, seed=seed
        )
        candidates[prefix] = _write_instance(workdir, prefix, small, small_types, small_cats)
        edges += small.num_edges

    # Ratings lean on the same popularity skew as the candidates, with
    # 60-140 ratings per user so most users clear split's --min-ratings.
    rng = np.random.default_rng([seed, 1])
    popularity = 1.0 / np.arange(1, g.num_items + 1) ** 0.5
    popularity /= popularity.sum()
    with open(workdir / "ratings.dat", "w", encoding="utf-8", newline="\n") as fh:
        for u in range(g.num_users):
            count = int(rng.integers(60, 141))
            items = rng.choice(g.num_items, size=count, replace=False, p=popularity)
            stars = rng.integers(1, 6, size=count)
            for j, r in zip(items, stars):
                fh.write(f"{g.user_ids[u]}::{g.item_ids[int(j)]}::{int(r)}::{978300000 + u}\n")
    return {"dir": workdir, "seed": seed, "edges": edges,
            "users": size["users"] + size["exact_users"] + size["rerank_users"],
            "items": g.num_items, "rerank_candidates": candidates["rerank_"]}


def _cli_commands(inst: dict) -> list[list[str]]:
    d = inst["dir"]

    def graph_args(prefix: str) -> list[str]:
        return ["--candidates", str(d / f"{prefix}candidates.tsv"),
                "--categories", str(d / f"{prefix}categories.tsv"),
                "--types", str(d / f"{prefix}types.tsv"), "--constraint", str(CONSTRAINT)]

    def diversify(prefix: str, method: str, output: str, *extra: str) -> list[str]:
        return ["diversify", *graph_args(prefix), "--method", method, *extra,
                "--output", str(d / f"{output}.tsv")]

    def evaluate(prefix: str, name: str, *extra: str) -> list[str]:
        return ["evaluate", *graph_args(prefix), "--solution", str(d / f"{name}.tsv"),
                "--test", str(d / "folds" / "test_0.tsv"), *extra,
                "--beta", str(PARAMS.beta), "--mu", str(PARAMS.mu),
                "--output", str(d / f"{name}_report")]

    weights = ["--beta", str(PARAMS.beta), "--mu", str(PARAMS.mu)]
    train = str(d / "folds" / "train_0.tsv")
    commands = [
        ["split", "--ratings", str(d / "ratings.dat"), "--output-dir", str(d / "folds"),
         "--folds", "5", "--seed", str(inst["seed"])],
        ["derive-thresholds", *graph_args(""), "--train", train,
         "--output", str(d / "thresholds.tsv")],
        diversify("", "greedy", "solution", *weights, "--thresholds", str(d / "thresholds.tsv")),
        evaluate("", "solution", "--thresholds", str(d / "thresholds.tsv")),
        ["derive-thresholds", *graph_args("exact_"), "--train", train,
         "--output", str(d / "exact_thresholds.tsv")],
    ]
    for method in ("greedy", "flow"):
        commands.append(diversify("exact_", method, f"exact_{method}", *weights,
                                  "--thresholds", str(d / "exact_thresholds.tsv")))
    commands.append(evaluate("exact_", "exact_flow",
                             "--thresholds", str(d / "exact_thresholds.tsv")))
    for method in RERANKERS:
        extra = [] if method == "top" else ["--lambda", RERANK_LAMBDA]
        commands.append(diversify("rerank_", method, f"rerank_{method}", *extra))
        commands.append(evaluate("rerank_", f"rerank_{method}"))
    return commands


def cli_op(inst: dict) -> list[int]:
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in _cli_commands(inst):
            codes.append(cli.main(argv))
    return codes


def _load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _solution_rows(path: Path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(line.split("\t")[:2]) for line in fh.read().splitlines() if line]


def _check_report(name: str, report: dict, log: dict | None) -> list[str]:
    """Every REPORT_FIELDS entry present; with the diversify log, the
    solution read back by evaluate scores as diversify scored it."""
    problems = []
    missing = [f for f in metrics.REPORT_FIELDS if f not in report]
    if missing:
        problems.append(f"{name}: report lacks fields {missing}")
    for field in ("ild", "err_ia", "gini", "aggregate_diversity", "relevance_sum"):
        value = report.get(field)
        if value is None or not math.isfinite(value):
            problems.append(f"{name}: report field {field} is {value!r}")
    if log is not None and not problems:
        for rep_key, log_key in (("tudiv", "tudiv"), ("tidiv", "tidiv"),
                                 ("relevance_sum", "rel")):
            if report.get(rep_key) is None or not _close(
                report[rep_key], log[log_key], 1e-6 * max(1.0, abs(log[log_key]))
            ):
                problems.append(f"{name}: round trip: report {rep_key}={report.get(rep_key)!r}"
                                f" != diversify {log_key}={log[log_key]!r}")
    return problems


def _check_flow(inst: dict, flow_log: dict, flow_rows: list) -> list[str]:
    """The CLI's exact solution against the library's on the same files:
    the flow is valid, its cost is the objective, the edges are the CLI's,
    and the objective reaches greedy's on the same instance."""
    d = inst["dir"]
    if "flow" not in inst:  # the solve is deterministic: once per run
        g, _ = data.load_candidates(d / "exact_candidates.tsv", CONSTRAINT)
        item_cats, _ = data.load_grouping(d / "exact_categories.tsv", "item", g.item_ids)
        user_types, _ = data.load_grouping(d / "exact_types.tsv", "user", g.user_ids)
        thresholds = data.load_thresholds(d / "exact_thresholds.tsv", g.user_ids, g.item_ids,
                                          user_types.group_ids, item_cats.group_ids)
        sol, net, result, _ = flownet.solve_tdiv_detailed(
            g, user_types, item_cats, thresholds, PARAMS
        )
        inst["flow"] = (g, thresholds, sol, net, result)
    g, thresholds, sol, net, result = inst["flow"]
    problems = []
    if not mincostflow.validate_flow(net, result):
        problems.append("flow: validate_flow failed")
    objective = graph.eval_objective(sol, thresholds, PARAMS)
    # Costs are relevances scaled to integers, so each edge carries at most
    # half a unit of rounding error.
    tol = g.num_edges / flownet.DEFAULT_COST_SCALE
    if not _close(objective, -result.total_cost / flownet.DEFAULT_COST_SCALE, tol):
        problems.append(f"flow: objective {objective!r} != -total_cost/scale "
                        f"{-result.total_cost / flownet.DEFAULT_COST_SCALE!r}")
    edges = {(g.user_ids[g.edges[e].user], g.item_ids[g.edges[e].item])
             for e in sol.edge_indices()}
    if edges != set(flow_rows) or not _close(objective, flow_log["objective"], 1e-6):
        problems.append("flow: the CLI's solution differs from the library's")
    greedy_objective = _load_json(d / "exact_greedy.tsv.log.json")["objective"]
    if flow_log["objective"] < greedy_objective - tol:
        problems.append(f"flow: exact objective {flow_log['objective']!r} < greedy objective "
                        f"{greedy_objective!r} on the same instance")
    return problems


def cli_check(inst: dict, codes: list[int]) -> tuple[float, str, list[str]]:
    d = inst["dir"]
    if any(codes):
        return math.nan, "", [f"exit codes {codes}, expected all 0"]
    report = _load_json(d / "solution_report.json")
    problems = _check_report("greedy", report, _load_json(d / "solution.tsv.log.json"))
    if report.get("precision") is None:
        problems.append("greedy: report has no precision")
    rows = {"solution": _solution_rows(d / "solution.tsv")}
    per_user: dict[str, int] = {}
    for user, _item in rows["solution"]:
        per_user[user] = per_user.get(user, 0) + 1
    if any(n > CONSTRAINT for n in per_user.values()):
        problems.append("greedy: a user exceeds the display constraint")

    flow_log = _load_json(d / "exact_flow.tsv.log.json")
    problems += _check_report("flow", _load_json(d / "exact_flow_report.json"), flow_log)
    rows["exact_flow"] = _solution_rows(d / "exact_flow.tsv")
    problems += _check_flow(inst, flow_log, rows["exact_flow"])

    candidates = inst["rerank_candidates"]
    for method in RERANKERS:
        name = f"rerank_{method}"
        problems += _check_report(method, _load_json(d / f"{name}_report.json"), None)
        rows[name] = _solution_rows(d / f"{name}.tsv")
        lists: dict[str, list[str]] = {}
        for user, item in rows[name]:
            lists.setdefault(user, []).append(item)
        for user, items in candidates.items():
            got = lists.get(user, [])
            if len(got) != min(CONSTRAINT, len(items)):
                problems.append(f"{method}: user {user} list has {len(got)} items")
            if len(set(got)) != len(got) or not set(got) <= items:
                problems.append(f"{method}: user {user} list repeats or leaves its candidates")
    if problems:
        return math.nan, "", problems
    objective = (report["relevance_sum"] + PARAMS.beta * report["tudiv"]
                 + PARAMS.mu * report["tidiv"])
    return objective, _fingerprint(rows), problems


def cli_counts(inst: dict, codes) -> dict[str, int]:
    pairs = 0
    for name in ("thresholds.tsv", "exact_thresholds.tsv"):
        with open(inst["dir"] / name, encoding="utf-8") as fh:
            pairs += sum(1 for line in fh if line.strip())
    return {"graph.edges": inst["edges"], "graph.users": inst["users"],
            "graph.items": inst["items"], "graph.threshold_pairs": pairs}


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload("greedy_1m", full={"users": 4000}, smoke={"users": 40},
                 setup=greedy_setup, op=greedy_op, check=greedy_check, counts=greedy_counts),
        Workload("cli_pipeline", full={"users": 500, "exact_users": 20, "rerank_users": 100},
                 smoke={"users": 30, "exact_users": 3, "rerank_users": 10},
                 setup=cli_setup, op=cli_op, check=cli_check, counts=cli_counts),
    )
}
