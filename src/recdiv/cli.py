"""Command-line front end: split, derive-thresholds, diversify, evaluate,
gridsearch, report.

Exit codes: 0 success, 2 usage error, 3 data error, 4 infeasible.  An
optional JSON config file supplies defaults; explicit flags override it.
Options are checked before any file is read, and every JSON and CSV file
is written by ``_write_json`` or ``_write_csv``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import math
import sys
import time
from dataclasses import asdict, astuple
from pathlib import Path

from . import data as dio
from .baselines import mmr, top_k, xquad
from .errors import DataFormatError, InfeasibleError, RecdivError
from .flownet import DEFAULT_COST_SCALE, solve_tdiv
from .graph import DivParams, Solution, ThresholdTable, new_solution
from .greedy import greedy_solve
from . import metrics as m

METHODS = ("top", "mmr", "xquad", "greedy", "flow")
SOLVERS = ("greedy", "flow")
# the columns of a MetricsReport, in field order
REPORT_COLUMNS = ["cutoff", *m.REPORT_FIELDS]


# ---------------------------------------------------------------------------
# Shared loading helpers

def _load_inputs(args, thresholds: str):
    """Candidate graph, user types, item categories, thresholds and skipped
    row counts named by ``args``.  ``thresholds`` says what to use without
    --thresholds: "derive" (derive them from --train), "empty" (an empty
    table) or "optional" (None).  ``_option_error`` has checked that the
    options this needs are given.  Each file's skipped rows are counted
    under its option name and reported on stderr."""
    constraint: int | dict[str, int] = args.constraint
    if args.constraint_file:
        constraint = dio.load_constraints(args.constraint_file)
    graph, skipped = dio.load_candidates(args.candidates, constraint, args.top_n)
    skipped_rows = {"candidates": skipped}
    _warn_skipped(args.candidates, skipped, "user not in --constraint-file")
    user_types = item_cats = table = None
    thresholds_path = getattr(args, "thresholds", None)  # derive-thresholds has none
    if args.categories:
        item_cats, skipped_rows["categories"] = dio.load_grouping(
            args.categories, "item", graph.item_ids)
        _warn_skipped(args.categories, skipped_rows["categories"], "item not in the candidates")
    if args.types:
        user_types, skipped_rows["types"] = dio.load_grouping(
            args.types, "user", graph.user_ids)
        _warn_skipped(args.types, skipped_rows["types"], "user not in the candidates")
    if thresholds_path:
        table = dio.load_thresholds(
            thresholds_path, graph.user_ids, graph.item_ids,
            user_types.group_ids, item_cats.group_ids,
        )
        skipped_rows["thresholds"] = table.skipped_rows
        _warn_skipped(thresholds_path, table.skipped_rows,
                      "user, item or group not in the candidates or groupings")
    elif thresholds == "empty":
        table = ThresholdTable()
    elif thresholds == "derive":
        train = dio.load_ratings(args.train)
        user_tab = dio.derive_user_thresholds(
            train, item_cats, graph.item_ids, graph.user_ids, graph.display_constraints,
        )
        item_tab = dio.derive_item_thresholds(
            train, user_types, graph.user_ids, graph.item_ids, graph.display_constraints,
        )
        table = ThresholdTable(tables=(user_tab.rho_table, item_tab.lam_table))
    return graph, user_types, item_cats, table, skipped_rows


def _warn_skipped(path, count: int, reason: str) -> None:
    if count:
        print(f"warning: {path}: {count} rows skipped ({reason})", file=sys.stderr)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header: list[str], rows) -> None:
    """One header line, then one line per row; a None cell is written empty
    and a cell holding a comma, a quote or a line end is quoted."""
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_split(args) -> int:
    # SplitSpec holds the --folds and --min-ratings ranges; check them
    # before reading any file
    try:
        spec = dio.SplitSpec(folds=args.folds, min_ratings=args.min_ratings, seed=args.seed)
    except DataFormatError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    ratings = dio.load_ratings(args.ratings)
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    # each fold's subsets are written and let go before the next are made
    for fold, test in enumerate(dio.fold_tests(ratings, spec)):
        dio.save_ratings(ratings.subset(~test), outdir / f"train_{fold}.tsv")
        dio.save_ratings(ratings.subset(test), outdir / f"test_{fold}.tsv")
    print(f"wrote {2 * spec.folds} fold files to {outdir}")
    return 0


def cmd_derive_thresholds(args) -> int:
    graph, user_types, item_cats, table, _ = _load_inputs(args, "derive")
    dio.save_thresholds(
        table, args.output, graph.user_ids, graph.item_ids,
        user_types.group_ids, item_cats.group_ids,
    )
    print(f"wrote {len(table.user_category) + len(table.item_type)} thresholds "
          f"to {args.output}")
    return 0


def _run_method(graph, user_types, item_cats, thresholds, args,
                method: str, beta: float, mu: float, lam: float):
    """Returns (solution, info dict)."""
    params = DivParams(beta, mu)
    t0 = time.perf_counter()
    if method == "greedy":
        sol = greedy_solve(graph, user_types, item_cats, thresholds, params)
    elif method == "flow":
        sol = solve_tdiv(graph, user_types, item_cats, thresholds, params, args.cost_scale)
    else:
        if method == "top":
            ranked = top_k(graph)
        elif method == "mmr":
            ranked = mmr(graph, item_cats, lam)
        else:
            ranked = xquad(graph, item_cats, m.IntentProfile.from_graph(graph, item_cats), lam)
        sol = new_solution(graph, user_types, item_cats)
        sol.add_edges(e for edges in ranked.edges for e in edges)
    elapsed = time.perf_counter() - t0
    tu = m.tudiv(sol, item_cats, thresholds)
    ti = m.tidiv(sol, user_types, thresholds)
    rel = sol.relevance()
    info = {
        "method": method,
        "beta": beta,
        "mu": mu,
        "lambda": lam,
        "users": graph.num_users,
        "items": graph.num_items,
        "edges": graph.num_edges,
        "selected": sol.num_selected(),
        "rel": rel,
        "tudiv": tu,
        "tidiv": ti,
        "objective": rel + beta * tu + mu * ti,
        "wall_time_s": elapsed,
    }
    return sol, info


def cmd_diversify(args) -> int:
    graph, user_types, item_cats, thresholds, skipped_rows = _load_inputs(
        args, "derive" if args.method in SOLVERS else "empty"
    )
    sol, info = _run_method(
        graph, user_types, item_cats, thresholds, args,
        args.method, args.beta, args.mu, args.lam or 0.0,
    )
    info["skipped_rows"] = skipped_rows
    dio.save_solution(sol, args.output, args.method)
    _write_json(args.log or f"{args.output}.log.json", info)
    print(f"{args.method}: objective={info['objective']:.6f} "
          f"(rel={info['rel']:.6f}, TUDiv={info['tudiv']:.1f}, "
          f"TIDiv={info['tidiv']:.1f}) in {info['wall_time_s']:.2f}s -> {args.output}")
    return 0


def _evaluate_solution(graph, user_types, item_cats, thresholds, args,
                       sol: Solution, params: DivParams) -> m.MetricsReport:
    """The report of ``sol``, its lists cut at ``args.cutoff``."""
    lists = sol.ranked_lists(args.cutoff)
    report = m.MetricsReport(cutoff=args.cutoff or 0)
    report.relevance_sum = sol.relevance()
    report.aggregate_diversity = m.aggregate_diversity(lists, graph.num_items)
    report.gini = m.gini(lists, graph.num_items)
    if item_cats is not None:
        report.ild = m.ild(lists, item_cats)
        intent = m.IntentProfile.from_graph(graph, item_cats)
        report.err_ia = m.err_ia(lists, intent, item_cats)
        report.userdiv = m.userdiv(sol, item_cats)
        if thresholds is not None:
            report.tudiv = m.tudiv(sol, item_cats, thresholds)
    if user_types is not None:
        report.itemdiv = m.itemdiv(sol, user_types)
        if thresholds is not None:
            report.tidiv = m.tidiv(sol, user_types, thresholds)
    if (
        user_types is not None
        and item_cats is not None
        and user_types.disjoint
        and item_cats.disjoint
    ):
        report.div = m.div_edgewise(sol, user_types, item_cats, params)
    if getattr(args, "test", None):
        relevant = dio.relevant_items(dio.load_ratings(args.test), graph.user_ids,
                                      graph.item_ids, args.relevance_cutoff)
        if relevant:
            report.precision = m.precision(lists, relevant, graph.display_constraints)
    return report


def cmd_evaluate(args) -> int:
    graph, user_types, item_cats, thresholds, _ = _load_inputs(args, "optional")
    sol = new_solution(graph, user_types, item_cats)
    sol.add_edges(dio.load_solution_lists(args.solution, graph))
    report = _evaluate_solution(graph, user_types, item_cats, thresholds, args, sol,
                                DivParams(args.beta, args.mu))
    prefix = args.output
    _write_json(f"{prefix}.json", asdict(report))
    _write_csv(f"{prefix}.csv", REPORT_COLUMNS, [astuple(report)])
    print(f"wrote {prefix}.json and {prefix}.csv")
    return 0


# argparse ``type``s: a bad value is a usage error (exit 2) before any file
# is read.  The library keeps its own checks for API callers.

def _positive_int(text: str) -> int:
    """An integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _weight(text: str) -> float:
    """A finite number >= 0 (beta, mu)."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _finite(text: str) -> float:
    """A finite number (the relevance cutoff)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _unit(text: str) -> float:
    """A number in [0, 1] (lambda)."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def _grid(element):
    """A non-empty comma-separated list of ``element`` values."""
    def grid(text: str) -> list[float]:
        values = [element(x) for x in text.split(",") if x != ""]
        if not values:
            raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
        return values
    return grid


def _grid_point(payload):
    """Worker for one grid setting; rebuilds inputs from paths so settings
    share no mutable state."""
    args, beta, mu, lam = payload
    graph, user_types, item_cats, thresholds, _ = _load_inputs(
        args, "derive" if args.method in SOLVERS else "empty"
    )
    sol, info = _run_method(
        graph, user_types, item_cats, thresholds, args, args.method, beta, mu, lam
    )
    report = _evaluate_solution(graph, user_types, item_cats, thresholds, args, sol,
                                DivParams(beta, mu))
    return beta, mu, lam, info, report


def cmd_gridsearch(args) -> int:
    if args.method in ("mmr", "xquad"):
        settings = [(args, args.beta, args.mu, lam) for lam in args.lambda_grid]
    else:
        settings = [
            (args, beta, mu, 0.0) for beta in args.beta_grid for mu in args.mu_grid
        ]
    # A process pool may start all its workers up front: one per grid point
    # at most.
    workers = min(args.jobs, len(settings))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_grid_point, settings))
    else:
        results = [_grid_point(s) for s in settings]

    # gridsearch requires both groupings and always has thresholds: no None here
    best_tu = max(results, key=lambda r: r[4].tudiv)
    best_ti = max(results, key=lambda r: r[4].tidiv)
    rows = []
    for beta, mu, lam, info, report in results:
        flags = []
        if (beta, mu, lam) == best_tu[:3]:
            flags.append("max_tudiv")
        if (beta, mu, lam) == best_ti[:3]:
            flags.append("max_tidiv")
        rows.append((beta, mu, lam, info["objective"], "|".join(flags), *astuple(report)))
    _write_csv(args.output, ["beta", "mu", "lambda", "objective", "flag", *REPORT_COLUMNS], rows)
    print(f"wrote {len(results)} grid rows to {args.output}")
    return 0


def cmd_report(args) -> int:
    """Merge evaluate's JSON reports into one CSV table, one row per file,
    its name in the ``source`` column."""
    rows = []
    for path in args.inputs:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise DataFormatError(f"{path}: expected a JSON object")
        payload["source"] = Path(path).name
        rows.append(payload)
    fields = ["source", *REPORT_COLUMNS]
    _write_csv(args.output, fields, [[row.get(f) for f in fields] for row in rows])
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--candidates", required=True, help="candidate TSV (user, item, relevance)")
    p.add_argument("--constraint", type=_positive_int, default=10,
                   help="uniform display constraint")
    p.add_argument("--constraint-file", help="per-user TSV (user_id, constraint)")
    p.add_argument("--top-n", type=_positive_int, default=250, help="candidates kept per user")
    p.add_argument("--categories", help="item category TSV")
    p.add_argument("--types", help="user type TSV")


def _add_method_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--beta", type=_weight, default=1.0)
    p.add_argument("--mu", type=_weight, default=1.0)
    p.add_argument("--lambda", dest="lam", type=_unit, default=None)
    p.add_argument("--thresholds", help="threshold TSV (else derived from --train)")
    p.add_argument("--train", help="training ratings for threshold derivation")
    p.add_argument("--cost-scale", type=_positive_int, default=DEFAULT_COST_SCALE)


def _add_eval_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--test", help="held-out test ratings")
    p.add_argument("--cutoff", type=_positive_int, default=None, help="rank cutoff k")
    p.add_argument("--relevance-cutoff", type=_finite, default=3.0,
                   help="test rating considered relevant at or above this value")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="recdiv",
        description="Two-sided diversification of recommendation subgraphs",
    )
    parser.add_argument("--config", help="JSON file of default option values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="split ratings into train/test folds")
    p.add_argument("--ratings", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--min-ratings", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("derive-thresholds", help="derive diversity thresholds from training data")
    _add_graph_args(p)
    p.add_argument("--train", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_derive_thresholds)

    p = sub.add_parser("diversify", help="select a diversified subgraph")
    _add_graph_args(p)
    _add_method_args(p)
    p.add_argument("--output", required=True)
    p.add_argument("--log", help="JSON log path (default <output>.log.json)")
    p.set_defaults(func=cmd_diversify)

    p = sub.add_parser("evaluate", help="evaluate a solution file")
    _add_graph_args(p)
    _add_eval_args(p)
    p.add_argument("--solution", required=True)
    p.add_argument("--thresholds")
    p.add_argument("--beta", type=_weight, default=1.0)
    p.add_argument("--mu", type=_weight, default=1.0)
    p.add_argument("--output", required=True, help="output prefix (.json/.csv added)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gridsearch", help="evaluate a parameter grid")
    _add_graph_args(p)
    _add_method_args(p)
    _add_eval_args(p)
    p.add_argument("--beta-grid", type=_grid(_weight), default="0,1")
    p.add_argument("--mu-grid", type=_grid(_weight), default="0,1")
    p.add_argument("--lambda-grid", type=_grid(_unit), default="0,0.5,1")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("report", help="merge evaluation JSON files into a CSV table")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_report)
    return parser, sub.choices


def _config_defaults(args: argparse.Namespace) -> dict[str, str]:
    """The ``--config`` JSON object as defaults for the chosen subcommand.
    Values become strings so argparse runs each through its argument's own
    ``type``; keys the subcommand does not define are dropped."""
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise RecdivError("config file must contain a JSON object")
    options = vars(args).keys() - {"command", "config", "func"}
    return {dest: str(value) for key, value in config.items()
            if (dest := key.replace("-", "_")) in options}


def _option_error(args: argparse.Namespace) -> str | None:
    """What ``args`` lacks that its command needs, if anything: checked
    before any file is read, since the answer depends on no file."""
    command, method = args.command, getattr(args, "method", None)
    if command == "diversify" and method in ("mmr", "xquad") and args.lam is None:
        return f"--lambda is required for {method}"
    if command in ("derive-thresholds", "diversify", "gridsearch"):
        if not (args.categories and args.types):
            return "--categories and --types are required"
        if method in SOLVERS and not (args.thresholds or args.train):
            return "either --thresholds or --train is required"
    if command == "evaluate" and args.thresholds and not (args.categories and args.types):
        return "--thresholds requires --categories and --types"
    return None


def main(argv: list[str] | None = None) -> int:
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            subparsers[args.command].set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        problem = _option_error(args)
        if problem:
            print(f"usage error: {problem}", file=sys.stderr)
            return 2
        return args.func(args)
    except InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RecdivError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
