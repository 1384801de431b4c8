"""Tests of the benchmark itself, on the tiny ``--smoke`` inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import spans  # noqa: E402
import workloads  # noqa: E402
from recdiv import cli, greedy  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def _smoke(workload: str, trace: int, seed: int = 3):
    proc, result = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_spec(workload):
    result = _smoke(workload, trace=0)
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_match_spec_and_counts_repeat(workload):
    first = _smoke(workload, trace=1)
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == spec
    assert first["metrics"]["bench.op_s"]["value"] > 0
    second = _smoke(workload, trace=1)
    for name, m in first["metrics"].items():
        if m["unit"] == "count":
            if name != "trace.spans":
                assert second["metrics"][name] == m, name


def test_objective_repeats_for_a_seed_and_follows_it():
    a = _smoke("greedy_1m", trace=0, seed=5)["metrics"]["objective"]["value"]
    b = _smoke("greedy_1m", trace=0, seed=5)["metrics"]["objective"]["value"]
    c = _smoke("greedy_1m", trace=0, seed=6)["metrics"]["objective"]["value"]
    assert a == b
    assert a != c


def test_all_runs_every_workload():
    proc, result = _run("--workload", "all", "--seed", "2", "--seconds", "1",
                        "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    for w in WORKLOADS:
        assert f"{w}.run_s" in result["metrics"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checks_catch_broken_outputs(tmp_path):
    wl = workloads.WORKLOADS["greedy_1m"]
    inst = wl.setup(1, wl.smoke, tmp_path)
    sol = wl.op(inst)
    assert wl.check(inst, sol)[2] == []
    g = inst["graph"]
    spare = next(e for e in g.user_edges[0] if e not in sol.selected[0])
    sol.selected[0].append(spare)  # over the display constraint, degrees stale
    problems = wl.check(inst, sol)[2]
    assert any("> 20 edges" in p for p in problems)
    assert any("eval_objective" in p for p in problems)

    wl = workloads.WORKLOADS["cli_pipeline"]
    inst = wl.setup(1, wl.smoke, tmp_path / "cli")
    codes = wl.op(inst)
    assert wl.check(inst, codes)[2] == []
    assert wl.check(inst, [3] + codes[1:])[2]
    mmr = inst["dir"] / "rerank_mmr.tsv"
    mmr.write_text("".join(mmr.read_text().splitlines(keepends=True)[1:]))
    assert any("mmr: user" in p for p in wl.check(inst, codes)[2])
    flow = inst["dir"] / "exact_flow.tsv"
    flow.write_text("".join(flow.read_text().splitlines(keepends=True)[1:]))
    assert any("flow: the CLI's solution differs" in p for p in wl.check(inst, codes)[2])


def test_tracer_self_time_and_restore(tmp_path):
    tracer = spans.Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 4.0, 0],
        ["inner", 5.0, 6.0, 0],
        ["leaf", 2.0, 3.0, 1],
    ]
    total, own = tracer.times()
    assert total == {"outer": 10.0, "inner": 4.0, "leaf": 1.0}
    assert own == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}

    original = greedy.greedy_solve
    assert cli.greedy_solve is original
    tracer = spans.Tracer()
    with tracer.installed():
        assert greedy.greedy_solve is not original
        assert cli.greedy_solve is greedy.greedy_solve
    assert greedy.greedy_solve is original and cli.greedy_solve is original


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(name.match(w["name"]) and len(w["why"]) <= 200 for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(name.match(m["name"]) and unit.match(m["unit"]) for m in metrics)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= len(SPEC["per_layer"]) <= 128
