"""recdiv benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload greedy_1m --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the root of a recdiv checkout; recdiv is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, with
``--trace 1`` its per-layer metrics.  ``--workload all`` runs every
workload in a fresh child process and prefixes each metric with the
workload's name.  ``--smoke`` shrinks every input to a few users, for
the benchmark's own tests.  Exit code 0 means every output check passed.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread per workload process: pin native thread pools before numpy
# is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
MAX_PROBLEMS_SHOWN = 5
SETUP_SECONDS = 2.0
MAX_SETUPS = 50


def _load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def _import_recdiv():
    """Import recdiv from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "recdiv" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'recdiv'} not found; run from the root of a recdiv checkout")
    sys.path.insert(0, str(src))
    import recdiv

    if Path(recdiv.__file__).resolve().parent != (src / "recdiv").resolve():
        sys.exit(f"error: imported recdiv from {recdiv.__file__}, not from {src}")


def _environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Ops:
    """Attempted and failed operations, with the output of the first
    successful one as the reference every later one must reproduce."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.objective = None
        self.fingerprint = None

    def run(self, workload, inst):
        """One closed-loop operation: GC settled, the op timed, its output
        checked outside the timed section.  Returns (seconds, output), with
        output None when the op raised."""
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = workload.op(inst)
        except Exception:
            elapsed = time.perf_counter() - t0
            self.failed += 1
            traceback.print_exc()
            return elapsed, None
        elapsed = time.perf_counter() - t0
        self.check(workload, inst, out)
        return elapsed, out

    def check(self, workload, inst, out) -> None:
        try:
            objective, fingerprint, problems = workload.check(inst, out)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return
        if not problems:
            if self.fingerprint is None:
                self.objective, self.fingerprint = objective, fingerprint
            elif (objective, fingerprint) != (self.objective, self.fingerprint):
                problems = [f"output differs from the first operation's "
                            f"(objective {objective!r} vs {self.objective!r})"]
        if problems:
            self.failed += 1
            for p in problems[:MAX_PROBLEMS_SHOWN]:
                print(f"CHECK FAILED [{workload.name}]: {p}", file=sys.stderr)
            if len(problems) > MAX_PROBLEMS_SHOWN:
                print(f"CHECK FAILED [{workload.name}]: ... {len(problems) - MAX_PROBLEMS_SHOWN}"
                      " more", file=sys.stderr)


def _timed_run(workload, seed: int, size: dict, seconds: int, workdir: Path):
    """End-to-end metrics, tracing off."""
    # Set up at least twice, and until the set-ups add up to SETUP_SECONDS,
    # so that a set-up of a few milliseconds is still timed many times.
    setup_times = []
    inst = None
    while len(setup_times) < 2 or (sum(setup_times) < SETUP_SECONDS
                                   and len(setup_times) < MAX_SETUPS):
        inst = None  # free the previous instance before building the next
        gc.collect()
        t0 = time.perf_counter()
        inst = workload.setup(seed, size, workdir)
        setup_times.append(time.perf_counter() - t0)

    ops = Ops()
    samples = []
    # Another op only if its expected time still fits in the budget, so a
    # run never measures much more than `seconds` (but always one op).
    while not samples or sum(samples) + statistics.median(samples) <= seconds:
        elapsed, out = ops.run(workload, inst)
        samples.append(elapsed)
        del out
        if ops.failed and ops.objective is None:
            break  # nothing has worked; more attempts add nothing
    edges = inst["edges"]
    run_s = statistics.median(samples)
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "edges_per_s": edges / run_s,
        "peak_rss_mb": _peak_rss_mib(),
        "objective": ops.objective,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups, min {min(setup_times):.4f}, "
                   f"max {max(setup_times):.4f}",
        "run_s": _sample_note(samples),
        "edges_per_s": f"{edges} edges / run_s",
    }
    return ops, values, notes


def _sample_note(samples: list[float]) -> str:
    """Median, and the highest percentile that has ten samples beyond it
    when that percentile lies above the median."""
    n = len(samples)
    text = f"median of n={n} ops, min {min(samples):.4f}, max {max(samples):.4f}"
    if n > 20:
        ordered = sorted(samples)
        text += f"; p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.4f} s"
    else:
        text += "; no percentile above the median has 10 samples beyond it"
    return text


def _traced_run(workload, seed: int, size: dict, workdir: Path, trace_path: Path, env: dict):
    """Per-layer metrics: set-up, one op and its check run traced; an
    untraced op before and after the traced one gives the tracing overhead."""
    import spans

    tracer = spans.Tracer()
    ops = Ops()
    with tracer.installed(), tracer.span("bench.setup"):
        inst = workload.setup(seed, size, workdir)
    untraced_before, out = ops.run(workload, inst)
    del out
    with tracer.installed():
        gc.collect()
        ops.attempted += 1
        with tracer.span("bench.op"):
            t0 = time.perf_counter()
            out = workload.op(inst)
            traced = time.perf_counter() - t0
        with tracer.span("bench.check"):
            ops.check(workload, inst, out)
    counts = dict(tracer.counts)
    counts.update(workload.counts(inst, out))
    del out
    untraced_after, out = ops.run(workload, inst)
    del out

    total, own = tracer.times()
    values = {f"{name}_s": t for name, t in total.items()}
    values.update({f"{name}.self_s": t for name, t in own.items()})
    for name, _module, _path, _observer in spans.TARGETS:
        values.setdefault(f"{name}_s", 0.0)
        values.setdefault(f"{name}.self_s", 0.0)
    values.update(counts)
    pops = counts.get("greedy.pops", 0)
    values["greedy.useful_pop_ratio"] = counts.get("greedy.selected", 0) / pops if pops else 0.0
    untraced = (untraced_before + untraced_after) / 2
    values["trace.overhead_share"] = traced / untraced - 1.0
    values["trace.spans"] = len(tracer.spans)
    tracer.dump(trace_path, {**env, "workload": workload.name,
                             "untraced_op_s": [untraced_before, untraced_after],
                             "traced_op_s": traced})
    notes = {"trace.overhead_share": f"traced op {traced:.4f} s vs untraced "
                                     f"{untraced_before:.4f}, {untraced_after:.4f} s"}
    return ops, values, notes


def _report(spec_metrics: list[dict], values: dict, notes: dict) -> dict:
    out = {}
    for m in spec_metrics:
        name, unit = m["name"], m["unit"]
        if values.get(name) is None:
            raise RuntimeError(f"metric {name} was not measured")
        out[name] = {"value": values[name], "unit": unit}
        note = notes.get(name, "")
        print(f"{name:40s} {values[name]:>16.6g} {unit:8s} {note}")
    return out


def run_one(args, spec: dict) -> int:
    _import_recdiv()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    size = workload.smoke if args.smoke else workload.full
    env = _environment(args.seed)
    print(f"recdiv benchmark: workload={workload.name} size={size} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} smoke={int(args.smoke)}")
    print("environment: " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    workdir = WORK_DIR / f"{workload.name}-{os.getpid()}"
    trace_path = WORK_DIR / f"trace_{workload.name}_seed{args.seed}.json"
    try:
        if args.trace:
            ops, values, notes = _traced_run(workload, args.seed, size, workdir, trace_path, env)
        else:
            ops, values, notes = _timed_run(workload, args.seed, size, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if ops.objective is None:
        print(f"error: no operation of {workload.name} passed its checks", file=sys.stderr)
        return 1
    metrics = _report(spec["per_layer" if args.trace else "end_to_end"], values, notes)
    if not args.trace:
        # 1 / run_s times a constant: printed, but not a second gate on run_s.
        print(f"{'edges_per_s':40s} {values['edges_per_s']:>16.6g} {'edges/s':8s} "
              f"{notes['edges_per_s']}")
    share = ops.failed / ops.attempted
    print(f"{'failed_ops_share':40s} {share:>16.6g} {'fraction':8s} "
          f"{ops.failed} of {ops.attempted} ops failed")
    if args.trace:
        print(f"spans and counts written to {trace_path.relative_to(ROOT)}")
    correct = ops.failed == 0
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh child process, one after the other."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {wl['name']} printed no result (exit code {proc.returncode})",
                  file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and proc.returncode == 0
        metrics.update({f"{wl['name']}.{k}": v for k, v in result["metrics"].items()})
        print()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=_nonnegative, required=True)
    parser.add_argument("--seconds", type=_positive, default=spec["run_seconds"],
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
