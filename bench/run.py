"""Benchmark entry point: one workload per run, or every workload with --workload all.

    python3 bench/run.py --workload screen --seed 1 --seconds 55 --trace 0

Run from the repository root; the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a separate traced
set-up and round, plus ``trace.overhead_s``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3        # set-ups per run at the least
SETUP_MIN_SECONDS = 1.0  # cheap set-ups repeat until this much time has passed
MIN_TAIL_BEYOND = 10

sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def fresh_import() -> None:
    """Import wcikit from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "wcikit" or n.startswith("wcikit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("wcikit")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"wcikit imported from {pkg.__file__}, not {SRC}")
    for mod in ("classify", "baskets", "series", "candidate", "cli"):
        importlib.import_module(f"wcikit.{mod}")


def run_round(work, inputs) -> tuple[float, list[float], list, int]:
    """One pass over the operations: wall, per-op seconds, outputs, failures."""
    times, outputs, failed = [], [], 0
    gc.collect()  # the previous round's garbage is not this round's cost
    start = perf_counter()
    for item in inputs.ops:
        t0 = perf_counter()
        try:
            out = work.op(inputs, item)
        except Exception as exc:  # a failing operation is counted, not fatal
            print(f"operation failed: {item!r}: {exc!r}", file=sys.stderr)
            out = workloads.FAILED
            failed += 1
        times.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - start, times, outputs, failed


def tail(values: list[float]) -> float:
    """The value with MIN_TAIL_BEYOND values above it.

    With no more values than that there is no tail, and the median is
    returned instead.
    """
    ordered = sorted(values)
    if len(ordered) <= MIN_TAIL_BEYOND:
        return statistics.median(ordered)
    return ordered[len(ordered) - MIN_TAIL_BEYOND - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = workloads.WORKLOADS[name]
    setups = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
        t0 = perf_counter()
        fresh_import()
        inputs = work.setup(seed)
        setups.append(perf_counter() - t0)

    walls, per_op, attempted, failed = [], [[] for _ in inputs.ops], 0, 0
    first_outputs, rounds_differ = None, False
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        wall, times, outputs, fails = run_round(work, inputs)
        walls.append(wall)
        for acc, t in zip(per_op, times):
            acc.append(t)
        attempted += len(times)
        failed += fails
        if first_outputs is None:
            first_outputs = outputs
        rounds_differ = rounds_differ or outputs != first_outputs
    errors = work.check(inputs, first_outputs)
    if rounds_differ:
        errors.append("a later round's outputs differ from the first round's")
    # Best of the run's rounds, per operation and per round: other tenants
    # of the host slow the process in bursts, and only ever add time.
    op_times = [min(ts) for ts in per_op]
    wall_s = min(walls)
    print(f"{name}: seed {seed}, {len(walls)} rounds of {len(inputs.ops)} operations, "
          f"{len(errors)} check errors", file=sys.stderr)
    for err in errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)

    if trace:
        metrics = traced_metrics(work, name, seed, wall_s)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_ms": {"value": 1000 * statistics.median(op_times), "unit": "ms"},
            "op_tail_ms": {"value": 1000 * tail(op_times), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "unit": "MB"},
        }
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_metrics(work, name: str, seed: int, untraced_wall: float) -> dict:
    """Per-layer metrics from one traced set-up and one traced round."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase("setup")
        inputs = work.setup(seed)
        tracer.phase("round")
        wall, _, _, _ = run_round(work, inputs)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(str(OUT_DIR / f"trace-{name}-{seed}.json"))
    if tracer.missing:
        print(f"traced names missing: {', '.join(tracer.missing)}", file=sys.stderr)
    metrics = {key: {"value": value, "unit": _unit(key)}
               for key, value in tracer.metrics().items()}
    metrics["trace.overhead_s"] = {"value": wall - untraced_wall, "unit": "s"}
    return metrics


def _unit(key: str) -> str:
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("yield"):
        return "ratio"
    return "count"


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for key, metric in result["metrics"].items():
            print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
            total["metrics"][f"{name}.{key}"] = metric
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wcikit" / "__init__.py").is_file():
        print(f"error: no wcikit sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
