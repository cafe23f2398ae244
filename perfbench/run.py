"""End-to-end coflow benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lp-sweep --seed 1 --seconds 36 --trace 0

A run is a fixed number of *passes* (set by ``--seconds``), each a fresh
interpreter running ``workloads.py`` on inputs derived from ``--seed`` and
the pass index.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same passes under the layer tracer, plus untraced passes for the
tracing overhead, and reports the per-layer metrics.  The last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a
failed output check exits 1 and names the check, workload and seed.

The environment is pinned: ``REPRO_*`` variables are dropped (array sim
tier, rebuild streaming, no fault injection), ``PYTHONHASHSEED=0``, one
BLAS/OpenMP thread, and ``PYTHONPATH`` is the checkout's ``src`` only.
Outputs (run summaries, Chrome traces) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Nominal seconds of one pass (set-up included); ``--seconds`` divided by
#: it gives the pass count, so a run's inputs depend on its arguments only.
PASS_SECONDS = {"lp-sweep": 6.5, "heuristic-sweep": 9.0, "online-stream": 6.0}
MIN_PASSES = 3
#: Untraced passes a traced run adds to measure the tracing overhead.
OVERHEAD_PASSES = 1
#: Seconds ``workloads.calibration_seconds`` takes at reference speed.  A
#: run's times are multiplied by this over the median of its calibration
#: readings, so every reported time is in seconds at that reference speed.
#: On a shared machine whole minutes run a third slower than others; that
#: divides out, a change in the program's own work does not.  Faster
#: jitter, within a pass, is left to the medians over passes.
REFERENCE_CALIBRATION_S = 0.25
#: Hard ceiling on one run (the contract allows 180 s).
RUN_BUDGET_S = 170.0
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class BenchmarkError(RuntimeError):
    """A pass crashed or produced no result (no metrics are printed)."""


def pass_count(workload: str, seconds: int, smoke: bool) -> int:
    if smoke:
        return 1
    return max(MIN_PASSES, int(seconds // PASS_SECONDS[workload]))


def pinned_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def source_revision() -> Dict[str, Optional[str]]:
    """Git SHA when the checkout is a repository, and a digest of ``src``."""
    sha: Optional[str] = None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
        if done.returncode == 0:
            sha = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_pass(args: argparse.Namespace, index: int, trace: bool, deadline: float) -> Dict[str, Any]:
    """One pass in a fresh interpreter; set-up time is measured from spawn."""
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--pass-index", str(index), "--trace", str(int(trace)),
        "--out", str(ROOT / ".perfbench_out"),
    ]
    if args.smoke:
        command.append("--smoke")
    spawned = time.perf_counter()
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=pinned_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"pass {index} exceeded the run budget") from error
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"pass {index} exited {done.returncode}: {done.stderr.strip()[-2000:]}"
        )
    outcome = json.loads(lines[-1])
    outcome["setup_s"] = outcome["setup_done"] - spawned
    return outcome


def speed_scale(passes: List[Dict[str, Any]]) -> float:
    """Reference over measured calibration time, median over the passes."""
    readings = [c for p in passes for c in p["calibration_s"]]
    return REFERENCE_CALIBRATION_S / statistics.median(readings)


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: List[Dict[str, Any]]) -> Dict[str, float]:
    scale = speed_scale(passes)
    steps = [s for p in passes for s in p["steps_ms"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes) * scale,
        "wall_s": statistics.median(p["wall_s"] for p in passes) * scale,
        "step_p50_ms": percentile(steps, 50) * scale,
        "step_p95_ms": percentile(steps, 95) * scale,
        "gain_pct": statistics.fmean(g for p in passes for g in p["gains"]),
        "ratio_to_lb": statistics.fmean(r for p in passes for r in p["ratios"]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self time per pass (mean over passes), counts summed over the run."""
    metrics: Dict[str, float] = {}
    scale = speed_scale(traced)
    for name in traced[0]["layers"]:
        metrics[name] = statistics.fmean(p["layers"][name] for p in traced) * scale
    for name, value in exact_counts(traced).items():
        if not isinstance(value, list):
            metrics[name] = value
    wall = sum(p["wall_s"] for p in traced)
    metrics["trace.coverage"] = sum(p["covered_s"] for p in traced) / wall
    paired = traced[: len(untraced)]
    traced_wall = sum(p["wall_s"] for p in paired) * speed_scale(paired)
    untraced_wall = sum(p["wall_s"] for p in untraced) * speed_scale(untraced)
    metrics["trace.overhead_pct"] = (traced_wall / untraced_wall - 1.0) * 100.0
    return metrics


def exact_counts(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """What must repeat bit-for-bit across runs and tracing modes."""
    counts: Dict[str, Any] = {
        "sim.events": sum(p["events"] for p in passes),
        "sim.replans": sum(p["replans"] for p in passes),
        "gains": [g for p in passes for g in p["gains"]],
        "ratios": [r for p in passes for r in p["ratios"]],
    }
    if "counts" in passes[0]:
        for name in passes[0]["counts"]:
            counts[name] = sum(p["counts"][name] for p in passes)
    return counts


def output_checks(passes: List[Dict[str, Any]], metrics: Dict[str, float]) -> Dict[str, bool]:
    checks = {
        "ratio_to_lb_at_least_1": all(r >= 1.0 - 1e-9 for p in passes for r in p["ratios"]),
        "no_failed_tasks": all(p["failed"] == 0 for p in passes),
        "metrics_finite": all(math.isfinite(v) for v in metrics.values()),
        "metric_names_valid": all(METRIC_NAME.match(k) for k in metrics),
        "repro_from_checkout": all(
            Path(p["env"]["repro_path"]) == (ROOT / "src" / "repro").resolve() for p in passes
        ),
    }
    for name in passes[0]["checks"]:
        checks[name] = all(p["checks"][name] for p in passes)
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="seconds-long inputs for self-tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    count = pass_count(args.workload, args.seconds, args.smoke)
    try:
        passes = [run_pass(args, k, bool(args.trace), deadline) for k in range(count)]
        untraced = (
            [run_pass(args, k, False, deadline) for k in range(min(count, OVERHEAD_PASSES))]
            if args.trace
            else []
        )
    except BenchmarkError as error:
        print(f"perfbench: {args.workload} seed {args.seed}: {error}", file=sys.stderr)
        return 1

    metrics = per_layer(passes, untraced) if args.trace else end_to_end(passes)
    checks = output_checks(passes, metrics)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": count,
        "run_s": time.perf_counter() - started,
        "error_rate": failed / attempted,
        "step_samples": sum(len(p["steps_ms"]) for p in passes),
        "speed_scale": speed_scale(passes),
        "env": {**passes[0]["env"], **source_revision(), "nproc": os.cpu_count()},
        "checks": checks,
        "exact": exact_counts(passes),
        "metrics": metrics,
        "pass_data": passes,
    }
    out = ROOT / ".perfbench_out" / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print("perfbench-env " + json.dumps(summary["env"], sort_keys=True))
    print(f"perfbench-summary {out.relative_to(ROOT)}")

    correct = all(checks.values())
    for name, ok in checks.items():
        if not ok:
            print(
                f"perfbench: check {name} failed on workload {args.workload} seed {args.seed}",
                file=sys.stderr,
            )
    units = {m["name"]: m["unit"] for m in _declared_metrics()}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "")}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def _declared_metrics() -> List[Dict[str, Any]]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return declared["end_to_end"] + declared["per_layer"]


if __name__ == "__main__":
    sys.exit(main())
