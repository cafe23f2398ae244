"""Record steady-state runs: two ten-seed sets per workload, plus a traced run.

Usage (from the root of a checkout)::

    python3 perfbench/record.py

Runs ``run.py`` with the ``run_seconds`` of ``BENCHMARK.json``: two sets of
untraced runs, each set every declared workload on seeds 1-10, then one
traced run per workload on seed 1.  It writes ``perfbench/recorded.json``
afresh.  Per workload, set and end-to-end metric: the ten values, their
median, first and third quartiles (``statistics.quantiles(values, n=4)``)
and spread ``(q3 - q1) / median``; per metric the shift of the second set's
median against the first, positive when it is worse; and the per-layer
metrics of the traced run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "recorded.json"
SEEDS = list(range(1, 11))
SETS = 2
TRACED_SEED = 1


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def bench(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """One ``run.py`` run; returns its result line and its environment line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed: {done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("perfbench-env "))[14:])
    env.pop("repro_path", None)  # machine-specific
    return {"result": json.loads(lines[-1]), "env": env}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    metrics = {m["name"]: m for m in declared["end_to_end"]}
    names = [w["name"] for w in declared["workloads"]]
    workloads: Dict[str, Dict[str, Any]] = {name: {"sets": []} for name in names}

    # Set after set, as a comparison of two builds would run them.
    for set_index in range(SETS):
        for workload in names:
            values = {name: [] for name in metrics}
            for seed in SEEDS:
                run = bench(workload, seed, seconds, 0)
                workloads[workload]["env"] = run["env"]
                for name in values:
                    values[name].append(run["result"]["metrics"][name]["value"])
                print(f"set {set_index + 1} {workload} seed {seed}: " + ", ".join(
                    f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
            workloads[workload]["sets"].append(
                {name: summarize(vals) for name, vals in values.items()}
            )

    for workload in names:
        first, second = workloads[workload]["sets"][:2]
        shifts = {}
        for name, metric in metrics.items():
            change = second[name]["median"] / first[name]["median"] - 1.0
            shifts[name] = {
                "worse_by": change if metric["better"] == "lower" else -change,
                "bound": metric["bound"],
            }
        workloads[workload]["median_shift"] = shifts
        traced = bench(workload, TRACED_SEED, seconds, 1)["result"]["metrics"]
        workloads[workload]["traced"] = {
            "seed": TRACED_SEED,
            "metrics": {name: entry["value"] for name, entry in traced.items()},
        }

    OUT.write_text(json.dumps(
        {"run_seconds": seconds, "seeds": SEEDS, "workloads": workloads}, indent=1
    ) + "\n")
    for workload in names:
        sets = workloads[workload]["sets"]
        for name, shift in workloads[workload]["median_shift"].items():
            spreads = " ".join(f"{s[name]['spread']:.3f}" for s in sets)
            print(f"{workload:16s} {name:12s} median {sets[0][name]['median']:10.4f} "
                  f"spreads {spreads} worse_by {shift['worse_by']:+.3f} "
                  f"bound {shift['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
