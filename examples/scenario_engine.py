#!/usr/bin/env python
"""Experiment engine tour: parallel sweeps, scenario families, resume.

Runs a small coflow-width sweep three ways to show the engine's moving
parts:

1. serial, cold — the classic single-process loop;
2. parallel (2 workers), cold — same seeds, bit-identical results;
3. serial, warm — resumed from the run store written by step 2, so nothing
   is simulated at all.

Then sweeps a *scenario* axis (Pareto tail index on an oversubscribed
fat-tree) to show that any :class:`WorkloadConfig` field is sweepable and
that topologies can be declared as spec strings.

Run with:  python examples/scenario_engine.py
"""

import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import ExperimentEngine, build_schemes, sweep_table
from repro.core import topologies
from repro.workloads import WorkloadConfig


def main() -> None:
    network = topologies.fat_tree(k=4)
    schemes = build_schemes(["Route-only", "Schedule-only", "Baseline"])
    config = WorkloadConfig(
        num_coflows=4, coflow_width=4, mean_flow_size=6.0, release_rate=4.0, seed=11
    )

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "runs.jsonl"

        # 1. Serial, cold.
        serial = ExperimentEngine(network, schemes, tries=3)
        serial_result = serial.run(config, "coflow_width", [2, 4, 8])
        print(f"serial cold:   {serial.last_run_stats}")

        # 2. Parallel, cold, persisted to a run store.
        parallel = ExperimentEngine(
            network, schemes, tries=3, workers=2, store=str(store_path)
        )
        parallel_result = parallel.run(config, "coflow_width", [2, 4, 8])
        print(f"parallel cold: {parallel.last_run_stats}")
        identical = all(
            a.values == b.values
            for a, b in zip(serial_result.points, parallel_result.points)
        )
        print(f"serial == parallel: {identical}")

        # 3. Serial, warm: resumed from the store, zero simulations.
        warm = ExperimentEngine(network, schemes, tries=3, store=str(store_path))
        warm.run(config, "coflow_width", [2, 4, 8])
        print(f"warm resume:   {warm.last_run_stats} "
              f"(all cached: {warm.last_run_stats.all_cached})")

    # 4. A scenario sweep: heavier and heavier Pareto tails through a 4:1
    #    oversubscribed fat-tree, declared entirely by the workload config.
    scenario = WorkloadConfig(
        num_coflows=4,
        coflow_width=4,
        mean_flow_size=6.0,
        release_rate=4.0,
        seed=23,
        flow_size_distribution="pareto",
        topology="fat_tree(k=4, oversubscription=4.0)",
    )
    engine = ExperimentEngine.for_config(scenario, schemes, tries=3)
    result = engine.run(
        scenario, "pareto_shape", [1.2, 1.6, 2.4], label_format="alpha={value}"
    )
    print()
    print(sweep_table(result, "Pareto tail sweep on oversubscribed fat-tree (4:1)"))


if __name__ == "__main__":
    main()
