#!/usr/bin/env python
"""MapReduce shuffle scheduling: the paper's motivating application.

Generates two all-to-all shuffle coflows (every mapper sends to every reducer;
the reduce phase starts only when the whole shuffle — the coflow — finishes),
schedules them with the LP-Based algorithm and with the heuristics, and prints
per-job shuffle completion times.  This is the scenario where coflow-aware
scheduling matters: finishing individual flows early is useless if a sibling
flow straggles.

Run with:  python examples/mapreduce_shuffle.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.baselines import scheme_from_spec
from repro.core import topologies
from repro.sim import FlowLevelSimulator
from repro.workloads import mapreduce_shuffle


def main() -> None:
    network = topologies.fat_tree(k=4)
    instance = mapreduce_shuffle(
        network,
        num_jobs=3,
        mappers_per_job=4,
        reducers_per_job=4,
        bytes_per_pair=4.0,
        release_gap=2.0,
        seed=7,
    )
    print(f"workload: {instance.num_coflows} shuffle jobs, "
          f"{instance.num_flows} flows ({instance.total_volume:.0f} units of data)\n")

    simulator = FlowLevelSimulator(network)
    for name in ("LP-Based", "SEBF", "Baseline"):
        scheme = scheme_from_spec(name)
        plan = scheme.plan(instance, network)
        result = simulator.run(instance, plan)
        per_job = ", ".join(
            f"job{i}={result.breakdown.per_coflow[i]:.1f}"
            for i in sorted(result.breakdown.per_coflow)
        )
        print(f"{scheme.name:<12s} total shuffle completion = "
              f"{result.total_completion_time:8.1f}   ({per_job})")

    lp = scheme_from_spec("LP-Based")
    lp.plan(instance, network)
    print(f"\nLP lower bound on the optimum: {lp.last_plan.lower_bound:.1f}")


if __name__ == "__main__":
    main()
