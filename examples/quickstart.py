#!/usr/bin/env python
"""Quickstart: schedule a random coflow workload on a fat-tree.

Builds a 16-server fat-tree, draws a random Poisson coflow instance (the
Section-4.1 workload), runs the paper's LP-Based algorithm and the three
competing heuristics through the flow-level simulator, and prints the
weighted coflow completion time of each scheme together with the LP lower
bound.

Run with:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.baselines import scheme_from_spec
from repro.core import topologies
from repro.sim import FlowLevelSimulator, SchemeComparison
from repro.workloads import CoflowGenerator, WorkloadConfig


def main() -> None:
    # 1. The topology: a k=4 fat-tree (16 servers, 1 Gb/s links).
    network = topologies.fat_tree(k=4)
    print(f"topology: fat-tree k=4 with {network.num_nodes} nodes, "
          f"{network.num_edges} directed links")

    # 2. The workload: 8 coflows of width 8, Poisson sizes/releases/weights.
    config = WorkloadConfig(
        num_coflows=8, coflow_width=8, mean_flow_size=8.0, release_rate=4.0, seed=1
    )
    instance = CoflowGenerator(network, config).instance()
    print(f"workload: {instance.num_coflows} coflows, {instance.num_flows} flows, "
          f"total volume {instance.total_volume:.0f}")

    # 3. Run every scheme through the flow-level simulator.  A scheme is a
    #    spec string: an alias ("Route-only") fixes every stage parameter,
    #    and a pipeline spells out a seed; each keeps the paper's name.
    simulator = FlowLevelSimulator(network)
    comparison = SchemeComparison()
    specs = {
        "LP-Based": "pipeline(router=lp(seed=1), order=lp)",
        "Route-only": "Route-only",
        "Schedule-only": "pipeline(router=random(seed=1), order=mct)",
        "Baseline": "pipeline(router=random(seed=1), order=random(seed=1))",
        "SEBF": "SEBF",
    }
    schemes = [
        scheme_from_spec(spec).with_options(name=name) for name, spec in specs.items()
    ]
    lp_scheme = schemes[0]
    for scheme in schemes:
        plan = scheme.plan(instance, network)
        result = simulator.run(instance, plan)
        comparison.add(result)
        print(f"  {scheme.name:<22s} weighted CCT = {result.weighted_completion_time:10.1f}"
              f"   makespan = {result.makespan:8.1f}")

    # 4. The LP lower bound certifies how far from optimal any scheme can be.
    print(f"\nLP lower bound (Lemma 5): {lp_scheme.last_plan.lower_bound:.1f}")
    print("ratios w.r.t. Baseline:")
    for name, ratio in sorted(comparison.ratios_to("Baseline").items()):
        print(f"  {name:<22s} {ratio:.3f}")
    print(f"\nLP-Based improvement over Route-only: "
          f"{comparison.improvement_over('LP-Based', 'Route-only'):.1f}%")


if __name__ == "__main__":
    main()
