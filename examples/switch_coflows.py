#!/usr/bin/env python
"""Coflow scheduling on a non-blocking switch (the Varys setting).

The switch is the unique-path special case called out in Section 2: every
host pair is connected through one crossbar hop, so only the Section-2.1
machinery (LP + rounding / LP ordering) is needed.  This example compares the
LP-based schedule against the SEBF heuristic and against the per-coflow
isolation lower bound on a heavy-tailed workload.

Run with:  python examples/switch_coflows.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.baselines import scheme_from_spec
from repro.core import topologies
from repro.sim import FlowLevelSimulator
from repro.switch import SwitchScheduler, attach_switch_paths, switch_lower_bound
from repro.workloads import heavy_tailed_instance


def main() -> None:
    network = topologies.nonblocking_switch(16)
    instance = heavy_tailed_instance(
        network, num_coflows=8, max_width=12, max_size=24.0, seed=3
    )
    widths = [c.width for c in instance]
    print(f"workload: {instance.num_coflows} coflows on a 16-port switch, "
          f"widths {widths}, total volume {instance.total_volume:.0f}\n")

    outcome = SwitchScheduler(instance, network).schedule()
    print("LP-Based (Section 2.1 on the switch)")
    print(f"  simulated weighted CCT      : {outcome.simulated.weighted_completion_time:.1f}")
    print(f"  interval-rounded objective  : {outcome.rounded.objective:.1f}")
    print(f"  LP lower bound (Lemma 4)    : {outcome.lp_lower_bound:.1f}")
    print(f"  isolation lower bound       : {outcome.combinatorial_lower_bound:.1f}")

    routed = attach_switch_paths(instance, network)
    sebf_plan = scheme_from_spec("SEBF").plan(routed, network)
    sebf = FlowLevelSimulator(network).run(routed, sebf_plan)
    print("\nSEBF (Varys-style heuristic)")
    print(f"  simulated weighted CCT      : {sebf.weighted_completion_time:.1f}")

    gap = sebf.weighted_completion_time / outcome.simulated.weighted_completion_time
    print(f"\nSEBF / LP-Based ratio: {gap:.3f}  "
          f"(>1 means the LP ordering wins on this instance)")
    print(f"every schedule is at least {switch_lower_bound(instance, network):.1f} "
          "by the isolation bound")


if __name__ == "__main__":
    main()
