#!/usr/bin/env python
"""The Figure-1 example: three coflows on a unit-capacity triangle.

Reproduces the three schedules discussed in the paper's introduction — fair
sharing (total completion time 10), strict coflow priority (8) and the optimum
(7) — and shows that the LP relaxation plus the LP-ordered work-conserving
simulation recovers the optimal value.

Run with:  python examples/fig1_triangle.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.baselines import scheme_from_spec
from repro.circuit import GivenPathsScheduler
from repro.core import CircuitSchedule, Coflow, CoflowInstance, Flow, topologies
from repro.sim import FlowLevelSimulator


def build_instance() -> CoflowInstance:
    """Coflow A = {A1 (size 2), A2 (size 1)}, B (size 1), C (size 2).

    A1 and C share one edge of the triangle, A2 and B share another.
    """
    return CoflowInstance(
        coflows=[
            Coflow(
                flows=(
                    Flow("x", "y", size=2.0, path=["x", "y"]),
                    Flow("y", "z", size=1.0, path=["y", "z"]),
                ),
                weight=1.0,
                name="A",
            ),
            Coflow(flows=(Flow("y", "z", size=1.0, path=["y", "z"]),), weight=1.0, name="B"),
            Coflow(flows=(Flow("x", "y", size=2.0, path=["x", "y"]),), weight=1.0, name="C"),
        ]
    )


def manual_schedule(instance, segments) -> float:
    schedule = CircuitSchedule()
    for fid, (start, end, rate) in segments.items():
        schedule.set_path(fid, instance.flow(fid).path)
        schedule.add_segment(fid, start, end, rate)
    schedule.validate(instance, topologies.triangle())
    return sum(schedule.coflow_completion_times(instance).values())


def main() -> None:
    network = topologies.triangle()
    instance = build_instance()

    fair = manual_schedule(
        instance,
        {(0, 0): (0, 4, 0.5), (0, 1): (0, 2, 0.5), (1, 0): (0, 2, 0.5), (2, 0): (0, 4, 0.5)},
    )
    priority = manual_schedule(
        instance,
        {(0, 0): (0, 2, 1.0), (0, 1): (0, 1, 1.0), (1, 0): (1, 2, 1.0), (2, 0): (2, 4, 1.0)},
    )
    optimal = manual_schedule(
        instance,
        {(0, 0): (0, 2, 1.0), (0, 1): (1, 2, 1.0), (1, 0): (0, 1, 1.0), (2, 0): (2, 4, 1.0)},
    )
    print("Figure 1 schedules (total coflow completion time):")
    print(f"  (s1) fair sharing       : {fair:.0f}   (paper: 10)")
    print(f"  (s2) coflow priority    : {priority:.0f}   (paper: 8)")
    print(f"  (s3) optimal            : {optimal:.0f}   (paper: 7)")

    # The Section-2.1 pipeline.
    scheduler = GivenPathsScheduler(instance, network)
    relaxation = scheduler.relax()
    print(f"\nLP lower bound (Lemma 4): {relaxation.lower_bound:.2f}")
    print(f"LP flow order           : {relaxation.flow_order()}")

    scheme = scheme_from_spec("LP-Based (given paths)")
    plan = scheme.plan(instance, network)
    simulated = FlowLevelSimulator(network).run(instance, plan)
    print(f"LP-ordered simulation   : {simulated.total_completion_time:.0f}   (optimal is 7)")

    rounded = scheduler.schedule()
    print(f"interval-rounded schedule objective: {rounded.objective:.1f} "
          f"(provable factor {scheduler.parameters.blowup_factor:.1f}x of the LP bound)")


if __name__ == "__main__":
    main()
