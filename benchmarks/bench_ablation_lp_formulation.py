"""Ablation: edge-flow LP vs candidate-path LP (Section 2.2 formulations).

DESIGN.md documents the substitution that makes paper-scale routing LPs
tractable with an open-source solver: a column formulation over the fat-tree's
equal-cost shortest paths instead of the paper's full edge-flow formulation.
This ablation solves the same instances with both formulations and reports LP
size, solve time, LP optimum and the simulated objective of the resulting
plan, confirming the two formulations lead to equivalent schedules on the
fat-tree (where shortest-path routing is optimal) while the path formulation
is an order of magnitude smaller.
"""

import time

import pytest

from repro.analysis import format_table
from repro.baselines import scheme_from_spec
from repro.circuit import RoutingLP
from repro.core import topologies
from repro.sim import FlowLevelSimulator
from repro.workloads import CoflowGenerator, WorkloadConfig

from common import record


def run_comparison():
    network = topologies.fat_tree(4)
    instance = CoflowGenerator(
        network, WorkloadConfig(num_coflows=3, coflow_width=3, seed=88)
    ).instance()
    simulator = FlowLevelSimulator(network)

    rows = []
    objectives = {}
    for formulation in ("path", "edge"):
        start = time.perf_counter()
        lp = RoutingLP(instance, network, formulation=formulation)
        built = lp.build()
        relaxation = lp.relax()
        solve_seconds = time.perf_counter() - start

        scheme = scheme_from_spec(
            f"pipeline(router=lp(formulation={formulation}), order=lp)"
        )
        plan = scheme.plan(instance, network)
        simulated = simulator.run(instance, plan).weighted_completion_time
        objectives[formulation] = simulated
        rows.append(
            [
                formulation,
                built.num_variables,
                built.num_constraints,
                solve_seconds,
                relaxation.objective,
                simulated,
            ]
        )
    return rows, objectives


@pytest.mark.benchmark(group="ablation")
def test_ablation_lp_formulation(benchmark):
    rows, objectives = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = format_table(
        [
            "formulation",
            "LP variables",
            "LP constraints",
            "build+solve (s)",
            "LP optimum",
            "simulated objective",
        ],
        rows,
        title="Ablation — Section 2.2 LP formulation (path columns vs edge flows)",
        float_format="{:.3f}",
    )
    record("ablation_lp_formulation", table)

    path_row = next(r for r in rows if r[0] == "path")
    edge_row = next(r for r in rows if r[0] == "edge")
    # The path formulation is far smaller...
    assert path_row[1] < edge_row[1] / 2
    # ...and the resulting schedules are of comparable quality on the fat-tree.
    assert objectives["path"] <= objectives["edge"] * 1.25
