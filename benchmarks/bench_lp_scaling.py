"""LP scaling: why the paper notes large instances were "prohibitively slow".

Section 4.1 remarks that, due to the complexity of the linear program,
simulating large instances was prohibitively slow even with CPLEX.  This
benchmark quantifies the effect for the open-source solver used here: it
builds and solves the Section-2.2 routing LP (path formulation) for growing
workload sizes and reports variable counts and timings, which is the data
one needs to pick a scale for the Figure-3/4 sweeps.

Build (model assembly through the bulk COO pipeline, plus the
``columnwise()`` pass that turns it into the CSC matrix and row bounds the
solver reads) and solve (the HiGHS call, plus solution extraction) are
reported as separate columns so assembly-side regressions are visible independently of solver
behaviour; ``bench_lp_assembly.py`` drills further into the assembly side.
"""

import time

import pytest

from repro.analysis import format_table
from repro.circuit import RoutingLP
from repro.core import topologies
from repro.lp import solve
from repro.workloads import CoflowGenerator, WorkloadConfig

from common import paper_scale, record

SIZES = [(2, 4), (4, 4), (4, 8), (6, 8)] + ([(10, 16)] if paper_scale() else [])


def run_scaling():
    network = topologies.fat_tree(4)
    rows = []
    for num_coflows, width in SIZES:
        instance = CoflowGenerator(
            network,
            WorkloadConfig(num_coflows=num_coflows, coflow_width=width, seed=99),
        ).instance()
        lp = RoutingLP(instance, network, formulation="path")
        start = time.perf_counter()
        built = lp.build()
        built.columnwise()
        build_time = time.perf_counter() - start
        start = time.perf_counter()
        solve(built)
        solve_time = time.perf_counter() - start
        rows.append(
            [
                f"{num_coflows} coflows x {width} flows",
                instance.num_flows,
                built.num_variables,
                built.num_constraints,
                build_time,
                solve_time,
            ]
        )
    return rows


@pytest.mark.benchmark(group="scaling")
def test_lp_scaling(benchmark):
    rows = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    table = format_table(
        [
            "workload",
            "flows",
            "LP variables",
            "LP constraints",
            "build (s)",
            "solve (s)",
        ],
        rows,
        title="LP scaling — Section 2.2 routing LP (path formulation, k=4 fat-tree)",
        float_format="{:.3f}",
    )
    record("lp_scaling", table)

    # Build + solve time grows with instance size but stays tractable at
    # bench scale.
    assert rows[-1][4] + rows[-1][5] < 300.0
