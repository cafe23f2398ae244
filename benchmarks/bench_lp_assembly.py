"""LP assembly micro-benchmark: bulk pipeline vs legacy scalar emission.

Section 4.1 of the paper notes that simulating large instances was
"prohibitively slow even with CPLEX"; with the open-source HiGHS solver the
Python-side *model assembly* becomes a comparable cost to the solve itself.
This benchmark isolates the three phases for the Section-2.2 routing LP:

* **build (scalar)** — the legacy one-variable/one-constraint-at-a-time
  emission, including ``matrices()`` assembly.  It is the equivalence
  tests' oracle, ``build_scalar`` in ``tests/lp/reference_builders.py``;
* **build (bulk)** — the vectorized block emission (``build()``), including
  the cached single-pass ``matrices()``;
* **solve** — the HiGHS call on the assembled model.

The headline number is the build speedup column; the equivalence test suite
(``tests/lp/test_equivalence.py``) proves both builds produce numerically
identical matrices, so the speedup is free.

Run standalone from the repository root
(``PYTHONPATH=src:. python benchmarks/bench_lp_assembly.py``, optionally
with ``--smoke`` for the tiny CI configuration; the repository root must be
importable for the oracle) or through pytest.
"""

import argparse
import sys
import time

from repro.analysis import format_table
from repro.circuit import RoutingLP
from repro.core import topologies
from repro.lp import solve
from repro.workloads import CoflowGenerator, WorkloadConfig
from tests.lp.reference_builders import build_scalar

from common import paper_scale, record

#: (num_coflows, coflow_width) — mirrors bench_lp_scaling so the assembly
#: speedup is visible on the same workloads as the build+solve trajectory.
SIZES = [(2, 4), (4, 4), (4, 8), (6, 8)] + ([(10, 16)] if paper_scale() else [])
SMOKE_SIZES = [(2, 4)]

#: The acceptance workload: the largest default bench_lp_scaling point.
HEADLINE_SIZE = (6, 8)


def measure(num_coflows, width, formulation="path", repeats=3):
    """Best-of-``repeats`` timings for one workload size."""
    network = topologies.fat_tree(4)
    instance = CoflowGenerator(
        network,
        WorkloadConfig(num_coflows=num_coflows, coflow_width=width, seed=99),
    ).instance()
    builder = RoutingLP(instance, network, formulation=formulation)
    builder.candidate_paths()  # warm the path cache outside the timings

    scalar_time = bulk_time = float("inf")
    lp = None
    for _ in range(repeats):
        start = time.perf_counter()
        lp_scalar = build_scalar(builder)
        lp_scalar.matrices()
        scalar_time = min(scalar_time, time.perf_counter() - start)

        start = time.perf_counter()
        lp = builder.build()
        lp.matrices()
        bulk_time = min(bulk_time, time.perf_counter() - start)

    start = time.perf_counter()
    solve(lp)
    solve_time = time.perf_counter() - start
    return {
        "workload": f"{num_coflows} coflows x {width} flows",
        "variables": lp.num_variables,
        "constraints": lp.num_constraints,
        "scalar": scalar_time,
        "bulk": bulk_time,
        "speedup": scalar_time / bulk_time,
        "solve": solve_time,
    }


def run_assembly(sizes=None):
    rows = []
    for num_coflows, width in sizes or SIZES:
        m = measure(num_coflows, width)
        rows.append(
            [
                m["workload"],
                m["variables"],
                m["constraints"],
                m["scalar"],
                m["bulk"],
                m["speedup"],
                m["solve"],
            ]
        )
    return rows


def report(rows, name="lp_assembly"):
    table = format_table(
        [
            "workload",
            "LP variables",
            "LP constraints",
            "build scalar (s)",
            "build bulk (s)",
            "speedup",
            "solve (s)",
        ],
        rows,
        title=(
            "LP assembly — Section 2.2 routing LP (path formulation, k=4 "
            "fat-tree): bulk COO pipeline vs legacy scalar API"
        ),
        float_format="{:.4f}",
    )
    record(name, table)


try:
    import pytest
except ImportError:  # pragma: no cover - standalone mode
    pytest = None


if pytest is not None:

    @pytest.mark.benchmark(group="assembly")
    def test_lp_assembly(benchmark):
        rows = benchmark.pedantic(run_assembly, rounds=1, iterations=1)
        report(rows)
        # Acceptance: >= 3x faster assembly on the (6, 8) scaling workload.
        headline = next(r for r in rows if r[0].startswith(str(HEADLINE_SIZE[0])))
        assert headline[5] >= 3.0, (
            f"bulk assembly speedup regressed to {headline[5]:.2f}x on "
            f"{headline[0]} (expected >= 3x)"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny single-size run for CI (checks the pipeline, not the 3x)",
    )
    args = parser.parse_args(argv)
    rows = run_assembly(SMOKE_SIZES if args.smoke else None)
    report(rows, name="lp_assembly_smoke" if args.smoke else "lp_assembly")
    if not args.smoke:
        headline = next(r for r in rows if r[0].startswith(str(HEADLINE_SIZE[0])))
        if headline[5] < 3.0:
            print(f"WARNING: headline speedup {headline[5]:.2f}x < 3x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
