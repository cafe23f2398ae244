"""LP-equivalence regression tests: bulk pipeline vs the scalar oracle.

Every LP builder in the repository assembles its model through the
vectorized bulk API (``build()``); :mod:`.reference_builders` assembles the
paper's LP through the legacy scalar API (:func:`build_scalar`).  For the
routing and packet LPs the resulting ``(A_ub, b_ub, A_eq, b_eq)``
matrices, bounds, and objective vectors must be *numerically identical*.
This pins the vectorized emission to the reference implementation: any
refactor of the bulk path that changes a coefficient, a row, or the
variable ordering fails here immediately.

The Section-2.1 builder emits the LP as written minus what presolve would
remove: its release and transfer rows are bounds, its capacity rows that
cannot bind are not emitted, and the others lose the terms of variables
fixed at 0.  Its model must be identical to
:func:`fold_given_paths_rows` of the LP as written, and its solution must
match the written LP's: equal objective, identical flow and coflow orders,
and every variable within ``1e-12``.  The instance fixtures live in
``conftest.py``.
"""

import dataclasses

import numpy as np
import pytest

from repro.circuit._assembly import extract_completion
from repro.circuit.given_paths import (
    DEFAULT_EPSILON,
    GivenPathsLP,
    GivenPathsRelaxation,
    _default_horizon,
)
from repro.circuit.routing import RoutingLP
from repro.core import topologies
from repro.core.flows import Coflow, CoflowInstance, Flow
from repro.core.intervals import IntervalGrid
from repro.core.network import Network
from repro.lp import solve
from repro.packet.given_paths import PacketGivenPathsLP
from repro.packet.routing import PacketRoutingLP
from repro.sim import LPReplanner, StreamingScheduler

from .reference_builders import build_scalar, fold_given_paths_rows


def assert_identical_lps(bulk, scalar):
    """The two LinearPrograms must agree exactly (not just approximately)."""
    assert bulk.variable_keys == scalar.variable_keys
    assert bulk.num_constraints == scalar.num_constraints
    assert bulk.bounds() == scalar.bounds()
    assert np.array_equal(bulk.objective_vector(), scalar.objective_vector())
    for name, m_bulk, m_scalar in zip(
        ["A_ub", "b_ub", "A_eq", "b_eq"], bulk.matrices(), scalar.matrices()
    ):
        if m_bulk is None or m_scalar is None:
            assert m_bulk is None and m_scalar is None, f"{name}: None mismatch"
            continue
        if hasattr(m_bulk, "toarray"):
            m_bulk, m_scalar = m_bulk.toarray(), m_scalar.toarray()
        assert m_bulk.shape == m_scalar.shape, f"{name}: shape mismatch"
        assert np.array_equal(m_bulk, m_scalar), (
            f"{name}: max abs diff {np.abs(m_bulk - m_scalar).max()}"
        )


def assert_given_paths_matches_written_lp(builder):
    """``build()`` is the folded LP as written, and both solve alike."""
    written = build_scalar(builder)
    assert_identical_lps(builder.build(), fold_given_paths_rows(written))
    built = builder.relax()
    solution = solve(written)
    fractions, flow_completion, coflow_completion = extract_completion(
        solution, builder._layout
    )
    oracle = GivenPathsRelaxation(
        instance=builder.instance,
        network=builder.network,
        grid=builder.grid,
        solution=solution,
        fractions=fractions,
        flow_completion=flow_completion,
        coflow_completion=coflow_completion,
    )
    assert built.objective == oracle.objective
    assert built.flow_order() == oracle.flow_order()
    assert built.coflow_order() == oracle.coflow_order()
    assert np.allclose(built.solution.x, solution.x, rtol=1e-12, atol=1e-12)
    return written


def row_families(lp):
    """Row count per constraint family (the name before ``[``)."""
    counts = {}
    for row in lp.iter_constraints():
        family = row.name.split("[", 1)[0]
        counts[family] = counts.get(family, 0) + 1
    return counts


def routed(network, flows):
    """One coflow per flow, each on its shortest path; weights 1, 2, ..."""
    return CoflowInstance(
        coflows=[
            Coflow(
                flows=(
                    dataclasses.replace(
                        flow,
                        path=tuple(network.shortest_path(flow.source, flow.destination)),
                    ),
                ),
                weight=1.0 + k,
            )
            for k, flow in enumerate(flows)
        ]
    )


def test_circuit_given_paths_equivalence(network, circuit_instance_with_paths):
    builder = GivenPathsLP(circuit_instance_with_paths, network)
    written = assert_given_paths_matches_written_lp(builder)
    families = row_families(written)
    kept = row_families(fold_given_paths_rows(written))
    assert families["release"] and families["transfer"]
    assert "release" not in kept and "transfer" not in kept
    assert 0 < kept["capacity"] < families["capacity"]


def test_given_paths_releases_on_boundaries():
    """Releases at 0, inside and at the end of interval 0, and exactly on
    later boundaries: a flow may run in the interval its release closes."""
    network = topologies.line(3)
    grid = IntervalGrid(DEFAULT_EPSILON, horizon=60.0)
    tau = grid.boundaries
    releases = [0.0, 0.5, 1.0, tau[2], tau[3], 0.5 * (tau[3] + tau[4]), tau[5]]
    flows = [
        Flow("host_0", "host_2", size=1.0 + k % 3, release_time=r)
        for k, r in enumerate(releases)
    ]
    builder = GivenPathsLP(routed(network, flows), network, horizon=60.0)
    assert builder.grid.num_intervals == grid.num_intervals
    assert list(grid.release_intervals(releases)) == [0, 0, 0, 1, 2, 3, 4]
    assert_given_paths_matches_written_lp(builder)


def test_given_paths_release_past_horizon_raises_the_same_error():
    network = topologies.line(2)
    flows = [
        Flow("host_0", "host_1", size=1.0, release_time=1.0),
        Flow("host_0", "host_1", size=1.0, release_time=500.0),
    ]
    builder = GivenPathsLP(routed(network, flows), network, horizon=4.0)
    with pytest.raises(ValueError) as written:
        builder.grid.interval_of(500.0)
    with pytest.raises(ValueError) as built:
        builder.build()
    assert str(built.value) == str(written.value)
    with pytest.raises(ValueError) as scalar:
        build_scalar(builder)
    assert str(scalar.value) == str(written.value)


def test_given_paths_late_releases(network, circuit_instance_with_paths):
    """Releases late in the grid: most intervals are before release, so
    most of the written LP's rows fold away."""
    shifted = CoflowInstance(
        coflows=[
            Coflow(
                flows=tuple(
                    dataclasses.replace(f, release_time=f.release_time + 200.0)
                    for f in c.flows
                ),
                weight=c.weight,
            )
            for c in circuit_instance_with_paths.coflows
        ]
    )
    builder = GivenPathsLP(shifted, network)
    written = assert_given_paths_matches_written_lp(builder)
    L = builder.grid.num_intervals
    first = builder.grid.release_intervals(
        [f.release_time for _i, _j, f in shifted.iter_flows()]
    )
    assert first.min() > L // 2
    assert row_families(written)["release"] == first.sum()
    assert builder.build().num_constraints < written.num_constraints // 2


def test_given_paths_zero_size_flow(network):
    """A zero-size flow keeps its deliver/completion rows but has no
    transfer bound and no capacity terms."""
    hosts = [n for n in network.nodes() if str(n).startswith("host")]
    flows = [
        Flow(hosts[0], hosts[3], size=2.0),
        Flow(hosts[1], hosts[3], size=0.0, release_time=2.5),
        Flow(hosts[2], hosts[3], size=1.5, release_time=1.0),
    ]
    builder = GivenPathsLP(routed(network, flows), network)
    assert_given_paths_matches_written_lp(builder)
    lower, _upper = builder.build().bounds_arrays()
    c_cols = builder._layout.c_cols
    assert lower[c_cols[1]] == 0.0 and lower[c_cols[0]] > 0.0


def test_given_paths_every_capacity_row_dead():
    """Capacities no released load can exceed: no capacity row is emitted.
    With ``epsilon = 1`` intervals 0 and 1 have length 1, and there edge
    ``host_1 -> host_2`` carries exactly its capacity: rows that cannot
    bind either."""
    network = topologies.line(3, capacity=5.0)
    flows = [
        Flow("host_0", "host_2", size=3.0),
        Flow("host_1", "host_2", size=2.0),
        Flow("host_0", "host_1", size=1.0, release_time=1.5),
    ]
    builder = GivenPathsLP(routed(network, flows), network, epsilon=1.0)
    written = assert_given_paths_matches_written_lp(builder)
    assert row_families(written)["capacity"] > 0
    assert builder.build().num_constraints == 3 * len(flows)


@pytest.mark.parametrize(
    "path", [("a", "c", "b"), ("a", "b", "c", "b")], ids=["first", "later"]
)
def test_given_paths_missing_edge_raises_the_same_error(path):
    net = Network()
    net.add_bidirectional_edge("a", "b", capacity=1.0)
    instance = CoflowInstance(
        coflows=[Coflow(flows=(Flow("a", "b", size=1.0, path=path),))]
    )
    with pytest.raises(ValueError) as written:
        net.validate_path(path)
    with pytest.raises(ValueError) as built:
        GivenPathsLP(instance, net)
    assert str(built.value) == str(written.value)
    assert str(built.value).startswith("path uses missing edge")


class OracleCheckedReplanner(LPReplanner):
    """An :class:`LPReplanner` that holds every re-plan's LP to the LP as
    written."""

    checked = 0

    def __call__(self, context):
        plan = super().__call__(context)
        relaxation = self.last_relaxation
        assert_given_paths_matches_written_lp(
            GivenPathsLP(
                relaxation.instance,
                self.network,
                epsilon=self.epsilon,
                horizon=self.horizon,
            )
        )
        self.checked += 1
        return plan


def test_given_paths_lp_replanner_session(network, circuit_instance_with_paths):
    """A short streaming session: every re-plan solves its sub-instance's LP
    late in a pinned grid, as the online schemes do."""
    horizon = _default_horizon(circuit_instance_with_paths, network)
    replanner = OracleCheckedReplanner(network, horizon)
    result = StreamingScheduler(network, replanner).run(circuit_instance_with_paths)
    assert replanner.checked >= 3
    assert len(result.flow_completion) == circuit_instance_with_paths.num_flows


def test_circuit_routing_path_equivalence(network, circuit_instance):
    builder = RoutingLP(circuit_instance, network, formulation="path")
    assert_identical_lps(builder.build(), build_scalar(builder))


def test_circuit_routing_edge_equivalence(network, circuit_instance):
    builder = RoutingLP(circuit_instance, network, formulation="edge")
    assert_identical_lps(builder.build(), build_scalar(builder))


def test_packet_given_paths_equivalence(network, packet_instance):
    builder = PacketGivenPathsLP(packet_instance, network)
    assert_identical_lps(builder.build(), build_scalar(builder))


def test_packet_time_expanded_equivalence(network, packet_instance):
    builder = PacketRoutingLP(packet_instance, network, horizon=12)
    assert_identical_lps(builder.build(), build_scalar(builder))


def test_zero_size_flows_equivalence(network):
    """Flows with size 0 skip rate variables/transfer rows in both paths."""
    hosts = [n for n in network.nodes() if str(n).startswith("host")]
    instance = CoflowInstance(
        coflows=[
            Coflow(
                flows=(
                    Flow(source=hosts[0], destination=hosts[3], size=2.0),
                    Flow(source=hosts[1], destination=hosts[2], size=0.0),
                ),
                weight=1.5,
            )
        ]
    )
    for formulation in ("path", "edge"):
        builder = RoutingLP(instance, network, formulation=formulation)
        assert_identical_lps(builder.build(), build_scalar(builder))


def test_bulk_solutions_match_scalar_solutions(network, circuit_instance):
    """Solving the bulk- and scalar-assembled LPs yields the same optimum."""
    from repro.lp import solve

    builder = RoutingLP(circuit_instance, network, formulation="path")
    bulk_obj = solve(builder.build()).objective
    scalar_obj = solve(build_scalar(builder)).objective
    assert bulk_obj == pytest.approx(scalar_obj, rel=1e-9)


def test_non_simple_path_equivalence():
    """A path traversing the same edge twice contributes one capacity term
    per edge in both the scalar (dict-semantics) and bulk paths."""
    net = Network()
    net.add_bidirectional_edge("a", "b", capacity=1.0)
    instance = CoflowInstance(
        coflows=[
            Coflow(
                flows=(
                    Flow(
                        source="a",
                        destination="b",
                        size=2.0,
                        path=("a", "b", "a", "b"),
                    ),
                ),
                weight=1.0,
            )
        ]
    )
    builder = GivenPathsLP(instance, net)
    assert_given_paths_matches_written_lp(builder)
