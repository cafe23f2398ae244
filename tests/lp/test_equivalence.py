"""LP-equivalence regression tests: bulk pipeline vs the scalar oracle.

Every LP builder in the repository assembles its model through the
vectorized bulk API (``build()``); :mod:`.reference_builders` assembles the
same model through the legacy scalar API (:func:`build_scalar`).  The
resulting ``(A_ub, b_ub, A_eq, b_eq)`` matrices, bounds, and objective
vectors must be *numerically identical*.  This pins the vectorized emission
to the reference implementation: any refactor of the bulk path that changes
a coefficient, a row, or the variable ordering fails here immediately.  The
instance fixtures live in ``conftest.py``.
"""

import numpy as np
import pytest

from repro.circuit.given_paths import GivenPathsLP
from repro.circuit.routing import RoutingLP
from repro.core.flows import Coflow, CoflowInstance, Flow
from repro.packet.given_paths import PacketGivenPathsLP
from repro.packet.routing import PacketRoutingLP

from .reference_builders import build_scalar


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


def test_circuit_given_paths_equivalence(network, circuit_instance_with_paths):
    builder = GivenPathsLP(circuit_instance_with_paths, network)
    assert_identical_lps(builder.build(), build_scalar(builder))


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
    from repro.core.network import Network

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
    assert_identical_lps(builder.build(), build_scalar(builder))
