"""Instances shared by the LP equivalence and direct-HiGHS tests."""

import pytest

from repro.core import topologies
from repro.core.flows import Coflow, CoflowInstance, Flow
from repro.workloads import CoflowGenerator, WorkloadConfig


@pytest.fixture(scope="module")
def network():
    return topologies.fat_tree(4)


@pytest.fixture(scope="module")
def circuit_instance(network):
    """Small fixed-seed circuit instance (sizes > 0, staggered releases)."""
    return CoflowGenerator(
        network, WorkloadConfig(num_coflows=3, coflow_width=4, seed=7)
    ).instance()


@pytest.fixture(scope="module")
def circuit_instance_with_paths(network, circuit_instance):
    paths = {
        (i, j): tuple(network.shortest_path(f.source, f.destination))
        for i, j, f in circuit_instance.iter_flows()
    }
    return circuit_instance.with_paths(paths)


@pytest.fixture(scope="module")
def packet_instance(network, circuit_instance):
    """Unit-size, integer-release packet version of the circuit instance."""
    coflows = []
    for c in circuit_instance.coflows:
        flows = tuple(
            Flow(
                source=f.source,
                destination=f.destination,
                size=1.0,
                release_time=float(int(f.release_time)),
                path=tuple(network.shortest_path(f.source, f.destination)),
            )
            for f in c.flows
        )
        coflows.append(Coflow(flows=flows, weight=c.weight))
    return CoflowInstance(coflows=coflows)
