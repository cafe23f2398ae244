"""Lower bounds on the optimal weighted coflow completion time.

Besides the LP lower bounds of Lemmas 4 and 5 (exposed by
:mod:`repro.circuit.given_paths` and :mod:`repro.circuit.routing`), this
module provides cheap combinatorial lower bounds that hold for *every*
feasible circuit schedule and are used to sanity-check both the LP values and
the schedules produced by every algorithm and baseline:

* **release + transfer bound** — a flow of size ``sigma`` released at ``r``
  cannot complete before ``r + sigma / bottleneck``, where ``bottleneck`` is
  the largest bottleneck capacity over any source-sink path (the widest path);
  a coflow cannot complete before the max of its flows' bounds.

* **edge congestion bound** — for any edge ``e`` and any set of flows whose
  every source-sink path must cross ``e`` (conservatively: flows whose chosen
  path crosses ``e``, in the given-paths case), the last of them cannot finish
  before (total size) / c(e).

The combinatorial bounds are loose but instance-independent of any LP, which
makes them ideal oracles for property-based tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

import numpy as np

from ..core.flows import CoflowInstance, FlowId
from ..core.network import Network, path_edges

__all__ = [
    "flow_transfer_lower_bound",
    "flow_transfer_lower_bounds",
    "coflow_transfer_lower_bound",
    "weighted_transfer_lower_bound",
    "given_paths_congestion_lower_bound",
    "widest_bottleneck",
]


def widest_bottleneck(
    network: Network, source: Hashable, destination: Hashable
) -> float:
    """Bottleneck capacity of the widest ``source -> destination`` path.

    Memoized per endpoint pair on the network
    (:meth:`~repro.core.network.Network.widest_bottleneck`): flows share a
    handful of endpoint pairs, and a topology serves a whole sweep.
    """
    return network.widest_bottleneck(source, destination)


def flow_transfer_lower_bound(
    flow_source: Hashable,
    flow_destination: Hashable,
    size: float,
    release_time: float,
    network: Network,
) -> float:
    """``release + size / (widest-path bottleneck)`` for a single flow."""
    if size <= 0:
        return release_time
    return release_time + size / widest_bottleneck(network, flow_source, flow_destination)


def flow_transfer_lower_bounds(
    instance: CoflowInstance, network: Network
) -> np.ndarray:
    """Per-flow transfer bounds, in ``instance.iter_flows()`` order.

    The bulk counterpart of :func:`flow_transfer_lower_bound`: one array for
    the whole instance, with the widest-path searches memoized per endpoint
    pair.  This is what the LP builders use for their transfer-strengthening
    rows.
    """
    bounds = []
    for _i, _j, flow in instance.iter_flows():
        if flow.size > 0:
            bounds.append(
                flow.release_time
                + flow.size / widest_bottleneck(network, flow.source, flow.destination)
            )
        else:
            bounds.append(flow.release_time)
    return np.asarray(bounds, dtype=float)


def coflow_transfer_lower_bound(
    instance: CoflowInstance, coflow_index: int, network: Network
) -> float:
    """Max transfer bound over the coflow's flows."""
    bound = 0.0
    for flow in instance[coflow_index].flows:
        if flow.size <= 0:
            candidate = flow.release_time
        else:
            candidate = flow.release_time + flow.size / widest_bottleneck(
                network, flow.source, flow.destination
            )
        bound = max(bound, candidate)
    return bound


def weighted_transfer_lower_bound(
    instance: CoflowInstance, network: Network
) -> float:
    """Weighted sum of per-coflow transfer bounds — a valid lower bound on (1).

    Computed in one vectorized pass: the per-flow bounds array is reduced
    coflow-by-coflow with a single segmented maximum.
    """
    bounds = flow_transfer_lower_bounds(instance, network)
    coflow_of_flow = np.asarray(
        [i for i, _j, _f in instance.iter_flows()], dtype=np.int64
    )
    num_coflows = len(instance.coflows)
    per_coflow = np.zeros(num_coflows)
    if bounds.size:
        np.maximum.at(per_coflow, coflow_of_flow, bounds)
    weights = np.asarray([c.weight for c in instance.coflows], dtype=float)
    return float(weights @ per_coflow)


def given_paths_congestion_lower_bound(
    instance: CoflowInstance, network: Network
) -> float:
    """Congestion-based lower bound on the *makespan* for fixed paths.

    The busiest edge must carry all of the volume routed through it, so the
    last flow cannot complete before ``max_e (volume through e) / c(e)``
    (ignoring release times).  Useful to check single-coflow (makespan)
    instances.
    """
    loads: Dict[Tuple[Hashable, Hashable], float] = {}
    for _, _, flow in instance.iter_flows():
        if flow.path is None:
            raise ValueError("congestion bound requires fixed paths")
        for edge in path_edges(flow.path):
            loads[edge] = loads.get(edge, 0.0) + flow.size
    bound = 0.0
    for edge, load in loads.items():
        bound = max(bound, load / network.capacity(*edge))
    return bound
