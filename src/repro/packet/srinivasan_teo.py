"""Constant-factor packet routing + scheduling for makespan (Srinivasan–Teo substitute).

Section 3.2 of the paper schedules the packets assigned to each interval with
the algorithm of Srinivasan and Teo [28], which achieves a makespan within a
constant factor of the optimum (Theorem 9) by LP rounding against the
congestion + dilation lower bound.  The exact constants of that construction
(and of the Leighton–Maggs–Rao schedules it builds on) are far outside what a
reproduction can implement usefully, so — as documented in DESIGN.md — this
module substitutes the classical practical recipe that exercises the same
code path and achieves the same asymptotics on every workload we generate:

1. **Routing** (paths not given): each packet picks, among its candidate
   shortest paths, the one minimising the resulting maximum edge congestion
   (greedy minimisation of the congestion term ``C``); shortest paths keep
   the dilation term ``D`` minimal.
2. **Scheduling**: packets get independent uniformly random initial delays in
   ``[0, C)`` and are then list-scheduled greedily
   (:func:`repro.packet.scheduling.list_schedule_packets`); the random delays
   spread contention so the realised makespan stays ``O(C + D)``.

:func:`route_and_schedule` returns the schedule together with the congestion
and dilation of the chosen paths, so callers (and the tests) can verify the
``makespan <= constant * (C + D)`` guarantee empirically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Hashable, Mapping, Optional, Sequence, Tuple

from ..core.flows import CoflowInstance, FlowId
from ..core.network import Network, path_edges
from ..core.schedule import PacketSchedule
from .scheduling import congestion, dilation, list_schedule_packets

__all__ = ["RoutedPackets", "route_packets", "route_and_schedule"]

Edge = Tuple[Hashable, Hashable]


@dataclass
class RoutedPackets:
    """Routing produced for a set of packets plus its quality measures."""

    paths: Dict[FlowId, Tuple[Hashable, ...]]
    congestion: int
    dilation: int

    @property
    def lower_bound(self) -> int:
        """``max(C, D)`` — every schedule needs at least this many steps."""
        return max(self.congestion, self.dilation)


def route_packets(
    instance: CoflowInstance,
    network: Network,
    max_paths: int = 16,
    seed: Optional[int] = None,
    preferred: Optional[Mapping[FlowId, Sequence[Hashable]]] = None,
) -> RoutedPackets:
    """Choose one shortest path per packet, greedily minimising congestion.

    ``preferred`` supplies externally chosen paths (e.g. from LP flow
    decomposition) that are kept as-is; remaining packets are routed greedily
    in random order (seeded, hence reproducible).
    """
    rng = random.Random(seed)
    load: Dict[Edge, int] = {}
    paths: Dict[FlowId, Tuple[Hashable, ...]] = {}

    def commit(fid: FlowId, path: Sequence[Hashable]) -> None:
        paths[fid] = tuple(path)
        for e in path_edges(list(path)):
            load[e] = load.get(e, 0) + 1

    if preferred:
        for fid, path in preferred.items():
            commit(fid, path)

    pending = [
        (i, j, flow)
        for i, j, flow in instance.iter_flows()
        if (i, j) not in paths
    ]
    rng.shuffle(pending)
    for i, j, flow in pending:
        candidates = network.candidate_set(
            flow.source, flow.destination, max_paths=max_paths
        )
        best: Optional[Sequence[Hashable]] = None
        best_cost: Optional[Tuple[int, int, int]] = None
        for candidate in candidates.paths:
            edges = path_edges(candidate)
            worst = max(load.get(e, 0) for e in edges) + 1
            total = sum(load.get(e, 0) for e in edges)
            # Tie-break the bottleneck load by the total load so packets
            # spread over equal-cost paths even when an unavoidable first or
            # last hop dominates the maximum.
            ranking = (worst, total, len(candidate))
            if best_cost is None or ranking < best_cost:
                best_cost = ranking
                best = candidate
        assert best is not None
        commit((i, j), best)
    return RoutedPackets(
        paths=paths, congestion=congestion(paths), dilation=dilation(paths)
    )


def route_and_schedule(
    instance: CoflowInstance,
    network: Network,
    max_paths: int = 16,
    seed: Optional[int] = 0,
    preferred: Optional[Mapping[FlowId, Sequence[Hashable]]] = None,
    priority: Optional[Mapping[FlowId, float]] = None,
) -> Tuple[RoutedPackets, PacketSchedule]:
    """Route (if needed) and schedule a set of packets to near-minimal makespan.

    Random initial delays in ``[0, C)`` spread the start times; the greedy
    list scheduler then resolves residual contention.  The returned schedule
    is validated feasible.
    """
    routing = route_packets(
        instance, network, max_paths=max_paths, seed=seed, preferred=preferred
    )
    rng = random.Random(None if seed is None else seed + 1)
    spread = max(routing.congestion, 1)
    delays = {fid: rng.randrange(spread) for fid in routing.paths}
    schedule = list_schedule_packets(
        instance,
        routing.paths,
        priority=priority,
        initial_delays=delays,
    )
    schedule.validate(instance, network)
    return routing, schedule
