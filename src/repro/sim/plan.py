"""Simulation plans: the interface between schedulers and the simulator.

The paper's evaluation (Section 4) drives a flow-level simulator with two
pieces of information per scheme: how each flow is *routed* and in which
*order* flows are served.  A :class:`SimulationPlan` bundles exactly that —
a path per flow plus a priority list — and every scheme (the LP-based
algorithm of Section 2.2 and the three competing heuristics of Section 4.3)
reduces to producing one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from ..core.flows import CoflowInstance, FlowId
from ..core.network import Network

__all__ = ["SimulationPlan"]


@dataclass
class SimulationPlan:
    """Routing and service order for one scheme on one instance.

    Attributes
    ----------
    paths:
        Chosen path per flow.
    order:
        Flow ids in decreasing priority (earlier = served first).  Flows
        missing from the list are appended in deterministic id order.
    name:
        Scheme name used in benchmark tables ("LP-Based", "Baseline", ...).
    allocator:
        Name of the per-event rate allocation policy the simulator applies
        (see :data:`repro.sim.allocators.ALLOCATORS`).  ``"greedy"`` is the
        paper's strict priority-order policy; ``"max-min"`` and
        ``"weighted"`` select the fair-sharing variants.
    spec:
        Optional canonical scheme-spec string of the pipeline that produced
        this plan (``pipeline(router=..., order=..., ...)``) — provenance
        for artifacts and debugging; ``None`` for hand-built plans.
    """

    paths: Dict[FlowId, Tuple[Hashable, ...]]
    order: List[FlowId]
    name: str = "unnamed"
    allocator: str = "greedy"
    spec: Optional[str] = None

    def priority_rank(self) -> Dict[FlowId, int]:
        """Map each flow id to its priority rank (0 = highest)."""
        return {fid: rank for rank, fid in enumerate(self.order)}

    def normalized(self, instance: CoflowInstance) -> "SimulationPlan":
        """Return a plan covering every flow of ``instance``.

        Flows missing a path raise; flows missing from the order are appended
        in id order so the simulator always has a total priority order.
        """
        missing_paths = [fid for fid in instance.flow_ids() if fid not in self.paths]
        if missing_paths:
            raise ValueError(f"plan {self.name!r} missing paths for {missing_paths}")
        seen = set(self.order)
        order = list(self.order) + [
            fid for fid in instance.flow_ids() if fid not in seen
        ]
        return SimulationPlan(
            paths=dict(self.paths),
            order=order,
            name=self.name,
            allocator=self.allocator,
            spec=self.spec,
        )

    def validate(self, instance: CoflowInstance, network: Network) -> None:
        """Check paths exist in the network, match flow endpoints, and that
        the plan names a known rate allocator.

        A path is checked through :meth:`Network.path_edge_ids`: candidate
        paths are known edge by edge already, and any other path is
        validated as :meth:`Network.validate_path` does.
        """
        from .allocators import resolve_allocator

        resolve_allocator(self.allocator)  # raises on unknown names
        for i, j, flow in instance.iter_flows():
            fid = (i, j)
            if fid not in self.paths:
                raise ValueError(f"plan {self.name!r} has no path for flow {fid}")
            path = self.paths[fid]
            if path[0] != flow.source or path[-1] != flow.destination:
                raise ValueError(
                    f"plan {self.name!r}: path endpoints for {fid} do not match flow"
                )
            network.path_edge_ids(path)
