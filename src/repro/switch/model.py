"""Coflow scheduling on a non-blocking switch (unique-path special case)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..baselines.spec import scheme_from_spec
from ..circuit.given_paths import GivenPathsResult, GivenPathsScheduler
from ..core.flows import CoflowInstance, FlowId
from ..core.network import Network
from ..sim import FlowLevelSimulator, SimulationResult

__all__ = [
    "attach_switch_paths",
    "coflow_isolation_bottleneck",
    "switch_lower_bound",
    "SwitchScheduler",
    "SwitchScheduleOutcome",
]


def _switch_node(network: Network) -> Hashable:
    """The crossbar node of a topology built by ``topologies.nonblocking_switch``."""
    for node in network.nodes():
        if node == "switch":
            return node
    raise ValueError(
        "the network does not look like a non-blocking switch "
        "(expected a central node named 'switch')"
    )


def attach_switch_paths(instance: CoflowInstance, network: Network) -> CoflowInstance:
    """Attach the unique ``source -> switch -> destination`` path to every flow."""
    switch = _switch_node(network)
    paths: Dict[FlowId, List[Hashable]] = {}
    for i, j, flow in instance.iter_flows():
        if not network.has_edge(flow.source, switch) or not network.has_edge(
            switch, flow.destination
        ):
            raise ValueError(
                f"flow ({i},{j}) endpoints are not ports of the switch"
            )
        paths[(i, j)] = [flow.source, switch, flow.destination]
    return instance.with_paths(paths)


def coflow_isolation_bottleneck(
    instance: CoflowInstance, network: Network, coflow_index: int
) -> float:
    """Completion time of a coflow running alone on the switch.

    This is the maximum, over ingress and egress ports, of the total volume
    the coflow moves through the port divided by the port capacity, shifted by
    the coflow's release time — the quantity Varys' SEBF orders coflows by.
    """
    switch = _switch_node(network)
    ingress: Dict[Hashable, float] = {}
    egress: Dict[Hashable, float] = {}
    for flow in instance[coflow_index].flows:
        ingress[flow.source] = ingress.get(flow.source, 0.0) + flow.size
        egress[flow.destination] = egress.get(flow.destination, 0.0) + flow.size
    bottleneck = 0.0
    for port, volume in ingress.items():
        bottleneck = max(bottleneck, volume / network.capacity(port, switch))
    for port, volume in egress.items():
        bottleneck = max(bottleneck, volume / network.capacity(switch, port))
    return instance[coflow_index].release_time + bottleneck


def switch_lower_bound(instance: CoflowInstance, network: Network) -> float:
    """A combinatorial lower bound on the weighted coflow completion time.

    Every coflow needs at least its isolation bottleneck, so the weighted sum
    of isolation bottlenecks lower-bounds the objective regardless of the
    schedule.  (Port-by-port single-machine bounds can strengthen this; the
    isolation bound is what the tests need: simple and always valid.)
    """
    return float(
        sum(
            instance[i].weight * coflow_isolation_bottleneck(instance, network, i)
            for i in range(len(instance.coflows))
        )
    )


@dataclass
class SwitchScheduleOutcome:
    """Result of scheduling coflows on a non-blocking switch."""

    instance: CoflowInstance
    rounded: GivenPathsResult
    simulated: SimulationResult

    @property
    def lp_lower_bound(self) -> float:
        return self.rounded.lower_bound

    @property
    def combinatorial_lower_bound(self) -> float:
        return self._combinatorial_lb

    _combinatorial_lb: float = 0.0


class SwitchScheduler:
    """Section-2.1 LP scheduling specialised to the non-blocking switch."""

    def __init__(self, instance: CoflowInstance, network: Network) -> None:
        self.network = network
        self.instance = attach_switch_paths(instance, network)

    def schedule(self) -> SwitchScheduleOutcome:
        """Run both back-ends: the provable rounding and the simulated LP order."""
        rounded = GivenPathsScheduler(self.instance, self.network).schedule()
        scheme = scheme_from_spec("LP-Based (given paths)")
        plan = scheme.plan(self.instance, self.network)
        simulated = FlowLevelSimulator(self.network).run(self.instance, plan)
        outcome = SwitchScheduleOutcome(
            instance=self.instance, rounded=rounded, simulated=simulated
        )
        outcome._combinatorial_lb = switch_lower_bound(self.instance, self.network)
        return outcome
