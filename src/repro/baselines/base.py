"""Common machinery for the competing schemes of Section 4.3.

Every scheme — the paper's LP-Based algorithm and the three heuristics it is
compared against (Baseline, Schedule-only, Route-only), plus the Varys-style
SEBF extension — is expressed as a :class:`Scheme`: an object that turns a
coflow instance and a network into a :class:`~repro.sim.plan.SimulationPlan`
(a path per flow and a priority order), which the flow-level simulator then
executes.

The routing helpers here implement the two routing rules the heuristics use:

* :func:`random_route` — pick uniformly at random among the candidate
  shortest paths (Baseline and Schedule-only: "flows are routed randomly");
* :func:`load_balanced_route` — greedy least-congested candidate path, where
  congestion is the running sum of volume-per-capacity already assigned to an
  edge (Route-only: "flows are routed for achieving good load balance and
  edge utilization").
"""

from __future__ import annotations

import abc
import random
import re
from typing import Dict, Hashable, Optional, Tuple

from ..core.flows import CoflowInstance, Flow, FlowId
from ..core.network import Network, path_edges
from ..sim.plan import SimulationPlan

__all__ = [
    "Scheme",
    "stable_repr",
    "random_route",
    "load_balanced_route",
    "respect_given_paths",
]

#: The default ``object.__repr__`` shape: ``<pkg.Cls object at 0x7f...>``
#: (the qualname may itself contain ``<locals>`` for nested classes).
_DEFAULT_OBJECT_REPR = re.compile(r"<(.+?) object at 0x[0-9a-fA-F]+>")


def stable_repr(value: object) -> str:
    """``repr`` with memory addresses stripped from default object reprs.

    Classes without a custom ``__repr__`` render as ``<Cls object at
    0x7f...>`` — different in every process, which used to make scheme
    signatures (and therefore run-store keys) unstable across runs.  The
    address is dropped (``<Cls object>``), keeping everything else of the
    repr intact, so such parameters hash identically everywhere.
    """
    return _DEFAULT_OBJECT_REPR.sub(r"<\1 object>", repr(value))


class Scheme(abc.ABC):
    """A scheduling scheme: produces routing + ordering for the simulator."""

    #: Display name used in benchmark tables.
    name: str = "unnamed"

    @abc.abstractmethod
    def plan(self, instance: CoflowInstance, network: Network) -> SimulationPlan:
        """Compute the simulation plan for ``instance`` on ``network``."""

    def simulate(self, instance: CoflowInstance, network: Network, simulator=None):
        """Plan the instance and execute it on the flow-level simulator.

        This is the entry point the experiment engine drives: one call is
        one (instance, scheme) evaluation.  Static schemes plan once and
        simulate; online pipelines
        (:class:`~repro.baselines.pipeline.PipelineScheme` with
        ``online=True``) override this to re-plan at every coflow arrival
        instead.  ``simulator`` is an optional pre-built
        :class:`~repro.sim.simulator.FlowLevelSimulator` for ``network``
        (the engine reuses one across tasks).
        """
        from ..sim.simulator import FlowLevelSimulator

        simulator = simulator or FlowLevelSimulator(network)
        return simulator.run(instance, self.plan(instance, network))

    def signature(self) -> str:
        """Stable identity string keying the experiment engine's run store.

        Two scheme objects with the same signature produce the same plan on
        the same instance.  :class:`~repro.baselines.pipeline.PipelineScheme`
        — every built-in scheme — overrides this with its canonical
        stage-spec serialization, which is byte-identical across processes
        for any parameters.  This base implementation is the compatibility
        shim for custom :class:`Scheme` subclasses: mutable result
        attributes (``last_*`` diagnostics) are excluded, every other
        attribute is rendered via :func:`stable_repr` (default object reprs
        lose their memory address, so parameter objects without a custom
        ``__repr__`` no longer cause spurious cache misses across
        processes).
        """
        params = {
            key: value
            for key, value in sorted(vars(self).items())
            if not key.startswith("last")
        }
        rendered = ", ".join(f"{k}={stable_repr(v)}" for k, v in params.items())
        return f"{self.name}({rendered})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def respect_given_paths(
    instance: CoflowInstance,
) -> Dict[FlowId, Tuple[Hashable, ...]]:
    """Paths already attached to flows (empty dict when none are given)."""
    return {
        (i, j): flow.path
        for i, j, flow in instance.iter_flows()
        if flow.path is not None
    }


def random_route(
    instance: CoflowInstance,
    network: Network,
    rng: random.Random,
    max_paths: int = 16,
) -> Dict[FlowId, Tuple[Hashable, ...]]:
    """Route every flow on a uniformly random candidate shortest path.

    Flows that already carry a path keep it.
    """
    paths = respect_given_paths(instance)
    for i, j, flow in instance.iter_flows():
        fid = (i, j)
        if fid in paths:
            continue
        candidates = network.candidate_set(
            flow.source, flow.destination, max_paths=max_paths
        )
        paths[fid] = rng.choice(candidates.paths)
    return paths


def load_balanced_route(
    instance: CoflowInstance,
    network: Network,
    max_paths: int = 16,
) -> Dict[FlowId, Tuple[Hashable, ...]]:
    """Greedy least-congested routing over the candidate shortest paths.

    Flows are considered in decreasing size (largest first, the classical
    greedy for makespan-style load balancing); each picks the candidate path
    minimising the resulting maximum edge congestion (volume / capacity),
    breaking ties by path length and then deterministically.
    Flows that already carry a path keep it (their load is still counted).
    """
    capacity = network.capacity_vector()
    load = [0.0] * len(capacity)

    paths = respect_given_paths(instance)
    index = network.edge_index()
    for fid, path in paths.items():
        size = instance.flow(fid).size
        for edge in path_edges(path):
            e = index[edge]
            load[e] += size / capacity[e]

    unrouted = [
        ((i, j), flow)
        for i, j, flow in instance.iter_flows()
        if (i, j) not in paths
    ]
    unrouted.sort(key=lambda item: (-item[1].size, item[0]))
    for fid, flow in unrouted:
        size = flow.size
        candidates = network.candidate_set(
            flow.source, flow.destination, max_paths=max_paths
        )
        best = 0
        best_cost: Optional[Tuple[float, float, int]] = None
        for q, edge_ids in enumerate(candidates.edge_ids):
            worst = 0.0
            total = 0.0
            for e in edge_ids:
                current = load[e]
                contribution = current + size / capacity[e]
                if contribution > worst:
                    worst = contribution
                total += current
            # Tie-break the bottleneck congestion by the total congestion so
            # flows spread over equal-cost paths even when an unavoidable
            # host uplink dominates the maximum.
            ranking = (worst, total, len(edge_ids))
            if best_cost is None or ranking < best_cost:
                best_cost = ranking
                best = q
        paths[fid] = candidates.paths[best]
        for e in candidates.edge_ids[best]:
            load[e] += size / capacity[e]
    return paths
