"""Cross-scheme comparison metrics.

The paper's figures report, for each workload point, the average completion
time of every scheme and the same values normalised by the Baseline scheme
(the two panels of Figures 3 and 4).  :class:`SchemeComparison` collects
:class:`~repro.sim.simulator.SimulationResult` objects for one instance and
computes those quantities plus the paper's headline metric: the percentage
improvement of a scheme over another (e.g. LP-Based over Route-only, reported
as "at least 22% on average").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Sequence

from ..core.flows import CoflowInstance, FlowId
from ..core.network import Network
from .simulator import SimulationResult

__all__ = ["SchemeComparison", "improvement_percent", "coflow_slowdowns"]

#: Isolation times below this are treated as zero (degenerate coflows).
_ISO_EPS = 1e-12


def coflow_slowdowns(
    instance: CoflowInstance,
    network: Network,
    paths: Mapping[FlowId, Sequence[Hashable]],
    flow_completions: Mapping[FlowId, float],
) -> Dict[int, float]:
    """Per-coflow slowdown: realised duration over the isolation time.

    The *isolation time* of a coflow is the time it would need with the
    whole network to itself under its realised routing: the maximum, over
    its flows, of ``size / bottleneck capacity of the flow's path``.  The
    slowdown divides the realised duration (coflow completion minus coflow
    release) by that lower bound, the normalisation used throughout the
    coflow literature (Varys' "effective bottleneck" is the same quantity).

    Coflows with a vanishing isolation time (all-zero sizes) report a
    slowdown of exactly 1.0.  Values below 1.0 are possible when a coflow's
    flows are released long after the coflow's first release time — the
    denominator charges the whole volume from the first release.
    """
    capacity = network.capacity_vector()
    edge_ids = network.path_edge_ids
    slowdowns: Dict[int, float] = {}
    for i, coflow in enumerate(instance.coflows):
        isolation = 0.0
        completed = 0.0
        for j, flow in enumerate(coflow.flows):
            fid = (i, j)
            completed = max(completed, float(flow_completions[fid]))
            if flow.size > 0:
                bottleneck = min([capacity[e] for e in edge_ids(paths[fid])])
                isolation = max(isolation, flow.size / bottleneck)
        duration = completed - coflow.release_time
        if isolation <= _ISO_EPS:
            slowdowns[i] = 1.0
        else:
            slowdowns[i] = duration / isolation
    return slowdowns


def improvement_percent(reference: float, value: float) -> float:
    """Percentage by which ``value`` improves on ``reference``.

    The paper reports improvements the way Varys/Rapier do: a scheme finishing
    in time ``T`` improves on a scheme finishing in ``T_ref`` by
    ``(T_ref / T - 1) * 100`` percent (so "126%" means the reference takes
    2.26x as long).
    """
    if value <= 0:
        raise ValueError("completion time must be positive")
    return (reference / value - 1.0) * 100.0


@dataclass
class SchemeComparison:
    """Results of several schemes on the same instance."""

    results: Dict[str, SimulationResult] = field(default_factory=dict)
    metric: str = "weighted_completion_time"

    def add(self, result: SimulationResult) -> None:
        """Record one scheme's simulation result (keyed by its plan name)."""
        self.results[result.plan_name] = result

    def value(self, scheme: str) -> float:
        """The comparison metric of ``scheme`` (KeyError when unrecorded)."""
        if scheme not in self.results:
            raise KeyError(f"no result recorded for scheme {scheme!r}")
        return float(getattr(self.results[scheme], self.metric))

    def schemes(self) -> List[str]:
        """Recorded scheme names, sorted."""
        return sorted(self.results.keys())

    def ratios_to(self, reference: str) -> Dict[str, float]:
        """Each scheme's value divided by the reference scheme's value.

        This is the paper's "ratio with respect to baseline" panel.  A
        non-positive reference value yields NaN ratios (mirroring the guard
        in :meth:`repro.analysis.sweep.SweepPoint.ratio_to`) instead of
        raising ``ZeroDivisionError``.
        """
        ref = self.value(reference)
        if ref <= 0:
            return {name: float("nan") for name in self.results}
        return {name: self.value(name) / ref for name in self.results}

    def improvement_over(self, scheme: str, reference: str) -> float:
        """Percentage improvement of ``scheme`` over ``reference``."""
        return improvement_percent(self.value(reference), self.value(scheme))
