"""Flow-level event-driven simulator (the paper's Section-4.1 methodology).

The paper argues packet-level simulation is too heavy for this setting and,
like Varys and Rapier, evaluates with a *flow-level* simulator: an event queue
where events are flow releases and flow completions, and bandwidth reserved by
a flow is released when it completes.

This implementation reproduces that behaviour with one refinement that the
paper's "minor tweaks" (Section 4.2) also apply: rates are re-computed at
every event (greedily in priority order under the default allocator), so a
flow whose bottleneck frees up speeds up immediately and no capacity is left
idle while a runnable flow exists (work conservation).  Concretely, at every
event time:

1. the released, unfinished flows are handed to the plan's rate allocator
   (:mod:`repro.sim.allocators`; the default ``"greedy"`` policy considers
   flows in plan priority order and grants each the minimum residual
   capacity along its path, possibly zero if a higher-priority flow
   saturated an edge);
2. the next event is the earliest of (a) the next flow release and (b) the
   earliest projected completion under the granted rates.

The simulator is deterministic given the plan and produces exact completion
times (no time discretisation).  :meth:`FlowLevelSimulator.run` executes as
a one-epoch kernel session (:func:`make_kernel` picks the tier,
:func:`load_plan` opens the epoch); :meth:`FlowLevelSimulator.run_reference`
preserves the original dict-based event loop, kept as the executable
specification both kernel tiers are equivalence-tested against
(``tests/sim/test_kernel_equivalence.py``).  Every run's
:class:`SimulationResult` is assembled in one place, and builds its
schedule and start times only when they are read: a sweep's record holds
its metrics and event count alone.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.flows import CoflowInstance, FlowId
from ..core.network import Network, path_edges
from ..core.objective import ObjectiveBreakdown, objective_breakdown
from ..core.schedule import CircuitSchedule
from .allocators import GreedyPriorityAllocator, RateAllocator, resolve_allocator
from . import kernel_jit
from .kernel import ResidentSimulationKernel, format_stuck_report
from .kernel_jit import paused_gc
from .plan import SimulationPlan

__all__ = [
    "BACKENDS",
    "FlowLevelSimulator",
    "METRICS",
    "SimulationResult",
    "check_metric",
    "kernel_tier",
    "load_plan",
    "make_kernel",
    "resolve_backend",
    "validate_backend",
]

Edge = Tuple[Hashable, Hashable]

#: Volumes below this are considered fully transferred (numerical guard).
_VOLUME_EPS = 1e-9
#: Minimum simulated time step (guards against event-time rounding stalls).
_TIME_EPS = 1e-12

#: Kernel backends a ``backend`` argument or ``REPRO_SIM_BACKEND`` may
#: name.  ``"array"`` is the Python kernel tier, ``"jit"`` the compiled tier
#: (:mod:`repro.sim.kernel_jit`), ``"auto"`` picks ``jit`` when it can run
#: here and ``array`` otherwise (as an unpinned run does).  Backends are
#: bit-identical by contract — a speed knob only — so the choice never
#: enters scheme signatures or run-store keys.
BACKENDS: Tuple[str, ...] = ("array", "jit", "auto")

#: The scalar metrics a run records, in record order
#: (:meth:`SimulationResult.metrics`): the names a sweep's ``metric`` and
#: ``extra_metrics`` may take.
METRICS: Tuple[str, ...] = (
    "weighted_completion_time",
    "total_completion_time",
    "average_completion_time",
    "makespan",
    "mean_slowdown",
    "max_slowdown",
)


def check_metric(name: str) -> None:
    """Raise ``ValueError`` unless ``name`` is one of :data:`METRICS`."""
    if name not in METRICS:
        raise ValueError(
            f"unknown metric {name!r}; a run records {', '.join(METRICS)}"
        )


#: Environment variable consulted when the caller names no backend.
_BACKEND_ENV = "REPRO_SIM_BACKEND"

_fallback_warned = False


def validate_backend(backend: Optional[str]) -> None:
    """Raise ``ValueError`` unless ``backend`` names a known kernel backend.

    ``None`` (defer to the environment, then to ``"auto"``) is valid.
    It looks at the name alone and never probes compiler availability, so
    ``repro`` checks ``REPRO_SIM_BACKEND`` with it before any command runs.
    """
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            f"unknown simulator backend {backend!r}; expected one of "
            f"{', '.join(BACKENDS)} (or None)"
        )


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve a backend request to a concrete kernel tier.

    Precedence: explicit argument > ``REPRO_SIM_BACKEND`` environment
    variable > ``"auto"``.  ``"auto"`` (from any source, unpinned runs
    included) resolves silently to ``"jit"`` when the compiled tier can
    run on this machine and ``"array"`` otherwise; an explicit ``"jit"``
    is kept as-is, so this is the tier *requested*, and
    :func:`kernel_tier` the tier that *runs*.
    """
    if backend is None:
        backend = os.environ.get(_BACKEND_ENV, "").strip() or None
    validate_backend(backend)
    if backend is None or backend == "auto":
        return "jit" if kernel_jit.available() else "array"
    return backend


def kernel_tier(
    allocator: Union[str, RateAllocator] = "greedy",
    backend: Optional[str] = None,
) -> str:
    """The tier :func:`make_kernel` builds for ``allocator``: the one place
    the simulator tier is decided.

    ``"jit"`` when ``backend`` resolves to it (:func:`resolve_backend`:
    the argument, else ``REPRO_SIM_BACKEND``, else ``"auto"``), the C core
    builds on this machine and the allocator is the greedy policy;
    ``"array"`` otherwise.  A ``"jit"`` request on a machine without a C
    toolchain degrades to ``"array"`` with a one-time ``RuntimeWarning`` —
    never an error, since tiers are bit-identical and availability is a
    property of the machine, not of the experiment.
    """
    if resolve_backend(backend) != "jit":
        return "array"
    if not kernel_jit.available():
        global _fallback_warned
        if not _fallback_warned:
            _fallback_warned = True
            warnings.warn(
                "the 'jit' simulator backend is unavailable "
                f"({kernel_jit.unavailable_reason()}); "
                "falling back to the 'array' kernel (results are identical)",
                RuntimeWarning,
                stacklevel=3,
            )
        return "array"
    if not isinstance(allocator, RateAllocator):
        allocator = resolve_allocator(allocator)
    return "jit" if type(allocator) is GreedyPriorityAllocator else "array"


def make_kernel(
    network: Network,
    allocator: Union[str, RateAllocator] = "greedy",
    backend: Optional[str] = None,
    start_time: float = 0.0,
) -> ResidentSimulationKernel:
    """A fresh kernel session on the tier :func:`kernel_tier` picks.

    An unpinned kernel is compiled wherever the C core builds: the
    compiled :class:`~repro.sim.kernel_jit.ResidentJitKernel` for the
    greedy allocator, the Python
    :class:`~repro.sim.kernel.ResidentSimulationKernel` for any other.
    The tier is fixed for the kernel's lifetime: the Python tier
    re-resolves the allocator at every epoch, while a compiled kernel
    rejects an epoch naming any allocator but the greedy one.
    """
    if kernel_tier(allocator, backend) == "jit":
        return kernel_jit.ResidentJitKernel(network, start_time=start_time)
    return ResidentSimulationKernel(
        network, allocator=allocator, start_time=start_time
    )


def load_plan(
    kernel: ResidentSimulationKernel,
    instance: CoflowInstance,
    plan: SimulationPlan,
    max_events: Optional[int] = None,
) -> List[FlowId]:
    """Open ``plan`` over ``instance`` as one epoch of a fresh ``kernel``.

    ``plan`` must be normalized and validated against ``instance``.  Every
    flow with volume is ingested, coflow by coflow with its coflow's
    weight; zero-size flows are left out (they complete at their release).
    The epoch starts at the kernel's clock (``kernel.now``, the
    ``start_time`` it was made with) and serves the ingested flows in plan
    priority order under an event cap of ``4 n + 16`` over all ``n`` flows
    of the instance, unless ``max_events`` is given.  Returns the ingested
    flow ids: ``ingested[k]`` holds slot ``k`` and ingest id ``k``.
    """
    if kernel.fids:
        raise ValueError("load_plan needs a fresh kernel session")
    paths = plan.paths
    ingested: List[FlowId] = []
    total = 0
    for i, coflow in enumerate(instance.coflows):
        fids: List[FlowId] = []
        sizes: List[float] = []
        releases: List[float] = []
        routes = []
        for j, flow in enumerate(coflow.flows):
            if flow.size > _VOLUME_EPS:
                fid = (i, j)
                fids.append(fid)
                sizes.append(flow.size)
                releases.append(flow.release_time)
                routes.append(paths[fid])
        total += len(coflow.flows)
        if fids:
            kernel.ingest_many(fids, sizes, releases, routes, weight=coflow.weight)
            ingested.extend(fids)
    rank = plan.priority_rank()
    ranks = [rank[fid] for fid in ingested]
    kernel.begin_epoch(
        kernel.now,
        sorted(range(len(ingested)), key=ranks.__getitem__),
        max_events=max_events if max_events is not None else 4 * total + 16,
    )
    return ingested


class _RunLog(NamedTuple):
    """What a finished run leaves for its result to build the schedule and
    the start times from, on first access.

    ``segments`` and ``starts`` may be one-shot iterators: each is read
    once, by the first access to the piece it builds.
    """

    instance: CoflowInstance
    #: Every flow's path (a normalized plan's ``paths``).
    paths: Mapping[FlowId, Tuple[Hashable, ...]]
    #: ``(flow id, [[start, end, rate], ...])`` per flow that moved volume,
    #: each flow's segments in time order.
    segments: Iterable[Tuple[FlowId, List[List[float]]]]
    #: ``(flow id, start)`` per flow that moved volume.
    starts: Iterable[Tuple[FlowId, float]]

    def schedule(self) -> CircuitSchedule:
        """Every flow's path, in instance order, and its segments."""
        schedule = CircuitSchedule()
        paths = self.paths
        for fid in self.instance.flow_ids():
            schedule.set_path(fid, paths[fid])
        for fid, segments in self.segments:
            schedule.extend_segments(fid, segments)
        return schedule


class SimulationResult:
    """Completion times and derived metrics of one simulation run.

    A sweep task's record holds only :meth:`metrics` and :attr:`events`, so
    a run keeps the kernel's segment log and harvested start times, drops
    the kernel, and builds :attr:`schedule` and :attr:`flow_start` from
    them on first access.
    """

    def __init__(
        self,
        plan_name: str,
        flow_completion: Dict[FlowId, float],
        breakdown: ObjectiveBreakdown,
        events: int,
        coflow_slowdowns: Dict[int, float],
        log: _RunLog,
    ) -> None:
        self.plan_name = plan_name
        self.flow_completion = flow_completion
        self.breakdown = breakdown
        self.events = events
        #: Per-coflow slowdown: realised coflow duration over its isolation
        #: time (see :func:`repro.sim.metrics.coflow_slowdowns`).
        self.coflow_slowdowns = coflow_slowdowns
        self._log = log
        self._schedule: Optional[CircuitSchedule] = None
        self._flow_start: Optional[Dict[FlowId, float]] = None

    @property
    def schedule(self) -> CircuitSchedule:
        """Every flow's path and bandwidth segments (built on first access)."""
        if self._schedule is None:
            self._schedule = self._log.schedule()
        return self._schedule

    @property
    def flow_start(self) -> Dict[FlowId, float]:
        """When each flow that moved volume first did so (built on first
        access); zero-size flows have no entry."""
        if self._flow_start is None:
            self._flow_start = dict(self._log.starts)
        return self._flow_start

    @property
    def weighted_completion_time(self) -> float:
        """Objective (1): the weighted sum of coflow completion times."""
        return self.breakdown.weighted_completion_time

    @property
    def total_completion_time(self) -> float:
        """Unweighted sum of coflow completion times."""
        return self.breakdown.total_completion_time

    @property
    def average_completion_time(self) -> float:
        """Mean coflow completion time."""
        return self.breakdown.average_completion_time

    @property
    def makespan(self) -> float:
        """Completion time of the last coflow."""
        return self.breakdown.makespan

    @property
    def mean_slowdown(self) -> float:
        """Mean per-coflow slowdown (1.0 when no slowdowns were computed)."""
        if not self.coflow_slowdowns:
            return 1.0
        values = list(self.coflow_slowdowns.values())
        return float(sum(values) / len(values))

    @property
    def max_slowdown(self) -> float:
        """Worst per-coflow slowdown (1.0 when no slowdowns were computed)."""
        if not self.coflow_slowdowns:
            return 1.0
        return float(max(self.coflow_slowdowns.values()))

    def metrics(self) -> Dict[str, float]:
        """The scalar metrics of this run as a plain (JSON-safe) dict.

        This is the payload the experiment engine persists in its run store;
        keys match the metric names accepted by sweeps and comparisons.
        """
        return {name: float(getattr(self, name)) for name in METRICS}


def _build_result(
    instance: CoflowInstance,
    network: Network,
    plan: SimulationPlan,
    completion: Dict[FlowId, float],
    events: int,
    segments: Iterable[Tuple[FlowId, List[List[float]]]],
    starts: Iterable[Tuple[FlowId, float]],
) -> SimulationResult:
    """Assemble a :class:`SimulationResult`: the one place every run's
    result is made (static, reference and streaming).

    ``plan`` is normalized (a path for every flow); ``segments`` and
    ``starts`` are the run's, keyed by flow id (see :class:`_RunLog`), and
    are read only when the result's schedule or starts are.
    """
    from .metrics import coflow_slowdowns

    return SimulationResult(
        plan_name=plan.name,
        flow_completion=completion,
        breakdown=objective_breakdown(instance, completion),
        events=events,
        coflow_slowdowns=coflow_slowdowns(instance, network, plan.paths, completion),
        log=_RunLog(instance, plan.paths, segments, starts),
    )


def _ingest_order_starts(
    ingested: Sequence[FlowId], started: Iterable[Tuple[int, float]]
) -> Iterator[Tuple[FlowId, float]]:
    """A one-epoch session's harvested ``(slot, start)`` pairs as ``(flow
    id, start)``, in ingest order (a fresh session's slot is its ingest
    id)."""
    by_slot = dict(started)
    for k, fid in enumerate(ingested):
        if k in by_slot:
            yield fid, by_slot[k]


class FlowLevelSimulator:
    """Simulate a :class:`SimulationPlan` on ``network``, the capacitated
    topology.

    :meth:`run` takes its kernel tier from :func:`make_kernel`: the
    compiled tier when its C core builds here and the plan's allocator is
    greedy, the Python tier otherwise (``REPRO_SIM_BACKEND`` pins one).
    """

    def __init__(self, network: Network) -> None:
        self.network = network

    # ------------------------------------------------------------------- run
    def run(
        self,
        instance: CoflowInstance,
        plan: SimulationPlan,
        max_events: Optional[int] = None,
        allocator: Optional[RateAllocator] = None,
        backend: Optional[str] = None,
    ) -> SimulationResult:
        """Simulate the plan as a one-epoch kernel session; return the result.

        ``allocator`` overrides the rate policy named by the plan (mainly
        for tests; schemes select allocators through their plans).
        ``backend`` overrides ``REPRO_SIM_BACKEND`` for this one run;
        backends are bit-identical, so the result does not depend on the
        choice.  Zero-size flows complete at their release.  The result
        keeps a copy of the kernel's segment log and its harvested starts,
        and builds its ``schedule`` and ``flow_start`` from them on first
        access.
        """
        plan = plan.normalized(instance)
        plan.validate(instance, self.network)
        kernel = make_kernel(
            self.network, allocator or plan.allocator, backend=backend
        )
        with paused_gc():
            ingested = load_plan(kernel, instance, plan, max_events=max_events)
            kernel.run()
            done, started = kernel.harvest_epoch()[:2]
            completion: Dict[FlowId, float] = {}
            for i, coflow in enumerate(instance.coflows):
                for j, flow in enumerate(coflow.flows):
                    # Zero-size flows were never ingested and are done at
                    # release; the harvest overwrites every other entry.
                    completion[i, j] = float(flow.release_time)
            for k, t in done:
                completion[ingested[k]] = t
            return _build_result(
                instance,
                self.network,
                plan,
                completion,
                kernel.events,
                segments=(
                    (ingested[sid], segments)
                    for sid, segments in kernel.segment_log()
                ),
                starts=_ingest_order_starts(ingested, started),
            )

    # -------------------------------------------------------------- reference
    def run_reference(
        self,
        instance: CoflowInstance,
        plan: SimulationPlan,
        max_events: Optional[int] = None,
        allocator: Optional[RateAllocator] = None,
    ) -> SimulationResult:
        """The original dict-based event loop, kept as the executable spec.

        Slow but transparent: every event rebuilds the residual-capacity
        dict and re-derives every flow's rate from scratch.  Both kernel
        tiers behind :meth:`run` are property-tested to produce numerically
        identical completion times and schedule volumes; use this path when
        debugging the kernel or validating a new allocator.
        """
        plan = plan.normalized(instance)
        plan.validate(instance, self.network)
        policy = allocator or resolve_allocator(plan.allocator)

        flows = {fid: instance.flow(fid) for fid in instance.flow_ids()}
        remaining: Dict[FlowId, float] = {
            fid: flow.size for fid, flow in flows.items()
        }
        release: Dict[FlowId, float] = {
            fid: flow.release_time for fid, flow in flows.items()
        }
        rank = plan.priority_rank()
        priority_order = sorted(flows.keys(), key=lambda fid: (rank[fid], fid))
        capacities = self.network.capacities()
        edges_of: Dict[FlowId, List[Edge]] = {
            fid: path_edges(list(plan.paths[fid])) for fid in flows
        }
        weight_of = {
            fid: instance[fid[0]].weight for fid in flows
        }
        entry_of = {
            fid: (fid, edges_of[fid], weight_of[fid]) for fid in flows
        }

        completion: Dict[FlowId, float] = {}
        start: Dict[FlowId, float] = {}
        segments: Dict[FlowId, List[List[float]]] = {}
        for fid in flows:
            if flows[fid].size <= _VOLUME_EPS:
                completion[fid] = release[fid]

        # Event cap: every event completes at least one flow or passes one
        # release time, so 2 * |flows| + 2 is a safe bound; the configurable
        # cap exists purely as a defensive guard for pathological inputs.
        cap = max_events if max_events is not None else 4 * len(flows) + 16

        def stuck_details(residual: Mapping[Edge, float]):
            unfinished = [
                (fid, release[fid], remaining[fid])
                for fid in priority_order
                if fid not in completion
            ]
            saturated = sorted(
                {
                    e
                    for fid, _r, _v in unfinished
                    for e in edges_of[fid]
                    if residual[e] <= _VOLUME_EPS
                },
                key=repr,
            )
            return unfinished, saturated

        now = 0.0
        events = 0
        residual: Dict[Edge, float] = dict(capacities)
        while len(completion) < len(flows):
            events += 1
            if events > cap:
                unfinished, saturated = stuck_details(residual)
                raise RuntimeError(
                    format_stuck_report(
                        f"simulation exceeded the event cap ({cap}) at "
                        f"t={now:g}; this indicates an internal inconsistency",
                        unfinished,
                        saturated,
                    )
                )
            # 1. Allocate rates among the released, unfinished flows.
            residual = dict(capacities)
            eligible = [
                entry_of[fid]
                for fid in priority_order
                if fid not in completion and release[fid] <= now + _TIME_EPS
            ]
            rates = policy.allocate(residual, eligible)

            # 2. Find the next event time.
            next_completion = math.inf
            for fid, rate in rates.items():
                if rate > 0.0:
                    next_completion = min(next_completion, now + remaining[fid] / rate)
            next_release = min(
                (release[fid] for fid in flows if fid not in completion and release[fid] > now + _TIME_EPS),
                default=math.inf,
            )
            next_time = min(next_completion, next_release)
            if not math.isfinite(next_time):
                unfinished, saturated = stuck_details(residual)
                raise RuntimeError(
                    format_stuck_report(
                        f"simulation stalled at t={now:g}: no runnable flow "
                        "and no pending release",
                        unfinished,
                        saturated,
                    )
                )
            next_time = max(next_time, now + _TIME_EPS)

            # 3. Advance: record segments, decrement volumes, mark completions.
            elapsed = next_time - now
            for fid, rate in rates.items():
                if rate <= 0.0:
                    continue
                transferred = min(rate * elapsed, remaining[fid])
                segments.setdefault(fid, []).append([now, next_time, rate])
                remaining[fid] -= transferred
                if remaining[fid] <= _VOLUME_EPS:
                    remaining[fid] = 0.0
                    completion[fid] = next_time
                # A flow *starts* once real volume has moved — a vanishing
                # transfer inside a forced epsilon step does not count.
                if fid not in start and flows[fid].size - remaining[fid] > _VOLUME_EPS:
                    start[fid] = now
            now = next_time

        return _build_result(
            instance, self.network, plan, completion, events,
            segments=segments.items(), starts=start.items(),
        )
