"""Streaming scheduler service: batched re-planning under a staleness bound.

:mod:`repro.sim.online` re-plans at *every* coflow arrival — the right
semantics for paper-style comparisons, but unusable at production arrival
rates: plan time (LP assembly + solve) dominates once the compiled kernel
tier made simulation cheap.  This module generalises the online engine into
a long-running **service**:

* :class:`StreamingScheduler` ingests a stream of coflow arrivals
  (:meth:`StreamingScheduler.submit`) and departures (a coflow departs when
  its last flow completes; completed coflows leave every future plan), and
  re-plans in **batches** governed by a :class:`BatchPolicy` — a batch
  closes at the ``max_batch``-th pending arrival or ``max_delay`` after its
  first pending arrival, whichever comes first;
* every re-plan admits *all* arrivals known at the re-plan time, so a
  coflow waits **at most** ``max_delay`` between arriving and being planned
  — the policy's declared *staleness bound*
  (:meth:`BatchPolicy.staleness_bound`), asserted on every run via
  :meth:`StreamingScheduler.staleness_report`;
* per re-plan wall-clock decision latency and replans/sec are recorded
  first-class (:meth:`StreamingScheduler.streaming_metrics`) — the metrics
  ``repro bench streaming`` appends to ``BENCH_simulator.json``;
* one resident kernel session
  (:class:`~repro.sim.kernel.ResidentSimulationKernel`, or its compiled
  tier) lives across every re-plan: arrivals are ingested once, re-plans
  patch priorities and paths in place, and departures tombstone slots
  into a free-list.

With ``BatchPolicy(max_batch=1)`` the re-plan times are exactly the distinct
coflow release times, and the engine reproduces
:class:`repro.sim.online.OnlineFlowSimulator` **bit-identically** — the
online simulator is now literally a batch-size-1 streaming session (see its
``run``), and ``tests/sim/test_streaming_equivalence.py`` holds the two
engines equal across a seeded topology × workload × allocator matrix.

Replanners decide each epoch's plan; :class:`LPReplanner` solves the
Section-2.1 given-paths LP over the active sub-instance, built from scratch
at every re-plan over one pinned interval grid.  The engine itself
**memoizes the sub-instance** across re-plans: per-flow ``Flow`` objects
are rebuilt only when their remaining volume changed, per-coflow sections
only when membership or any member's volume changed, and the ``fid_map``
object is *reused* whenever the active membership is unchanged.

The service API is deliberately small::

    scheduler = StreamingScheduler(network, replanner, policy=BatchPolicy(4, 2.0))
    for coflow in feed:
        scheduler.submit(coflow)          # arrivals, in release-time order
        scheduler.advance(until=now)      # process matured re-plan batches
    result = scheduler.finish()           # drain and splice the final result

``advance``/``finish`` may be interleaved with ``submit`` freely as long as
arrivals are not submitted "late" (at or before an already-processed re-plan
time); re-plan boundaries depend only on the arrival stream, so pausing and
resuming a session never changes the epoch structure (property-tested).
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.flows import Coflow, CoflowInstance, Flow, FlowId
from ..core.network import Network
from ..core.schedule import CircuitSchedule
from .allocators import resolve_allocator
from .kernel import ResidentSimulationKernel
from .kernel_jit import paused_gc
from .plan import SimulationPlan
from .simulator import SimulationResult, _build_result, make_kernel, validate_backend

__all__ = [
    "BatchPolicy",
    "ReplanContext",
    "Replanner",
    "StaticPlanReplanner",
    "StreamingError",
    "StreamingScheduler",
    "LPReplanner",
]

#: Volumes below this are considered fully transferred (numerical guard).
_VOLUME_EPS = 1e-9


class StreamingError(RuntimeError):
    """Raised on service-contract violations (late arrivals, reuse after
    finish, duplicate runs on one session)."""


@dataclass(frozen=True)
class BatchPolicy:
    """When does the scheduler re-plan?

    Attributes
    ----------
    max_batch:
        Close the current batch as soon as it holds this many pending coflow
        arrivals.  ``1`` re-plans at every arrival (the online engine);
        ``None`` means unbounded (time-driven batching only).
    max_delay:
        Close the current batch at the latest ``max_delay`` after its *first*
        pending arrival.  Because a re-plan admits every coflow that has
        arrived by the re-plan time, no coflow ever waits longer than
        ``max_delay`` between arriving and being planned — this is the
        policy's staleness bound.
    """

    max_batch: Optional[int] = 1
    max_delay: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError("max_batch must be >= 1 (or None for unbounded)")
        if self.max_delay < 0 or not math.isfinite(self.max_delay):
            raise ValueError("max_delay must be finite and >= 0")
        if self.max_batch is None and self.max_delay == 0:
            raise ValueError(
                "unbounded max_batch requires a positive max_delay "
                "(otherwise the batch never closes)"
            )

    def staleness_bound(self) -> float:
        """Max time a coflow can wait between arrival and admission."""
        if self.max_batch == 1:
            return 0.0
        return self.max_delay

    def next_replan_time(self, arrivals: Sequence[float], start: int = 0) -> Tuple[float, int]:
        """Close time of the batch opening at ``arrivals[start]``.

        Returns ``(close_time, next_start)`` where ``next_start`` indexes the
        first arrival of the following batch.  ``arrivals`` must be sorted
        and distinct.
        """
        n = len(arrivals)
        deadline = arrivals[start] + self.max_delay
        j = start + 1
        count = 1
        while (
            j < n
            and (self.max_batch is None or count < self.max_batch)
            and arrivals[j] <= deadline
        ):
            j += 1
            count += 1
        if self.max_batch is not None and count >= self.max_batch:
            return arrivals[j - 1], j
        return deadline, j

    def replan_times(self, arrivals: Sequence[float]) -> List[float]:
        """Re-plan times for a sorted stream of *distinct* arrival times.

        Scans left to right: a batch opens at the first unadmitted arrival
        and closes at its ``max_batch``-th member or ``max_delay`` after it
        opened, whichever is earlier; the re-plan at the close time admits
        every arrival ≤ that time.  The recursion restarts at the first
        still-unadmitted arrival, so the output for a suffix of the stream
        equals the suffix of the output — which is what makes pause/resume
        splices of a streaming session epoch-identical to a straight run.
        """
        times: List[float] = []
        i = 0
        while i < len(arrivals):
            close, i = self.next_replan_time(arrivals, i)
            times.append(close)
        return times


@dataclass
class ReplanContext:
    """What a replanner sees at one re-plan event.

    Attributes
    ----------
    now:
        The re-plan time (an arrival time with ``max_batch=1``; a batch
        close time in general).
    instance:
        Sub-instance of all *arrived* coflows restricted to their unfinished
        flows, with each flow's size replaced by its remaining volume.
        Coflow positions and weights are preserved for arrived coflows;
        flow ids are renumbered — use :attr:`fid_map` to translate.
    network:
        The capacitated topology.
    fid_map:
        Sub-instance flow id -> original instance flow id.  When the active
        membership is unchanged since the previous re-plan this is the *same
        dict object* (memoized); treat it as read-only.
    pinned_paths:
        Original flow id -> path, for flows that already moved volume.  The
        engine forces these paths onto the returned plan; replanners may
        consult them (e.g. for congestion-aware routing of new flows).
    previous:
        The previous epoch's plan in *original* flow ids (``None`` at the
        first re-plan).
    """

    now: float
    instance: CoflowInstance
    network: Network
    fid_map: Dict[FlowId, FlowId]
    pinned_paths: Dict[FlowId, Tuple[Hashable, ...]]
    previous: Optional[SimulationPlan] = None


#: A replanner maps a re-plan context to a plan over the context's
#: sub-instance (plan paths/order are keyed by *sub-instance* flow ids).
Replanner = Callable[[ReplanContext], SimulationPlan]


class StaticPlanReplanner:
    """Replanner that always answers with one fixed plan's restriction.

    The degenerate online scheduler: at every re-plan it returns the
    original static plan, restricted to the unfinished flows of the arrived
    coflows.  Online simulation under this replanner reproduces the static
    simulation of the same plan — the anchor property of the online engine's
    test suite.
    """

    def __init__(self, plan: SimulationPlan) -> None:
        self.plan = plan
        self._rank = {fid: index for index, fid in enumerate(plan.order)}

    def __call__(self, context: ReplanContext) -> SimulationPlan:
        """Restrict the fixed plan to the context's sub-instance.

        Sorting the live flows by their precomputed global rank produces
        exactly the order of walking the full plan and keeping the live
        entries (ranks are unique), but costs O(live log live) per re-plan
        instead of O(full plan) — the difference between this replanner
        being usable or not on 100k-flow streams.
        """
        fid_map = context.fid_map
        plan = self.plan
        rank = self._rank
        paths = {sub: plan.paths[orig] for sub, orig in fid_map.items()}
        order = sorted(
            (sub for sub in fid_map if fid_map[sub] in rank),
            key=lambda sub: rank[fid_map[sub]],
        )
        return SimulationPlan(
            paths=paths,
            order=order,
            name=plan.name,
            allocator=plan.allocator,
        )


@dataclass
class _CoflowSection:
    """Memoized sub-instance section for one original coflow."""

    members: Tuple[FlowId, ...]
    sizes: Tuple[float, ...]
    coflow: Coflow


class StreamingScheduler:
    """Long-running scheduler session over a stream of coflow arrivals.

    One session simulates one continuous horizon; construct a fresh session
    per run (:class:`repro.sim.online.OnlineFlowSimulator` does exactly
    that with ``BatchPolicy(max_batch=1)``).

    Parameters
    ----------
    network:
        The capacitated topology.
    replanner:
        Callback invoked at every re-plan (see :data:`Replanner`).
    policy:
        Batching policy; the default re-plans at every arrival.
    max_events:
        Optional per-epoch event cap forwarded to each kernel epoch.
    backend:
        Kernel backend of the session (``"array"``, ``"jit"``, ``"auto"``
        or ``None`` — defer to the first re-plan's plan / environment);
        :func:`~repro.sim.simulator.make_kernel` picks the tier once, at
        the first re-plan, from that plan's allocator.  A compiled session
        keeps the greedy allocator of its first plan and raises
        ``ValueError`` at a later plan naming another one; a replanner
        that switches allocators needs ``backend="array"``, whose kernel
        follows each plan's allocator.
    """

    def __init__(
        self,
        network: Network,
        replanner: Replanner,
        policy: BatchPolicy = BatchPolicy(),
        max_events: Optional[int] = None,
        backend: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        validate_backend(backend)
        self.network = network
        self.replanner = replanner
        self.policy = policy
        self.max_events = max_events
        self.backend = backend
        self.name = name
        # ---- arrival stream state
        self._coflows: List[Coflow] = []
        self._pending: List[Tuple[float, int]] = []  # (release, idx), sorted
        self._admitted: Dict[int, float] = {}  # coflow idx -> admission time
        self._active_arrived: List[int] = []  # admitted, not yet departed
        self._last_replan: Optional[float] = None
        # ---- accumulators (original flow ids)
        self._remaining: Dict[FlowId, float] = {}
        self._completion: Dict[FlowId, float] = {}
        self._start: Dict[FlowId, float] = {}
        #: Realised segments per flow, drained from the session kernel when
        #: the final result is assembled.
        self._segments: Dict[FlowId, List[List[float]]] = {}
        self._current_path: Dict[FlowId, Tuple[Hashable, ...]] = {}
        self._pinned: Dict[FlowId, Tuple[Hashable, ...]] = {}
        self._previous_plan: Optional[SimulationPlan] = None
        self._events = 0
        # ---- whether the epoch planned at the last re-plan is unsimulated
        self._epoch_open = False
        # ---- sub-instance memoization
        self._flow_memo: Dict[FlowId, Tuple[float, Flow]] = {}
        self._section_memo: Dict[int, _CoflowSection] = {}
        self._fid_map_signature: Optional[Tuple] = None
        self._fid_map: Dict[FlowId, FlowId] = {}
        self._fid_map_reuses = 0
        #: Coflows with a member whose remaining volume changed since the
        #: previous re-plan (their memoized section must be re-derived) and
        #: coflows whose every flow has completed (skipped outright).
        self._dirty_coflows: set = set()
        self._done_coflows: set = set()
        #: Per-flow validated-path cache: original fid -> the exact tuple
        #: object last validated against the network for that flow.  A
        #: steady-state re-plan revalidates only flows whose path changed,
        #: and path tuples are canonicalised to one object per flow so the
        #: resident patch can compare paths by identity.
        self._validated_paths: Dict[FlowId, Tuple[Hashable, ...]] = {}
        self._validated_specs: set = set()
        #: Re-routes observed by the last _finalize_plan pass: (orig fid,
        #: new canonical path) for resident flows whose planned path moved
        #: away from the session's current one.  Lets the per-epoch patch
        #: skip the per-flow path compare entirely.
        self._changed_paths: List[Tuple[FlowId, Tuple[Hashable, ...]]] = []
        # ---- the resident kernel session (made at the first re-plan)
        self._session_kernel: Optional[ResidentSimulationKernel] = None
        self._sid_to_fid: Dict[int, FlowId] = {}
        # ---- observability
        self.decision_log: List[Dict[str, float]] = []
        self._staleness: List[float] = []
        self._setup_seconds = 0.0
        self._result: Optional[SimulationResult] = None
        self._source_instance: Optional[CoflowInstance] = None

    # -------------------------------------------------------------- ingestion
    @property
    def replan_count(self) -> int:
        """Number of re-plans the session has executed so far."""
        return len(self.decision_log)

    @property
    def fid_map_reuses(self) -> int:
        """How many re-plans reused the previous fid-map object outright."""
        return self._fid_map_reuses

    def submit(self, coflow: Coflow) -> int:
        """Ingest one coflow arrival; returns its index in the stream.

        Arrivals must respect causality: submitting a coflow whose release
        time is at or before an already-processed re-plan time raises
        :class:`StreamingError` (that re-plan should have admitted it).
        """
        if self._result is not None:
            raise StreamingError("session is finished; start a new one")
        release = coflow.release_time
        if self._last_replan is not None and release <= self._last_replan:
            raise StreamingError(
                f"late arrival: release {release:g} is not after the last "
                f"processed re-plan at {self._last_replan:g}"
            )
        index = len(self._coflows)
        self._coflows.append(coflow)
        bisect.insort(self._pending, (release, index))
        for j, flow in enumerate(coflow.flows):
            fid = (index, j)
            self._remaining[fid] = flow.size
            if flow.size <= _VOLUME_EPS:
                # Zero-size flows complete at release, as in the static loop.
                self._completion[fid] = flow.release_time
        return index

    def completed_coflows(self) -> List[int]:
        """Indices of departed coflows (every flow finished) so far."""
        done = []
        for i, coflow in enumerate(self._coflows):
            if all((i, j) in self._completion for j in range(len(coflow.flows))):
                done.append(i)
        return done

    # ------------------------------------------------------------- processing
    def advance(self, until: Optional[float] = None) -> int:
        """Process every matured re-plan batch; returns how many ran.

        With ``until`` given, only re-plans scheduled at or before ``until``
        run (call again later, after submitting more arrivals, to continue);
        without it every batch derivable from the known arrivals runs.  The
        epoch planned by the final re-plan stays open until the next
        ``advance`` or :meth:`finish` closes it — its simulation outcome
        depends only on the plan, so deferring it never changes the result.
        """
        if self._result is not None:
            raise StreamingError("session is finished; start a new one")
        ran = 0
        max_batch = self.policy.max_batch
        max_delay = self.policy.max_delay
        # One GC pause spans every epoch this call processes — the compiled
        # tier's per-run pause (kernel_jit.paused_gc) nests as a no-op.
        with paused_gc():
            while self._pending:
                # next_replan_time only ever inspects distinct arrival times
                # up to the batch deadline (or the max_batch-th), so feed it
                # that prefix instead of sorting the whole pending set every
                # iteration — O(batch) per re-plan, not O(pending).
                deadline = self._pending[0][0] + max_delay
                arrivals: List[float] = []
                for release, _i in self._pending:
                    if release > deadline:
                        break
                    if not arrivals or release != arrivals[-1]:
                        arrivals.append(release)
                        if max_batch is not None and len(arrivals) >= max_batch:
                            break
                t, _next = self.policy.next_replan_time(arrivals)
                if until is not None and t > until:
                    break
                self._process_replan(t)
                ran += 1
        return ran

    def drain(self) -> None:
        """Process every known re-plan and run the final epoch to completion.

        The online phase of :meth:`finish` without the result assembly —
        the seam the streaming bench times.  No-op on a finished session.
        """
        if self._result is not None:
            return
        with paused_gc():
            self.advance()
            self._close_open_epoch(until=None)

    def finish(self) -> SimulationResult:
        """Process all known re-plans, drain the last epoch, splice the result.

        Idempotent: repeated calls return the same result object.
        """
        if self._result is None:
            with paused_gc():
                self.drain()
                self._result = self._build_final()
        return self._result

    def run(
        self, instance: CoflowInstance, plan_name: Optional[str] = None
    ) -> SimulationResult:
        """Convenience one-shot: submit the whole instance, drain, splice.

        This is the entry point :class:`repro.sim.online.OnlineFlowSimulator`
        delegates to; it requires a pristine session.
        """
        if self._coflows or self._result is not None:
            raise StreamingError("run() requires a fresh session")
        if plan_name is not None:
            self.name = plan_name
        self._source_instance = instance
        for coflow in instance.coflows:
            self.submit(coflow)
        return self.finish()

    # ---------------------------------------------------------------- metrics
    def streaming_metrics(self) -> Dict[str, float]:
        """Replans/sec, decision-latency percentiles and staleness so far.

        *Decision latency* is the wall-clock cost of one re-plan — building
        the sub-instance, invoking the replanner and validating/pinning the
        plan (kernel simulation time is excluded; it is the part PR 7 already
        made cheap).  *Replans/sec* is ``replans / total planning seconds``.
        *Epoch setup seconds* is the mean per-re-plan wall time spent
        outside both the event loop and the planner: the session kernel's
        harvest and patch deltas.
        """
        walls = [entry["wall_seconds"] for entry in self.decision_log]
        total = float(sum(walls))
        report = self.staleness_report()
        return {
            "epoch_setup_seconds": (
                self._setup_seconds / len(walls) if walls else 0.0
            ),
            "replans": float(len(walls)),
            "arrivals": float(len(self._coflows)),
            "plan_seconds": total,
            "replans_per_sec": (len(walls) / total) if total > 0 else 0.0,
            "arrivals_per_plan_sec": (
                len(self._admitted) / total if total > 0 else 0.0
            ),
            "p50_decision_latency": float(np.percentile(walls, 50)) if walls else 0.0,
            "p99_decision_latency": float(np.percentile(walls, 99)) if walls else 0.0,
            "max_decision_latency": max(walls) if walls else 0.0,
            "max_staleness": report["max_staleness"],
            "staleness_bound": report["bound"],
            "events": float(self._events),
            "fid_map_reuses": float(self._fid_map_reuses),
        }

    def staleness_report(self) -> Dict[str, float]:
        """Observed admission staleness against the policy's declared bound.

        ``within_bound`` is 1.0 iff every admitted coflow waited at most
        ``policy.staleness_bound()`` between arrival and admission — the
        structural invariant the CI smoke asserts.
        """
        bound = self.policy.staleness_bound()
        observed = max(self._staleness) if self._staleness else 0.0
        return {
            "max_staleness": observed,
            "mean_staleness": (
                sum(self._staleness) / len(self._staleness)
                if self._staleness
                else 0.0
            ),
            "bound": bound,
            "within_bound": 1.0 if observed <= bound + 1e-9 else 0.0,
        }

    # ----------------------------------------------------------------- engine
    def _process_replan(self, now: float) -> None:
        """Run one re-plan at time ``now``: close the open epoch, admit every
        arrival ≤ ``now``, build the (memoized) sub-instance, plan, pin."""
        self._close_open_epoch(until=now)
        t0 = time.perf_counter()
        new_coflows: List[int] = []
        while self._pending and self._pending[0][0] <= now:
            release, index = self._pending.pop(0)
            self._admitted[index] = now
            bisect.insort(self._active_arrived, index)
            self._staleness.append(now - release)
            new_coflows.append(index)
        sub_instance, fid_map = self._build_sub_instance(
            self._active_arrived, now
        )
        context = ReplanContext(
            now=now,
            instance=sub_instance,
            network=self.network,
            fid_map=fid_map,
            pinned_paths=dict(self._pinned),
            previous=self._previous_plan,
        )
        sub_plan = self.replanner(context)
        sub_plan = self._finalize_plan(sub_plan, sub_instance, fid_map)
        orig_order = [fid_map[sub] for sub in sub_plan.order]
        self._previous_plan = SimulationPlan(
            paths={orig: sub_plan.paths[sub] for sub, orig in fid_map.items()},
            order=orig_order,
            name=sub_plan.name,
            allocator=sub_plan.allocator,
        )
        wall = time.perf_counter() - t0
        t1 = time.perf_counter()
        self._patch_session(now, sub_plan, orig_order, new_coflows)
        self._setup_seconds += time.perf_counter() - t1
        self._epoch_open = True
        self._last_replan = now
        self.decision_log.append(
            {
                "now": now,
                "wall_seconds": wall,
                "admitted": float(len(new_coflows)),
                "active_coflows": float(len(sub_instance.coflows)),
                "active_flows": float(len(fid_map)),
            }
        )

    def _finalize_plan(
        self,
        sub_plan: SimulationPlan,
        sub_instance: CoflowInstance,
        fid_map: Dict[FlowId, FlowId],
    ) -> SimulationPlan:
        """Normalise, pin and validate one re-plan's output, incrementally.

        Semantically ``sub_plan.normalized(sub_instance)`` + pinning moved
        flows + ``sub_plan.validate(sub_instance, network)``, but the
        network walk is cached per flow: a path is checked against the
        topology only the first time the session sees it for that flow
        (the network is fixed for the session), so a steady-state re-plan
        costs O(live) dict lookups instead of O(live × path length) graph
        queries.  Paths are canonicalised to one tuple object per flow,
        which is what lets the resident patch detect "unchanged" by
        identity.
        """
        src_paths = sub_plan.paths
        missing = [sub for sub in fid_map if sub not in src_paths]
        if missing:
            raise ValueError(
                f"plan {sub_plan.name!r} missing paths for {missing}"
            )
        spec_key = (sub_plan.allocator, sub_plan.backend)
        if spec_key not in self._validated_specs:
            resolve_allocator(sub_plan.allocator)  # raises on unknown names
            validate_backend(sub_plan.backend)
            self._validated_specs.add(spec_key)
        pinned = self._pinned
        validated = self._validated_paths
        network = self.network
        changed = self._changed_paths
        changed.clear()
        paths: Dict[FlowId, Tuple[Hashable, ...]] = {}
        for sub, orig in fid_map.items():
            pin = pinned.get(orig)
            if pin is not None:
                # Flows that moved volume keep their current (already
                # validated) path regardless of what the replanner said.
                paths[sub] = pin
                continue
            path = src_paths[sub]
            known = validated.get(orig)
            if path is not known:
                tpath = path if type(path) is tuple else tuple(path)
                if tpath != known:
                    flow = sub_instance.flow(sub)
                    if tpath[0] != flow.source or tpath[-1] != flow.destination:
                        raise ValueError(
                            f"plan {sub_plan.name!r}: path endpoints for "
                            f"{sub} do not match flow"
                        )
                    network.validate_path(tpath)
                    if known is not None:
                        # A live, unmoved flow was re-routed: remember it so
                        # the epoch patch can skip per-flow path compares.
                        changed.append((orig, tpath))
                else:
                    tpath = known
                validated[orig] = tpath
                path = tpath
            paths[sub] = path
        order = list(sub_plan.order)
        seen = set(order)
        order += [sub for sub in fid_map if sub not in seen]
        return SimulationPlan(
            paths=paths,
            order=order,
            name=sub_plan.name,
            allocator=sub_plan.allocator,
            spec=sub_plan.spec,
            backend=sub_plan.backend,
        )

    def _close_open_epoch(self, until: Optional[float]) -> None:
        """Simulate the epoch planned at the last re-plan up to ``until``."""
        if not self._epoch_open:
            return
        self._epoch_open = False
        kernel = self._session_kernel
        kernel.run(until=until)
        t1 = time.perf_counter()
        self._events += kernel.events
        self._harvest_session(kernel)
        self._setup_seconds += time.perf_counter() - t1

    # ---------------------------------------------------------------- session
    def _patch_session(
        self,
        now: float,
        sub_plan: SimulationPlan,
        orig_order: List[FlowId],
        new_coflows: Sequence[int],
    ) -> None:
        """Apply one re-plan to the live kernel as an in-place delta.

        New flows are ingested once (at their original size and release —
        the kernel tracks remaining volume natively across epochs); flows
        whose plan path changed are re-routed (only ever flows that have
        not moved volume — moved flows arrive pre-pinned); everything else
        is merely re-ranked by :meth:`ResidentSimulationKernel.begin_epoch`,
        which also tombstones the slots of departed flows.  The first
        re-plan makes the session kernel through
        :func:`~repro.sim.simulator.make_kernel` (the session's backend,
        else the plan's).

        The delta is O(new + changed): _finalize_plan canonicalises every
        path and records re-routes, and the admission loop records new
        coflows, so steady-state flows need no per-flow python at all —
        the order translation is a single C-level ``map`` over the
        original-fid order the re-plan already produced.
        """
        kernel = self._session_kernel
        if kernel is None:
            backend = self.backend
            if backend is None:
                backend = sub_plan.backend
            kernel = self._session_kernel = make_kernel(
                self.network, sub_plan.allocator, backend=backend, start_time=now
            )
        slot_map = kernel._pos
        current_path = self._current_path
        remaining = self._remaining
        validated = self._validated_paths
        sid_to_fid = self._sid_to_fid
        for i in new_coflows:
            section = self._section_memo.get(i)
            if section is None:
                # Every member dwindled to completion at admission time.
                continue
            coflow = self._coflows[i]
            flows = coflow.flows
            members = section.members
            paths = [validated[orig] for orig in members]
            kernel.ingest_many(
                members,
                [remaining[orig] for orig in members],
                [flows[orig[1]].release_time for orig in members],
                paths,
                weight=coflow.weight,
            )
            for orig, path in zip(members, paths):
                sid_to_fid[kernel.sid_of(orig)] = orig
                current_path[orig] = path
        for orig, path in self._changed_paths:
            kernel.update_path(slot_map[orig], path)
            current_path[orig] = path
        order = np.fromiter(
            map(slot_map.__getitem__, orig_order),
            dtype=np.int64,
            count=len(orig_order),
        )
        kernel.begin_epoch(
            now, order, max_events=self.max_events, allocator=sub_plan.allocator
        )

    def _harvest_session(self, kernel: ResidentSimulationKernel) -> None:
        """Fold the closing epoch's deltas into the global accumulators.

        Applies only what actually changed — completions, epoch starts,
        touched volumes (which also dirty the owning coflow's memoized
        section) and first-ever segment recordings (which pin the flow's
        path: a flow that moved volume is never re-routed).
        """
        completions, starts, touched, moved = kernel.harvest_epoch()
        fids = kernel.fids
        pinned = self._pinned
        current_path = self._current_path
        for k in moved:
            orig = fids[k]
            pinned[orig] = current_path[orig]
        completion = self._completion
        for k, t in completions:
            orig = fids[k]
            completion[orig] = t
            # A completed flow never re-enters a plan: drop its pin so the
            # per-re-plan pinned snapshot stays O(live), not O(history).
            pinned.pop(orig, None)
        start = self._start
        for k, t in starts:
            orig = fids[k]
            if orig not in start:
                start[orig] = t
        remaining = self._remaining
        dirty = self._dirty_coflows
        for k, volume in touched:
            orig = fids[k]
            remaining[orig] = volume
            dirty.add(orig[0])

    def _build_sub_instance(
        self, arrived: Sequence[int], now: float
    ) -> Tuple[CoflowInstance, Dict[FlowId, FlowId]]:
        """The unfinished volume of the arrived coflows, renumbered densely.

        Memoized at three levels: per-flow ``Flow`` objects are rebuilt only
        when the remaining volume changed, per-coflow sections only when
        their membership or sizes changed, and the ``fid_map`` dict is reused
        outright when the active membership matches the previous re-plan.
        Flows whose remaining volume has dwindled below the numerical guard
        are marked complete at ``now`` instead of entering the sub-instance.

        Coflows with no member change since the previous re-plan (not in
        ``_dirty_coflows``) reuse their section without touching per-flow
        state, and fully-departed coflows (``_done_coflows``) are skipped
        outright — so one re-plan costs O(changed), not O(arrived).
        """
        coflows: List[Coflow] = []
        signature: List[Tuple[int, Tuple[FlowId, ...]]] = []
        sections: List[Tuple[int, Tuple[FlowId, ...]]] = []
        dirty = self._dirty_coflows
        done = self._done_coflows
        departed: List[int] = []
        for i in arrived:
            if i in done:
                departed.append(i)
                continue
            section = self._section_memo.get(i)
            if section is not None and i not in dirty:
                # No member completed, dwindled or changed volume since the
                # previous re-plan: membership and sizes are unchanged, so
                # the memoized section is exact.
                coflows.append(section.coflow)
                signature.append((i, section.members))
                sections.append((len(coflows) - 1, section.members))
                continue
            coflow = self._coflows[i]
            members: List[FlowId] = []
            for j in range(len(coflow.flows)):
                fid = (i, j)
                if fid in self._completion:
                    continue
                if self._remaining[fid] <= _VOLUME_EPS:
                    self._completion[fid] = now
                    self._pinned.pop(fid, None)
                    continue
                members.append(fid)
            if not members:
                self._section_memo.pop(i, None)
                done.add(i)
                departed.append(i)
                continue
            member_key = tuple(members)
            sizes = tuple(self._remaining[fid] for fid in members)
            if section is None or section.members != member_key or section.sizes != sizes:
                flows = []
                for fid in members:
                    flow = coflow.flows[fid[1]]
                    memo = self._flow_memo.get(fid)
                    size = self._remaining[fid]
                    if memo is None or memo[0] != size:
                        sub_flow = Flow(
                            source=flow.source,
                            destination=flow.destination,
                            size=size,
                            release_time=flow.release_time,
                        )
                        self._flow_memo[fid] = (size, sub_flow)
                    else:
                        sub_flow = memo[1]
                    flows.append(sub_flow)
                section = _CoflowSection(
                    members=member_key,
                    sizes=sizes,
                    coflow=Coflow(
                        flows=tuple(flows), weight=coflow.weight, name=coflow.name
                    ),
                )
                self._section_memo[i] = section
            coflows.append(section.coflow)
            signature.append((i, member_key))
            sections.append((len(coflows) - 1, member_key))
        dirty.clear()
        if departed and arrived is self._active_arrived:
            # Departed coflows never rejoin a plan; drop them from the
            # active-arrived list so re-plans stay O(live), not O(arrived).
            for i in departed:
                self._active_arrived.remove(i)
        sig = tuple(signature)
        if sig == self._fid_map_signature:
            self._fid_map_reuses += 1
        else:
            fid_map: Dict[FlowId, FlowId] = {}
            for sub_i, member_key in sections:
                for sub_j, orig in enumerate(member_key):
                    fid_map[(sub_i, sub_j)] = orig
            self._fid_map = fid_map
            self._fid_map_signature = sig
        name = self._instance_name()
        return (
            CoflowInstance(coflows=coflows, name=f"{name}@{now:g}"),
            self._fid_map,
        )

    def _instance_name(self) -> str:
        source = self._source_instance
        if source is not None and source.name:
            return source.name
        return self.name or "instance"

    # ------------------------------------------------------------------ final
    def _full_instance(self) -> CoflowInstance:
        source = self._source_instance
        if source is not None:
            return source
        return CoflowInstance(
            coflows=list(self._coflows), name=self.name or "stream"
        )

    def _build_final(self) -> SimulationResult:
        instance = self._full_instance()
        segments = self._segments
        if self._session_kernel is not None:
            # The session accumulates segments inside the kernel
            # (attributed by ingest-unique slot ids so the free-list can
            # recycle slots); drain them into the per-flow map once.
            sid_to_fid = self._sid_to_fid
            for sid, segs in self._session_kernel.drain_all_segments():
                segments[sid_to_fid[sid]] = segs
        schedule = CircuitSchedule()
        for fid in instance.flow_ids():
            path = self._current_path.get(fid)
            if path is None:
                # Never planned (zero-size flow in a coflow that produced no
                # sub-instance): fall back to a shortest path for bookkeeping.
                flow = instance.flow(fid)
                path = tuple(
                    self.network.shortest_path(flow.source, flow.destination)
                )
                self._current_path[fid] = path
            schedule.set_path(fid, path)
            if fid in segments:
                schedule.extend_segments(fid, segments[fid])
        previous_plan = self._previous_plan
        final_plan = SimulationPlan(
            paths=dict(self._current_path),
            order=list(previous_plan.order) if previous_plan else [],
            name=self.name
            or (previous_plan.name if previous_plan else "online"),
            allocator=previous_plan.allocator if previous_plan else "greedy",
        )
        return _build_result(
            instance,
            self.network,
            final_plan.normalized(instance),
            self._completion,
            self._start,
            schedule,
            self._events,
        )


class LPReplanner:
    """LP-ordering replanner over a pinned interval grid.

    At every re-plan: route each *new* flow on its shortest path (flows that
    already moved volume arrive pre-pinned via ``pinned_paths``), solve the
    Section-2.1 given-paths LP over the active sub-instance with a fresh
    ``GivenPathsLP``, and order flows by LP completion time.

    The interval grid is **pinned** by ``horizon`` at construction (pass
    ``GivenPathsLP``'s default horizon for the *full* instance): the default
    horizon depends on the instance's total volume, which shrinks as flows
    drain, so letting each epoch pick its own would move interval
    boundaries between re-plans.
    """

    def __init__(
        self,
        network: Network,
        horizon: float,
        epsilon: Optional[float] = None,
        allocator: str = "greedy",
    ) -> None:
        from ..circuit.given_paths import DEFAULT_EPSILON

        self.network = network
        self.horizon = float(horizon)
        self.epsilon = DEFAULT_EPSILON if epsilon is None else epsilon
        self.allocator = allocator
        self.last_relaxation = None

    def _routed(self, context: ReplanContext) -> Dict[FlowId, Tuple]:
        paths: Dict[FlowId, Tuple] = {}
        for sub, orig in context.fid_map.items():
            pinned = context.pinned_paths.get(orig)
            if pinned is not None:
                paths[sub] = tuple(pinned)
            else:
                flow = context.instance.flow(sub)
                paths[sub] = tuple(
                    self.network.shortest_path(flow.source, flow.destination)
                )
        return paths

    def __call__(self, context: ReplanContext) -> SimulationPlan:
        from ..circuit.given_paths import GivenPathsLP

        paths = self._routed(context)
        routed = context.instance.with_paths(paths)
        relaxation = GivenPathsLP(
            routed, self.network, epsilon=self.epsilon, horizon=self.horizon
        ).relax()
        self.last_relaxation = relaxation
        return SimulationPlan(
            paths=paths,
            order=relaxation.flow_order(),
            name="lp",
            allocator=self.allocator,
        )
