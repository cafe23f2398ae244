"""The simulation kernel: one event core, run as a resident session.

The original event loop (preserved as
:meth:`repro.sim.simulator.FlowLevelSimulator.run_reference`) re-derives
every flow's state from Python dicts at every event: it copies the capacity
dict, scans *all* flows for eligibility, scans all flows again for the next
release, and records every bandwidth segment through a per-segment
``insort``.  :class:`ResidentSimulationKernel` keeps the exact same event
semantics over flat, slot-addressed state that survives re-plans:

* flows live in *slots* with ``remaining`` / ``release`` / ``rate`` state
  lists; the flow -> edge-id incidence of each slot is built once from its
  path over the network's deterministic edge indexing, and the allocation
  pass walks those rows against the edge-residual array;
* the *active* set (released, unfinished) is maintained incrementally in
  priority order — releases arrive through a sorted pointer, completions
  delete in place — so per-event work scales with the number of active
  flows, not the instance size;
* for the default greedy-priority policy the allocation pass is
  incremental: a flow's rate is re-derived only when it is marked *dirty*
  (a release, completion or upstream rate change on one of its edges),
  which is exact because a greedy rate depends only on higher-priority
  contributions — and when no flow is dirty the previous grants are reused
  outright;
* next-event selection is a running argmin over projected completion
  times, and the next release comes from the sorted pointer instead of a
  scan;
* bandwidth segments are coalesced on the fly (consecutive events at the
  same rate extend one segment).

Every run is a *session* of epochs.  :meth:`~ResidentSimulationKernel.ingest`
admits flows, :meth:`~ResidentSimulationKernel.begin_epoch` opens an epoch
in a plan's priority order, :meth:`~ResidentSimulationKernel.run` advances
it (optionally pausing at a deadline), and
:meth:`~ResidentSimulationKernel.harvest_epoch` /
:meth:`~ResidentSimulationKernel.drain_all_segments` report the outcome.  A
static run (:meth:`repro.sim.simulator.FlowLevelSimulator.run`) is a
one-epoch session; the streaming engine (:mod:`repro.sim.streaming`) keeps
one session across every re-plan.  The kernel is numerically *identical* to
the reference loop — same arithmetic on the same values in the same order
(covered by ``tests/sim/test_kernel_equivalence.py``).  The compiled tier
(:mod:`repro.sim.kernel_jit`) lowers the greedy loop of this class to C.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.flows import FlowId
from ..core.network import Network, path_edges
from ..faults import maybe_inject
from .allocators import GreedyPriorityAllocator, RateAllocator, resolve_allocator

__all__ = ["ResidentSimulationKernel", "format_stuck_report"]

#: Volumes below this are considered fully transferred (numerical guard).
_VOLUME_EPS = 1e-9
#: Minimum simulated time step (guards against event-time rounding stalls).
_TIME_EPS = 1e-12


def format_stuck_report(
    reason: str,
    unfinished: Sequence[Tuple[FlowId, float, float]],
    saturated: Sequence[Tuple[Hashable, Hashable]],
    limit: int = 8,
) -> str:
    """Render an actionable stall / event-cap error message.

    ``unfinished`` lists ``(flow id, release time, remaining volume)`` of
    the flows the simulation still owes; ``saturated`` lists the edges with
    no residual capacity left under the current allocation.  Both are
    truncated to ``limit`` entries so pathological instances stay readable.
    """
    flows_text = ", ".join(
        f"{fid} (release={release:g}, remaining={remaining:g})"
        for fid, release, remaining in unfinished[:limit]
    )
    if len(unfinished) > limit:
        flows_text += f", ... {len(unfinished) - limit} more"
    lines = [reason, f"unfinished flows: {flows_text or 'none'}"]
    if saturated:
        edges_text = ", ".join(repr(e) for e in saturated[:limit])
        if len(saturated) > limit:
            edges_text += f", ... {len(saturated) - limit} more"
        lines.append(f"saturated edges on their paths: {edges_text}")
    else:
        lines.append("no saturated edges on their paths")
    return "; ".join(lines)


class ResidentSimulationKernel:
    """The Python kernel tier: a simulation session over slot state.

    All per-flow state lives in growable slot lists with a free-list, so a
    re-plan is an in-place delta:

    * :meth:`ingest` appends a row (or reuses a freed slot) for each newly
      admitted flow;
    * :meth:`begin_epoch` tombstones departed flows, ranks the survivors
      from the new plan order, rebuilds the release/active bookkeeping and
      resets the epoch-local baselines (sizes, start detection, event
      counter), reaching exactly the state a fresh session loaded with the
      same flows would reach (unique ranks from the plan order, a
      rank-sorted active set, ``(release, rank, slot)``-sorted pending
      admissions, a forced full first allocation pass);
    * :meth:`harvest_epoch` reports what the closing epoch changed
      (completions, starts, touched volumes, first-moved flows) in
      O(slots) bookkeeping scans, and :meth:`drain_all_segments` yields
      every flow's coalesced segments keyed by its ingest-unique id.

    Parameters
    ----------
    network:
        The capacitated topology (fixed for the session).
    allocator:
        Rate policy: a registry name (see
        :data:`repro.sim.allocators.ALLOCATORS`) or a
        :class:`~repro.sim.allocators.RateAllocator` instance.
    start_time:
        Session clock start.

    Contract: flows are ingested with positive sizes only (zero-size flows
    complete at their release and are never ingested), and :meth:`ingest` /
    :meth:`update_path` are only called between :meth:`run` returning and
    the next :meth:`begin_epoch`.
    """

    def __init__(
        self,
        network: Network,
        allocator: Union[str, RateAllocator] = "greedy",
        start_time: float = 0.0,
    ) -> None:
        self.network = network
        self.allocator = (
            allocator
            if isinstance(allocator, RateAllocator)
            else resolve_allocator(allocator)
        )
        self.allocator_name = self.allocator.name

        # Slot state (grows by append; freed slots are recycled LIFO).
        self.fids: List[Optional[FlowId]] = []
        self._pos: Dict[FlowId, int] = {}
        self._free: List[int] = []
        self._sid: List[int] = []  # ingest-unique id per slot occupancy
        self._next_sid = 0
        self.slots_reused = 0
        self._live: List[bool] = []
        self._size: List[float] = []
        self._remaining: List[float] = []
        self._release: List[float] = []
        self._completion: List[float] = []
        self._start: List[float] = []
        self._started: List[bool] = []
        self._rate_prev: List[float] = []
        self._rank: List[int] = []
        self._flow_dirty: List[bool] = []
        self._weight: List[float] = []
        self._edges_of: List[List[int]] = []
        # Allocator entries: (slot, edge ids, coflow weight), prebuilt so a
        # generic allocator pass only gathers references.
        self._entries: List[Tuple[int, List[int], float]] = []
        self._segments: List[List[List[float]]] = []

        # Harvest bookkeeping (what has already been reported upstream).
        self._harvested_completed: List[bool] = []
        self._harvest_remaining: List[float] = []
        self._harvest_moved: List[bool] = []
        self._archived_segments: Dict[int, List[List[float]]] = {}

        # Edge indexing shared with the LP layer (fixed for the session).
        edge_index = network.edge_index()
        self._edge_index = edge_index
        self.edge_list: List[Tuple[Hashable, Hashable]] = [None] * len(edge_index)
        for edge, idx in edge_index.items():
            self.edge_list[idx] = edge
        self._caps: List[float] = list(network.capacity_vector())

        # Event-loop state (rebuilt per epoch by begin_epoch).  Incremental
        # greedy state: previous rates, cached grants, and flow-level dirty
        # marks.  A greedy rate depends only on higher-priority
        # contributions on shared edges, so a change at one flow can only
        # affect the *active* lower-priority flows on its edges; those are
        # found through per-edge active lists kept sorted by rank.
        self._greedy = type(self.allocator) is GreedyPriorityAllocator
        self._completed = 0
        self._active: List[int] = []
        self._active_ranks: List[int] = []
        self._pending: List[Tuple[float, int, int]] = []
        self._pending_ptr = 0
        self._dirty_flows: List[int] = []
        self._force_full = True
        self._granted_pos: List[int] = []
        self._granted_rate: List[float] = []
        self._edge_active: List[List[int]] = [[] for _ in edge_index]
        self._edge_active_ranks: List[List[int]] = [[] for _ in edge_index]

        self.now = float(start_time)
        self.events = 0
        self.max_events = 16

    # ------------------------------------------------------------ slot deltas
    def _path_edge_ids(self, path) -> List[int]:
        edge_index = self._edge_index
        return [edge_index[e] for e in path_edges(list(path))]

    def ingest(self, fid: FlowId, size: float, release: float, path,
               weight: float = 1.0) -> int:
        """Admit one flow into a (new or recycled) slot; returns the slot.

        A fresh session fills slots ``0, 1, 2, ...`` in ingest order, and
        the ingest-unique ids (:meth:`sid_of`) follow the same numbering.
        """
        if fid in self._pos:
            raise ValueError(f"flow {fid!r} is already resident")
        size = float(size)
        if size <= _VOLUME_EPS:
            raise ValueError(
                f"flow {fid!r} has no volume ({size:g}); zero-size flows "
                "complete at their release and are never ingested"
            )
        edges = self._path_edge_ids(path)
        sid = self._next_sid
        self._next_sid += 1
        if self._free:
            k = self._free.pop()
            self.slots_reused += 1
            self.fids[k] = fid
            self._sid[k] = sid
            self._live[k] = True
            self._size[k] = size
            self._remaining[k] = size
            self._release[k] = float(release)
            self._completion[k] = math.nan
            self._start[k] = math.nan
            self._started[k] = False
            self._rate_prev[k] = 0.0
            self._rank[k] = 0
            self._flow_dirty[k] = False
            self._weight[k] = float(weight)
            self._edges_of[k] = edges
            self._entries[k] = (k, edges, float(weight))
            self._segments[k] = []
            self._harvested_completed[k] = False
            self._harvest_remaining[k] = size
            self._harvest_moved[k] = False
        else:
            k = len(self.fids)
            self.fids.append(fid)
            self._sid.append(sid)
            self._live.append(True)
            self._size.append(size)
            self._remaining.append(size)
            self._release.append(float(release))
            self._completion.append(math.nan)
            self._start.append(math.nan)
            self._started.append(False)
            self._rate_prev.append(0.0)
            self._rank.append(0)
            self._flow_dirty.append(False)
            self._weight.append(float(weight))
            self._edges_of.append(edges)
            self._entries.append((k, edges, float(weight)))
            self._segments.append([])
            self._harvested_completed.append(False)
            self._harvest_remaining.append(size)
            self._harvest_moved.append(False)
        self._pos[fid] = k
        return k

    def ingest_many(self, fids, sizes, releases, paths,
                    weight: float = 1.0) -> List[int]:
        """Admit a batch of flows; equivalent to sequential :meth:`ingest`.

        The compiled tier overrides this with a vectorised version; here it
        is the plain loop, kept so both tiers expose the same delta API.
        """
        return [
            self.ingest(fid, size, release, path, weight=weight)
            for fid, size, release, path in zip(fids, sizes, releases, paths)
        ]

    def slot_of(self, fid: FlowId) -> int:
        """The slot currently holding ``fid``.

        Raises a ``KeyError`` naming the flow when it is not resident.
        """
        try:
            return self._pos[fid]
        except KeyError:
            raise KeyError(
                f"unknown flow {fid!r}: not resident in this session"
            ) from None

    def sid_of(self, fid: FlowId) -> int:
        """The ingest-unique id of the slot currently holding ``fid``."""
        return self._sid[self.slot_of(fid)]

    def update_path(self, k: int, path) -> None:
        """Re-route slot ``k`` (only legal between epochs, and only for
        flows that have not moved volume yet — the engine pins the path of
        every flow with recorded segments)."""
        edges = self._path_edge_ids(path)
        self._edges_of[k] = edges
        self._entries[k] = (k, edges, self._weight[k])

    def _free_slot(self, k: int, tombstone_time: float) -> None:
        if math.isnan(self._completion[k]):
            # Dwindled below the volume epsilon under a pause: the engine
            # records its completion at the re-plan time, mirror that here
            # so diagnostics never list a freed slot as unfinished.
            self._completion[k] = tombstone_time
        segments = self._segments[k]
        if segments:
            self._archived_segments[self._sid[k]] = segments
        self._segments[k] = []
        del self._pos[self.fids[k]]
        self.fids[k] = None
        self._live[k] = False
        self._free.append(k)

    # ------------------------------------------------------------- epoch turn
    def begin_epoch(
        self,
        now: float,
        order: Sequence[int],
        max_events: Optional[int] = None,
        allocator: Optional[str] = None,
    ) -> None:
        """Start a new epoch at time ``now`` with slots in ``order`` (the
        plan's priority order over every live, unfinished flow).

        Live slots missing from ``order`` must be finished (completed
        during the closing epoch, or paused below the volume epsilon) and
        are tombstoned into the free-list.  Everything the event loop
        derives from a plan — ranks, the rank-sorted active set and
        per-edge slabs, the ``(release, rank, slot)`` pending order, the
        epoch-local size/start baselines, the event counter and cap
        (``4 n + 16`` over the ``n`` ordered flows unless ``max_events``
        is given), the forced full allocation pass — is rebuilt in place.
        """
        if now + _TIME_EPS < self.now:
            raise ValueError(
                f"epoch start t={now:g} precedes the kernel clock "
                f"t={self.now:g}"
            )
        if allocator is not None and allocator != self.allocator_name:
            self.allocator = resolve_allocator(allocator)
            self.allocator_name = self.allocator.name
            self._greedy = type(self.allocator) is GreedyPriorityAllocator

        in_order = set(order)
        for k in range(len(self.fids)):
            if self._live[k] and k not in in_order:
                if (math.isnan(self._completion[k])
                        and self._remaining[k] > _VOLUME_EPS):
                    raise ValueError(
                        f"slot {k} ({self.fids[k]!r}) still holds "
                        f"{self._remaining[k]:g} volume but is absent from "
                        "the epoch order"
                    )
                self._free_slot(k, now)

        rank = self._rank
        size = self._size
        remaining = self._remaining
        release = self._release
        start = self._start
        started = self._started
        threshold = now + _TIME_EPS
        active: List[int] = []
        active_ranks: List[int] = []
        pending: List[Tuple[float, int, int]] = []
        for i, k in enumerate(order):
            rank[k] = i
            # Epoch-local baselines: the epoch's size is the volume
            # remaining at its start, and start detection restarts (the
            # engine keeps only the first epoch's start per flow).
            size[k] = remaining[k]
            started[k] = False
            start[k] = math.nan
            if release[k] <= threshold:
                active.append(k)
                active_ranks.append(i)
            else:
                pending.append((release[k], i, k))
        pending.sort()
        self._active = active
        self._active_ranks = active_ranks
        self._pending = pending
        self._pending_ptr = 0

        edge_active = self._edge_active = [[] for _ in self._caps]
        edge_active_ranks = self._edge_active_ranks = [[] for _ in self._caps]
        if self._greedy:
            for k, rk in zip(active, active_ranks):
                for e in self._edges_of[k]:
                    edge_active[e].append(k)
                    edge_active_ranks[e].append(rk)

        for k in self._dirty_flows:
            self._flow_dirty[k] = False
        self._dirty_flows.clear()
        self._force_full = True
        self._granted_pos = []
        self._granted_rate = []
        # Freed slots count as completed so the loop's
        # ``completed < len(fids)`` termination sees only live work.
        self._completed = len(self.fids) - len(order)
        self.now = float(now)
        self.events = 0
        self.max_events = (
            max_events if max_events is not None else 4 * len(order) + 16
        )

    # ------------------------------------------------------------ diagnostics
    def _unfinished_report(self) -> List[Tuple[FlowId, float, float]]:
        return [
            (self.fids[k], self._release[k], self._remaining[k])
            for k in range(len(self.fids))
            if math.isnan(self._completion[k])
        ]

    def _current_residual(self) -> List[float]:
        """Residual capacities under the current grants (diagnostics only)."""
        residual = self._caps.copy()
        for k, rate in zip(self._granted_pos, self._granted_rate):
            for e in self._edges_of[k]:
                residual[e] -= rate
        return residual

    def _saturated_edges(
        self, residual: List[float]
    ) -> List[Tuple[Hashable, Hashable]]:
        saturated: List[int] = []
        seen = set()
        for k in range(len(self.fids)):
            if math.isnan(self._completion[k]):
                for e in self._edges_of[k]:
                    if e not in seen and residual[e] <= _VOLUME_EPS:
                        seen.add(e)
                        saturated.append(e)
        return [self.edge_list[e] for e in sorted(saturated)]

    def _stuck_error(self, reason: str) -> RuntimeError:
        return RuntimeError(
            format_stuck_report(
                reason,
                self._unfinished_report(),
                self._saturated_edges(self._current_residual()),
            )
        )

    # ------------------------------------------------------------- allocation
    def _mark_dirty(self, k: int, include_self: bool = False) -> None:
        """Mark the flows a change at flow ``k`` can affect: the *active*
        flows sharing an edge with it at lower priority (plus, on release,
        ``k`` itself)."""
        if not self._greedy:
            return
        flow_dirty = self._flow_dirty
        dirty_flows = self._dirty_flows
        if include_self and not flow_dirty[k]:
            flow_dirty[k] = True
            dirty_flows.append(k)
        own = self._rank[k]
        for e in self._edges_of[k]:
            ranks = self._edge_active_ranks[e]
            for f in self._edge_active[e][bisect_right(ranks, own) :]:
                if not flow_dirty[f]:
                    flow_dirty[f] = True
                    dirty_flows.append(f)

    def _enter_active(self, k: int, rank: int) -> None:
        lo = bisect_right(self._active_ranks, rank)
        self._active.insert(lo, k)
        self._active_ranks.insert(lo, rank)
        if self._greedy:
            for e in self._edges_of[k]:
                lo = bisect_right(self._edge_active_ranks[e], rank)
                self._edge_active[e].insert(lo, k)
                self._edge_active_ranks[e].insert(lo, rank)

    def _leave_active(self, k: int) -> None:
        i = self._active.index(k)
        del self._active[i]
        del self._active_ranks[i]
        if self._greedy:
            for e in self._edges_of[k]:
                i = self._edge_active[e].index(k)
                del self._edge_active[e][i]
                del self._edge_active_ranks[e][i]

    def _allocate(self) -> Tuple[List[int], List[float]]:
        """One rate-allocation pass; returns the granted (slots, rates).

        The greedy-priority policy runs incrementally over flow-level dirty
        marks (exactly equivalent to a full pass — a greedy rate can only
        change when a higher-priority contribution on one of its edges
        changes, and every such change marks the edge's active flows).
        When no flow is dirty the previous grants are returned unchanged.
        Other allocators recompute from scratch through their shared
        :meth:`~repro.sim.allocators.RateAllocator.allocate` implementation.
        """
        if not self._greedy:
            residual = self._caps.copy()
            entries = [self._entries[k] for k in self._active]
            rates = self.allocator.allocate(residual, entries)
            granted_pos: List[int] = []
            granted_rate: List[float] = []
            for k in self._active:
                rate = rates[k]
                self._rate_prev[k] = rate
                if rate > 0.0:
                    granted_pos.append(k)
                    granted_rate.append(rate)
            self._granted_pos = granted_pos
            self._granted_rate = granted_rate
            return granted_pos, granted_rate

        if not self._force_full and not self._dirty_flows:
            # Nothing on any edge changed since the previous event (the
            # completion/release bookkeeping marks every flow a change could
            # reach), so the previous grant lists are still exact.
            return self._granted_pos, self._granted_rate

        granted_pos = []
        granted_rate = []
        edges_of = self._edges_of
        rate_prev = self._rate_prev
        flow_dirty = self._flow_dirty
        residual = self._caps.copy()
        lookup = residual.__getitem__
        force = self._force_full
        self._force_full = False
        for k in self._active:
            if force or flow_dirty[k]:
                edges = edges_of[k]
                rate = min(map(lookup, edges))
                if rate <= _VOLUME_EPS:
                    rate = 0.0
                if rate != rate_prev[k]:
                    rate_prev[k] = rate
                    if not force:
                        self._mark_dirty(k)
            else:
                rate = rate_prev[k]
            if rate > 0.0:
                for e in edges_of[k]:
                    residual[e] -= rate
                granted_pos.append(k)
                granted_rate.append(rate)
        for k in self._dirty_flows:
            flow_dirty[k] = False
        self._dirty_flows.clear()
        self._granted_pos = granted_pos
        self._granted_rate = granted_rate
        return granted_pos, granted_rate

    # ------------------------------------------------------------- event loop
    def run(self, until: Optional[float] = None) -> bool:
        """Advance the epoch; returns ``True`` once every flow is done.

        With ``until`` the loop pauses (state intact, segments recorded up
        to the deadline) as soon as the next event would land strictly
        beyond it — the streaming engine's splice point.
        """
        maybe_inject("sim")
        remaining = self._remaining
        size = self._size
        completion = self._completion
        start = self._start
        started = self._started
        n = len(self.fids)

        while self._completed < n:
            # 0. Releases whose time has come join the active set (kept in
            #    priority order; eligibility matches the reference's
            #    ``release > now + eps -> skip`` test).
            threshold = self.now + _TIME_EPS
            while (
                self._pending_ptr < len(self._pending)
                and self._pending[self._pending_ptr][0] <= threshold
            ):
                _release, flow_rank, k = self._pending[self._pending_ptr]
                self._pending_ptr += 1
                self._enter_active(k, flow_rank)
                self._mark_dirty(k, include_self=True)

            # 1. Allocate rates (index-ordered pass over the edge residuals).
            granted_pos, granted_rate = self._allocate()

            # 2. Next event: earliest projected completion vs next release.
            next_completion = math.inf
            for k, rate in zip(granted_pos, granted_rate):
                projected = self.now + remaining[k] / rate
                if projected < next_completion:
                    next_completion = projected
            next_release = (
                self._pending[self._pending_ptr][0]
                if self._pending_ptr < len(self._pending)
                else math.inf
            )
            next_time = min(next_completion, next_release)
            if not math.isfinite(next_time):
                raise self._stuck_error(
                    f"simulation stalled at t={self.now:g}: no runnable "
                    "flow and no pending release"
                )
            next_time = max(next_time, self.now + _TIME_EPS)

            # 3. Pause at the splice deadline instead of crossing it (a pause
            #    is not an event: nothing completes and no release passes).
            if until is not None and next_time > until:
                elapsed = until - self.now
                if elapsed > 0.0:
                    for k, rate in zip(granted_pos, granted_rate):
                        transferred = rate * elapsed
                        if transferred > remaining[k]:
                            transferred = remaining[k]
                        remaining[k] -= transferred
                        self._record_segment(k, self.now, until, rate)
                        if not started[k] and size[k] - remaining[k] > _VOLUME_EPS:
                            started[k] = True
                            start[k] = self.now
                    self.now = until
                return False

            self.events += 1
            if self.events > self.max_events:
                raise self._stuck_error(
                    f"simulation exceeded the event cap ({self.max_events}) "
                    f"at t={self.now:g}; this indicates an internal "
                    "inconsistency"
                )

            # 4. Advance: move volume, record segments, retire completions.
            elapsed = next_time - self.now
            done: List[int] = []
            for k, rate in zip(granted_pos, granted_rate):
                volume = remaining[k]
                transferred = rate * elapsed
                if transferred > volume:
                    transferred = volume
                after = volume - transferred
                if after <= _VOLUME_EPS:
                    after = 0.0
                    done.append(k)
                remaining[k] = after
                if not started[k] and size[k] - after > _VOLUME_EPS:
                    started[k] = True
                    start[k] = self.now
                self._record_segment(k, self.now, next_time, rate)
            for k in done:
                completion[k] = next_time
                self._completed += 1
                self._leave_active(k)
                self._rate_prev[k] = 0.0
                # Keep the cached grant lists exact for the no-change fast
                # path (a completed flow always held a positive grant).
                gi = self._granted_pos.index(k)
                del self._granted_pos[gi]
                del self._granted_rate[gi]
                self._mark_dirty(k)
            self.now = next_time
        return True

    def _record_segment(self, k: int, start: float, end: float, rate: float) -> None:
        segs = self._segments[k]
        if segs:
            last = segs[-1]
            if last[1] == start and last[2] == rate:
                last[1] = end
                return
        segs.append([start, end, rate])

    # ---------------------------------------------------------------- harvest
    def harvest_epoch(self):
        """What the closing epoch changed, as slot-keyed deltas.

        Returns ``(completions, starts, touched, moved)``:
        ``completions`` / ``starts`` are ``(slot, time)`` pairs newly
        observed since the previous harvest, ``touched`` is ``(slot,
        remaining)`` for flows whose volume moved, and ``moved`` lists
        slots that recorded their first bandwidth segment (the engine pins
        their paths).  Call this *before* :meth:`begin_epoch` frees the
        departed slots.
        """
        completions: List[Tuple[int, float]] = []
        starts: List[Tuple[int, float]] = []
        touched: List[Tuple[int, float]] = []
        moved: List[int] = []
        for k in range(len(self.fids)):
            if not self._live[k]:
                continue
            if (not self._harvested_completed[k]
                    and not math.isnan(self._completion[k])):
                self._harvested_completed[k] = True
                completions.append((k, self._completion[k]))
            if self._started[k]:
                starts.append((k, self._start[k]))
            if self._remaining[k] != self._harvest_remaining[k]:
                self._harvest_remaining[k] = self._remaining[k]
                touched.append((k, self._remaining[k]))
            if self._segments[k] and not self._harvest_moved[k]:
                self._harvest_moved[k] = True
                moved.append(k)
        return completions, starts, touched, moved

    def drain_all_segments(self) -> Iterator[Tuple[int, List[List[float]]]]:
        """Yield ``(ingest id, segments)`` for every flow that ever moved
        volume in this session (tombstoned occupancies included); each
        flow's ``[start, end, rate]`` segments are coalesced and in time
        order."""
        yield from self._archived_segments.items()
        for k in range(len(self.fids)):
            if self._live[k] and self._segments[k]:
                yield self._sid[k], self._segments[k]
