"""The shard worker: claim tasks from the shared grid, execute, repeat.

A :class:`Worker` is one member of a sweep fleet.  Every worker derives the
identical (point x try x scheme) task list from the sweep spec — the grid
*is* the queue — and drains it cooperatively through its
:class:`~repro.analysis.fabric.store.ShardedRunStore`:

1. tasks already recorded are cache hits (the resume guarantee, proven by
   the store's hit counters exactly like the single-store engine);
2. tasks claimed by a live peer are left alone and *ceded* once the peer's
   record shows up in a refresh;
3. everything else is claimed in small chunks and executed through
   :meth:`~repro.analysis.engine.ExperimentEngine.execute_pending` — the
   hardened per-task path, so retries, deadlines, failure records and
   fault injection compose unchanged;
4. when only foreign claims remain, the worker polls for the claimants'
   records and, after ``steal_after`` seconds without progress, *steals*
   the claimed tasks (the claimant is presumed dead).  Stealing is safe by
   construction: results under the same key are bit-identical, so the
   worst outcome of racing a live-but-slow peer is one duplicate record
   that merges away.

Workers start their claim scan at a shard-dependent rotation of the task
list, so a fleet spreads over the grid instead of colliding on task 0.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ...faults import FaultConfig
from ..artifacts import SweepSpec, spec_engines
from ..engine import ExperimentEngine, ExperimentTask
from .store import ShardedRunStore

__all__ = ["Worker", "WorkerStats"]


@dataclass
class WorkerStats:
    """Accounting for one shard worker's :meth:`Worker.run`.

    ``cached + ceded + executed == total_tasks`` when the worker drains to
    completion; ``stolen`` counts the subset of ``executed`` that was
    claimed by another shard first (presumed-dead claimant).
    """

    shard_id: int = 0
    shards: int = 1
    #: grid size — every worker sees the same full task list.
    total_tasks: int = 0
    #: tasks already recorded when this worker looked (resume hits).
    cached: int = 0
    #: tasks another live shard claimed and completed first.
    ceded: int = 0
    #: tasks this worker simulated (its actual share of the sweep).
    executed: int = 0
    #: executed tasks that were stolen from a stale foreign claim.
    stolen: int = 0
    #: executed tasks whose final record is a failure record.
    failed: int = 0
    #: transient-failure retries performed by this worker's engines.
    retried: int = 0
    #: worker pools respawned after a ``BrokenProcessPool``.
    pool_restarts: int = 0
    #: torn/corrupt store lines skipped across all shard files read.
    skipped_records: int = 0
    seconds: float = 0.0

    def summary(self) -> str:
        """One status line, e.g. ``shard 1/3: 54 tasks, 54 cached, ...``."""
        line = (
            f"shard {self.shard_id}/{self.shards}: {self.total_tasks} tasks, "
            f"{self.cached} cached, {self.executed} executed, "
            f"{self.ceded} ceded, {self.stolen} stolen, "
            f"{self.failed} failed, {self.seconds:.2f}s"
        )
        trouble = []
        if self.retried:
            trouble.append(f"{self.retried} retried")
        if self.pool_restarts:
            trouble.append(f"{self.pool_restarts} pool restart(s)")
        if self.skipped_records:
            trouble.append(f"{self.skipped_records} skipped record(s)")
        if trouble:
            line += " [" + ", ".join(trouble) + "]"
        return line

    def stats_path(self, root: Union[str, Path]) -> Path:
        """Where this shard's stats sidecar lives inside the store dir."""
        return Path(root) / f"shard-{self.shard_id:04d}.stats.json"

    def write(self, root: Union[str, Path]) -> Path:
        """Persist the stats sidecar (atomic rename) and return its path.

        The sweep coordinator folds these into the merged run's
        :class:`~repro.analysis.engine.EngineRunStats`; a shard with no
        sidecar after the fleet drains is reported as lost.
        """
        path = self.stats_path(root)
        tmp = path.with_suffix(f".tmp-{self.shard_id}")
        tmp.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
        return path


class Worker:
    """One shard's claim/execute/steal loop over a sweep spec.

    Parameters
    ----------
    spec:
        The sweep to execute — the full grid; this worker's share is
        whatever it manages to claim.
    store:
        A writable :class:`ShardedRunStore` (``shard_id`` set); supplies
        this worker's identity and fleet size.
    workers:
        Process-pool width *inside* this shard worker (the engine's
        ``workers``); sharding and pooling compose.
    steal_after:
        Seconds without fleet progress before foreign claims are presumed
        dead and stolen (liveness after a shard crash).
    poll_interval:
        Sleep between store refreshes while waiting on foreign claims.
    claim_chunk:
        Tasks claimed per execution batch (default: the pool width, so a
        pool is kept busy without hoarding unstarted claims).
    faults, max_retries, task_timeout, retry_failed, lp_time_limit:
        Passed straight to each per-topology
        :class:`~repro.analysis.engine.ExperimentEngine` of
        :func:`~repro.analysis.artifacts.spec_engines` — the engine's
        fault-tolerance surface, unchanged.  ``faults=None`` falls back to
        the spec's own ``faults`` entry.
    """

    def __init__(
        self,
        spec: SweepSpec,
        store: ShardedRunStore,
        workers: Optional[int] = None,
        steal_after: float = 3.0,
        poll_interval: float = 0.05,
        claim_chunk: Optional[int] = None,
        faults: Union[FaultConfig, str, None] = None,
        max_retries: int = 2,
        task_timeout: Optional[float] = None,
        retry_failed: bool = False,
        lp_time_limit: Optional[float] = None,
    ) -> None:
        if store.shard_id is None:
            raise ValueError("worker needs a writable shard store (shard_id set)")
        if steal_after < 0:
            raise ValueError("steal_after must be non-negative")
        self.spec = spec
        self.store = store
        self.workers = workers
        self.steal_after = steal_after
        self.poll_interval = max(poll_interval, 1e-4)
        self.claim_chunk = claim_chunk or max(1, workers or 1)
        self.faults = faults
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.retry_failed = retry_failed
        self.lp_time_limit = lp_time_limit
        self.last_stats = WorkerStats()

    # ------------------------------------------------------------------ run
    def run(self) -> WorkerStats:
        """Drain the sweep grid; return (and keep) this worker's stats."""
        started = time.perf_counter()
        shards = self.store.expected_shards or 1
        stats = WorkerStats(shard_id=self.store.shard_id or 0, shards=shards)
        self.last_stats = stats
        for _, engine, tasks in spec_engines(
            self.spec,
            self.store,
            self.faults,
            workers=self.workers,
            max_retries=self.max_retries,
            task_timeout=self.task_timeout,
            retry_failed=self.retry_failed,
            lp_time_limit=self.lp_time_limit,
        ):
            stats.total_tasks += len(tasks)
            self._drain(engine, self._rotated(tasks), stats)
            stats.retried += engine.last_run_stats.retried
            stats.pool_restarts += engine.last_run_stats.pool_restarts
        stats.skipped_records = self.store.skipped_lines
        stats.seconds = time.perf_counter() - started
        return stats

    def _rotated(self, tasks: List[ExperimentTask]) -> List[ExperimentTask]:
        """Rotate the task list by this shard's slot to de-collide claims."""
        shards = self.store.expected_shards or 1
        if not tasks or shards <= 1:
            return tasks
        offset = ((self.store.shard_id or 0) * len(tasks)) // shards
        return tasks[offset:] + tasks[:offset]

    def _drain(
        self,
        engine: ExperimentEngine,
        tasks: List[ExperimentTask],
        stats: WorkerStats,
    ) -> None:
        """The claim loop for one topology group's task list."""
        remaining: Dict[str, ExperimentTask] = {}
        for task in tasks:
            record = self.store.get(task.key)  # counts the resume hit
            if record is None or (self.retry_failed and record.get("failed")):
                remaining[task.key] = task
            else:
                stats.cached += 1
        waited = 0.0
        while remaining:
            self.store.refresh()
            progressed = self._cede_completed(remaining, stats)
            open_tasks = [
                task
                for task in remaining.values()
                if not self.store.claimed_by_other(task.key)
            ]
            stealing = False
            if not open_tasks:
                if waited < self.steal_after:
                    time.sleep(self.poll_interval)
                    if not progressed:
                        waited += self.poll_interval
                    else:
                        waited = 0.0
                    continue
                # No unclaimed work and no fleet progress for steal_after
                # seconds: the claimants are presumed dead.  Take over.
                open_tasks = list(remaining.values())
                stealing = True
            waited = 0.0
            chunk = open_tasks[: self.claim_chunk]
            for task in chunk:
                self.store.claim(task.key)
            if stealing:
                stats.stolen += len(chunk)
            engine.execute_pending(chunk)
            for task in chunk:
                remaining.pop(task.key, None)
                record = self.store.peek(task.key)
                if record is not None and record.get("failed"):
                    stats.failed += 1
            stats.executed += len(chunk)

    def _cede_completed(
        self, remaining: Dict[str, ExperimentTask], stats: WorkerStats
    ) -> bool:
        """Drop tasks whose record a peer delivered; True when any did."""
        ceded = [
            key
            for key, task in remaining.items()
            if (record := self.store.peek(key)) is not None
            and not (self.retry_failed and record.get("failed"))
        ]
        for key in ceded:
            del remaining[key]
        stats.ceded += len(ceded)
        return bool(ceded)
