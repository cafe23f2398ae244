"""Parallel, resumable, fault-tolerant experiment engine.

The paper's evaluation (Section 4, Figures 3-4) is a sweep: several random
instances per parameter value, every scheme on every instance through the
flow-level simulator.  The engine decomposes such a sweep into independent
*(sweep point x random try x scheme)* tasks and executes them either serially
in-process or fanned out over a :class:`concurrent.futures.ProcessPoolExecutor`
(one task = generate the instance from its seed, compute the scheme's plan —
LP solve included — and simulate it).  Tasks ship seeds, never instances;
a process generates each config's instance once and its scheme tasks,
which run back to back, share it.

Results stream into a :class:`~repro.analysis.runstore.RunStore` keyed by
``(topology fingerprint, workload config incl. seed, scheme signature)``,
where the scheme signature is the canonical stage-spec serialization of
:meth:`~repro.baselines.pipeline.PipelineScheme.signature` — stable across
processes and shared by every spelling of the same composition:

* an interrupted sweep resumes — already-persisted tasks are never re-run;
* repeated benchmark invocations with a warm store skip all LP/simulation
  work and only re-aggregate;
* parallel and serial execution produce bit-identical results, because every
  task derives its randomness from the config seed alone (covered by
  ``tests/analysis/test_engine.py``).

Per-task failure is data, not a process-fatal event:

* **transient** failures (timeouts — real wall-clock overruns via
  :func:`repro.faults.deadline` or injected — and anything flagged
  ``transient``) are retried up to ``max_retries`` times with capped
  exponential backoff and deterministic per-task jitter;
* a dead worker (``BrokenProcessPool``) respawns the pool — or degrades to
  serial execution after ``max_pool_restarts`` — and resubmits only the
  unfinished tasks;
* **permanent** failures (infeasible LPs, contract violations, exhausted
  retries) are persisted as structured *failure records* under the task's
  store key (``{"failed": true, "error", "message", "attempts",
  "elapsed", ...}``), so resume skips known failures and ``retry_failed``
  re-runs them;
* failed cells aggregate as failures on the :class:`SweepResult` (NaN in
  the tables) instead of aborting the sweep.

Chaos testing threads through the same machinery: pass a
:class:`~repro.faults.FaultConfig` (CLI: ``--inject-faults``) and the
seeded injector fires deterministic faults inside the LP solve, the
simulator kernel and the store appends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import faults
from .. import faults as _faults_module  # the engine's ``faults=`` parameter
                                         # shadows the module name in __init__
from ..baselines.base import Scheme
from ..core.flows import CoflowInstance
from ..core.network import Network
from ..sim import FlowLevelSimulator, SchemeComparison
from ..workloads.generator import CoflowGenerator, WorkloadConfig
from ..workloads.serialization import config_to_dict
from .runstore import RunStore, run_key
from .sweep import SweepPoint, SweepResult

__all__ = ["ExperimentEngine", "ExperimentTask", "EngineRunStats"]

#: One sweep point: display label plus the workload configs (one per random
#: try, each carrying its own seed) evaluated at that point.
PointSpec = Tuple[str, Sequence[WorkloadConfig]]


@dataclass(frozen=True)
class ExperimentTask:
    """One unit of work: run one scheme on one generated instance."""

    point_index: int
    label: str
    trial: int
    scheme_index: int
    scheme_name: str
    config: WorkloadConfig
    key: str


@dataclass
class EngineRunStats:
    """Accounting for the most recent :meth:`ExperimentEngine.run_points`."""

    total_tasks: int = 0
    cached: int = 0
    executed: int = 0
    workers: int = 1
    seconds: float = 0.0
    #: tasks whose *final* stored record is a failure record (counted over
    #: the whole grid at aggregation, cached failures included).
    failed: int = 0
    #: transient-failure retries performed during this run.
    retried: int = 0
    #: worker pools respawned after a ``BrokenProcessPool``.
    pool_restarts: int = 0
    #: corrupt or torn store lines skipped while loading/merging the run
    #: store(s) backing this run (sharded merges count every shard's tail).
    skipped_records: int = 0

    @property
    def all_cached(self) -> bool:
        """True when a warm run store satisfied every task (no simulation)."""
        return self.total_tasks > 0 and self.executed == 0

    @property
    def coverage(self) -> float:
        """Fraction of grid tasks with a successful record (1.0 when empty)."""
        if self.total_tasks <= 0:
            return 1.0
        return (self.total_tasks - self.failed) / self.total_tasks


# ----------------------------------------------------------------- task body

class _LastInstance:
    """The instance generated last in this process, for the next task.

    Tasks come config by config, one per scheme, so each config's instance
    is generated once and every scheme task of the config reuses it: one
    entry, keyed by the network object and the :class:`WorkloadConfig`.
    Sharing is safe because no scheme changes the instance it is given
    (``tests/analysis/test_engine.py`` holds every scheme to that).
    """

    def __init__(self) -> None:
        self._key: Optional[Tuple[Network, WorkloadConfig]] = None
        self._instance: Optional[CoflowInstance] = None

    def get(self, network: Network, config: WorkloadConfig) -> CoflowInstance:
        """The instance of ``config`` on ``network``, generated if new."""
        key = self._key
        if key is None or key[0] is not network or key[1] != config:
            self._instance = CoflowGenerator(network, config).instance()
            self._key = (network, config)
        return self._instance


def _execute_task(
    network: Network,
    simulator: FlowLevelSimulator,
    scheme: Scheme,
    task: ExperimentTask,
    topology_fingerprint: str,
    instances: _LastInstance,
) -> Dict[str, Any]:
    """Generate (or reuse) the instance, plan, simulate; return the
    run-store record.

    Dispatches through :meth:`~repro.baselines.base.Scheme.simulate`, so
    online schemes run their arrival-driven re-planning loop while static
    schemes plan once and execute as one kernel session.
    """
    instance = instances.get(network, task.config)
    result = scheme.simulate(instance, network, simulator)
    return {
        "scheme": scheme.name,
        "signature": scheme.signature(),
        "topology": topology_fingerprint,
        "config": config_to_dict(task.config),
        "metrics": result.metrics(),
        "events": result.events,
        "instance": instance.name,
    }


def _failure_record(
    task: ExperimentTask,
    error: BaseException,
    attempts: int,
    elapsed: float,
    topology_fingerprint: str,
    signature: str,
) -> Dict[str, Any]:
    """The structured record persisted for a permanently failed task.

    Stored under the same key as a success record would be, carrying the
    full task identity so the failure is diagnosable from the store alone
    and resume can skip it (or ``retry_failed`` can re-run it).
    """
    record: Dict[str, Any] = {
        "failed": True,
        "error": type(error).__name__,
        "message": str(error),
        "attempts": attempts,
        "elapsed": round(elapsed, 6),
        "scheme": task.scheme_name,
        "signature": signature,
        "topology": topology_fingerprint,
        "config": config_to_dict(task.config),
        "label": task.label,
        "trial": task.trial,
    }
    detail = getattr(error, "detail", None)
    if callable(detail):
        solver_detail = detail()
        if solver_detail:
            record["detail"] = solver_detail
    return record


def failure_label(record: Dict[str, Any]) -> str:
    """The error name a failure record is reported under.

    Its ``error`` field, or ``"UnknownError"`` for a record that names none
    (a hand-edited store).  The engine's aggregation and
    :func:`~repro.analysis.artifacts.results_from_store` both label
    failures here, so a sweep's report and ``repro report`` agree.
    """
    return str(record.get("error", "UnknownError"))


#: Per-worker state installed by the pool initializer (network and schemes
#: are pickled once per worker instead of once per task; each worker keeps
#: its own last instance).
_WORKER_STATE: Dict[str, Any] = {}


def _worker_init(
    network: Network,
    schemes: Sequence[Scheme],
    fingerprint: str,
    fault_config: Optional[faults.FaultConfig] = None,
    task_timeout: Optional[float] = None,
    retry_backoff: float = 0.0,
    lp_time_limit: Optional[float] = None,
) -> None:
    _WORKER_STATE["network"] = network
    _WORKER_STATE["schemes"] = list(schemes)
    _WORKER_STATE["simulator"] = FlowLevelSimulator(network)
    _WORKER_STATE["instances"] = _LastInstance()
    _WORKER_STATE["fingerprint"] = fingerprint
    _WORKER_STATE["task_timeout"] = task_timeout
    _WORKER_STATE["retry_backoff"] = retry_backoff
    faults.mark_worker_process()
    faults.install(
        faults.FaultInjector(fault_config) if fault_config is not None else None
    )
    if lp_time_limit is not None:
        from ..lp import solver

        solver.DEFAULT_TIME_LIMIT = lp_time_limit


@contextmanager
def _lp_time_limit(limit: Optional[float]):
    """Hand ``limit`` to every HiGHS solve inside the block.

    ``None`` leaves the solver alone, so an engine whose schemes solve no
    LP never loads :mod:`repro.lp`.
    """
    if limit is None:
        yield
        return
    from ..lp import solver

    previous = solver.DEFAULT_TIME_LIMIT
    solver.DEFAULT_TIME_LIMIT = limit
    try:
        yield
    finally:
        solver.DEFAULT_TIME_LIMIT = previous


def _worker_run(task: ExperimentTask, attempt: int = 0) -> Tuple[str, Dict[str, Any]]:
    delay = faults.backoff_delay(task.key, attempt, _WORKER_STATE["retry_backoff"])
    if delay:
        time.sleep(delay)
    with faults.task_scope(task.key, attempt):
        with faults.deadline(_WORKER_STATE["task_timeout"]):
            record = _execute_task(
                _WORKER_STATE["network"],
                _WORKER_STATE["simulator"],
                _WORKER_STATE["schemes"][task.scheme_index],
                task,
                _WORKER_STATE["fingerprint"],
                _WORKER_STATE["instances"],
            )
    return task.key, record


# -------------------------------------------------------------------- engine

class ExperimentEngine:
    """Run schemes over workload sweeps, in parallel, resumably and
    fault-tolerantly.

    Parameters
    ----------
    network:
        The evaluation topology.  ``None`` requires ``base_config.topology``
        to carry a spec string (see :meth:`for_config`).
    schemes:
        The schemes to compare (each task pickles only its index, so schemes
        must be picklable for parallel runs — all built-in schemes are).
    tries:
        Random instances averaged per sweep point (the paper uses 10).
    metric:
        Attribute of :class:`~repro.sim.simulator.SimulationResult` reported
        by the resulting :class:`~repro.analysis.sweep.SweepResult`.
    workers:
        ``None``, 0 or 1 run serially in-process; ``>= 2`` fans tasks out
        over that many worker processes.
    store:
        A :class:`~repro.analysis.runstore.RunStore`, a path to a JSONL store
        file, or ``None`` for a process-local in-memory store.
    max_retries:
        Transient failures are retried up to this many times per task
        before a failure record is written (default 2).
    task_timeout:
        Per-task wall-clock budget in seconds (``None`` = unlimited);
        overruns raise :class:`~repro.faults.TaskTimeoutError` and count as
        transient failures.
    retry_backoff:
        Base of the capped exponential backoff slept before each retry
        (deterministic per-task jitter; 0 disables sleeping).
    faults:
        A :class:`~repro.faults.FaultConfig` (or spec string, e.g.
        ``"rate=0.1,seed=7"``) enabling deterministic fault injection in
        this engine's tasks; ``None`` (default) injects nothing.
    retry_failed:
        Re-execute tasks whose stored record is a failure record instead of
        skipping them on resume.
    max_pool_restarts:
        Worker-pool respawns tolerated after ``BrokenProcessPool`` before
        degrading to serial execution for the remaining tasks.
    lp_time_limit:
        Optional wall-clock budget (seconds) handed to HiGHS for every LP
        solved by this engine's tasks (serial and worker processes alike).
    """

    def __init__(
        self,
        network: Network,
        schemes: Sequence[Scheme],
        tries: int = 10,
        metric: str = "weighted_completion_time",
        workers: Optional[int] = None,
        store: Union[RunStore, str, None] = None,
        max_retries: int = 2,
        task_timeout: Optional[float] = None,
        retry_backoff: float = 0.05,
        faults: "Union[faults.FaultConfig, str, None]" = None,
        retry_failed: bool = False,
        max_pool_restarts: int = 3,
        lp_time_limit: Optional[float] = None,
    ) -> None:
        if not schemes:
            raise ValueError("need at least one scheme")
        if tries < 1:
            raise ValueError("need at least one try per point")
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.network = network
        self.schemes = list(schemes)
        self.tries = tries
        self.metric = metric
        self.workers = workers
        self.simulator = FlowLevelSimulator(network)
        self._instances = _LastInstance()
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.topology_fingerprint = network.fingerprint()
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self.retry_backoff = retry_backoff
        self.retry_failed = retry_failed
        self.max_pool_restarts = max_pool_restarts
        self.lp_time_limit = lp_time_limit
        if isinstance(faults, str):
            faults = _faults_module.FaultConfig.from_spec(faults)
        self.fault_config: Optional[_faults_module.FaultConfig] = faults
        self.last_run_stats = EngineRunStats()

    @classmethod
    def for_config(
        cls, config: WorkloadConfig, schemes: Sequence[Scheme], **kwargs: Any
    ) -> "ExperimentEngine":
        """Build an engine on the topology named by ``config.topology``."""
        return cls(config.build_network(), schemes, **kwargs)

    # ----------------------------------------------------------------- pieces
    def run_instance(self, instance: CoflowInstance) -> SchemeComparison:
        """Run every scheme on one concrete instance (serial, uncached)."""
        comparison = SchemeComparison(metric=self.metric)
        for scheme in self.schemes:
            comparison.add(scheme.simulate(instance, self.network, self.simulator))
        return comparison

    def tasks_for(self, points: Sequence[PointSpec]) -> List[ExperimentTask]:
        """Expand point specs into the flat (point x try x scheme) task list."""
        tasks: List[ExperimentTask] = []
        for point_index, (label, configs) in enumerate(points):
            for trial, config in enumerate(configs):
                for scheme_index, scheme in enumerate(self.schemes):
                    tasks.append(
                        ExperimentTask(
                            point_index=point_index,
                            label=label,
                            trial=trial,
                            scheme_index=scheme_index,
                            scheme_name=scheme.name,
                            config=config,
                            key=run_key(
                                self.topology_fingerprint, config, scheme.signature()
                            ),
                        )
                    )
        return tasks

    # ------------------------------------------------------------------- runs
    def run_points(self, points: Sequence[PointSpec]) -> SweepResult:
        """Execute all tasks for ``points`` and aggregate a sweep result.

        Tasks whose key is already in the run store are served from it
        (failure records included, unless ``retry_failed``); the rest run
        serially or in the worker pool and stream into the store as they
        complete (so interruption loses at most the in-flight tasks).
        Failures never abort the sweep: transient ones are retried,
        permanent ones become failure records and NaN cells.
        """
        started = time.perf_counter()
        tasks = self.tasks_for(points)
        pending: List[ExperimentTask] = []
        for task in tasks:
            record = self.store.get(task.key)
            if record is None or (self.retry_failed and record.get("failed")):
                pending.append(task)
        cached = len(tasks) - len(pending)

        self.last_run_stats = EngineRunStats(
            total_tasks=len(tasks),
            cached=cached,
            executed=len(pending),
            workers=self.workers or 1,
        )
        if pending:
            self.execute_pending(pending)

        result = SweepResult(metric=self.metric)
        result.points = [SweepPoint(label=label) for label, _ in points]
        for task in tasks:
            record = self.store.peek(task.key)
            if record is None:
                raise RuntimeError(
                    f"run store lost task: point {task.label!r}, trial "
                    f"{task.trial}, scheme {task.scheme_name!r} (key {task.key})"
                )
            if record.get("failed"):
                self.last_run_stats.failed += 1
                result.points[task.point_index].add_failure(
                    task.scheme_name, failure_label(record)
                )
            else:
                result.points[task.point_index].add(
                    task.scheme_name, float(record["metrics"][self.metric])
                )

        self.last_run_stats.seconds = time.perf_counter() - started
        return result

    # ----------------------------------------------------------- execution
    def execute_pending(self, pending: Sequence[ExperimentTask]) -> None:
        """Execute ``pending`` tasks through the hardened per-task path.

        This is the execution half of :meth:`run_points` — fault injector
        installed, LP time limit applied, serial-or-pool dispatch with
        retries, deadlines and failure records — without the cache lookup
        or aggregation around it.  The sweep fabric's shard workers call it
        directly on the chunks they claim, so distributed execution
        composes with every robustness guarantee of PR 6 unchanged.
        Results stream into ``self.store`` as they complete.
        """
        if not pending:
            return
        injector = (
            _faults_module.FaultInjector(self.fault_config)
            if self.fault_config is not None
            else None
        )
        previous_injector = _faults_module.active_injector()
        _faults_module.install(injector)
        try:
            with _lp_time_limit(self.lp_time_limit):
                if (self.workers or 1) >= 2:
                    self._run_pool(pending, self.workers)
                else:
                    self._run_serial(pending)
        finally:
            _faults_module.install(previous_injector)

    def _store_put(self, task: ExperimentTask, record: Dict[str, Any]) -> None:
        """Persist a record, retrying transient (injected) append failures."""
        for attempt in range(self.max_retries + 1):
            try:
                with _faults_module.task_scope(task.key, attempt):
                    self.store.put(task.key, record)
                return
            except Exception as error:
                if _faults_module.is_transient(error) and attempt < self.max_retries:
                    self.last_run_stats.retried += 1
                    continue
                raise

    def _attempt_serial(self, task: ExperimentTask, attempt: int) -> Dict[str, Any]:
        delay = _faults_module.backoff_delay(task.key, attempt, self.retry_backoff)
        if delay:
            time.sleep(delay)
        with _faults_module.task_scope(task.key, attempt):
            with _faults_module.deadline(self.task_timeout):
                return _execute_task(
                    self.network,
                    self.simulator,
                    self.schemes[task.scheme_index],
                    task,
                    self.topology_fingerprint,
                    self._instances,
                )

    def _run_serial(
        self,
        pending: Sequence[ExperimentTask],
        attempts: Optional[Dict[str, int]] = None,
    ) -> None:
        """In-process execution with per-task retry (also the degraded path
        the pool falls back to, inheriting the tasks' attempt counters)."""
        attempts = attempts if attempts is not None else {}
        for task in pending:
            attempt = attempts.get(task.key, 0)
            task_started = time.perf_counter()
            while True:
                try:
                    record = self._attempt_serial(task, attempt)
                    break
                except Exception as error:
                    if (
                        _faults_module.is_transient(error)
                        and attempt < self.max_retries
                    ):
                        attempt += 1
                        self.last_run_stats.retried += 1
                        continue
                    record = _failure_record(
                        task,
                        error,
                        attempt + 1,
                        time.perf_counter() - task_started,
                        self.topology_fingerprint,
                        self.schemes[task.scheme_index].signature(),
                    )
                    break
            self._store_put(task, record)

    def _run_pool(self, pending: Sequence[ExperimentTask], workers: int) -> None:
        """Pool execution with retry-by-resubmission and broken-pool recovery.

        A dead worker breaks the whole :class:`ProcessPoolExecutor`; the
        engine respawns it (``max_pool_restarts`` times) and resubmits only
        the tasks without a stored record, bumping their attempt counters so
        first-attempt-only injected faults cannot wedge the sweep.  Past the
        restart budget it degrades to serial execution for the remainder.
        The pool's modules (``concurrent.futures.process`` and with it
        :mod:`multiprocessing`) load here, so a serial run never imports
        them.
        """
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        attempts: Dict[str, int] = {task.key: 0 for task in pending}
        first_submit: Dict[str, float] = {}
        unfinished: Dict[str, ExperimentTask] = {task.key: task for task in pending}
        restarts = 0
        while unfinished:
            try:
                with ProcessPoolExecutor(
                    max_workers=workers,
                    initializer=_worker_init,
                    initargs=(
                        self.network,
                        self.schemes,
                        self.topology_fingerprint,
                        self.fault_config,
                        self.task_timeout,
                        self.retry_backoff,
                        self.lp_time_limit,
                    ),
                ) as pool:
                    futures = {}
                    for task in list(unfinished.values()):
                        first_submit.setdefault(task.key, time.perf_counter())
                        futures[pool.submit(_worker_run, task, attempts[task.key])] = task
                    while futures:
                        done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                        for future in done:
                            task = futures.pop(future)
                            try:
                                _, record = future.result()
                            except BrokenProcessPool:
                                raise
                            except Exception as error:
                                if (
                                    _faults_module.is_transient(error)
                                    and attempts[task.key] < self.max_retries
                                ):
                                    attempts[task.key] += 1
                                    self.last_run_stats.retried += 1
                                    futures[
                                        pool.submit(
                                            _worker_run, task, attempts[task.key]
                                        )
                                    ] = task
                                    continue
                                record = _failure_record(
                                    task,
                                    error,
                                    attempts[task.key] + 1,
                                    time.perf_counter() - first_submit[task.key],
                                    self.topology_fingerprint,
                                    self.schemes[task.scheme_index].signature(),
                                )
                            self._store_put(task, record)
                            del unfinished[task.key]
                return
            except BrokenProcessPool:
                restarts += 1
                self.last_run_stats.pool_restarts += 1
                # In-flight tasks died with the pool: that was an attempt.
                # Bumping every unfinished task keeps attempt-0-only faults
                # (injected kills) from breaking the next pool identically.
                for key in unfinished:
                    attempts[key] += 1
                if restarts > self.max_pool_restarts:
                    self._run_serial(list(unfinished.values()), attempts)
                    return

    def run(
        self,
        base_config: WorkloadConfig,
        parameter: str,
        values: Sequence[Any],
        label_format: str = "{value}",
    ) -> SweepResult:
        """Sweep one :class:`WorkloadConfig` field over ``values``.

        ``parameter`` may be any config field (``"coflow_width"`` is
        Figure 3, ``"num_coflows"`` Figure 4; ``"mean_flow_size"``,
        ``"pareto_shape"`` etc. open the scenario families); each point is
        averaged over ``self.tries`` random instances with distinct seeds.
        """
        points: List[PointSpec] = []
        for value in values:
            config = self._with_parameter(base_config, parameter, value)
            configs = [config.with_seed(config.seed + k) for k in range(self.tries)]
            points.append((label_format.format(value=value), configs))
        return self.run_points(points)

    @staticmethod
    def _with_parameter(
        config: WorkloadConfig, parameter: str, value: Any
    ) -> WorkloadConfig:
        known = {f.name for f in fields(WorkloadConfig)}
        if parameter not in known:
            raise ValueError(
                f"unknown sweep parameter {parameter!r} "
                f"(workload config fields: {', '.join(sorted(known))})"
            )
        current = getattr(config, parameter)
        if isinstance(current, bool):
            value = bool(value)
        elif isinstance(current, int):
            value = int(value)
        return replace(config, **{parameter: value})
