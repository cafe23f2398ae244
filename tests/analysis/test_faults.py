"""Fault injection, retries and failure records: the chaos suite.

The acceptance path of the robustness PR: a seeded chaos sweep (injected
solver faults, timeouts and worker kills) runs to completion, transient
faults are retried and converge bit-identically to a fault-free run, a
killed worker breaks and respawns the pool, and permanent failures become
structured failure records plus NaN cells — all deterministically, so
serial and pooled chaos runs agree too.
"""

import json

import pytest

from repro import faults
from repro.analysis import ExperimentEngine, RunStore
from repro.analysis.engine import _failure_record
from repro.baselines.spec import scheme_from_spec
from repro.core import topologies
from repro.faults import (
    FAULT_KINDS,
    FaultConfig,
    FaultInjector,
    InjectedStoreError,
    InjectedTimeout,
    TaskTimeoutError,
    WorkerKilled,
    backoff_delay,
    deadline,
    is_transient,
    maybe_inject,
    task_scope,
)
from repro.lp.solver import LPInfeasibleError
from repro.workloads import WorkloadConfig


@pytest.fixture
def network():
    return topologies.fat_tree(4)


@pytest.fixture
def schemes():
    # One LP-solving scheme so "lp" faults have a site to fire at.
    return [scheme_from_spec("Baseline"), scheme_from_spec("LP-Based")]


@pytest.fixture
def config():
    return WorkloadConfig(num_coflows=2, coflow_width=2, seed=41)


@pytest.fixture(autouse=True)
def no_leaked_injector():
    yield
    assert faults.active_injector() is None, "a test leaked an installed injector"


def sweep_values(result):
    return [(point.label, dict(point.values)) for point in result.points]


def sweep_failures(result):
    return [(point.label, dict(point.failures)) for point in result.points]


# ------------------------------------------------------------- config parsing

class TestFaultConfig:
    def test_spec_round_trip(self):
        config = FaultConfig.from_spec("rate=0.1, seed=7, kinds=lp+kill, delay=0.2")
        assert config == FaultConfig(rate=0.1, seed=7, kinds=("lp", "kill"), delay=0.2)
        assert FaultConfig.from_spec(config.spec()) == config

    def test_defaults(self):
        config = FaultConfig.from_spec("rate=0.5")
        assert config.kinds == ("lp", "timeout")
        assert config.seed == 0

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("rate=1.5", "rate"),
            ("rate=0.1,kinds=quantum", "quantum"),
            ("rate=0.1,budget=3", "budget"),
            ("rate", "key=value"),
            ("delay=-1", "delay"),
        ],
    )
    def test_bad_specs_raise_naming_the_piece(self, spec, fragment):
        with pytest.raises(ValueError, match=fragment):
            FaultConfig.from_spec(spec)

    def test_kinds_must_be_known(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultConfig(rate=0.1, kinds=("lp", "nope"))


class TestFaultInjector:
    def test_draws_are_deterministic(self):
        a = FaultInjector(FaultConfig(rate=0.5, seed=3))
        b = FaultInjector(FaultConfig(rate=0.5, seed=3))
        keys = [f"task-{i}" for i in range(200)]
        assert [a.draw(k) for k in keys] == [b.draw(k) for k in keys]

    def test_rate_bounds(self):
        keys = [f"task-{i}" for i in range(100)]
        never = FaultInjector(FaultConfig(rate=0.0))
        always = FaultInjector(FaultConfig(rate=1.0, kinds=FAULT_KINDS))
        assert all(never.draw(k) is None for k in keys)
        assert all(always.draw(k) in FAULT_KINDS for k in keys)

    def test_seed_changes_the_draws(self):
        keys = [f"task-{i}" for i in range(200)]
        a = [FaultInjector(FaultConfig(rate=0.5, seed=0)).draw(k) for k in keys]
        b = [FaultInjector(FaultConfig(rate=0.5, seed=1)).draw(k) for k in keys]
        assert a != b


class TestClassification:
    def test_timeouts_and_flagged_errors_are_transient(self):
        assert is_transient(InjectedTimeout("t"))
        assert is_transient(TaskTimeoutError("t"))
        assert is_transient(TimeoutError("t"))
        assert is_transient(WorkerKilled("k"))
        assert is_transient(InjectedStoreError("s"))

    def test_everything_else_is_permanent(self):
        assert not is_transient(LPInfeasibleError("infeasible"))
        assert not is_transient(ValueError("bad"))
        assert not is_transient(RuntimeError("bug"))


class TestInjectionScope:
    def test_noop_without_injector_or_scope(self):
        maybe_inject("lp")  # no injector installed
        faults.install(FaultInjector(FaultConfig(rate=1.0, kinds=("lp",))))
        try:
            maybe_inject("lp")  # no task scope
        finally:
            faults.uninstall()

    def test_lp_fault_fires_on_every_attempt(self):
        faults.install(FaultInjector(FaultConfig(rate=1.0, kinds=("lp",))))
        try:
            for attempt in (0, 1, 5):
                with task_scope("some-task", attempt):
                    with pytest.raises(LPInfeasibleError) as excinfo:
                        maybe_inject("lp")
                    assert excinfo.value.injected
                    assert excinfo.value.status == -1
        finally:
            faults.uninstall()

    def test_transient_kinds_fire_on_first_attempt_only(self):
        faults.install(FaultInjector(FaultConfig(rate=1.0, kinds=("timeout",))))
        try:
            with task_scope("some-task", attempt=0):
                with pytest.raises(InjectedTimeout):
                    maybe_inject("sim")
            with task_scope("some-task", attempt=1):
                maybe_inject("sim")  # the retry sails through
        finally:
            faults.uninstall()

    def test_at_most_one_fault_per_kind_per_scope(self):
        # An online scheme solves many LPs per task; it must fault once.
        faults.install(FaultInjector(FaultConfig(rate=1.0, kinds=("lp",))))
        try:
            with task_scope("some-task"):
                with pytest.raises(LPInfeasibleError):
                    maybe_inject("lp")
                maybe_inject("lp")
        finally:
            faults.uninstall()

    def test_site_mismatch_is_a_noop(self):
        faults.install(FaultInjector(FaultConfig(rate=1.0, kinds=("store",))))
        try:
            with task_scope("some-task"):
                maybe_inject("lp")
                maybe_inject("sim")
                with pytest.raises(InjectedStoreError):
                    maybe_inject("store")
        finally:
            faults.uninstall()


class TestHardeningPrimitives:
    def test_backoff_is_deterministic_and_capped(self):
        assert backoff_delay("k", 0, 0.1) == 0.0
        assert backoff_delay("k", 1, 0.0) == 0.0
        first = backoff_delay("k", 1, 0.1)
        assert first == backoff_delay("k", 1, 0.1)
        assert 0.1 <= first < 0.2
        assert backoff_delay("k", 50, 0.1, cap=2.0) == 2.0

    def test_jitter_differs_across_tasks(self):
        delays = {backoff_delay(f"task-{i}", 1, 0.1) for i in range(20)}
        assert len(delays) > 1

    def test_deadline_expires_cpu_bound_work(self):
        with pytest.raises(TaskTimeoutError):
            with deadline(0.05):
                while True:
                    sum(range(1000))

    def test_deadline_none_is_a_noop(self):
        with deadline(None):
            pass
        with deadline(0):
            pass

    def test_nested_deadline_restores_the_outer_timer(self):
        """Leaving an inner deadline() must re-arm the enclosing one.

        The inner context's cleanup used to run ``setitimer(ITIMER_REAL,
        0.0)`` unconditionally, silently disarming the outer deadline — an
        outer timeout after a quick inner section then never fired."""
        import signal

        with pytest.raises(TaskTimeoutError):
            with deadline(0.15):
                with deadline(5.0):
                    pass  # quick inner work; must not cancel the outer timer
                remaining, _interval = signal.getitimer(signal.ITIMER_REAL)
                assert 0.0 < remaining <= 0.15, "outer deadline was disarmed"
                while True:
                    sum(range(1000))
        # Fully unwound: no timer left armed.
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_nested_deadline_inner_expiry_still_fires(self):
        import signal

        with pytest.raises(TaskTimeoutError):
            with deadline(5.0):
                with deadline(0.05):
                    while True:
                        sum(range(1000))
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ------------------------------------------------------- engine fault handling

class TestEngineRetries:
    def test_transient_faults_converge_bit_identically(self, network, schemes, config):
        clean = ExperimentEngine(network, schemes, tries=2).run(
            config, "coflow_width", [2, 3]
        )
        chaotic = ExperimentEngine(
            network, schemes, tries=2, faults="rate=1.0,kinds=timeout"
        )
        result = chaotic.run(config, "coflow_width", [2, 3])
        assert chaotic.last_run_stats.retried == chaotic.last_run_stats.total_tasks
        assert chaotic.last_run_stats.failed == 0
        assert sweep_values(result) == sweep_values(clean)

    def test_serial_and_pool_chaos_agree(self, network, schemes, config):
        spec = dict(faults="rate=0.5,seed=5", tries=2, retry_backoff=0.0)
        serial = ExperimentEngine(network, schemes, **spec)
        pooled = ExperimentEngine(network, schemes, workers=2, **spec)
        serial_result = serial.run(config, "coflow_width", [2, 3])
        pooled_result = pooled.run(config, "coflow_width", [2, 3])
        assert sweep_values(serial_result) == sweep_values(pooled_result)
        assert sweep_failures(serial_result) == sweep_failures(pooled_result)
        assert serial.last_run_stats.failed == pooled.last_run_stats.failed

    def test_exhausted_retries_become_a_failure_record(self, network, config):
        # Every attempt times out (max_retries=1), so the task fails
        # transiently twice and is then recorded as permanently failed.
        engine = ExperimentEngine(
            network,
            [scheme_from_spec("Baseline")],
            tries=1,
            max_retries=1,
            task_timeout=0.15,
            faults="rate=1.0,kinds=slow,delay=10",
            retry_backoff=0.0,
        )
        result = engine.run(config, "coflow_width", [2])
        assert engine.last_run_stats.failed == 1
        assert engine.last_run_stats.retried == 1
        record = engine.store.peek(engine.tasks_for(
            [("2", [config.with_seed(config.seed)])]
        )[0].key)
        assert record["failed"] is True
        assert record["error"] == "TaskTimeoutError"
        assert record["attempts"] == 2
        assert result.points[0].failures == {"Baseline": ["TaskTimeoutError"]}


class TestEngineFailureRecords:
    def chaos_engine(self, network, schemes, store=None, **kwargs):
        kwargs.setdefault("faults", "rate=1.0,kinds=lp")
        kwargs.setdefault("tries", 1)
        return ExperimentEngine(network, schemes, store=store, **kwargs)

    def test_permanent_failure_is_structured_and_renders_nan(
        self, tmp_path, network, schemes, config
    ):
        store_path = tmp_path / "runs.jsonl"
        engine = self.chaos_engine(network, schemes, store=str(store_path))
        result = engine.run(config, "coflow_width", [2])
        # Baseline never solves an LP, so only the LP scheme fails.
        assert engine.last_run_stats.failed == 1
        point = result.points[0]
        assert point.failures == {"LP-Based": ["LPInfeasibleError"]}
        assert point.values.keys() == {"Baseline"}

        entries = [json.loads(l) for l in store_path.read_text().splitlines()]
        failed = [e["record"] for e in entries if e["record"].get("failed")]
        assert len(failed) == 1
        record = failed[0]
        assert record["error"] == "LPInfeasibleError"
        assert record["attempts"] == 1
        assert record["scheme"] == "LP-Based"
        assert record["label"] == "2"
        assert record["trial"] == 0
        assert record["elapsed"] >= 0
        assert record["detail"]["status"] == -1
        assert "injected" in record["message"]

    def test_resume_skips_recorded_failures(self, tmp_path, network, schemes, config):
        store_path = tmp_path / "runs.jsonl"
        first = self.chaos_engine(network, schemes, store=str(store_path))
        first.run(config, "coflow_width", [2])

        resumed = ExperimentEngine(
            network, schemes, tries=1, store=str(store_path)
        )
        result = resumed.run(config, "coflow_width", [2])
        assert resumed.last_run_stats.executed == 0
        assert resumed.last_run_stats.failed == 1  # still counted in coverage
        assert result.points[0].failures == {"LP-Based": ["LPInfeasibleError"]}

    def test_retry_failed_reruns_and_heals(self, tmp_path, network, schemes, config):
        store_path = tmp_path / "runs.jsonl"
        first = self.chaos_engine(network, schemes, store=str(store_path))
        first.run(config, "coflow_width", [2])

        # Injection off now: the re-run succeeds and replaces the record.
        healed = ExperimentEngine(
            network, schemes, tries=1, store=str(store_path), retry_failed=True
        )
        result = healed.run(config, "coflow_width", [2])
        assert healed.last_run_stats.executed == 1
        assert healed.last_run_stats.failed == 0
        assert not result.points[0].failures
        clean = ExperimentEngine(network, schemes, tries=1).run(
            config, "coflow_width", [2]
        )
        assert sweep_values(result) == sweep_values(clean)

    def test_coverage_accounting(self, network, schemes, config):
        engine = self.chaos_engine(network, schemes)
        engine.run(config, "coflow_width", [2])
        stats = engine.last_run_stats
        assert stats.total_tasks == 2
        assert stats.failed == 1
        assert stats.coverage == pytest.approx(0.5)

    def test_lost_task_raises_naming_the_task(self, network, config):
        class AmnesiacStore(RunStore):
            def put(self, key, record):  # drop everything
                return None

        engine = ExperimentEngine(
            network, [scheme_from_spec("Baseline")], tries=1, store=AmnesiacStore()
        )
        with pytest.raises(RuntimeError, match="point '2'.*trial 0.*'Baseline'"):
            engine.run(config, "coflow_width", [2])


class TestPoolRecovery:
    def test_killed_worker_respawns_pool_and_converges(
        self, network, schemes, config
    ):
        clean = ExperimentEngine(network, schemes, tries=2).run(
            config, "coflow_width", [2]
        )
        chaotic = ExperimentEngine(
            network,
            schemes,
            tries=2,
            workers=2,
            faults="rate=0.5,seed=5,kinds=kill",
            retry_backoff=0.0,
        )
        result = chaotic.run(config, "coflow_width", [2])
        assert chaotic.last_run_stats.pool_restarts >= 1
        assert chaotic.last_run_stats.failed == 0
        assert sweep_values(result) == sweep_values(clean)

    def test_serial_kill_is_transient(self, network, schemes, config):
        clean = ExperimentEngine(network, schemes, tries=2).run(
            config, "coflow_width", [2]
        )
        chaotic = ExperimentEngine(
            network,
            schemes,
            tries=2,
            faults="rate=0.5,seed=5,kinds=kill",
            retry_backoff=0.0,
        )
        result = chaotic.run(config, "coflow_width", [2])
        assert chaotic.last_run_stats.retried >= 1
        assert chaotic.last_run_stats.pool_restarts == 0
        assert sweep_values(result) == sweep_values(clean)


class TestStoreFaults:
    def test_injected_append_failures_are_retried(self, tmp_path, network, config):
        engine = ExperimentEngine(
            network,
            [scheme_from_spec("Baseline")],
            tries=1,
            store=str(tmp_path / "runs.jsonl"),
            faults="rate=1.0,kinds=store",
        )
        result = engine.run(config, "coflow_width", [2])
        assert engine.last_run_stats.failed == 0
        assert engine.last_run_stats.retried >= 1
        assert result.points[0].values["Baseline"]


class TestFailureRecordShape:
    def test_solver_detail_rides_along(self, network, config):
        task = ExperimentEngine(
            network, [scheme_from_spec("Baseline")], tries=1
        ).tasks_for([("p", [config])])[0]
        error = LPInfeasibleError(
            "nope", status=2, solver_message="infeasible", rows=3, cols=4, nnz=7
        )
        record = _failure_record(task, error, attempts=1, elapsed=0.5,
                                 topology_fingerprint="fp", signature="sig")
        assert record["detail"] == {
            "status": 2,
            "solver_message": "infeasible",
            "rows": 3,
            "cols": 4,
            "nnz": 7,
        }
        plain = _failure_record(task, ValueError("v"), 1, 0.1, "fp", "sig")
        assert "detail" not in plain
