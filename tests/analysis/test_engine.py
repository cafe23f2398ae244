"""Tests for the parallel, resumable experiment engine.

The two engine guarantees the benchmarks lean on:

* **determinism** — a parallel sweep (>= 2 worker processes) produces results
  identical to the serial sweep for the same seeds, because each task derives
  all randomness from its config seed;
* **resumability** — re-running against a warm run store reuses every cached
  entry without re-simulating (asserted through the store's hit/miss
  accounting), and a partially-filled store only executes the missing tasks.

A task computes only what its record holds: each config's instance is
generated once per process and shared by the config's scheme tasks (which
is sound only because no scheme changes the instance it is given), and no
task builds a schedule.
"""

import json

import pytest

from repro.analysis import (
    EngineRunStats,
    ExperimentEngine,
    RunStore,
    run_key,
)
from repro.baselines import SCHEME_ALIASES, scheme_from_spec
from repro.core import topologies
from repro.core.schedule import CircuitSchedule
from repro.workloads import CoflowGenerator, WorkloadConfig


@pytest.fixture
def network():
    return topologies.fat_tree(4)


@pytest.fixture
def schemes():
    return [scheme_from_spec(name) for name in ("Baseline", "Route-only", "Schedule-only")]


@pytest.fixture
def config():
    return WorkloadConfig(num_coflows=3, coflow_width=3, seed=17)


def sweep_values(result):
    return [(point.label, dict(point.values)) for point in result.points]


class TestDeterminism:
    def test_parallel_matches_serial(self, network, schemes, config):
        serial = ExperimentEngine(network, schemes, tries=2)
        parallel = ExperimentEngine(network, schemes, tries=2, workers=2)
        kwargs = dict(label_format="{value} flows")
        serial_result = serial.run(config, "coflow_width", [2, 4], **kwargs)
        parallel_result = parallel.run(config, "coflow_width", [2, 4], **kwargs)
        assert serial.last_run_stats.workers == 1
        assert parallel.last_run_stats.workers == 2
        # Bit-identical, not approximately equal: same seeds, same float ops.
        assert sweep_values(serial_result) == sweep_values(parallel_result)

    def test_repeated_serial_runs_identical(self, network, schemes, config):
        first = ExperimentEngine(network, schemes, tries=2).run(
            config, "num_coflows", [2, 3]
        )
        second = ExperimentEngine(network, schemes, tries=2).run(
            config, "num_coflows", [2, 3]
        )
        assert sweep_values(first) == sweep_values(second)


class TestRunStore:
    def test_resume_skips_all_simulation(self, tmp_path, network, schemes, config):
        store_path = tmp_path / "runs.jsonl"
        cold = ExperimentEngine(
            network, schemes, tries=2, workers=2, store=str(store_path)
        )
        cold_result = cold.run(config, "coflow_width", [2, 3])
        assert cold.last_run_stats.executed == cold.last_run_stats.total_tasks
        assert not cold.last_run_stats.all_cached

        warm = ExperimentEngine(
            network, schemes, tries=2, workers=2, store=str(store_path)
        )
        warm_result = warm.run(config, "coflow_width", [2, 3])
        assert warm.last_run_stats.all_cached
        assert warm.last_run_stats.executed == 0
        assert warm.last_run_stats.cached == cold.last_run_stats.total_tasks
        assert warm.store.hits == cold.last_run_stats.total_tasks
        assert sweep_values(cold_result) == sweep_values(warm_result)
        # The store file was not appended to by the warm run.
        lines = store_path.read_text().strip().splitlines()
        assert len(lines) == cold.last_run_stats.total_tasks

    def test_partial_store_executes_only_missing(self, tmp_path, network, config):
        schemes = [scheme_from_spec("Baseline"), scheme_from_spec("Route-only")]
        store_path = tmp_path / "runs.jsonl"
        seeded = ExperimentEngine(network, schemes, tries=2, store=str(store_path))
        seeded.run(config, "coflow_width", [2])
        filled = seeded.last_run_stats.total_tasks

        resumed = ExperimentEngine(network, schemes, tries=2, store=str(store_path))
        resumed.run(config, "coflow_width", [2, 3])
        assert resumed.last_run_stats.cached == filled
        assert resumed.last_run_stats.executed == (
            resumed.last_run_stats.total_tasks - filled
        )

    def test_records_are_self_describing(self, tmp_path, network, config):
        schemes = [scheme_from_spec("Baseline")]
        store_path = tmp_path / "runs.jsonl"
        engine = ExperimentEngine(network, schemes, tries=1, store=str(store_path))
        engine.run(config, "coflow_width", [2])
        entry = json.loads(store_path.read_text().splitlines()[0])
        record = entry["record"]
        assert record["scheme"] == "Baseline"
        assert record["topology"] == network.fingerprint()
        assert record["config"]["coflow_width"] == 2
        assert set(record["metrics"]) >= {
            "weighted_completion_time",
            "makespan",
        }
        # The stored key matches what the engine would recompute.
        assert entry["key"] == run_key(
            network.fingerprint(),
            WorkloadConfig(**{
                k: v for k, v in record["config"].items()
            }),
            schemes[0].signature(),
        )

    def test_key_distinguishes_topology_config_seed_scheme(self, network, config):
        fp = network.fingerprint()
        other_fp = topologies.fat_tree(4, oversubscription=2.0).fingerprint()
        baseline = scheme_from_spec("Baseline")
        keys = {
            run_key(fp, config, baseline.signature()),
            run_key(other_fp, config, baseline.signature()),
            run_key(fp, config.with_seed(config.seed + 1), baseline.signature()),
            run_key(fp, config.with_width(5), baseline.signature()),
            run_key(
                fp,
                config,
                scheme_from_spec(
                    "pipeline(router=random(seed=1), order=random(seed=1))"
                ).signature(),
            ),
            run_key(fp, config, scheme_from_spec("Route-only").signature()),
        }
        assert len(keys) == 6

    def test_in_memory_store_caches_within_engine(self, network, config):
        engine = ExperimentEngine(network, [scheme_from_spec("Baseline")], tries=2)
        engine.run(config, "coflow_width", [2])
        first = engine.last_run_stats
        engine.run(config, "coflow_width", [2])
        assert first.executed > 0
        assert engine.last_run_stats.all_cached


class TestEngineApi:
    def test_for_config_builds_topology(self):
        config = WorkloadConfig(
            num_coflows=2,
            coflow_width=2,
            seed=3,
            topology="leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)",
        )
        engine = ExperimentEngine.for_config(config, [scheme_from_spec("Baseline")], tries=1)
        result = engine.run(config, "coflow_width", [2])
        assert result.points[0].mean("Baseline") > 0

    def test_stats_fields(self, network, config):
        engine = ExperimentEngine(network, [scheme_from_spec("Baseline")], tries=1)
        engine.run(config, "coflow_width", [2])
        stats = engine.last_run_stats
        assert isinstance(stats, EngineRunStats)
        assert stats.total_tasks == 1
        assert stats.seconds > 0

    def test_invalid_workers_rejected(self, network):
        with pytest.raises(ValueError):
            ExperimentEngine(network, [scheme_from_spec("Baseline")], workers=-1)

    def test_unknown_metric_rejected_listing_the_recorded_ones(self, network):
        with pytest.raises(ValueError, match="unknown metric 'makespam'.*makespan"):
            ExperimentEngine(network, [scheme_from_spec("Baseline")], metric="makespam")

    def test_a_record_without_the_metric_is_a_missing_cell(self, network, config):
        """A hand-written record that lacks the metric renders no value and
        counts against coverage, where it used to end the run in a
        ``KeyError``."""
        store = RunStore()
        engine = ExperimentEngine(
            network, [scheme_from_spec("Baseline")], tries=2, store=store
        )
        engine.run(config, "coflow_width", [2])
        key = next(iter(store._records))
        record = json.loads(json.dumps(store.peek(key)))
        del record["metrics"]["weighted_completion_time"]
        store.put(key, record)
        result = engine.run(config, "coflow_width", [2])
        assert len(result.points[0].values["Baseline"]) == 1
        assert engine.last_run_stats.missing == 1
        assert engine.last_run_stats.coverage == 0.5

    def test_run_store_accepts_runstore_instance(self, tmp_path, network, config):
        store = RunStore(tmp_path / "shared.jsonl")
        a = ExperimentEngine(network, [scheme_from_spec("Baseline")], tries=1, store=store)
        a.run(config, "coflow_width", [2])
        b = ExperimentEngine(network, [scheme_from_spec("Baseline")], tries=1, store=store)
        b.run(config, "coflow_width", [2])
        assert b.last_run_stats.all_cached


class TestShardClaimRaces:
    """The fabric's safety argument, checked at the engine level: two shard
    workers racing on the *same* keys — both claiming, both executing —
    merge to exactly one record per key, bit-identical to what a serial
    single-store run produces."""

    def test_double_execution_merges_to_the_serial_records(
        self, tmp_path, network, schemes, config
    ):
        from repro.analysis import ShardedRunStore, merge_stores

        serial = ExperimentEngine(network, schemes, tries=2)
        serial_result = serial.run(config, "coflow_width", [2, 4])

        root = tmp_path / "shards"
        # Open both shard stores BEFORE either executes: neither sees the
        # other's records, so both claim and execute the full grid — the
        # worst-case claim race, every key double-executed.
        stores = [
            ShardedRunStore(root, shard_id=shard_id, shards=2)
            for shard_id in range(2)
        ]
        engines = [
            ExperimentEngine(network, schemes, tries=2, store=store)
            for store in stores
        ]
        for store, engine in zip(stores, engines):
            for task in engine.tasks_for(
                [("2 flows", [config.with_seed(config.seed + k) for k in range(2)])]
            ):
                store.claim(task.key)
        sharded_results = [
            engine.run(config, "coflow_width", [2, 4]) for engine in engines
        ]

        # Both racers saw identical aggregates, equal to the serial run's.
        assert sweep_values(sharded_results[0]) == sweep_values(serial_result)
        assert sweep_values(sharded_results[1]) == sweep_values(serial_result)

        # The merge collapses the double-executed keys to ONE record each,
        # bit-identical to the serial engine's store contents.
        records, stats = merge_stores([root])
        serial_records = {
            key: serial.store.peek(key) for key in serial.store._records
        }
        assert records == serial_records
        assert stats.records == len(serial_records)
        assert stats.duplicates > 0  # the race really happened

    def test_racing_engines_skip_peer_records_after_refresh(
        self, tmp_path, network, schemes, config
    ):
        from repro.analysis import ShardedRunStore

        root = tmp_path / "shards"
        first = ShardedRunStore(root, shard_id=0, shards=2)
        ExperimentEngine(network, schemes, tries=2, store=first).run(
            config, "coflow_width", [2, 4]
        )
        second = ShardedRunStore(root, shard_id=1, shards=2)
        engine = ExperimentEngine(network, schemes, tries=2, store=second)
        engine.run(config, "coflow_width", [2, 4])
        # Shard 1 opened after shard 0 finished: everything is a cache hit
        # across shard files, nothing re-executes.
        assert engine.last_run_stats.all_cached
        assert second.hits == engine.last_run_stats.total_tasks


class TestInstanceReuse:
    """Each config's instance is generated once per process, and its scheme
    tasks (static and online) build no schedule."""

    SCHEMES = ("Baseline", "SEBF", "Online-SEBF")

    @pytest.fixture
    def generated(self, monkeypatch):
        """The configs ``CoflowGenerator.instance`` ran for, in call order."""
        calls = []
        original = CoflowGenerator.instance

        def spy(generator, *args, **kwargs):
            calls.append(generator.config)
            return original(generator, *args, **kwargs)

        monkeypatch.setattr(CoflowGenerator, "instance", spy)
        return calls

    @staticmethod
    def engine(network, **kwargs):
        schemes = [scheme_from_spec(name) for name in TestInstanceReuse.SCHEMES]
        return ExperimentEngine(network, schemes, tries=2, **kwargs)

    def test_serial_run_generates_each_config_once(self, network, config, generated):
        engine = self.engine(network)
        engine.run(config, "coflow_width", [2, 3, 4])
        configs = 3 * 2
        assert engine.last_run_stats.executed == configs * len(self.SCHEMES)
        assert len(generated) == configs
        assert len(set(generated)) == configs

    def test_no_task_builds_a_schedule(self, network, config, monkeypatch):
        built = []
        original = CircuitSchedule.__init__

        def spy(schedule):
            built.append(schedule)
            original(schedule)

        monkeypatch.setattr(CircuitSchedule, "__init__", spy)
        engine = self.engine(network)
        engine.run(config, "coflow_width", [2, 3])
        assert engine.last_run_stats.executed == 2 * 2 * len(self.SCHEMES)
        assert built == []

    def test_serial_and_pooled_runs_write_the_same_store_lines(
        self, tmp_path, network, config
    ):
        # Pool records land in completion order, so the lines are compared
        # as sorted bytes.
        lines = {}
        for workers in (None, 2):
            path = tmp_path / f"workers-{workers}.jsonl"
            self.engine(network, workers=workers, store=str(path)).run(
                config, "coflow_width", [2, 3]
            )
            lines[workers] = sorted(path.read_bytes().splitlines())
        assert len(lines[None]) == 2 * 2 * len(self.SCHEMES)
        assert lines[None] == lines[2]

    def test_a_retry_after_a_transient_fault_records_the_clean_result(
        self, tmp_path, network, config, generated
    ):
        # The timeout fires inside each task's first simulation; the retry
        # reuses the instance generated for that attempt.
        clean = self.engine(network, store=str(tmp_path / "clean.jsonl"))
        clean.run(config, "coflow_width", [2, 3])
        generated.clear()
        chaotic = self.engine(
            network,
            store=str(tmp_path / "chaotic.jsonl"),
            faults="rate=1.0,kinds=timeout",
            retry_backoff=0.0,
        )
        chaotic.run(config, "coflow_width", [2, 3])
        stats = chaotic.last_run_stats
        assert stats.retried == stats.total_tasks
        assert stats.failed == 0
        assert len(generated) == 2 * 2
        assert (tmp_path / "chaotic.jsonl").read_bytes() == (
            tmp_path / "clean.jsonl"
        ).read_bytes()


@pytest.mark.parametrize("name", sorted(SCHEME_ALIASES))
def test_schemes_leave_the_instance_they_simulate_unchanged(name):
    """The engine hands one instance to every scheme task of a config, so
    simulating must leave it equal to a freshly generated copy."""
    network = topologies.fat_tree(4)
    config = WorkloadConfig(
        num_coflows=3, coflow_width=3, seed=23, release_rate=2.0,
        coflow_arrival_rate=1.0,
    )

    def fresh():
        instance = CoflowGenerator(network, config).instance()
        if "router=given" in SCHEME_ALIASES[name]:
            instance = instance.with_paths({
                (i, j): network.shortest_path(flow.source, flow.destination)
                for i, j, flow in instance.iter_flows()
            })
        return instance

    instance = fresh()
    scheme_from_spec(name).simulate(instance, network)
    assert instance == fresh()
