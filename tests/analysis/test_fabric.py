"""Tests for the distributed sweep fabric.

The fabric's load-bearing guarantees:

* **store semantics** — per-shard appends become visible to peers through
  ``refresh()``, claims are advisory and idempotent, an in-flight torn
  tail is never consumed live but is skipped (with a warning) by a final
  merge, and a success record supersedes a failure for the same key;
* **worker cooperation** — two workers draining one grid produce exactly
  the records a serial run produces (bit-identical, the determinism
  guarantee), and a worker steals tasks whose claimant died;
* **merge** — folding shard files dedups double-executions, drops claim
  markers, tolerates torn tails, and writes a plain run store any
  existing consumer loads.
"""

import json

import pytest

from repro.analysis import (
    ExperimentEngine,
    RunStore,
    ShardedRunStore,
    SpecPoint,
    SweepSpec,
    Worker,
    merge_stores,
    run_spec,
    write_merged,
)
from repro.analysis.fabric.store import shard_filename
from repro.analysis.fabric.merge import expand_sources
from repro.workloads import WorkloadConfig


@pytest.fixture
def spec():
    return SweepSpec(
        name="fabric-tiny",
        points=(
            SpecPoint(
                "a",
                WorkloadConfig(
                    topology="fat_tree(k=4)", num_coflows=2, coflow_width=2,
                    seed=41,
                ),
            ),
            SpecPoint(
                "b",
                WorkloadConfig(
                    topology="fat_tree(k=4)", num_coflows=2, coflow_width=2,
                    seed=141,
                ),
            ),
        ),
        schemes=("Baseline", "Route-only"),
        tries=2,
        reference="Baseline",
    )


def record_map(store):
    return {key: store.peek(key) for key in store._records}


class TestShardedStore:
    def test_put_visible_to_peers_after_refresh(self, tmp_path):
        s0 = ShardedRunStore(tmp_path / "s", shard_id=0, shards=2)
        s1 = ShardedRunStore(tmp_path / "s", shard_id=1, shards=2)
        s0.put("k1", {"metrics": {"x": 1.0}})
        assert s1.peek("k1") is None
        assert s1.refresh() == 1
        assert s1.peek("k1") == {"metrics": {"x": 1.0}}

    def test_claims_are_advisory_and_idempotent(self, tmp_path):
        s0 = ShardedRunStore(tmp_path / "s", shard_id=0, shards=2)
        s1 = ShardedRunStore(tmp_path / "s", shard_id=1, shards=2)
        s0.claim("k1")
        s0.claim("k1")  # idempotent: no second line
        lines = (tmp_path / "s" / shard_filename(0)).read_text().splitlines()
        assert lines == [json.dumps({"key": "k1", "claim": 0})]
        s1.refresh()
        assert s1.claimed_by_other("k1")
        assert not s0.claimed_by_other("k1")  # own claims are never "other"
        s1.claim("k1")  # double claim is legal — claims are hints
        assert s1.claimants("k1") == {0, 1}
        assert not s1.claimed_by_other("k1")

    def test_live_refresh_never_consumes_unterminated_tail(self, tmp_path):
        root = tmp_path / "s"
        s0 = ShardedRunStore(root, shard_id=0, shards=2)
        s0.put("k1", {"metrics": {}})
        # A peer crashed (or is still writing) mid-append: torn tail.
        with (root / shard_filename(1)).open("w") as handle:
            handle.write('{"key": "k2", "record"')
        view = ShardedRunStore(root, shard_id=0, shards=2)
        assert view.peek("k1") == {"metrics": {}}
        assert view.refresh() == 0  # live poll leaves the tail alone
        assert view.skipped_lines == 0

    def test_refresh_passes_over_a_shard_file_gone_since_the_glob(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "s"
        view = ShardedRunStore(root, shard_id=0, shards=2)
        # A peer restarting with --fresh unlinks its file mid-poll.
        monkeypatch.setattr(view, "shard_paths", lambda: [root / shard_filename(1)])
        assert view.refresh() == 0

    @pytest.mark.parametrize("count", [4, 1], ids=["longer", "shorter"])
    def test_refresh_rereads_a_replaced_peer_file(self, tmp_path, count):
        """A peer restarting with --fresh unlinks its shard file and starts
        a new one, which may get the old inode number back: the next poll
        reads the new file from offset 0, not from the old cursor."""
        root = tmp_path / "s"
        view = ShardedRunStore(root, shard_id=0, shards=2)
        old = ShardedRunStore(root, shard_id=1, shards=2)
        for k in range(3):
            old.put(f"old-{k}", {"metrics": {"x": float(k)}})
        assert view.refresh() == 3
        (root / shard_filename(1)).unlink()
        new = ShardedRunStore(root, shard_id=1, shards=2)
        for k in range(count):
            new.put(f"new-{k}", {"metrics": {"x": float(k)}})
        assert view.refresh() == count
        assert view.skipped_lines == 0
        assert all(view.peek(f"new-{k}") is not None for k in range(count))
        new.put("new-last", {"metrics": {}})
        assert view.refresh() == 1  # and polls resume from the new cursor

    def test_final_refresh_skips_torn_tail_with_warning(self, tmp_path, capsys):
        root = tmp_path / "s"
        s0 = ShardedRunStore(root, shard_id=0, shards=2)
        s0.put("k1", {"metrics": {}})
        line = json.dumps({"key": "k2", "record": {"metrics": {}}}) + "\n"
        with (root / shard_filename(1)).open("w") as handle:
            handle.write(line + '{"key": "k3", "rec')
        view = ShardedRunStore(root)  # merge view: final refresh
        assert view.peek("k1") is not None
        assert view.peek("k2") is not None  # intact line before the tear
        assert view.peek("k3") is None
        assert view.skipped_lines == 1
        assert "torn tail" in capsys.readouterr().err

    def test_own_torn_tail_truncated_on_next_append(self, tmp_path, capsys):
        root = tmp_path / "s"
        s0 = ShardedRunStore(root, shard_id=0, shards=1)
        s0.put("k1", {"metrics": {}})
        with (root / shard_filename(0)).open("a") as handle:
            handle.write('{"key": "k2", "rec')
        reopened = ShardedRunStore(root, shard_id=0, shards=1)
        assert reopened.skipped_lines == 1
        assert "truncates" in capsys.readouterr().err
        reopened.put("k3", {"metrics": {}})
        entries = [
            json.loads(line)
            for line in (root / shard_filename(0)).read_text().splitlines()
        ]
        assert [e["key"] for e in entries] == ["k1", "k3"]

    def test_corrupt_middle_line_in_peer_shard_is_skipped(self, tmp_path):
        root = tmp_path / "s"
        ShardedRunStore(root, shard_id=0, shards=2)
        good = json.dumps({"key": "k1", "record": {"metrics": {}}})
        (root / shard_filename(1)).write_text(f"{good}\nnot json\n")
        view = ShardedRunStore(root)
        assert view.peek("k1") is not None
        assert view.skipped_lines == 1

    def test_success_supersedes_failure_across_shards(self, tmp_path):
        root = tmp_path / "s"
        s0 = ShardedRunStore(root, shard_id=0, shards=2)
        s1 = ShardedRunStore(root, shard_id=1, shards=2)
        s0.put("k1", {"failed": True, "error": "LPInfeasibleError"})
        s1.put("k1", {"metrics": {"x": 2.0}})
        view = ShardedRunStore(root)
        assert view.peek("k1") == {"metrics": {"x": 2.0}}
        # ...and in the other fold order too: the success still wins.
        s1b = ShardedRunStore(root, shard_id=1, shards=2)
        assert s1b.peek("k1") == {"metrics": {"x": 2.0}}

    def test_manifest_and_missing_shards(self, tmp_path):
        root = tmp_path / "s"
        ShardedRunStore(root, shard_id=0, shards=3)
        assert json.loads((root / "fleet.json").read_text()) == {"shards": 3}
        view = ShardedRunStore(root)
        assert view.expected_shards == 3
        assert view.missing_shards() == [1, 2]

    def test_merge_view_is_read_only(self, tmp_path):
        ShardedRunStore(tmp_path / "s", shard_id=0, shards=1)
        view = ShardedRunStore(tmp_path / "s")
        with pytest.raises(RuntimeError):
            view.put("k", {})
        with pytest.raises(RuntimeError):
            view.claim("k")

    def test_invalid_geometry_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedRunStore(tmp_path / "s", shard_id=2, shards=2)
        with pytest.raises(ValueError):
            ShardedRunStore(tmp_path / "s", shard_id=0, shards=0)


class TestMerge:
    def test_dedups_and_drops_claims(self, tmp_path):
        root = tmp_path / "s"
        s0 = ShardedRunStore(root, shard_id=0, shards=2)
        s1 = ShardedRunStore(root, shard_id=1, shards=2)
        s0.claim("k1")
        s0.put("k1", {"metrics": {"x": 1.0}})
        s1.claim("k1")
        s1.put("k1", {"metrics": {"x": 1.0}})  # double execution
        s1.put("k2", {"metrics": {"x": 2.0}})
        records, stats = merge_stores([root])
        assert set(records) == {"k1", "k2"}
        assert stats.records == 2
        assert stats.duplicates == 1
        assert stats.claim_markers == 2

    def test_skips_torn_tail_and_warns(self, tmp_path, capsys):
        root = tmp_path / "s"
        s0 = ShardedRunStore(root, shard_id=0, shards=2)
        s0.put("k1", {"metrics": {}})
        with (root / shard_filename(1)).open("w") as handle:
            handle.write('{"key": "k2", "rec')
        records, stats = merge_stores([root])
        assert set(records) == {"k1"}
        assert stats.skipped == 1
        assert "skipped 1 torn/corrupt line(s)" in capsys.readouterr().err

    def test_write_merged_is_a_sorted_plain_store(self, tmp_path):
        root = tmp_path / "s"
        s0 = ShardedRunStore(root, shard_id=0, shards=1)
        s0.put("kb", {"metrics": {"x": 2.0}})
        s0.put("ka", {"metrics": {"x": 1.0}})
        records, _ = merge_stores([root])
        out = write_merged(records, tmp_path / "merged.jsonl")
        plain = RunStore(out)
        assert len(plain) == 2
        assert plain.peek("ka") == {"metrics": {"x": 1.0}}
        keys = [
            json.loads(line)["key"] for line in out.read_text().splitlines()
        ]
        assert keys == sorted(keys)

    def test_merges_plain_and_sharded_sources_together(self, tmp_path):
        root = tmp_path / "s"
        s0 = ShardedRunStore(root, shard_id=0, shards=1)
        s0.put("k1", {"metrics": {}})
        plain = RunStore(tmp_path / "plain.jsonl")
        plain.put("k2", {"metrics": {}})
        records, stats = merge_stores([root, tmp_path / "plain.jsonl"])
        assert set(records) == {"k1", "k2"}
        assert len(stats.sources) == 2

    def test_missing_and_empty_sources_fail_loudly(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            expand_sources([tmp_path / "nope.jsonl"])
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(FileNotFoundError):
            expand_sources([empty])


class TestWorker:
    def test_two_workers_produce_the_serial_records(self, tmp_path, spec):
        ref_store = RunStore(tmp_path / "ref.jsonl")
        ref = run_spec(spec, ref_store)
        root = tmp_path / "shards"
        stats = []
        for shard_id in range(2):
            store = ShardedRunStore(root, shard_id=shard_id, shards=2)
            worker = Worker(spec, store, steal_after=0.0, poll_interval=0.001)
            stats.append(worker.run())
        view = ShardedRunStore(root)
        # Bit-identical record map, not just equal aggregates.
        assert record_map(view) == record_map(ref_store)
        total = spec.total_tasks()
        for s in stats:
            assert s.total_tasks == total
            assert s.cached + s.ceded + s.executed == total
            assert s.failed == 0
        assert sum(s.executed for s in stats) == total
        assert ref.stats.failed == 0

    def test_resume_executes_nothing_and_counts_hits(self, tmp_path, spec):
        root = tmp_path / "shards"
        store = ShardedRunStore(root, shard_id=0, shards=1)
        Worker(spec, store, steal_after=0.0).run()
        warm = ShardedRunStore(root, shard_id=0, shards=1)
        stats = Worker(spec, warm, steal_after=0.0).run()
        assert stats.executed == 0
        assert stats.cached == spec.total_tasks()
        assert warm.hits == spec.total_tasks()  # the resume proof
        assert warm.misses == 0

    def test_steals_tasks_of_a_dead_claimant(self, tmp_path, spec):
        root = tmp_path / "shards"
        # Shard 0 claims the whole grid, then "dies" without executing.
        dead = ShardedRunStore(root, shard_id=0, shards=2)
        from repro.analysis.artifacts import build_schemes
        from repro.core.topologies import from_spec

        engine = ExperimentEngine(
            from_spec(spec.points[0].config.topology),
            build_schemes(spec.schemes),
            tries=spec.tries,
            store=dead,
        )
        for task in engine.tasks_for(spec.point_specs()):
            dead.claim(task.key)
        live = ShardedRunStore(root, shard_id=1, shards=2)
        stats = Worker(
            spec, live, steal_after=0.05, poll_interval=0.01
        ).run()
        assert stats.stolen == spec.total_tasks()
        assert stats.executed == spec.total_tasks()
        view = ShardedRunStore(root)
        assert len(view) == spec.total_tasks()

    def test_skipped_records_surface_in_worker_stats(self, tmp_path, spec):
        root = tmp_path / "shards"
        store = ShardedRunStore(root, shard_id=0, shards=2)
        (root / shard_filename(1)).write_text("garbage\n")
        stats = Worker(spec, store, steal_after=0.0).run()
        assert stats.skipped_records == 1

    def test_worker_requires_a_writable_store(self, tmp_path, spec):
        ShardedRunStore(tmp_path / "s", shard_id=0, shards=1)
        with pytest.raises(ValueError):
            Worker(spec, ShardedRunStore(tmp_path / "s"))

    def test_stats_sidecar_roundtrips(self, tmp_path, spec):
        root = tmp_path / "shards"
        store = ShardedRunStore(root, shard_id=0, shards=1)
        stats = Worker(spec, store, steal_after=0.0).run()
        path = stats.write(root)
        loaded = json.loads(path.read_text())
        assert loaded["executed"] == stats.executed
        assert loaded["shard_id"] == 0
        assert "executed" in stats.summary()
