"""Run-store crash tolerance: torn tails, corrupt lines, resync-on-append.

A process killed mid-append (``kill -9``, OOM) leaves a truncated trailing
line in the JSONL store.  These tests pin the recovery contract: loading
skips the torn tail with a stderr warning instead of crashing, intact
records before it all survive, and the next append first truncates the
file back to the last intact record so the torn bytes can never corrupt a
later line.  ``TestOneAnswer`` holds every reader of the line format — the
single-file store, a shard's own load, the merge view and ``merge_stores``
— to the same records, skip count and warning on the same bytes.
"""

import json

import pytest

from repro.analysis import RunStore, ShardedRunStore, merge_stores
from repro.analysis.fabric.store import shard_filename


def write_lines(path, *entries):
    path.write_text(
        "".join(json.dumps({"key": k, "record": r}) + "\n" for k, r in entries)
    )


class TestTornTail:
    def test_truncated_trailing_line_is_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        write_lines(path, ("a", {"metrics": {"m": 1.0}}))
        with path.open("a") as handle:
            handle.write('{"key": "b", "record": {"metr')  # torn mid-append

        store = RunStore(path)
        err = capsys.readouterr().err
        assert "skipped 1" in err
        assert store.skipped_lines == 1
        assert "a" in store and "b" not in store
        assert len(store) == 1

    def test_next_append_truncates_the_torn_bytes_away(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        write_lines(path, ("a", {"metrics": {"m": 1.0}}))
        clean_size = path.stat().st_size
        with path.open("a") as handle:
            handle.write('{"key": "b", "record"')

        store = RunStore(path)
        capsys.readouterr()
        store.put("c", {"metrics": {"m": 3.0}})

        lines = path.read_text().splitlines()
        assert len(lines) == 2
        entries = [json.loads(line) for line in lines]
        assert [e["key"] for e in entries] == ["a", "c"]
        assert path.read_text()[:clean_size] == path.read_text()[:clean_size]
        # The file reloads cleanly: no resync needed anymore.
        reloaded = RunStore(path)
        assert reloaded.skipped_lines == 0
        assert set(["a", "c"]) <= set(reloaded._records)

    def test_corrupt_middle_line_is_skipped_but_tail_survives(
        self, tmp_path, capsys
    ):
        path = tmp_path / "store.jsonl"
        write_lines(path, ("a", {"metrics": {"m": 1.0}}))
        with path.open("a") as handle:
            handle.write("%% not json at all %%\n")
        with path.open("a") as handle:
            handle.write(
                json.dumps({"key": "b", "record": {"metrics": {"m": 2.0}}}) + "\n"
            )

        store = RunStore(path)
        err = capsys.readouterr().err
        assert store.skipped_lines == 1
        assert "skipped 1" in err
        assert "a" in store and "b" in store

    def test_unterminated_but_parseable_tail_is_still_distrusted(
        self, tmp_path, capsys
    ):
        # A line without its newline may be missing trailing bytes that
        # happen to still parse; the store must not trust it.
        path = tmp_path / "store.jsonl"
        write_lines(path, ("a", {"metrics": {"m": 1.0}}))
        with path.open("a") as handle:
            handle.write(json.dumps({"key": "b", "record": {"metrics": {}}}))

        store = RunStore(path)
        capsys.readouterr()
        assert "b" not in store
        assert store.skipped_lines == 1

    def test_clean_store_loads_silently(self, tmp_path, capsys):
        path = tmp_path / "store.jsonl"
        write_lines(path, ("a", {"metrics": {"m": 1.0}}), ("b", {"metrics": {}}))
        store = RunStore(path)
        assert capsys.readouterr().err == ""
        assert store.skipped_lines == 0
        assert len(store) == 2


class TestAppendAtomicity:
    def test_put_writes_one_terminated_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = RunStore(path)
        store.put("a", {"metrics": {"m": 1.0}})
        store.put("b", {"metrics": {"m": 2.0}})
        text = path.read_text()
        assert text.endswith("\n")
        assert [json.loads(l)["key"] for l in text.splitlines()] == ["a", "b"]

    def test_memory_only_store_never_touches_disk(self, tmp_path):
        store = RunStore(None)
        store.put("a", {"metrics": {}})
        assert store.peek("a") == {"metrics": {}}
        assert list(tmp_path.iterdir()) == []


class TestFailureRecordsInStore:
    def test_failure_records_round_trip(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = RunStore(path)
        record = {
            "failed": True,
            "error": "LPInfeasibleError",
            "message": "boom",
            "attempts": 3,
            "elapsed": 0.5,
        }
        store.put("a", record)
        reloaded = RunStore(path)
        assert reloaded.peek("a") == record

    def test_later_record_for_same_key_wins(self, tmp_path):
        # retry_failed appends a success under the same key; reloads must
        # prefer the newer record.
        path = tmp_path / "store.jsonl"
        store = RunStore(path)
        store.put("a", {"failed": True, "error": "X", "message": "", "attempts": 1})
        store.put("a", {"metrics": {"m": 1.0}})
        reloaded = RunStore(path)
        assert reloaded.peek("a") == {"metrics": {"m": 1.0}}


GOOD_A = json.dumps({"key": "a", "record": {"metrics": {"m": 1.0}}}) + "\n"
GOOD_C = json.dumps({"key": "c", "record": {"metrics": {"m": 3.0}}}) + "\n"

#: case -> (file contents, record keys that survive, lines skipped)
READER_CASES = {
    "torn tail": (GOOD_A + '{"key": "b", "record": {"metr', {"a"}, 1),
    "complete but unterminated line": (
        GOOD_A + json.dumps({"key": "b", "record": {}}), {"a"}, 1
    ),
    "whitespace-only unterminated tail": (GOOD_A + " \t ", {"a"}, 0),
    "corrupt middle line": (GOOD_A + "%% not json %%\n" + GOOD_C, {"a", "c"}, 1),
    "claim line": (json.dumps({"key": "b", "claim": 0}) + "\n" + GOOD_A, {"a"}, 0),
    "key not a string": (
        GOOD_A + json.dumps({"key": ["a"], "record": {}}) + "\n", {"a"}, 1
    ),
    "record not an object": (
        GOOD_A + json.dumps({"key": "a", "record": [1, 2]}) + "\n", {"a"}, 1
    ),
}


class TestOneAnswer:
    @staticmethod
    def answers(tmp_path, contents, capsys):
        """``(records, skipped, stderr)`` from each reader of ``contents``."""
        single = tmp_path / "store.jsonl"
        single.write_text(contents)
        root = tmp_path / "shards"
        root.mkdir()
        (root / shard_filename(0)).write_text(contents)
        readers = {
            "RunStore": lambda: RunStore(single),
            "own shard": lambda: ShardedRunStore(root, shard_id=0, shards=1),
            "merge view": lambda: ShardedRunStore(root),
        }
        for name, open_store in readers.items():
            store = open_store()
            err = capsys.readouterr().err
            yield name, dict(store._records), store.skipped_lines, err
        records, stats = merge_stores([root])
        yield "merge_stores", records, stats.skipped, capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_every_reader_gives_the_same_answer(self, case, tmp_path, capsys):
        contents, keys, skipped = READER_CASES[case]
        expected = {
            key: json.loads(GOOD_A if key == "a" else GOOD_C)["record"]
            for key in keys
        }
        for name, records, count, err in self.answers(tmp_path, contents, capsys):
            assert records == expected, name
            assert count == skipped, name
            if skipped:
                assert f"skipped {skipped} torn/corrupt line(s)" in err, name
            else:
                assert err == "", name
