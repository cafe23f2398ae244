"""Streaming merge of shard stores into one record map / plain store file.

``repro merge`` (and the coordinator half of ``repro sweep --shards N``)
fold any subset of shard stores — whole store directories or individual
``shard-*.jsonl`` files, sharded and single-file stores alike — into one
record mapping without re-simulating anything.  The fold is the sharded
store's own conflict logic:

* duplicate result records for one key collapse (they are bit-identical by
  construction — same key means same topology fingerprint, config incl.
  seed, and scheme signature);
* a success record supersedes a failure record for the same key (how
  ``--retry-failed`` heals across shards);
* claim markers are counted and dropped — they are queue state, not data;
* torn shard tails and corrupt lines are skipped with a stderr warning
  naming the file, never aborting the merge, and surface in
  :class:`MergeStats` (and from there in ``EngineRunStats``).

:func:`write_merged` emits the merged map as a plain single-file
:class:`~repro.analysis.runstore.RunStore` JSONL, so every existing
consumer (``repro report``, the bench wrappers, post-processing scripts)
reads fleet output with zero changes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple, Union

from .store import SHARD_GLOB, parse_shard_entry

__all__ = ["MergeStats", "expand_sources", "merge_stores", "write_merged"]


@dataclass
class MergeStats:
    """Accounting for one :func:`merge_stores` fold."""

    #: shard files actually read, in fold order.
    sources: List[str] = field(default_factory=list)
    #: distinct keys with a record in the merged view.
    records: int = 0
    #: result records dropped as duplicates (bit-identical re-executions).
    duplicates: int = 0
    #: claim markers dropped (queue state, not data).
    claim_markers: int = 0
    #: torn/corrupt lines skipped across all sources.
    skipped: int = 0

    def summary(self) -> str:
        """One status line for the CLI, e.g. ``merged 3 store(s): ...``."""
        line = (
            f"merged {len(self.sources)} store(s): {self.records} record(s), "
            f"{self.duplicates} duplicate(s), {self.claim_markers} claim "
            f"marker(s)"
        )
        if self.skipped:
            line += f", {self.skipped} skipped line(s)"
        return line


def expand_sources(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Resolve merge inputs to concrete JSONL files.

    A directory expands to its sorted ``shard-*.jsonl`` members (an empty
    or missing shard directory is an error — a lost fleet should fail
    loudly, not merge to nothing); a file path is taken as-is, so plain
    single-file stores merge right next to shard files.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            members = sorted(path.glob(SHARD_GLOB))
            if not members:
                raise FileNotFoundError(
                    f"store directory {path} contains no {SHARD_GLOB} files"
                )
            files.extend(members)
        elif path.exists():
            files.append(path)
        else:
            raise FileNotFoundError(f"no store at {path}")
    return files


def merge_stores(
    paths: Iterable[Union[str, Path]], warn: bool = True
) -> Tuple[Dict[str, Dict[str, Any]], MergeStats]:
    """Fold shard stores into ``(records, stats)`` without re-simulation.

    Sources are folded in :func:`expand_sources` order; within one file
    later records win (the single-file store's append semantics), across
    files a success supersedes a failure and identical successes collapse.
    Torn tails and corrupt lines are skipped — with a stderr warning naming
    the file when ``warn`` — and counted in ``stats.skipped``.
    """
    records: Dict[str, Dict[str, Any]] = {}
    source_of: Dict[str, str] = {}
    stats = MergeStats()
    for path in expand_sources(paths):
        stats.sources.append(str(path))
        data = path.read_bytes()
        file_skipped = 0
        for raw in data.splitlines(keepends=True):
            stripped = raw.strip()
            if not stripped:
                continue
            entry = parse_shard_entry(stripped)
            if entry is None or not raw.endswith(b"\n"):
                file_skipped += 1
                continue
            if "claim" in entry:
                stats.claim_markers += 1
                continue
            key, record = entry["key"], entry["record"]
            existing = records.get(key)
            if existing is None:
                records[key] = record
                source_of[key] = str(path)
                continue
            stats.duplicates += 1
            if source_of[key] == str(path):
                records[key] = record  # later wins within one file
            elif existing.get("failed") and not record.get("failed"):
                records[key] = record  # success heals a foreign failure
                source_of[key] = str(path)
        if file_skipped:
            stats.skipped += file_skipped
            if warn:
                print(
                    f"merge: skipped {file_skipped} torn/corrupt line(s) in "
                    f"{path}; remaining records were merged",
                    file=sys.stderr,
                )
    stats.records = len(records)
    return records, stats


def write_merged(
    records: Dict[str, Dict[str, Any]], out: Union[str, Path]
) -> Path:
    """Write a merged record map as a plain single-file run store.

    Keys are emitted in sorted order (the map is content-addressed, so any
    order is valid — sorting makes equal fleets produce byte-identical
    files).  Written to a temp sibling and atomically renamed, so a merge
    can never leave a half-written store behind; the temp file goes when
    the write or the rename fails.
    """
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    try:
        with tmp.open("w") as handle:
            for key in sorted(records):
                handle.write(
                    json.dumps({"key": key, "record": records[key]}, default=repr)
                    + "\n"
                )
        tmp.replace(out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return out
