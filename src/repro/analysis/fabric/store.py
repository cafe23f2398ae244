"""Sharded, content-addressed run store with a lock-free claim protocol.

One sweep, N independent writers.  A :class:`ShardedRunStore` is a directory
of per-shard JSONL files (``shard-0000.jsonl``, ``shard-0001.jsonl``, ...):
every worker appends *only* to its own shard file and reads all the others,
so no byte is ever written by two processes and no file lock is needed.
Records keep the exact :func:`~repro.analysis.runstore.run_key` content
addressing of the single-file :class:`~repro.analysis.runstore.RunStore` —
``(topology fingerprint, config incl. seed, scheme signature)`` — which is
what makes the whole design safe:

* **claims are advisory, not locks.**  Before executing a task a worker
  appends an idempotent *claim marker* (``{"key": ..., "claim": <shard>}``)
  to its own shard file.  Other workers that see the claim prefer untaken
  work, but a claim never *forbids* execution: results under the same key
  are bit-identical (every task derives all randomness from its config
  seed), so the worst race outcome is one redundant simulation whose record
  merges away;
* **the task queue is the grid itself.**  Every worker derives the same
  (point x try x scheme) task list from the spec and pulls whatever is
  neither recorded nor claimed — workers join, die and resume freely, with
  no partitioning step and no coordinator state;
* **merging is a fold.**  Any subset of shard files merges into one record
  map without re-simulation; conflicting records cannot exist, only
  duplicates (dropped) and failure records (superseded by a success for
  the same key, which is how ``--retry-failed`` heals across shards).

Every shard file has the single-file store's line format and goes through
its one reader, fold and append (DESIGN.md §7, the run-store bullet): a
worker killed mid-append leaves a torn tail in *its* file only, which the
owning shard truncates away before its next append (claims are intact
lines too).
Peer polls never consume an unterminated tail, since a live writer may
still be completing it; a merge view skips it with a warning, counting it
in ``skipped_lines`` so reports can surface the loss.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from ..runstore import RunStore

__all__ = [
    "ShardedRunStore",
    "SHARD_GLOB",
    "MANIFEST_NAME",
    "shard_filename",
]

#: Glob matching the per-shard record files inside a store directory.
SHARD_GLOB = "shard-*.jsonl"

#: Fleet manifest file inside the store directory: ``{"shards": N}``,
#: written once so later readers know how many shards were *expected* and
#: can name the missing ones instead of rendering a silently partial report.
MANIFEST_NAME = "fleet.json"


def shard_filename(shard_id: int) -> str:
    """The record file name owned by shard ``shard_id`` (zero-padded)."""
    return f"shard-{shard_id:04d}.jsonl"


class ShardedRunStore(RunStore):
    """A run store sharded across per-worker JSONL files in one directory.

    Drop-in for :class:`~repro.analysis.runstore.RunStore` everywhere the
    engine and artifact layers accept one (``get``/``peek``/``put`` plus
    the hit/miss counters), with the sharding surface on top:
    :meth:`refresh` folds the other shards' new records in, :meth:`claim`
    appends an advisory claim marker, and :meth:`claimed_by_other` is what
    the worker loop consults before picking a task.

    Parameters
    ----------
    root:
        The store directory.  Created (with a fleet manifest) when opened
        for writing; merely read when opened as a merge view.
    shard_id:
        This process's shard number — the one file this instance may append
        to.  ``None`` opens a read-only *merge view* over every shard file
        present (used by ``repro report`` and ``repro merge``), performing
        a final refresh that warns about torn shard tails instead of
        aborting.
    shards:
        Expected fleet size, recorded in the manifest so partial fleets are
        detectable later.  Optional for merge views (the manifest, when
        present, supplies it).
    """

    def __init__(
        self,
        root: Union[str, Path],
        shard_id: Optional[int] = None,
        shards: Optional[int] = None,
    ) -> None:
        if shard_id is not None and shard_id < 0:
            raise ValueError("shard_id must be non-negative")
        if shards is not None and shards < 1:
            raise ValueError("need at least one shard")
        if shard_id is not None and shards is not None and shard_id >= shards:
            raise ValueError(
                f"shard_id {shard_id} out of range for {shards} shard(s)"
            )
        super().__init__(None)  # in-memory base: records + hit/miss counters
        self.root = Path(root)
        #: exposed as the store's location for provenance (run.json).
        self.path = self.root
        self.shard_id = shard_id
        self.declared_shards = shards
        #: peer shard file -> byte offset consumed so far (terminated lines).
        self._cursors: Dict[Path, int] = {}
        if self.shard_id is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            self._ensure_manifest()
            self._file = self.root / shard_filename(self.shard_id)
            # An idle shard (everything cached or ceded) still leaves its
            # file behind, so missing_shards() means "never started", not
            # "had nothing to write".
            self._file.touch(exist_ok=True)
            self._read(self._file)
        self.refresh(final=self.shard_id is None)

    # -------------------------------------------------------------- identity
    @property
    def expected_shards(self) -> Optional[int]:
        """Fleet size: the constructor's ``shards`` or the manifest's."""
        if self.declared_shards is not None:
            return self.declared_shards
        manifest = self.root / MANIFEST_NAME
        if manifest.exists():
            try:
                declared = json.loads(manifest.read_text()).get("shards")
                if isinstance(declared, int) and declared >= 1:
                    return declared
            except (OSError, json.JSONDecodeError):
                return None
        return None

    def shard_paths(self) -> List[Path]:
        """Every shard record file currently present, sorted by shard id."""
        return sorted(self.root.glob(SHARD_GLOB)) if self.root.exists() else []

    def missing_shards(self) -> List[int]:
        """Expected shard ids with no record file on disk (lost shards)."""
        expected = self.expected_shards
        if expected is None:
            return []
        return [
            k
            for k in range(expected)
            if not (self.root / shard_filename(k)).exists()
        ]

    def _ensure_manifest(self) -> None:
        """Write the fleet manifest once (idempotent, atomic rename)."""
        if self.declared_shards is None:
            return
        manifest = self.root / MANIFEST_NAME
        if manifest.exists():
            return
        tmp = manifest.with_suffix(f".tmp-{self.shard_id}")
        tmp.write_text(json.dumps({"shards": self.declared_shards}) + "\n")
        tmp.replace(manifest)

    # --------------------------------------------------------------- loading
    def refresh(self, final: bool = False) -> int:
        """Fold other shards' newly appended lines into the merged view.

        Incremental and cheap: each shard file is read only past the byte
        offset already consumed.  An *unterminated* trailing line is left
        for the next refresh — a live writer may still be completing it —
        unless ``final`` is true (a merge, not a poll), in which case the
        torn tail is skipped with a warning naming the shard file and
        counted in ``skipped_lines`` instead of aborting the merge.
        Returns the number of new result records folded in.
        """
        before = len(self)
        for path in self.shard_paths():
            if path == self._file:
                continue  # the own shard is read once, at open
            offset = self._cursors.get(path, 0)
            try:
                self._cursors[path] = self._read(path, offset, live=not final)[0]
            except FileNotFoundError:
                continue  # gone since the glob: a peer restarting --fresh
        return len(self) - before

    # ------------------------------------------------------------ the queue
    def claimants(self, key: str) -> Set[int]:
        """Shard ids that have appended a claim marker for ``key``."""
        return set(self._claims.get(key, ()))

    def claimed_by_other(self, key: str) -> bool:
        """True when only *other* shards have claimed ``key``.

        A key this shard has claimed itself is never "other": resume must
        treat our own stale claims as ours to finish.
        """
        claimants = self._claims.get(key)
        if not claimants:
            return False
        return self.shard_id not in claimants

    def claim(self, key: str) -> None:
        """Append an advisory claim marker for ``key`` to our shard file.

        Idempotent: re-claiming a key this shard already claimed appends
        nothing.  Claims are hints for load balancing, not locks — see the
        module docstring for why double execution is safe.
        """
        if self.shard_id is None:
            raise RuntimeError("merge views are read-only; open with shard_id")
        if self.shard_id in self._claims.get(key, ()):
            return
        self._claims.setdefault(key, set()).add(self.shard_id)
        self._append({"key": key, "claim": self.shard_id})

    # ----------------------------------------------------------------- write
    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Insert a record and append it to this worker's own shard file.

        The single-file store's ``put``: same fold, same crash contract,
        and the fault-injection ``store`` site fires here too, so chaos
        sweeps exercise the sharded path unchanged.
        """
        if self.shard_id is None:
            raise RuntimeError("merge views are read-only; open with shard_id")
        super().put(key, record)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        who = "merge-view" if self.shard_id is None else f"shard {self.shard_id}"
        return (
            f"ShardedRunStore({self.root}, {who}, records={len(self)}, "
            f"claims={len(self._claims)})"
        )
