"""On-disk run store for the experiment engine.

Every simulated (topology, workload config, seed, scheme) combination is one
*run*; the store maps a stable digest of that key to the run's scalar
metrics.  Records are appended to a JSONL file as results arrive, so an
interrupted sweep loses at most the in-flight tasks and a re-invocation
resumes from what is already on disk; repeated benchmark invocations hit the
cache instead of re-solving LPs and re-simulating.

Layout: one JSON object per line, ``{"key": <digest>, "record": {...}}``.
The record carries the full key fields (topology fingerprint, config dict,
scheme signature) alongside the metrics, so a store file is self-describing
and can be post-processed without the engine.

This module holds the file format for every store, single-file and sharded
alike: one line reader (:func:`read_lines`), one fold
(:meth:`RunStore._fold`) and one append (:meth:`RunStore._append`).  The
line grammar, the skip/warn/resync rule and the fold rule are stated once,
in DESIGN.md §7 (the run-store bullet).  In short: a crash can only tear
the final line, loading skips torn and corrupt lines with a warning on
stderr instead of crashing, and the owner's next append first truncates a
torn tail away, so the torn bytes can never corrupt a later record.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from .. import __version__
from ..faults import maybe_inject
from ..workloads.generator import WorkloadConfig
from ..workloads.serialization import config_to_dict

__all__ = ["RunStore", "read_lines", "run_key"]

#: One valid line: ``(key, record, None)`` or ``(key, None, claimant)``.
Entry = Tuple[str, Optional[Dict[str, Any]], Optional[int]]


def run_key(topology_fingerprint: str, config: WorkloadConfig, scheme_signature: str) -> str:
    """Digest identifying one run: (topology, config incl. seed, scheme).

    The config dict includes the instance seed, so every random try of a
    sweep point gets its own key.  The package version is mixed in so stores
    invalidate across releases; *within* a development version the store
    cannot see code changes — delete the store file after editing scheme or
    simulator logic (``repro bench`` stores live under
    ``<out>/<suite>/runstore.jsonl``).
    """
    payload = json.dumps(
        {
            "version": __version__,
            "topology": topology_fingerprint,
            "config": config_to_dict(config),
            "scheme": scheme_signature,
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def read_lines(path: Path, offset: int = 0) -> Tuple[List[Entry], int, int, bytes]:
    """Split the bytes of ``path`` past ``offset`` into run-store lines.

    Returns ``(entries, corrupt, end, tail)``: the valid entries in file
    order, the number of corrupt lines, the byte offset just past the last
    newline, and the bytes after it (the torn tail, or nothing).  A valid
    entry is a JSON object with a string ``key`` and either an object
    ``record`` or an integer ``claim``; any other non-blank,
    newline-terminated line is corrupt, and blank lines are ignored.
    """
    with path.open("rb") as handle:
        handle.seek(offset)
        data = handle.read()
    *lines, tail = data.split(b"\n")
    entries: List[Entry] = []
    corrupt = 0
    for line in lines:
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:  # not JSON, or not UTF-8
            entry = None
        if isinstance(entry, dict) and isinstance(entry.get("key"), str):
            if isinstance(entry.get("record"), dict):
                entries.append((entry["key"], entry["record"], None))
                continue
            if "record" not in entry and type(entry.get("claim")) is int:
                entries.append((entry["key"], None, entry["claim"]))
                continue
        corrupt += 1
    return entries, corrupt, offset + len(data) - len(tail), tail


class RunStore:
    """A dict of run records, optionally mirrored to an append-only JSONL file.

    Parameters
    ----------
    path:
        JSONL file backing the store.  ``None`` keeps the store in memory
        only (still useful for intra-process caching).  Existing files are
        loaded eagerly; later records for the same key win, so appending is
        always safe.  Torn and corrupt lines are skipped with a warning,
        and the next append truncates a torn tail away before writing.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: Dict[str, Dict[str, Any]] = {}
        #: key -> file that supplied its record (the fold's cross-file rule).
        self._source: Dict[str, Optional[Path]] = {}
        #: key -> shard ids whose claim markers were read (the shard queue).
        self._claims: Dict[str, Set[int]] = {}
        #: cache accounting for the current process (resume/determinism tests
        #: and benchmark reports read these).
        self.hits = 0
        self.misses = 0
        #: torn/corrupt lines skipped while reading (diagnostic for tools).
        self.skipped_lines = 0
        #: the one file this store appends to (``None``: nothing to write).
        self._file = self.path
        #: offset the next append truncates the file to (a torn tail).
        self._resync: Optional[int] = None
        if self.path is not None and self.path.exists():
            self._read(self.path)

    # --------------------------------------------------------------- format
    def _read(
        self, path: Path, offset: int = 0, live: bool = False
    ) -> Tuple[int, int, int]:
        """Fold the lines of ``path`` past ``offset`` into the store.

        Corrupt lines are skipped, counted in ``skipped_lines`` and warned
        about.  A torn tail is left unread when ``live`` (a writer may still
        be completing it); otherwise it is skipped, counted once and warned
        about, and when ``path`` is this store's own file the next append
        truncates it away.  Returns ``(consumed, duplicates, claims)``: the
        offset the next read of ``path`` starts from, and :meth:`_fold`'s
        counts.
        """
        entries, corrupt, end, tail = read_lines(path, offset)
        duplicates, claims = self._fold(entries, path)
        torn = not live and bool(tail.strip())
        owner = path == self._file
        if owner and tail:
            self._resync = end
        if corrupt or torn:
            self.skipped_lines += corrupt + torn
            tear = f" (a torn tail of {len(tail)} byte(s))" if torn else ""
            cut = "; the next append truncates it away" if owner and torn else ""
            print(
                f"run store {path}: skipped {corrupt + torn} torn/corrupt "
                f"line(s){tear}; intact records were kept{cut}",
                file=sys.stderr,
            )
        return (end if live else end + len(tail)), duplicates, claims

    def _fold(
        self, entries: Iterable[Entry], source: Optional[Path]
    ) -> Tuple[int, int]:
        """Fold ``entries``, read in order from ``source``, into the store.

        The one rule for which record wins a key: a later record wins
        within one file (how ``--retry-failed`` heals a failure), and
        across files a success supersedes a failure; otherwise the record
        already held stays (equal keys mean bit-identical results).  Claim
        markers go to the shard queue.  Returns ``(duplicates, claims)``:
        the records whose key already held one, and the claim markers.
        """
        duplicates = claims = 0
        for key, record, claimant in entries:
            if record is None:
                self._claims.setdefault(key, set()).add(claimant)
                claims += 1
                continue
            held = self._records.get(key)
            if (
                held is None
                or self._source[key] == source
                or (held.get("failed") and not record.get("failed"))
            ):
                self._records[key] = record
                self._source[key] = source
            duplicates += held is not None
        return duplicates, claims

    def _append(self, entry: Dict[str, Any]) -> None:
        """Append one line to this store's file, resyncing first.

        A torn tail found on load is truncated away, then the line and its
        newline go out in a single flushed ``write``, so a crash mid-append
        can only tear the final line.
        """
        assert self._file is not None
        line = json.dumps(entry, default=repr) + "\n"
        self._file.parent.mkdir(parents=True, exist_ok=True)
        if self._resync is not None:
            with self._file.open("r+") as handle:
                handle.truncate(self._resync)
            self._resync = None
        with self._file.open("a") as handle:
            handle.write(line)
            handle.flush()

    # ------------------------------------------------------------------ query
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Look up a record, counting the hit or miss."""
        record = self._records.get(key)
        if record is None:
            self.misses += 1
        else:
            self.hits += 1
        return record

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """Look up a record without touching the hit/miss counters."""
        return self._records.get(key)

    def missing_shards(self) -> List[int]:
        """Ids of lost shard files: none, a single-file store has no shards."""
        return []

    # ----------------------------------------------------------------- update
    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Insert a record and (when file-backed) append it to disk."""
        maybe_inject("store")
        self._fold([(key, record, None)], self._file)
        if self._file is not None:
            self._append({"key": key, "record": record})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.path) if self.path else "memory"
        return f"RunStore({where}, records={len(self)})"
