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

Crash tolerance: a process killed mid-append (``kill -9``, OOM) leaves a
truncated trailing line.  Loading such a file skips the torn tail with a
warning on stderr instead of crashing, and remembers the byte offset of the
last intact record so the *next* append first truncates the file back to
that offset — the torn bytes can never corrupt a later record.  ``put``
writes the record and its newline in one flushed ``write`` call, so a crash
can only ever tear the final line, never interleave two records.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .. import __version__
from ..faults import maybe_inject
from ..workloads.generator import WorkloadConfig
from ..workloads.serialization import config_to_dict

__all__ = ["RunStore", "run_key"]


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


class RunStore:
    """A dict of run records, optionally mirrored to an append-only JSONL file.

    Parameters
    ----------
    path:
        JSONL file backing the store.  ``None`` keeps the store in memory
        only (still useful for intra-process caching).  Existing files are
        loaded eagerly; later records for the same key win, so appending is
        always safe.  A truncated or corrupt trailing line (a crashed
        writer) is skipped with a warning, and the next append truncates
        the file back to the last intact record before writing.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: Dict[str, Dict[str, Any]] = {}
        #: cache accounting for the current process (resume/determinism tests
        #: and benchmark reports read these).
        self.hits = 0
        self.misses = 0
        #: byte offset the next append must truncate the file to, set when
        #: loading found torn/corrupt bytes after the last intact record.
        self._resync_offset: Optional[int] = None
        #: corrupt lines skipped while loading (diagnostic for tests/tools).
        self.skipped_lines = 0
        if self.path is not None and self.path.exists():
            self._load(self.path)

    def _load(self, path: Path) -> None:
        """Parse the JSONL file, tolerating a torn tail and corrupt lines."""
        data = path.read_bytes()
        clean_end = 0  # byte offset after the last intact, parseable line
        offset = 0
        for raw in data.splitlines(keepends=True):
            line_end = offset + len(raw)
            terminated = raw.endswith(b"\n")
            stripped = raw.strip()
            if not stripped:
                if terminated:
                    clean_end = line_end
                offset = line_end
                continue
            entry: Optional[Dict[str, Any]] = None
            try:
                parsed = json.loads(stripped)
                if isinstance(parsed, dict) and "key" in parsed and "record" in parsed:
                    entry = parsed
            except json.JSONDecodeError:
                entry = None
            if entry is not None and terminated:
                self._records[entry["key"]] = entry["record"]
                clean_end = line_end
            else:
                # Torn tail (unterminated) or corrupt bytes: skip, and leave
                # clean_end pointing at the last record worth keeping.
                self.skipped_lines += 1
            offset = line_end
        if clean_end < len(data):
            # Torn/corrupt bytes at the very end: arm the truncate-on-append
            # resync so they can never prefix-corrupt a later record.
            self._resync_offset = clean_end
            print(
                f"run store {path}: skipped {self.skipped_lines} "
                f"corrupt/truncated line(s) ({len(data) - clean_end} trailing "
                "bytes); the next append truncates back to the last intact "
                "record",
                file=sys.stderr,
            )
        elif self.skipped_lines:
            # Corrupt lines in the middle of the file (each newline-terminated,
            # so later appends are safe): warn, keep the intact records.
            print(
                f"run store {path}: skipped {self.skipped_lines} "
                "corrupt line(s); intact records were kept",
                file=sys.stderr,
            )

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
        """Insert a record and (when file-backed) append it to disk.

        The line (record + newline) goes out in a single flushed ``write``,
        so a crash mid-``put`` can only tear the final line — which the
        next load skips and the next append truncates away.
        """
        maybe_inject("store")
        self._records[key] = record
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            line = json.dumps({"key": key, "record": record}, default=repr) + "\n"
            if self._resync_offset is not None:
                with self.path.open("r+") as handle:
                    handle.truncate(self._resync_offset)
                self._resync_offset = None
            with self.path.open("a") as handle:
                handle.write(line)
                handle.flush()

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (between engine passes in tests)."""
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        where = str(self.path) if self.path else "memory"
        return f"RunStore({where}, records={len(self)})"
