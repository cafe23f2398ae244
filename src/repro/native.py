"""One loader for the package's compiled C cores.

Two hot loops ship as embedded C99 source: the simulator's greedy event
loop (:mod:`repro.sim.kernel_jit`) and Yen's candidate-path enumeration
(:mod:`repro.core.network`).  A :class:`CompiledCore` builds its source with
the system C compiler the first time it is needed, caches the shared
library on disk under a name keyed by the source digest, and loads it
through :mod:`ctypes`; later processes only load it.  ``CC`` names the
compiler (default ``cc``) and ``REPRO_JIT_CACHE`` the cache directory
(default ``~/.cache/repro/jit``); both govern every core.  A core that
cannot be built is unavailable and records why, and its caller runs the
Python implementation the core was ported from.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Optional

__all__ = ["CompiledCore"]


def _cache_dir() -> Path:
    """Where compiled cores are cached (override via ``REPRO_JIT_CACHE``)."""
    override = os.environ.get("REPRO_JIT_CACHE", "").strip()
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "jit"


def _compile(source: str, target: Path) -> None:
    """Build ``target`` (a shared library) from embedded C source."""
    target.parent.mkdir(parents=True, exist_ok=True)
    compiler = os.environ.get("CC", "cc")
    with tempfile.TemporaryDirectory(dir=str(target.parent)) as tmp:
        c_file = Path(tmp) / f"{target.stem}.c"
        c_file.write_text(source)
        out = Path(tmp) / target.name
        subprocess.run(
            [
                compiler,
                "-O2",
                "-fPIC",
                "-shared",
                # FMA contraction would change double rounding and break the
                # simulator core's bit-identity contract with the Python tier.
                "-ffp-contract=off",
                "-o",
                str(out),
                str(c_file),
                "-lm",
            ],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(out, target)  # atomic when processes compile at once


class CompiledCore:
    """One embedded C source, built and loaded at most once per process.

    The library is cached as ``<name>_<digest>.so``; ``what`` names the
    core in messages, and ``declare`` sets the argument and result types of
    the loaded library's functions.  Nothing is built until :meth:`load`.
    """

    def __init__(
        self,
        name: str,
        what: str,
        source: str,
        declare: Callable[[ctypes.CDLL], None],
    ) -> None:
        self.name = name
        self.what = what
        self.source = source
        self._declare = declare
        #: The loaded library, its cache path, or why it could not be built.
        self.lib: Optional[ctypes.CDLL] = None
        self.path: Optional[Path] = None
        self.error: Optional[str] = None

    def load(self) -> Optional[ctypes.CDLL]:
        """Compile (once, disk-cached) and load the core; ``None`` on failure."""
        if self.lib is not None or self.error is not None:
            return self.lib
        digest = hashlib.sha256(self.source.encode()).hexdigest()[:16]
        target = _cache_dir() / f"{self.name}_{digest}.so"
        try:
            if not target.exists():
                _compile(self.source, target)
            lib = ctypes.CDLL(str(target))
            self._declare(lib)
        except subprocess.CalledProcessError as error:
            detail = error.stderr.strip() or (
                f"{error.cmd[0]} exited with status {error.returncode}"
            )
            self.error = f"could not build the compiled {self.what}: {detail}"
            return None
        except OSError as error:
            self.error = f"could not build the compiled {self.what}: {error}"
            return None
        self.lib, self.path = lib, target
        return lib

    def describe(self) -> str:
        """Where the core loads from, or why it is unavailable (one line)."""
        if self.load() is not None:
            return f"compiled, loaded from {self.path}"
        return f"unavailable ({self.error.splitlines()[0]})"
