"""Shared configuration for the benchmark scripts.

Each script here measures something no ``repro bench`` suite covers: LP
assembly and build/solve scaling, the Figure-1 example and two ablations.
The paper-figure sweeps themselves run through the CLI
(``repro bench fig3 --paper-scale --tries 10 --workers 4``), which writes
its artifacts under ``--out``; this module only pins the scripts' own
results directory, ``benchmarks/results/``.

``REPRO_PAPER_SCALE=1`` adds the paper's largest workload size to the LP
scaling and assembly tables (slow with an open-source solver).
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def paper_scale() -> bool:
    """Whether to run at the paper's full scale (slow)."""
    return os.environ.get("REPRO_PAPER_SCALE", "0") not in ("", "0", "false", "False")


def record(name: str, text: str) -> None:
    """Print a report block and persist it under ``benchmarks/results/``."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
