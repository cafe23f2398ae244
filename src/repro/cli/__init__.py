"""The ``repro`` command-line interface.

One operator-facing entry point for the whole reproduction (installed as the
``repro`` console script; also reachable as ``python -m repro``):

* ``repro run``    — one instance x scheme, JSON result on stdout;
* ``repro sweep``  — a declarative YAML/JSON sweep spec through the
  experiment engine (parallel workers, resume-by-default run store,
  artifact export);
* ``repro report`` — re-render an existing run store into the paper's
  tables (text/Markdown/CSV) without running anything;
* ``repro bench``  — the paper-figure suites (fig3, fig4, headline, table1,
  scenario-matrix, online, simulator, streaming, pipeline-matrix, pipeline);
* ``repro --version`` — package version plus the provenance/deviation
  summary of DESIGN.md §8.

The CLI is a thin shell: all logic lives in
:mod:`repro.analysis.artifacts` (specs, scheme resolution, artifact export)
and :mod:`repro.analysis.report` (renderers), so everything the CLI does is
equally reachable from Python.
"""

from .main import build_parser, main

__all__ = ["main", "build_parser"]
