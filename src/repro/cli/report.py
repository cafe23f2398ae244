"""``repro report`` — render an existing run store, executing nothing.

Re-renders the paper-style tables for a sweep spec from its run store
alone: no topology is simulated, no LP is solved, no instance is generated
(networks are only built to recompute store keys).  Because ``report`` and
``sweep`` read the store through the same replay and share the same row
builders and float formats, a report rendered from the store of a
completed sweep is byte-identical to the artifact files the sweep wrote,
in every format.

A partially filled store — an interrupted sweep — still renders: missing
grid cells are reported on stderr and contribute no values (schemes absent
at a point show as ``nan``).

Sharded sweeps report the same way: when ``--store`` names a directory (or
``<out>/<spec name>/shards/`` exists and no single-file store does), the
shard files are merged in memory with the fabric's semantics — torn shard
tails skipped with a warning, claim markers dropped — and any shard the
fleet manifest expects but whose file is absent is named on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Optional

from ..analysis.artifacts import export_artifacts, file_text, replay_spec
from ..analysis.engine import EngineRunStats
from ..analysis.report import REPORT_FORMATS, render_report
from ..analysis.runstore import RunStore
from .main import cannot_write, make_directory
from .sweep import (
    add_spec_arguments,
    resolve_shard_root,
    resolve_spec,
    resolve_store_path,
)


def configure(subparsers: argparse._SubParsersAction) -> None:
    """Register the ``report`` subparser."""
    parser = subparsers.add_parser(
        "report",
        help="render a run store into the paper's tables (no re-running)",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_spec_arguments(parser)
    parser.add_argument(
        "--format",
        dest="fmt",
        choices=REPORT_FORMATS,
        default="text",
        help="format printed to stdout (default: text)",
    )
    parser.add_argument(
        "--export",
        action="store_true",
        help="also (re)write the report artifacts under <out>/<spec name>/",
    )
    parser.set_defaults(func=execute)


def _recorded_stats(args: argparse.Namespace, spec) -> Optional[EngineRunStats]:
    """The engine stats the sweep wrote to run.json, if still on disk.

    ``--export`` rewrites run.json; re-using the recorded stats keeps the
    sweep's execution accounting instead of silently dropping it (the
    caller adds the missing cells, which run.json does not record).
    """
    metadata_path = Path(args.out) / spec.name / "run.json"
    if not metadata_path.exists():
        return None
    try:
        recorded = json.loads(metadata_path.read_text()).get("engine")
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(recorded, dict):
        return None
    known = {f.name for f in dataclasses.fields(EngineRunStats)}
    return EngineRunStats(**{k: v for k, v in recorded.items() if k in known})


def _sharded_store(root: Path) -> RunStore:
    """The sharded store under ``root``; the sweep fabric loads here, so
    rendering a single-file store never imports it."""
    from ..analysis.fabric import ShardedRunStore

    return ShardedRunStore(root)


def _open_store(args: argparse.Namespace, spec) -> Optional[RunStore]:
    """Open the spec's store: single-file, sharded directory, or neither.

    Resolution order: an explicit ``--store`` (file or directory), the
    default single-file location, then the default sharded fleet directory
    — so ``repro report`` works on a ``--shards`` sweep with no extra
    flags.  Returns ``None`` (after a stderr message) when nothing exists.
    """
    store_path = resolve_store_path(args, spec)
    if store_path.is_dir():
        return _sharded_store(store_path)
    if store_path.exists():
        return RunStore(store_path)
    shard_root = resolve_shard_root(args, spec)
    if args.store is None and shard_root.is_dir():
        return _sharded_store(shard_root)
    print(f"repro report: no run store at {store_path}", file=sys.stderr)
    print("run `repro sweep` first, or pass --store", file=sys.stderr)
    return None


def execute(args: argparse.Namespace) -> int:
    """Render the store; exit 1 when the store is absent, or empty with no
    shard missing.

    A sharded store whose surviving shards are all empty still renders
    (every cell NaN) after naming each lost shard: the partial-store
    contract of DESIGN §8.
    """
    spec = resolve_spec(args)
    store = _open_store(args, spec)
    if store is None:
        return 1
    store_path = store.path
    lost = store.missing_shards()
    for shard_id in lost:
        print(
            f"repro report: shard {shard_id} of {store_path} is missing "
            "(lost worker?); its tasks render as nan",
            file=sys.stderr,
        )
    if len(store) == 0 and not lost:
        print(f"repro report: run store {store_path} is empty", file=sys.stderr)
        print("run `repro sweep` first, or pass --store", file=sys.stderr)
        return 1

    run = replay_spec(spec, store)
    missing, total = run.stats.missing, run.stats.total_tasks
    if missing:
        print(
            f"repro report: store covers {total - missing}/{total} tasks "
            "(sweep incomplete; missing cells render as nan)",
            file=sys.stderr,
        )
    if run.stats.failed:
        print(
            f"repro report: {run.stats.failed} task(s) recorded as "
            "permanent failures (failed cells render as nan; re-run the "
            "sweep with --retry-failed to try them again)",
            file=sys.stderr,
        )
    if args.export:
        # Made before the report prints, so an --out that cannot be
        # written ends the command with its error line alone.
        make_directory("report", args.out, args.out / spec.name)

    sys.stdout.write(
        file_text(
            render_report(
                run.result, spec.display_title(), spec.reference, fmt=args.fmt,
                extras=run.extras,
            )
        )
    )
    if args.export:
        stats = _recorded_stats(args, spec)
        if stats is not None:
            stats.missing = missing
        try:
            paths = export_artifacts(
                args.out,
                spec,
                run.result,
                stats=stats,
                fingerprints=run.fingerprints,
                store=store,
                extras=run.extras,
            )
        except OSError as error:
            raise cannot_write("report", args.out, error) from None
        for kind in ("run", "text", "markdown", "csv"):
            print(f"  {kind:<8} -> {paths[kind]}", file=sys.stderr)
    return 0
