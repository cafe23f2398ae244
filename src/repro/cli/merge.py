"""``repro merge`` — fold shard stores into one plain run-store file.

Takes any mix of sharded store directories and JSONL store files —
complete fleets, partial fleets, a single crashed shard — and folds them
into one single-file run store that every existing consumer (``repro
report``, the bench wrappers, post-processing) reads unchanged.  Nothing
is re-simulated: the fold is pure record bookkeeping, with the fabric's
merge semantics (duplicates collapse, a success supersedes a failure for
the same key, claim markers drop, torn shard tails are skipped with a
warning instead of aborting).  See docs/fabric.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .main import cannot_write


def configure(subparsers: argparse._SubParsersAction) -> None:
    """Register the ``merge`` subparser."""
    parser = subparsers.add_parser(
        "merge",
        help="fold sharded run stores into one plain run-store file",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "stores",
        nargs="+",
        type=Path,
        metavar="STORE",
        help="sharded store directories and/or run-store JSONL files",
    )
    parser.add_argument(
        "-o",
        "--output",
        type=Path,
        default=Path("merged-runstore.jsonl"),
        metavar="FILE",
        help="merged single-file store to write "
        "(default: ./merged-runstore.jsonl)",
    )
    parser.set_defaults(func=execute)


def execute(args: argparse.Namespace) -> int:
    """Merge the stores; exit 1 when an input is missing or empty."""
    from ..analysis.fabric import merge_stores, write_merged

    try:
        records, stats = merge_stores(args.stores)
    except FileNotFoundError as error:
        print(f"repro merge: {error}", file=sys.stderr)
        return 1
    if not records:
        print(
            "repro merge: no records found in "
            + ", ".join(str(path) for path in args.stores),
            file=sys.stderr,
        )
        return 1
    try:
        out = write_merged(records, args.output)
    except OSError as error:
        raise cannot_write("merge", args.output, error) from None
    print(stats.summary())
    print(f"  merged   -> {out}")
    return 0
