"""Argument parsing and dispatch for the ``repro`` CLI.

Each subcommand lives in its own module exposing ``configure(subparsers)``
(which registers the subparser and sets ``func``); this module only builds
the top-level parser, handles ``--version`` provenance output, and
dispatches.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable, List, Optional

from ..analysis.artifacts import provenance_lines


def bounded(
    convert: Callable[[str], float], minimum: float, inclusive: bool = True
) -> Callable[[str], float]:
    """An argparse ``type`` for count and limit flags.

    Parses with ``convert`` (``int`` or ``float``) and accepts values
    ``>= minimum``, or ``> minimum`` when ``inclusive`` is false (NaN is
    never accepted).  A value out of range is a usage error naming the flag,
    so argparse exits 2 before anything runs.
    """
    relation = ">=" if inclusive else ">"

    def parse(text: str) -> float:
        value = convert(text)  # a ValueError reads "invalid int value: ..."
        if not (value >= minimum if inclusive else value > minimum):
            raise argparse.ArgumentTypeError(
                f"must be {relation} {minimum}, got {text}"
            )
        return value

    parse.__name__ = convert.__name__
    return parse


def cannot_write(command: str, path: Path, error: OSError) -> SystemExit:
    """The one-line exit of ``repro <command>`` for an output ``path`` it
    cannot write: ``error``'s reason, with the path the system refused when
    that is not ``path`` itself (a parent directory that is a file, say).
    Raise it ``from None``; it exits with status 1."""
    reason = error.strerror or str(error)
    refused = [Path(name) for name in (error.filename, error.filename2) if name]
    if refused and Path(path) not in refused:
        reason = f"{reason} ({refused[0]})"
    return SystemExit(f"repro {command}: cannot write {path}: {reason}")


def build_parser() -> argparse.ArgumentParser:
    """Build the complete ``repro`` argument parser (all subcommands)."""
    from . import bench, merge, report, run, sweep

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce Jahanjou–Kantor–Rajaraman (SPAA'17) coflow scheduling: "
            "run schemes, sweep scenario specs, render the paper's tables."
        ),
    )
    parser.add_argument(
        "--version",
        action="store_true",
        help="print the package version and provenance summary (deliberate "
        "deviations from the paper included), then exit",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for module in (run, sweep, report, merge, bench):
        module.configure(subparsers)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version:
        print("\n".join(provenance_lines()))
        return 0
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    return int(args.func(args) or 0)
