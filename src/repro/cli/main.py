"""Argument parsing and dispatch for the ``repro`` CLI.

Each subcommand lives in its own module exposing ``configure(subparsers)``
(which registers the subparser and sets ``func``); this module only builds
the top-level parser, handles ``--version`` provenance output, checks
``REPRO_SIM_BACKEND``, and dispatches.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path
from typing import Callable, List, Optional

from ..analysis.artifacts import provenance_lines
from ..sim.simulator import BACKENDS, validate_backend


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


def make_directory(command: str, path: Path, directory: Path) -> None:
    """Make ``directory``, where ``repro <command>`` writes ``path``, or
    exit with ``repro <command>: cannot write <path>: <reason>``.

    Commands call it before their work, so an output that cannot be
    written ends the command before anything runs or prints.
    """
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as error:
        raise cannot_write(command, path, error) from None


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
    # A bad tier name ends every command before it does any work; only the
    # name is checked, so the compiled core is not loaded here.
    backend = os.environ.get("REPRO_SIM_BACKEND", "").strip()
    try:
        validate_backend(backend or None)
    except ValueError:
        raise SystemExit(
            f"repro: REPRO_SIM_BACKEND={backend!r} names no simulator backend "
            f"(expected one of: {', '.join(BACKENDS)})"
        ) from None
    return int(args.func(args) or 0)
