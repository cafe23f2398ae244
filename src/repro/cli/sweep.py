"""``repro sweep`` — run a declarative sweep spec end-to-end.

Loads a YAML/JSON sweep spec (see :mod:`repro.analysis.artifacts`), drives
the experiment engine over its (point x try x scheme) grid — optionally
over ``--workers`` processes — and exports durable artifacts under
``--out/<spec name>/``: the resumable run store, ``run.json`` metadata with
full provenance, and the paper-style tables as text/Markdown/CSV.

Resume is the default: the run store is loaded if it exists and tasks
already recorded are never re-executed, so an interrupted sweep continues
where it stopped and a completed sweep re-invoked is pure aggregation.
``--fresh`` deletes the store first for a guaranteed cold run.

The sweep is fault-tolerant: transient task errors (timeouts, killed
workers) are retried with backoff up to ``--max-retries`` times, and
permanent errors (e.g. an infeasible LP) become structured *failure
records* in the run store — the sweep completes, the failed cells render
as ``nan`` plus a failures block, and the exit status reflects coverage:
0 when at least ``--min-coverage`` of the grid succeeded (default 1.0,
i.e. any failure is nonzero), 3 otherwise.  ``--retry-failed`` re-runs
recorded failures on resume; ``--inject-faults`` enables the
deterministic chaos harness (see docs/robustness.md).

``--shards N`` distributes the sweep over the fabric (docs/fabric.md):
N shard workers cooperatively drain the same grid through a sharded run
store (default ``<out>/<spec name>/shards/``), each claiming tasks with
idempotent claim markers and stealing stale claims after ``--steal-after``
seconds.  Without ``--shard-id`` this process coordinates — it spawns the
N workers, waits, merges every shard into one report, and exits 3 naming
any lost shard; with ``--shard-id K`` it *is* worker K (run one per host
against a shared directory for multi-host sweeps).  A lost shard degrades
to exit 3 with a stderr warning, never to a silently partial report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..analysis.artifacts import (
    SweepSpec,
    export_artifacts,
    load_spec,
    result_from_store,
    results_from_store,
    run_spec,
    spec_networks,
    stats_summary,
)
from ..analysis.engine import EngineRunStats
from ..analysis.report import render_report
from ..analysis.runstore import RunStore
from ..faults import FaultConfig
from .main import bounded, cannot_write, make_directory

#: Exit status when the sweep completed but coverage fell below
#: ``--min-coverage`` (distinct from argparse's 2 and generic failure's 1).
EXIT_COVERAGE = 3


def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by ``sweep`` and ``report`` (must match for the
    two commands to agree on run-store keys)."""
    parser.add_argument("spec", type=Path, help="YAML/JSON sweep spec file")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="shrink the spec to CI size (1 try, tiny instances, same grid)",
    )
    parser.add_argument(
        "--tries", type=bounded(int, 1), help="override the spec's tries-per-point"
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("artifacts"),
        help="artifact directory (default: ./artifacts)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        help="run store JSONL path (default: <out>/<spec name>/runstore.jsonl)",
    )


def read_spec(path: Path, load: Callable[[Path], Any] = load_spec) -> Any:
    """Load a spec file through ``load``, or exit with one line naming why
    not: the file cannot be read (missing, or YAML without PyYAML), or the
    document is invalid (the validation message names the bad stage/scheme
    and lists the valid choices).  ``sweep``, ``report`` and the bench
    suites all read their specs through here."""
    try:
        return load(path)
    except (OSError, RuntimeError) as error:
        reason = getattr(error, "strerror", None) or error
        raise SystemExit(f"repro: cannot read sweep spec {path}: {reason}")
    except ValueError as error:
        raise SystemExit(f"repro: invalid sweep spec {path}: {error}")


def resolve_spec(args: argparse.Namespace) -> SweepSpec:
    """Load the spec and apply the shared ``--smoke`` / ``--tries`` transforms.

    Every topology is built once here, so a value its builder rejects
    (``fat_tree(k=3)``) exits with one line naming the point, like any
    other invalid spec, before the engine starts.
    """
    spec = read_spec(args.spec)
    if args.smoke:
        spec = spec.smoke()
    if args.tries is not None:
        spec = replace(spec, tries=args.tries)
    try:
        spec_networks(spec)
    except ValueError as error:
        raise SystemExit(f"repro: invalid sweep spec {args.spec}: {error}")
    return spec


def resolve_store_path(args: argparse.Namespace, spec: SweepSpec) -> Path:
    """The run store location ``sweep`` writes and ``report`` reads."""
    if args.store is not None:
        return args.store
    return args.out / spec.name / "runstore.jsonl"


def configure(subparsers: argparse._SubParsersAction) -> None:
    """Register the ``sweep`` subparser."""
    parser = subparsers.add_parser(
        "sweep",
        help="run a YAML/JSON sweep spec on the experiment engine",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_spec_arguments(parser)
    parser.add_argument(
        "--workers",
        type=bounded(int, 0),
        default=0,
        help="engine worker processes (0 = serial, >=2 = process pool)",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="delete the run store first (a cold run instead of a resume)",
    )
    parser.add_argument(
        "--max-retries",
        type=bounded(int, 0),
        default=2,
        metavar="N",
        help="retries per task for transient errors (default: 2)",
    )
    parser.add_argument(
        "--task-timeout",
        type=bounded(float, 0, inclusive=False),
        metavar="SECONDS",
        help="per-task wall-clock limit; an expired task is retried as "
        "transient, then recorded as a failure (default: none)",
    )
    parser.add_argument(
        "--lp-time-limit",
        type=bounded(float, 0, inclusive=False),
        metavar="SECONDS",
        help="time budget handed to the HiGHS solver for every LP solve "
        "(default: none)",
    )
    parser.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-run tasks recorded as permanent failures in the store "
        "(default: resume skips them)",
    )
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=1.0,
        metavar="FRACTION",
        help="minimum fraction of tasks that must succeed for exit status 0 "
        f"(default: 1.0 — any failure exits {EXIT_COVERAGE})",
    )
    parser.add_argument(
        "--inject-faults",
        metavar="SPEC",
        help='deterministic fault injection, e.g. "rate=0.1,seed=7" or '
        '"rate=1.0,kinds=lp+timeout,seed=3,delay=0.2" (overrides the '
        "spec's own `faults` entry; see docs/robustness.md)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="distribute the sweep over N cooperating shard workers via a "
        "sharded run store (default: 1 = the classic single store; "
        "--store then names a directory; see docs/fabric.md)",
    )
    parser.add_argument(
        "--shard-id",
        type=int,
        metavar="K",
        help="act as shard worker K of --shards instead of coordinating "
        "(run one per process/host against a shared store directory)",
    )
    parser.add_argument(
        "--steal-after",
        type=bounded(float, 0),
        default=3.0,
        metavar="SECONDS",
        help="seconds without fleet progress before a shard steals tasks "
        "claimed by a presumed-dead peer (default: 3)",
    )
    parser.set_defaults(func=execute)


def execute(args: argparse.Namespace) -> int:
    """Run the sweep, write artifacts, and exit by coverage."""
    spec = resolve_spec(args)
    if not 0.0 <= args.min_coverage <= 1.0:
        raise SystemExit(
            f"repro sweep: --min-coverage must be in [0, 1], "
            f"got {args.min_coverage}"
        )
    faults = None
    if args.inject_faults is not None:
        try:
            faults = FaultConfig.from_spec(args.inject_faults)
        except ValueError as error:
            raise SystemExit(f"repro sweep: invalid --inject-faults: {error}")
    if args.shards < 1:
        raise SystemExit("repro sweep: --shards must be at least 1")
    # The store's and the artifacts' directories are made before any task
    # runs, so an output that cannot be written ends the sweep at once.
    if args.shard_id is not None or args.shards > 1:
        root = resolve_shard_root(args, spec)
        make_directory("sweep", root, root)
        if args.shard_id is not None:
            return _execute_shard(args, spec, faults, root)
        make_directory("sweep", args.out, args.out / spec.name)
        return _execute_fleet(args, spec, root)
    store_path = resolve_store_path(args, spec)
    make_directory("sweep", store_path, store_path.parent)
    make_directory("sweep", args.out, args.out / spec.name)
    if args.fresh and store_path.exists():
        store_path.unlink()
    store = RunStore(store_path)
    resumed = len(store)
    if resumed:
        print(f"resuming from {store_path} ({resumed} recorded task(s))")

    run = run_spec(
        spec,
        store,
        workers=args.workers,
        faults=faults,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        retry_failed=args.retry_failed,
        lp_time_limit=args.lp_time_limit,
    )
    try:
        paths = export_artifacts(
            args.out, spec, run.result, run.stats, run.fingerprints, store,
            extras=run.extras,
        )
    except OSError as error:
        raise cannot_write("sweep", args.out, error) from None

    print(
        render_report(
            run.result,
            spec.display_title(),
            spec.reference,
            fmt="text",
            extras=run.extras,
        )
    )
    print()
    print(stats_summary(run.stats))
    for kind in ("run", "text", "markdown", "csv"):
        print(f"  {kind:<8} -> {paths[kind]}")
    print(f"  store    -> {store_path}")

    coverage = run.stats.coverage
    if run.stats.failed:
        print(
            f"repro sweep: {run.stats.failed} task(s) failed permanently "
            f"(coverage {coverage:.1%}); failed cells render as nan — "
            "re-run with --retry-failed to try them again",
            file=sys.stderr,
        )
    if coverage < args.min_coverage:
        print(
            f"repro sweep: coverage {coverage:.1%} is below "
            f"--min-coverage {args.min_coverage:.1%}",
            file=sys.stderr,
        )
        return EXIT_COVERAGE
    return 0


# ------------------------------------------------------------------- fabric

def resolve_shard_root(args: argparse.Namespace, spec: SweepSpec) -> Path:
    """The sharded store *directory* for ``--shards``/``--shard-id`` runs."""
    if args.store is not None:
        return args.store
    return args.out / spec.name / "shards"


def _grid_coverage(spec: SweepSpec, store: RunStore) -> float:
    """Grid coverage of a (possibly partial) store: successes / tasks.

    Unlike :attr:`EngineRunStats.coverage` this also counts *missing*
    cells — a lost shard's never-run tasks — as uncovered, which is what
    the sharded exit-code decision needs.
    """
    result, missing, _ = result_from_store(spec, store)
    total = spec.total_tasks()
    if total <= 0:
        return 1.0
    return (total - missing - result.total_failures()) / total


def _execute_shard(
    args: argparse.Namespace, spec: SweepSpec, faults, root: Path
) -> int:
    """Run as one shard worker of the fleet (``--shard-id K``)."""
    from ..analysis.fabric import ShardedRunStore, Worker
    from ..analysis.fabric.store import shard_filename

    if not 0 <= args.shard_id < args.shards:
        raise SystemExit(
            f"repro sweep: --shard-id {args.shard_id} out of range for "
            f"--shards {args.shards}"
        )
    if args.fresh:
        # A shard may only reset what it owns; deleting the shared root
        # under live peers is the coordinator's call, not a worker's.
        for stale in (
            root / shard_filename(args.shard_id),
            root / f"shard-{args.shard_id:04d}.stats.json",
        ):
            if stale.exists():
                stale.unlink()
    store = ShardedRunStore(root, shard_id=args.shard_id, shards=args.shards)
    resumed = len(store)
    if resumed:
        print(f"resuming from {root} ({resumed} recorded task(s))")
    worker = Worker(
        spec,
        store,
        workers=args.workers,
        steal_after=args.steal_after,
        faults=faults,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        retry_failed=args.retry_failed,
        lp_time_limit=args.lp_time_limit,
    )
    stats = worker.run()
    stats.write(root)
    print(stats.summary())
    store.refresh(final=True)
    coverage = _grid_coverage(spec, store)
    if coverage < args.min_coverage:
        print(
            f"repro sweep: shard {args.shard_id}: merged grid coverage "
            f"{coverage:.1%} is below --min-coverage "
            f"{args.min_coverage:.1%}",
            file=sys.stderr,
        )
        return EXIT_COVERAGE
    return 0


def _shard_command(
    args: argparse.Namespace, root: Path, shard_id: int
) -> List[str]:
    """The child command line for one spawned shard worker."""
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        str(args.spec),
        "--shards",
        str(args.shards),
        "--shard-id",
        str(shard_id),
        "--store",
        str(root),
        "--out",
        str(args.out),
        "--workers",
        str(args.workers),
        "--max-retries",
        str(args.max_retries),
        "--steal-after",
        str(args.steal_after),
        # Children always exit by crash, never by coverage: the coordinator
        # owns the --min-coverage decision over the *merged* store.
        "--min-coverage",
        "0",
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.tries is not None:
        cmd.extend(["--tries", str(args.tries)])
    if args.task_timeout is not None:
        cmd.extend(["--task-timeout", str(args.task_timeout)])
    if args.lp_time_limit is not None:
        cmd.extend(["--lp-time-limit", str(args.lp_time_limit)])
    if args.retry_failed:
        cmd.append("--retry-failed")
    if args.inject_faults is not None:
        cmd.extend(["--inject-faults", args.inject_faults])
    return cmd


def _fleet_environment() -> Dict[str, str]:
    """Child env with this package's source tree on ``PYTHONPATH``."""
    import repro

    env = os.environ.copy()
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not previous else os.pathsep.join([src_dir, previous])
    )
    return env


def _execute_fleet(args: argparse.Namespace, spec: SweepSpec, root: Path) -> int:
    """Coordinate a ``--shards N`` fleet: spawn, wait, merge, report."""
    from ..analysis.fabric import ShardedRunStore
    from ..analysis.fabric.store import shard_filename

    started = time.perf_counter()
    if args.fresh and root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True, exist_ok=True)
    env = _fleet_environment()
    print(f"repro sweep: launching {args.shards} shard worker(s) on {root}")
    procs = {
        shard_id: subprocess.Popen(_shard_command(args, root, shard_id), env=env)
        for shard_id in range(args.shards)
    }
    exit_codes = {shard_id: proc.wait() for shard_id, proc in procs.items()}

    view = ShardedRunStore(root, shards=args.shards)
    shard_stats: Dict[int, Dict] = {}
    for shard_id in range(args.shards):
        stats_path = root / f"shard-{shard_id:04d}.stats.json"
        if stats_path.exists():
            try:
                shard_stats[shard_id] = json.loads(stats_path.read_text())
            except (OSError, json.JSONDecodeError):
                pass
    lost = sorted(
        set(view.missing_shards())
        | {k for k, code in exit_codes.items() if code != 0}
        | {k for k in range(args.shards) if k not in shard_stats}
    )

    metrics = [spec.metric, *spec.extra_metrics]
    results, missing_counts, fingerprints = results_from_store(
        spec, view, metrics
    )
    result = results[spec.metric]
    missing = missing_counts[spec.metric]
    extras = {metric: results[metric] for metric in spec.extra_metrics}
    total = spec.total_tasks()
    executed = sum(s.get("executed", 0) for s in shard_stats.values())
    stats = EngineRunStats(
        total_tasks=total,
        cached=max(0, total - executed),
        executed=executed,
        workers=args.workers or 1,
        seconds=time.perf_counter() - started,
        failed=result.total_failures(),
        retried=sum(s.get("retried", 0) for s in shard_stats.values()),
        pool_restarts=sum(
            s.get("pool_restarts", 0) for s in shard_stats.values()
        ),
        skipped_records=view.skipped_lines,
    )
    paths = export_artifacts(
        args.out,
        spec,
        result,
        stats,
        fingerprints,
        view,
        extras=extras,
        extra_metadata={
            "fleet": {
                "shards": args.shards,
                "store": str(root),
                "exit_codes": exit_codes,
                "lost_shards": lost,
                "shard_stats": shard_stats,
            }
        },
    )

    print(
        render_report(
            result, spec.display_title(), spec.reference, fmt="text",
            extras=extras,
        )
    )
    print()
    print(stats_summary(stats))
    for shard_id in sorted(shard_stats):
        recorded = shard_stats[shard_id]
        print(
            f"  shard {shard_id}: {recorded.get('executed', 0)} executed, "
            f"{recorded.get('cached', 0)} cached, "
            f"{recorded.get('ceded', 0)} ceded, "
            f"{recorded.get('stolen', 0)} stolen, "
            f"{recorded.get('seconds', 0.0):.2f}s"
        )
    for kind in ("run", "text", "markdown", "csv"):
        print(f"  {kind:<8} -> {paths[kind]}")
    print(f"  store    -> {root}")

    coverage = (total - missing - stats.failed) / total if total else 1.0
    status = 0
    for shard_id in lost:
        print(
            f"repro sweep: shard {shard_id} was lost (worker exit "
            f"{exit_codes.get(shard_id)}, store file "
            f"{root / shard_filename(shard_id)}); re-run "
            f"`repro sweep {args.spec} --shards {args.shards} --shard-id "
            f"{shard_id} --store {root}` to resume it",
            file=sys.stderr,
        )
    if stats.failed:
        print(
            f"repro sweep: {stats.failed} task(s) failed permanently "
            f"(coverage {coverage:.1%}); failed cells render as nan — "
            "re-run with --retry-failed to try them again",
            file=sys.stderr,
        )
    if lost and args.min_coverage > 0:
        print(
            f"repro sweep: {len(lost)} lost shard(s) "
            f"{lost}; the merged report may be partial",
            file=sys.stderr,
        )
        status = EXIT_COVERAGE
    if coverage < args.min_coverage:
        print(
            f"repro sweep: coverage {coverage:.1%} is below "
            f"--min-coverage {args.min_coverage:.1%}",
            file=sys.stderr,
        )
        status = EXIT_COVERAGE
    return status
