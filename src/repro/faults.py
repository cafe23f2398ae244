"""Deterministic fault injection and task-hardening primitives.

The experiment engine promises that one infeasible LP, solver hiccup or
OOM-killed worker does not abort a whole sweep.  Proving that requires a
controllable source of failures: :class:`FaultInjector` is a *seeded,
deterministic* chaos layer that decides — from the fault seed and the task's
run-store key alone — whether a task faults, with which kind, and at which
instrumented site.  The three production sites are

* the LP solve (:func:`repro.lp.solver.solve`)         — site ``"lp"``,
* the simulator kernel (:meth:`ResidentSimulationKernel.run`, either
  tier)                                                — site ``"sim"``,
* run-store appends (:meth:`RunStore.put`)             — site ``"store"``,

each carrying a one-line :func:`maybe_inject` hook that is a no-op unless an
injector is installed *and* the caller is inside a :func:`task_scope`.
Determinism is the point: the same ``(seed, task key)`` pair draws the same
fault in every process, every run, serial or pooled — so chaos sweeps are
reproducible and retried tasks converge to values bit-identical to a
fault-free run.

Fault kinds (``FAULT_KINDS``):

``lp``
    Raises :class:`~repro.lp.solver.LPInfeasibleError` from inside the LP
    solve.  *Permanent*: fires on every attempt (an infeasible LP stays
    infeasible), so the engine records a structured failure.
``timeout``
    Raises :class:`InjectedTimeout` (a :class:`TimeoutError`) from the
    simulator kernel.  *Transient*: fires on the first attempt only, so a
    retry succeeds.
``kill``
    Terminates the worker process with ``os._exit`` (pool workers), forcing
    a ``BrokenProcessPool`` the engine must recover from; in-process
    execution raises the transient :class:`WorkerKilled` instead.
``slow``
    Sleeps ``delay`` seconds inside the kernel on every attempt — the
    substrate for wall-clock-timeout and kill-mid-flight tests.
``store``
    Raises :class:`InjectedStoreError` (an :class:`OSError`) from the
    run-store append.  *Transient*: first store attempt only.

This module also hosts the engine's hardening primitives: the
:func:`deadline` wall-clock guard (SIGALRM-based, POSIX main thread) and
:func:`backoff_delay`, the capped exponential backoff with deterministic
per-task jitter.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

__all__ = [
    "FAULT_KINDS",
    "FaultConfig",
    "FaultInjector",
    "InjectedTimeout",
    "InjectedStoreError",
    "WorkerKilled",
    "TaskTimeoutError",
    "task_scope",
    "maybe_inject",
    "install",
    "uninstall",
    "active_injector",
    "mark_worker_process",
    "is_transient",
    "deadline",
    "backoff_delay",
]

#: Every recognised fault kind, and the instrumented site where it fires.
FAULT_KINDS: Tuple[str, ...] = ("lp", "timeout", "kill", "slow", "store")
_SITE_OF: Dict[str, str] = {
    "lp": "lp",
    "timeout": "sim",
    "kill": "sim",
    "slow": "sim",
    "store": "store",
}


# ------------------------------------------------------------------ failures

class InjectedTimeout(TimeoutError):
    """An injected solver/simulator hang; transient, retried by the engine."""


class WorkerKilled(RuntimeError):
    """In-process stand-in for a worker death (serial execution cannot
    actually lose a process); transient."""

    transient = True


class InjectedStoreError(OSError):
    """An injected run-store append failure; transient."""

    transient = True


class TaskTimeoutError(TimeoutError):
    """A task exceeded its wall-clock budget (see :func:`deadline`)."""


def is_transient(error: BaseException) -> bool:
    """Whether the engine should retry after ``error``.

    Timeouts (real or injected) and anything flagged ``transient = True``
    are retryable; everything else — infeasible LPs, contract violations,
    programming errors — is permanent and becomes a failure record.
    """
    return isinstance(error, TimeoutError) or bool(getattr(error, "transient", False))


# -------------------------------------------------------------------- config

@dataclass(frozen=True)
class FaultConfig:
    """Declarative chaos parameters (parsed from ``--inject-faults``).

    Parameters
    ----------
    rate:
        Per-task probability of drawing a fault, in ``[0, 1]``.
    kinds:
        Fault kinds eligible for the draw (see :data:`FAULT_KINDS`).
    seed:
        Chaos seed; together with the task key it fully determines every
        draw, so a chaos sweep is exactly reproducible.
    delay:
        Sleep injected by ``slow`` faults, in seconds.
    """

    rate: float = 0.0
    kinds: Tuple[str, ...] = ("lp", "timeout")
    seed: int = 0
    delay: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if not self.kinds:
            raise ValueError("fault config needs at least one kind")
        unknown = sorted(set(self.kinds) - set(FAULT_KINDS))
        if unknown:
            raise ValueError(
                f"unknown fault kind(s) {unknown} "
                f"(known: {', '.join(FAULT_KINDS)})"
            )
        if self.delay < 0:
            raise ValueError(f"fault delay must be >= 0, got {self.delay}")

    @classmethod
    def from_spec(cls, text: str) -> "FaultConfig":
        """Parse a ``key=value`` spec: ``"rate=0.1,seed=7,kinds=lp+timeout"``.

        Keys: ``rate`` (float), ``seed`` (int), ``delay`` (float), ``kinds``
        (``+``-separated subset of :data:`FAULT_KINDS`).  Unknown keys and
        malformed entries raise ``ValueError`` naming the bad piece.
        """
        values: Dict[str, object] = {}
        for part in filter(None, (p.strip() for p in text.split(","))):
            if "=" not in part:
                raise ValueError(
                    f"malformed fault spec entry {part!r} (expected key=value)"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            raw = raw.strip()
            if key == "rate":
                values["rate"] = float(raw)
            elif key == "seed":
                values["seed"] = int(raw)
            elif key == "delay":
                values["delay"] = float(raw)
            elif key == "kinds":
                values["kinds"] = tuple(k.strip() for k in raw.split("+") if k.strip())
            else:
                raise ValueError(
                    f"unknown fault spec key {key!r} "
                    "(known: rate, seed, delay, kinds)"
                )
        return cls(**values)  # type: ignore[arg-type]

    def spec(self) -> str:
        """The canonical spec string (``from_spec`` round-trips it)."""
        return (
            f"rate={self.rate},seed={self.seed},"
            f"kinds={'+'.join(self.kinds)},delay={self.delay}"
        )


class FaultInjector:
    """Seeded, deterministic fault source for the instrumented sites."""

    def __init__(self, config: FaultConfig) -> None:
        self.config = config

    def draw(self, task_key: str) -> Optional[str]:
        """The fault kind for ``task_key``, or ``None`` (pure function).

        The decision hashes ``(seed, task key)`` only — not the worker, not
        the attempt, not wall-clock time — so the same task draws the same
        fault wherever and whenever it runs.
        """
        digest = hashlib.sha256(
            f"fault:{self.config.seed}:{task_key}".encode()
        ).digest()
        if int.from_bytes(digest[:8], "big") / 2.0**64 >= self.config.rate:
            return None
        return self.config.kinds[
            int.from_bytes(digest[8:12], "big") % len(self.config.kinds)
        ]


# ----------------------------------------------------- installation and scope

#: Process-wide active injector (``None`` = all hooks are no-ops).
_ACTIVE: Optional[FaultInjector] = None
#: True in pool worker processes, where ``kill`` faults really exit.
_IS_WORKER = False


def install(injector: Optional[FaultInjector]) -> None:
    """Install ``injector`` process-wide (``None`` uninstalls)."""
    global _ACTIVE
    _ACTIVE = injector


def uninstall() -> None:
    """Remove the active injector (all hooks become no-ops again)."""
    install(None)


def active_injector() -> Optional[FaultInjector]:
    """The currently installed injector, if any."""
    return _ACTIVE


def mark_worker_process(is_worker: bool = True) -> None:
    """Declare this process a pool worker (``kill`` faults call ``os._exit``)."""
    global _IS_WORKER
    _IS_WORKER = is_worker


class _Scope:
    __slots__ = ("key", "attempt", "fired")

    def __init__(self, key: str, attempt: int) -> None:
        self.key = key
        self.attempt = attempt
        self.fired: Set[str] = set()


_SCOPE: Optional[_Scope] = None


@contextmanager
def task_scope(key: str, attempt: int = 0) -> Iterator[None]:
    """Declare the current task identity for the instrumented sites.

    Sites only fire inside a scope; ``attempt`` starts at 0 and transient
    kinds fire on attempt 0 only (so retries converge).  Scopes nest
    (the previous scope is restored on exit), and each scope fires at most
    one fault per kind — online schemes that solve dozens of LPs per task
    still fault once, not once per epoch.
    """
    global _SCOPE
    previous = _SCOPE
    _SCOPE = _Scope(key, attempt)
    try:
        yield
    finally:
        _SCOPE = previous


def maybe_inject(site: str) -> None:
    """Fire the scoped task's fault if it targets ``site`` (else no-op).

    This is the one-line hook the production sites call; with no injector
    installed or outside a task scope it returns immediately.
    """
    injector, scope = _ACTIVE, _SCOPE
    if injector is None or scope is None:
        return
    kind = injector.draw(scope.key)
    if kind is None or _SITE_OF[kind] != site or kind in scope.fired:
        return
    scope.fired.add(kind)
    if kind == "slow":
        time.sleep(injector.config.delay)
        return
    if kind == "lp":
        from .lp.solver import LPInfeasibleError

        error = LPInfeasibleError(
            f"injected solver fault (seed={injector.config.seed}, "
            f"task={scope.key})",
            status=-1,
            solver_message="injected by FaultInjector",
        )
        error.injected = True
        raise error
    if scope.attempt > 0:
        return  # transient kinds fire on the first attempt only
    if kind == "timeout":
        raise InjectedTimeout(
            f"injected timeout (seed={injector.config.seed}, task={scope.key})"
        )
    if kind == "store":
        raise InjectedStoreError(
            f"injected store-append failure (task={scope.key})"
        )
    if kind == "kill":
        if _IS_WORKER:
            os._exit(1)  # a real worker death: the pool breaks
        raise WorkerKilled(f"injected worker kill (task={scope.key})")


# -------------------------------------------------------- hardening utilities

@contextmanager
def deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`TaskTimeoutError` if the body exceeds ``seconds``.

    SIGALRM-based, so it interrupts CPU-bound LP solves and kernel loops —
    not just sleeps.  Silently a no-op off the main thread or on platforms
    without ``SIGALRM`` (Windows); injected ``timeout`` faults keep the
    timeout *handling* path testable everywhere regardless.

    Deadlines nest: the process owns a single ``ITIMER_REAL``, so entering
    an inner deadline captures whatever time the outer one had left (the
    ``setitimer`` return value) and the inner ``finally`` re-arms the outer
    timer with its *remaining* budget — elapsed wall-clock deducted, and an
    outer budget the inner body already exhausted fires (almost)
    immediately — instead of silently cancelling it.
    """
    if (
        not seconds
        or seconds <= 0
        or threading.current_thread() is not threading.main_thread()
        or not hasattr(signal, "SIGALRM")
    ):
        yield
        return

    def _expire(signum, frame):  # pragma: no cover - signal context
        raise TaskTimeoutError(f"task exceeded its {seconds}s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, _expire)
    entered = time.monotonic()
    outer_remaining, _outer_interval = signal.setitimer(
        signal.ITIMER_REAL, seconds
    )
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_remaining > 0.0:
            # Re-arm the enclosing deadline with whatever budget it has
            # left.  An already-exhausted outer budget cannot be armed with
            # 0.0 (that would disarm it), so it fires after a vanishing
            # grace period instead.
            remaining = outer_remaining - (time.monotonic() - entered)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6))


def backoff_delay(
    task_key: str, attempt: int, base: float, cap: float = 2.0
) -> float:
    """Capped exponential backoff with deterministic per-task jitter.

    ``attempt`` is the retry number (1 = first retry).  The jitter in
    ``[0, 1)`` is hashed from ``(task key, attempt)``, so parallel and
    serial runs — and re-runs — sleep identically: no shared-clock
    thundering herd, no nondeterminism.
    """
    if attempt <= 0 or base <= 0:
        return 0.0
    digest = hashlib.sha256(f"backoff:{task_key}:{attempt}".encode()).digest()
    jitter = int.from_bytes(digest[:4], "big") / 2.0**32
    return min(cap, base * (2.0 ** (attempt - 1)) * (1.0 + jitter))
