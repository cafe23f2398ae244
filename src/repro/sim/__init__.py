"""Flow-level datacenter simulator (Section 4 methodology).

Three layers (see ``docs/simulator.md``):

* :mod:`repro.sim.kernel` — the event core, a resident session over slot
  state (:class:`ResidentSimulationKernel`, the Python tier: the
  no-compiler fallback, the non-greedy and custom allocators, and the
  oracle of the compiled tier);
* :mod:`repro.sim.kernel_jit` — the compiled tier of the same session
  (:class:`ResidentJitKernel`, bit-identical, greedy allocator only; an
  unpinned run gets it wherever its C core builds, and
  ``backend="array"`` / ``REPRO_SIM_BACKEND=array`` opts out);
* :mod:`repro.sim.allocators` — pluggable per-event rate policies;
* :mod:`repro.sim.streaming` — the long-running scheduler service:
  re-planning at every coflow arrival (its default policy) or in batches
  under a staleness bound, the LP replanner, replans/sec +
  decision-latency metrics.

:class:`FlowLevelSimulator` is the orchestrating entry point: a static run
is a one-epoch kernel session, and the streaming engine keeps one session
across every re-plan.  :func:`make_kernel` is the single tier selector, and
the original dict-based event loop stays available as ``run_reference``.

The streaming names load :mod:`repro.sim.streaming` on first access (a PEP
562 module ``__getattr__``), so a static run never imports it; an
``online=true`` pipeline loads it when it is built (DESIGN.md §8).
"""

from importlib import import_module

from .allocators import (
    ALLOCATORS,
    GreedyPriorityAllocator,
    MaxMinFairAllocator,
    RateAllocator,
    WeightedFairAllocator,
    resolve_allocator,
)
from .kernel import ResidentSimulationKernel
from .kernel_jit import ResidentJitKernel, paused_gc
from .metrics import SchemeComparison, coflow_slowdowns, improvement_percent
from .plan import SimulationPlan
from .simulator import (
    BACKENDS,
    FlowLevelSimulator,
    SimulationResult,
    make_kernel,
    resolve_backend,
    validate_backend,
)

#: :mod:`repro.sim.streaming`'s public names, resolved by ``__getattr__``.
_STREAMING = (
    "ReplanContext",
    "Replanner",
    "StaticPlanReplanner",
    "BatchPolicy",
    "StreamingScheduler",
    "StreamingError",
    "LPReplanner",
)

__all__ = [
    "SimulationPlan",
    "FlowLevelSimulator",
    "SimulationResult",
    "ResidentSimulationKernel",
    "ResidentJitKernel",
    "paused_gc",
    "BACKENDS",
    "make_kernel",
    "resolve_backend",
    "validate_backend",
    "SchemeComparison",
    "improvement_percent",
    "coflow_slowdowns",
    "RateAllocator",
    "GreedyPriorityAllocator",
    "MaxMinFairAllocator",
    "WeightedFairAllocator",
    "ALLOCATORS",
    "resolve_allocator",
    *_STREAMING,
]


def __getattr__(name):
    if name == "streaming":
        return import_module(f"{__name__}.streaming")
    if name not in _STREAMING:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.streaming"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, "streaming"})
