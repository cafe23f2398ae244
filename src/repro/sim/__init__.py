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
"""

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
from .streaming import (
    BatchPolicy,
    LPReplanner,
    ReplanContext,
    Replanner,
    StaticPlanReplanner,
    StreamingError,
    StreamingScheduler,
)
from .simulator import (
    BACKENDS,
    FlowLevelSimulator,
    SimulationResult,
    make_kernel,
    resolve_backend,
    validate_backend,
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
    "ReplanContext",
    "Replanner",
    "StaticPlanReplanner",
    "BatchPolicy",
    "StreamingScheduler",
    "StreamingError",
    "LPReplanner",
]
