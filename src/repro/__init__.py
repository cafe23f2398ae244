"""repro — reproduction of "Asymptotically Optimal Approximation Algorithms
for Coflow Scheduling" (Jahanjou, Kantor & Rajaraman, SPAA 2017).

The package implements the paper's LP-based coflow scheduling framework over
general network topologies together with everything it depends on:

* :mod:`repro.core` — coflow data model, capacitated networks, datacenter
  topologies, interval grids, schedule representations and validators;
* :mod:`repro.lp` — the sparse LP modelling layer (HiGHS back-end);
* :mod:`repro.circuit` — circuit-based coflows: the Section-2.1
  constant-factor algorithm (paths given) and Algorithm 1 of Section 2.2
  (joint routing and scheduling);
* :mod:`repro.packet` — packet-based coflows: the job-shop algorithm of
  Section 3.1 and the time-expanded-graph algorithm of Section 3.2;
* :mod:`repro.switch` — the non-blocking switch special case;
* :mod:`repro.baselines` — every scheme as a router x orderer x allocator
  pipeline, named by the spec grammar: LP-Based, the competing heuristics
  of Section 4.3 (Baseline, Schedule-only, Route-only) plus SEBF;
* :mod:`repro.sim` — the flow-level datacenter simulator of Section 4;
* :mod:`repro.workloads` — Poisson workload generation and synthetic traces;
* :mod:`repro.analysis` — experiment sweeps and report tables used by the
  benchmark harness that regenerates the paper's figures.

Only :mod:`repro.core` is imported with the package; every other subpackage
loads on first access (a PEP 562 module ``__getattr__``), so ``repro.lp``
and ``import repro.lp`` both work.  A process that runs no LP scheme never
loads :mod:`repro.lp`, and with it scipy's optimizer and sparse matrices
(DESIGN.md §8, "What a process imports").

Quickstart::

    from repro.core import topologies
    from repro.workloads import WorkloadConfig, CoflowGenerator
    from repro.baselines import scheme_from_spec
    from repro.sim import FlowLevelSimulator

    network = topologies.fat_tree(k=4)
    instance = CoflowGenerator(network, WorkloadConfig(num_coflows=10,
                                                       coflow_width=8)).instance()
    simulator = FlowLevelSimulator(network)
    lp = scheme_from_spec("LP-Based")
    base = scheme_from_spec("Baseline")
    lp_result = simulator.run(instance, lp.plan(instance, network))
    base_result = simulator.run(instance, base.plan(instance, network))
    print(lp_result.weighted_completion_time, base_result.weighted_completion_time)
"""

__version__ = "1.1.0"

from importlib import import_module

from . import core
from .core import Coflow, CoflowInstance, Flow, Network, topologies

#: Subpackages loaded on first access, by the module ``__getattr__`` below.
_SUBPACKAGES = (
    "lp", "circuit", "packet", "switch", "baselines", "sim", "workloads", "analysis",
)

__all__ = [
    "__version__",
    "core",
    "lp",
    "circuit",
    "packet",
    "switch",
    "baselines",
    "sim",
    "workloads",
    "analysis",
    "Flow",
    "Coflow",
    "CoflowInstance",
    "Network",
    "topologies",
]


def __getattr__(name):
    if name not in _SUBPACKAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return import_module(f"{__name__}.{name}")


def __dir__():
    return sorted({*globals(), *__all__})
