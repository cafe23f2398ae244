"""Circuit-based coflow scheduling (Section 2 of the paper).

* :mod:`repro.circuit.given_paths` — the 17.6-approximation when every
  connection request carries a fixed path (Section 2.1).
* :mod:`repro.circuit.routing`, :mod:`repro.circuit.flow_decomposition`,
  :mod:`repro.circuit.randomized_rounding`, :mod:`repro.circuit.algorithm` —
  Algorithm 1 for joint routing and scheduling, the
  ``O(log |E| / log log |E|)``-approximation (Section 2.2).
* :mod:`repro.circuit.lower_bounds` — combinatorial lower bounds used for
  validation alongside the LP bounds of Lemmas 4 and 5.

The namespace is lazy (PEP 562): importing the package loads none of its
submodules, and each name below loads its defining module on first access.
The LP-based modules (``given_paths``, ``routing``, ``algorithm``) load
:mod:`repro.lp` and with it scipy's optimizer and sparse matrices, so a
process that only needs, say, :mod:`repro.circuit.lower_bounds` never pays
for them.
"""

from importlib import import_module

#: Public name -> the submodule defining it.
_EXPORTS = {
    "GivenPathsLP": "given_paths",
    "GivenPathsRelaxation": "given_paths",
    "GivenPathsResult": "given_paths",
    "GivenPathsScheduler": "given_paths",
    "feasible_rounding_parameters": "given_paths",
    "RoutingLP": "routing",
    "RoutingRelaxation": "routing",
    "PathsNotGivenScheduler": "algorithm",
    "RoutingPlan": "algorithm",
    "route_and_order": "algorithm",
    "FlowDecomposition": "flow_decomposition",
    "PathFlow": "flow_decomposition",
    "decompose_flow": "flow_decomposition",
    "RoundingOutcome": "randomized_rounding",
    "round_paths": "randomized_rounding",
    "congestion_after_rounding": "randomized_rounding",
    "chernoff_congestion_bound": "randomized_rounding",
}

_SUBMODULES = (
    "_assembly",
    "algorithm",
    "flow_decomposition",
    "given_paths",
    "lower_bounds",
    "randomized_rounding",
    "routing",
)

__all__ = [*_EXPORTS, "lower_bounds"]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
