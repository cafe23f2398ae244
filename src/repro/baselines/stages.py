"""Composable scheme stages: routers and orderers behind small registries.

The paper's evaluation grid (Section 4.3) is a *cross-product*: routing
rules x priority orderings x rate policies.  Instead of one hand-written
:class:`~repro.baselines.base.Scheme` subclass per cell, the scheme layer is
decomposed into three orthogonal stage families, each addressable by a short
registry name:

* **Routers** (:data:`ROUTERS`) — flow -> path: ``random`` (uniform among
  candidate shortest paths), ``balanced`` (greedy least-congested),
  ``lp`` (Algorithm 1's LP + flow decomposition + rounding) and ``given``
  (respect paths already attached to the instance);
* **Orderers** (:data:`ORDERERS`) — flow/coflow -> priority order:
  ``random`` (shuffle), ``arrival`` (instance order), ``mct`` (minimum
  completion time), ``sebf`` (Varys-style
  Smallest-Effective-Bottleneck-First) and ``lp`` (LP completion times);
* **Allocators** — the per-event rate policies of
  :mod:`repro.sim.allocators`, already registry-addressable.

A :class:`~repro.baselines.pipeline.PipelineScheme` composes one stage of
each family.  Stages communicate through a :class:`PlanContext`: the router
publishes its paths (and, for the LP router, the LP completion-time order as
a *hint* the LP orderer consumes without a second solve), and stages that
draw randomness share seeded generators through :meth:`PlanContext.rng`, so
``router=random(seed=0), order=random(seed=0)`` consumes one stream exactly
like the legacy Baseline scheme did.

Every stage is a frozen dataclass whose parameters serialize canonically
(:meth:`Stage.spec`), which is what makes scheme signatures — and therefore
experiment run-store keys — stable across processes.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, fields
from typing import Any, Callable, ClassVar, Dict, Hashable, List, Mapping, Optional, Tuple, Type

from ..circuit.given_paths import DEFAULT_EPSILON
from ..circuit.routing import DEFAULT_ROUTING_EPSILON
from ..core.flows import CoflowInstance, FlowId
from ..core.network import Network, path_edges
from .base import load_balanced_route, random_route, respect_given_paths

__all__ = [
    "PlanContext",
    "Stage",
    "Router",
    "Orderer",
    "RandomRouter",
    "BalancedRouter",
    "LPRouter",
    "GivenPathsRouter",
    "RandomOrderer",
    "ArrivalOrderer",
    "MCTOrderer",
    "SEBFOrderer",
    "LPOrderer",
    "ROUTERS",
    "ORDERERS",
    "build_stage",
    "render_value",
]


class PlanContext:
    """Shared state threaded through one pipeline planning pass.

    One context lives for exactly one :meth:`PipelineScheme.plan` call; it
    carries the inputs every stage sees (instance, network), the artifacts
    stages hand to each other (``paths``, ``order_hint``), per-seed random
    generators, and free-form ``diagnostics`` the owning scheme republishes
    as ``last_*`` attributes (e.g. the LP router's routing plan with its
    lower bound).
    """

    def __init__(self, instance: CoflowInstance, network: Network) -> None:
        self.instance = instance
        self.network = network
        #: Router output: flow id -> path (set by the pipeline between stages).
        self.paths: Dict[FlowId, Tuple[Hashable, ...]] = {}
        #: Priority order published by the router as a by-product (the LP
        #: router's completion-time order); only the LP orderer consumes it.
        self.order_hint: Optional[List[FlowId]] = None
        #: Stage diagnostics republished on the scheme (``last_*`` keys).
        self.diagnostics: Dict[str, Any] = {}
        self._rngs: Dict[Optional[int], random.Random] = {}

    def rng(self, seed: Optional[int]) -> random.Random:
        """The context-shared ``random.Random`` for ``seed``.

        Stages asking for the same seed receive the *same* generator object,
        continuing one stream — this is how ``router=random(seed=0)`` plus
        ``order=random(seed=0)`` reproduces the legacy Baseline scheme,
        which routed and shuffled from a single ``Random(0)``.  Distinct
        seeds give independent generators.
        """
        if seed not in self._rngs:
            self._rngs[seed] = random.Random(seed)
        return self._rngs[seed]


def render_value(value: Any) -> str:
    """Canonical spec-grammar rendering of a stage parameter value.

    Inverse of the spec parser's literal coercion: booleans render as
    ``true``/``false``, ``None`` as ``none``, numbers via ``repr`` and
    strings bare (stage parameters are identifier-like names such as
    ``max-min`` or ``thickest``, never free text).
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


@dataclass(frozen=True)
class Stage(abc.ABC):
    """A named, parameterized pipeline stage (router or orderer).

    Concrete stages are frozen dataclasses: their fields are the stage's
    parameters, and :meth:`spec` serializes them canonically for scheme
    signatures and the spec grammar.
    """

    #: Registry name of the stage (``random``, ``lp``, ...).
    key: ClassVar[str] = "abstract"

    def spec(self, compact: bool = False) -> str:
        """Serialize as spec-grammar text: ``name(param=value, ...)``.

        The canonical form (``compact=False``) spells out every parameter in
        field order, so two stage objects are behaviourally identical iff
        their canonical specs are equal — run-store keys build on this.  The
        compact form omits parameters at their defaults (used for display
        names).
        """
        parts = []
        for field in fields(self):
            value = getattr(self, field.name)
            if compact and value == field.default:
                continue
            parts.append(f"{field.name}={render_value(value)}")
        return f"{self.key}({', '.join(parts)})" if parts else self.key

    def __str__(self) -> str:
        """The compact spec form (cosmetic)."""
        return self.spec(compact=True)


class Router(Stage):
    """Routing stage contract: choose a path per flow.

    ``route`` must return a path for *every* flow of the context instance
    and may publish an ordering hint (``context.order_hint``) or
    diagnostics; it must be deterministic given the stage parameters and
    the context (randomness only through :meth:`PlanContext.rng`).
    """

    @abc.abstractmethod
    def route(self, context: PlanContext) -> Dict[FlowId, Tuple[Hashable, ...]]:
        """Compute ``{flow id: path}`` for the context's instance."""


class Orderer(Stage):
    """Ordering stage contract: produce the flow priority order.

    ``order`` runs after routing — ``context.paths`` holds the router's
    output — and returns every flow id of the instance, highest priority
    first.
    """

    @abc.abstractmethod
    def order(self, context: PlanContext) -> List[FlowId]:
        """Compute the priority order over the context's flow ids."""


# ------------------------------------------------------------------ routers

def _require_path_count(name: str, value: int) -> None:
    """Reject candidate-set sizes below one (an empty set routes nothing)."""
    if value < 1:
        raise ValueError(f"{name} must be at least 1, got {value!r}")


@dataclass(frozen=True)
class RandomRouter(Router):
    """Uniformly random choice among the candidate shortest paths.

    The "flows are routed randomly" rule of the paper's Baseline and
    Schedule-only heuristics.  Flows already carrying a path keep it.
    """

    key: ClassVar[str] = "random"

    seed: Optional[int] = 0
    max_paths: int = 16

    def __post_init__(self) -> None:
        _require_path_count("max_paths", self.max_paths)

    def route(self, context: PlanContext) -> Dict[FlowId, Tuple[Hashable, ...]]:
        """Route every flow on a random candidate path (seeded)."""
        return random_route(
            context.instance,
            context.network,
            context.rng(self.seed),
            max_paths=self.max_paths,
        )


@dataclass(frozen=True)
class BalancedRouter(Router):
    """Greedy least-congested routing (the Route-only/SEBF routing rule)."""

    key: ClassVar[str] = "balanced"

    max_paths: int = 16

    def __post_init__(self) -> None:
        _require_path_count("max_paths", self.max_paths)

    def route(self, context: PlanContext) -> Dict[FlowId, Tuple[Hashable, ...]]:
        """Route flows largest-first onto the least-congested candidates."""
        return load_balanced_route(
            context.instance, context.network, max_paths=self.max_paths
        )


@dataclass(frozen=True)
class LPRouter(Router):
    """Algorithm 1's routing: LP + flow decomposition + randomized rounding.

    Publishes the LP completion-time flow order as the context's ordering
    hint (consumed by :class:`LPOrderer` without a second solve — exactly
    the legacy LP-Based scheme) and the full routing plan, lower bound
    included, as the ``last_plan`` diagnostic.
    """

    key: ClassVar[str] = "lp"

    epsilon: float = DEFAULT_ROUTING_EPSILON
    formulation: str = "path"
    max_candidate_paths: int = 16
    seed: Optional[int] = 0
    path_selection: str = "thickest"

    def __post_init__(self) -> None:
        _require_path_count("max_candidate_paths", self.max_candidate_paths)

    def route(self, context: PlanContext) -> Dict[FlowId, Tuple[Hashable, ...]]:
        """Solve the routing LP and round to one path per flow."""
        from ..circuit.algorithm import PathsNotGivenScheduler

        scheduler = PathsNotGivenScheduler(
            context.instance.without_paths(),
            context.network,
            epsilon=self.epsilon,
            formulation=self.formulation,
            max_candidate_paths=self.max_candidate_paths,
            seed=self.seed,
            path_selection=self.path_selection,
        )
        routing_plan = scheduler.route()
        context.order_hint = list(routing_plan.flow_order)
        context.diagnostics["last_plan"] = routing_plan
        return dict(routing_plan.paths)


@dataclass(frozen=True)
class GivenPathsRouter(Router):
    """Respect the paths already attached to the instance (trees, switches).

    Raises ``ValueError`` when any flow lacks a path — this router expresses
    the Section-2.1 "paths given" model and cannot invent routes.
    """

    key: ClassVar[str] = "given"

    def route(self, context: PlanContext) -> Dict[FlowId, Tuple[Hashable, ...]]:
        """Collect the instance's fixed paths, requiring full coverage."""
        if not context.instance.all_paths_given:
            raise ValueError(
                "router 'given' requires an instance with fixed paths on "
                "every flow; use router 'lp', 'balanced' or 'random' to "
                "route unrouted instances"
            )
        return respect_given_paths(context.instance)


# ----------------------------------------------------------------- orderers

@dataclass(frozen=True)
class RandomOrderer(Orderer):
    """Uniformly random priority order ("flows are ordered randomly")."""

    key: ClassVar[str] = "random"

    seed: Optional[int] = 0

    def order(self, context: PlanContext) -> List[FlowId]:
        """Shuffle the instance's flow ids with the seeded shared stream."""
        order = list(context.instance.flow_ids())
        context.rng(self.seed).shuffle(order)
        return order


@dataclass(frozen=True)
class ArrivalOrderer(Orderer):
    """Instance (arrival) order — the "ordering is arbitrary" rule."""

    key: ClassVar[str] = "arrival"

    def order(self, context: PlanContext) -> List[FlowId]:
        """Keep the instance's deterministic flow-id order."""
        return list(context.instance.flow_ids())


@dataclass(frozen=True)
class MCTOrderer(Orderer):
    """Minimum-completion-time-first (the Schedule-only ordering rule).

    Orders flows by release time plus size over the bottleneck bandwidth of
    the *routed* path, ties broken by flow id.
    """

    key: ClassVar[str] = "mct"

    def order(self, context: PlanContext) -> List[FlowId]:
        """Sort flows by their isolated completion time on their path."""
        instance, network = context.instance, context.network
        paths = context.paths

        def min_completion(fid: FlowId) -> float:
            flow = instance.flow(fid)
            bandwidth = network.bottleneck_capacity(list(paths[fid]))
            return flow.release_time + flow.size / bandwidth

        return sorted(instance.flow_ids(), key=lambda fid: (min_completion(fid), fid))


@dataclass(frozen=True)
class SEBFOrderer(Orderer):
    """Smallest-Effective-Bottleneck-First coflow ordering (Varys-style).

    Coflows are sorted by the makespan they would need in isolation on
    their routed paths (shifted by release time); within a coflow, flows go
    largest-first.  All flows of a higher-priority coflow precede those of
    lower-priority ones.
    """

    key: ClassVar[str] = "sebf"

    def order(self, context: PlanContext) -> List[FlowId]:
        """Order coflows by isolated bottleneck makespan, flows within by size."""
        instance, network = context.instance, context.network
        paths = context.paths

        def coflow_bottleneck(index: int) -> float:
            loads: Dict[Tuple[Hashable, Hashable], float] = {}
            for j, flow in enumerate(instance[index].flows):
                for e in path_edges(list(paths[(index, j)])):
                    loads[e] = loads.get(e, 0.0) + flow.size / network.capacity(*e)
            bottleneck = max(loads.values()) if loads else 0.0
            return instance[index].release_time + bottleneck

        coflow_order = sorted(
            range(len(instance.coflows)), key=lambda i: (coflow_bottleneck(i), i)
        )
        order: List[FlowId] = []
        for i in coflow_order:
            flow_ids = sorted(
                ((i, j) for j in range(len(instance[i].flows))),
                key=lambda fid: (-instance.flow(fid).size, fid),
            )
            order.extend(flow_ids)
        return order


@dataclass(frozen=True)
class LPOrderer(Orderer):
    """LP completion-time order (the Section-2.1/2.2 ordering rule).

    When the router already solved an LP and published its completion-time
    order (:class:`LPRouter`), that hint is used as-is — one solve serves
    both stages, exactly like the legacy LP-Based scheme.  Otherwise the
    given-paths LP relaxation is solved on the routed instance (the legacy
    given-paths scheme, now composable with *any* router), publishing the
    relaxation as the ``last_relaxation`` diagnostic.

    An *explicit* non-default ``epsilon`` always forces its own relaxation
    solve, hint or not — the parameter selects a specific interval
    structure, so it must never be a silent no-op under an ``lp`` router.
    """

    key: ClassVar[str] = "lp"

    epsilon: float = DEFAULT_EPSILON

    def order(self, context: PlanContext) -> List[FlowId]:
        """Use the router's LP order hint, or solve the given-paths LP."""
        if context.order_hint is not None and self.epsilon == DEFAULT_EPSILON:
            return list(context.order_hint)
        from ..circuit.given_paths import GivenPathsLP

        instance = context.instance
        if not instance.all_paths_given:
            instance = instance.with_paths(
                {fid: list(path) for fid, path in context.paths.items()}
            )
        relaxation = GivenPathsLP(
            instance, context.network, epsilon=self.epsilon
        ).relax()
        context.diagnostics["last_relaxation"] = relaxation
        return relaxation.flow_order()


# --------------------------------------------------------------- registries

#: Router registry: spec-grammar name -> stage class.
ROUTERS: Dict[str, Type[Router]] = {
    cls.key: cls for cls in (RandomRouter, BalancedRouter, LPRouter, GivenPathsRouter)
}

#: Orderer registry: spec-grammar name -> stage class.
ORDERERS: Dict[str, Type[Orderer]] = {
    cls.key: cls
    for cls in (RandomOrderer, ArrivalOrderer, MCTOrderer, SEBFOrderer, LPOrderer)
}


def _coerce(name: str, value: Any, default: Any) -> Any:
    """Coerce a parsed literal to the parameter's default-value type.

    Integer parameters reject fractional floats instead of truncating —
    silently altering a typo like ``max_paths=2.7`` would undermine the
    grammar's strict validation.
    """
    if value is None or default is None:
        return value
    if isinstance(default, bool):
        return bool(value)
    if isinstance(default, int) and not isinstance(value, bool):
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"expected an integer for {name!r}, got {value!r}")
        return int(value)
    if isinstance(default, float):
        return float(value)
    return value


def build_stage(
    kind: str,
    registry: Mapping[str, Type[Stage]],
    name: str,
    kwargs: Optional[Mapping[str, Any]] = None,
) -> Stage:
    """Instantiate a registry stage from its spec name and parameters.

    ``kind`` names the stage family for error messages (``"router"`` /
    ``"order"``).  Unknown stage names and unknown or mistyped parameters
    raise ``ValueError`` naming the bad piece and listing the valid choices
    — these messages surface verbatim in ``repro run --scheme`` errors.
    """
    cls = registry.get(name)
    if cls is None:
        known = ", ".join(sorted(registry))
        raise ValueError(f"unknown {kind} {name!r} (valid {kind}s: {known})")
    declared = {field.name: field for field in fields(cls)}
    kwargs = dict(kwargs or {})
    unknown = sorted(set(kwargs) - set(declared))
    if unknown:
        valid = ", ".join(sorted(declared)) or "none"
        raise ValueError(
            f"{kind} {name!r} got unknown parameter(s) {unknown} "
            f"(valid parameters: {valid})"
        )
    try:
        coerced = {
            key: _coerce(key, value, declared[key].default)
            for key, value in kwargs.items()
        }
        return cls(**coerced)
    except (TypeError, ValueError) as error:
        raise ValueError(f"invalid parameters for {kind} {name!r}: {error}") from None
