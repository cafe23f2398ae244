"""Scheduling schemes: composable Router x Orderer x Allocator pipelines.

Every scheme — the paper's LP-Based algorithm, the Section-4.3 heuristics,
the Varys-style SEBF extension, and their arrival-driven ``Online-*``
variants — is one :class:`PipelineScheme`: a routing stage crossed with an
ordering stage crossed with a rate allocator, optionally re-planned at
every coflow arrival (``online=True``).  Schemes are built from the spec
grammar (:func:`scheme_from_spec`): an alias such as ``"LP-Based"`` or a
spelled-out ``"pipeline(router=..., order=...)"`` expression.
"""

from .base import Scheme, load_balanced_route, random_route, respect_given_paths
from .pipeline import PipelineScheme
from .spec import SCHEME_ALIASES, known_scheme_names, parse_pipeline_spec, scheme_from_spec
from .stages import (
    ORDERERS,
    ROUTERS,
    ArrivalOrderer,
    BalancedRouter,
    GivenPathsRouter,
    LPOrderer,
    LPRouter,
    MCTOrderer,
    Orderer,
    PlanContext,
    RandomOrderer,
    RandomRouter,
    Router,
    SEBFOrderer,
    Stage,
    build_stage,
)

__all__ = [
    "Scheme",
    "random_route",
    "load_balanced_route",
    "respect_given_paths",
    "PipelineScheme",
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
    "SCHEME_ALIASES",
    "scheme_from_spec",
    "parse_pipeline_spec",
    "known_scheme_names",
]
