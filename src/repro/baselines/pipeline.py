"""The pipeline scheme: Router x Orderer x Allocator, optionally online.

One :class:`PipelineScheme` replaces the bespoke per-cell subclasses of the
paper's evaluation grid: any routing rule crossed with any priority ordering
crossed with any rate allocator — statically planned or re-planned at every
coflow arrival (``online=True``) — is one object, addressable from the spec
grammar of :mod:`repro.baselines.spec`.  The paper's scheme names
(``LP-Based``, ``Baseline``, ``SEBF``, ``Online-*``, ...) are aliases onto
pipeline compositions, proven bit-identical to the former hand-written
classes by ``tests/baselines/test_scheme_equivalence.py``.
"""

from __future__ import annotations

from typing import Optional

from ..core.flows import CoflowInstance
from ..core.network import Network
from ..sim.allocators import resolve_allocator
from ..sim.plan import SimulationPlan
from .base import Scheme
from .stages import Orderer, PlanContext, Router, render_value

__all__ = ["PipelineScheme"]


class PipelineScheme(Scheme):
    """A scheme composed of registry stages (see the module docstring).

    Parameters
    ----------
    router:
        The routing stage (:data:`~repro.baselines.stages.ROUTERS`).
    orderer:
        The ordering stage (:data:`~repro.baselines.stages.ORDERERS`).
    alloc:
        Rate-allocator registry name
        (:data:`~repro.sim.allocators.ALLOCATORS`); validated eagerly.
    online:
        ``False`` plans once and simulates the static plan; ``True``
        re-plans the unfinished volume at every coflow arrival in a
        :class:`~repro.sim.streaming.StreamingScheduler` session.
    name:
        Display name used in report columns; defaults to the compact spec
        (e.g. ``pipeline(router=lp, order=sebf)``), so ad-hoc compositions
        label themselves.
    """

    def __init__(
        self,
        router: Router,
        orderer: Orderer,
        alloc: str = "greedy",
        online: bool = False,
        name: Optional[str] = None,
    ) -> None:
        resolve_allocator(alloc)  # fail fast on unknown allocator names
        if online:
            # Loaded when the scheme is built, as the LP stages load the LP
            # stack, so no task imports it for the first time.
            from ..sim import streaming  # noqa: F401
        self.router = router
        self.orderer = orderer
        self.alloc = alloc
        self.online = online
        self.name = name or self.spec(compact=True)

    # -------------------------------------------------------------- identity
    def spec(self, compact: bool = False) -> str:
        """Serialize the composition in the spec grammar.

        The canonical form (``compact=False``) spells out every stage
        parameter and is the scheme's :meth:`signature`; the compact form
        drops parameters and flags at their defaults, and is the default
        display name.  Both parse back through
        :func:`repro.baselines.spec.scheme_from_spec`.
        """
        parts = [
            f"router={self.router.spec(compact=compact)}",
            f"order={self.orderer.spec(compact=compact)}",
        ]
        if not compact or self.alloc != "greedy":
            parts.append(f"alloc={self.alloc}")
        if not compact or self.online:
            parts.append(f"online={render_value(self.online)}")
        return f"pipeline({', '.join(parts)})"

    def signature(self) -> str:
        """Stable run-store identity: the canonical stage-spec serialization.

        Unlike the ``repr(vars(...))`` fallback of the base class, this is
        byte-identical across processes for any stage parameters, and two
        differently-spelled specs of the same composition (alias name,
        compact spec, canonical spec) collapse to one signature — so warm
        run stores hit regardless of how the scheme was addressed.
        """
        return self.spec(compact=False)

    def with_options(
        self,
        alloc: Optional[str] = None,
        online: Optional[bool] = None,
        name: Optional[str] = None,
    ) -> "PipelineScheme":
        """A copy with the allocator / online flag / display name replaced."""
        return PipelineScheme(
            router=self.router,
            orderer=self.orderer,
            alloc=self.alloc if alloc is None else alloc,
            online=self.online if online is None else online,
            name=name,
        )

    # -------------------------------------------------------------- planning
    def plan(self, instance: CoflowInstance, network: Network) -> SimulationPlan:
        """Run the stages: route, then order, then package the plan.

        Stage diagnostics (the LP router's routing plan, the LP orderer's
        relaxation) are republished on the scheme as ``last_*`` attributes.
        For online schemes this is the epoch-zero decision — what the
        scheme would do knowing only the instance as given; the full
        re-planning run goes through :meth:`simulate`.
        """
        context = PlanContext(instance, network)
        paths = self.router.route(context)
        context.paths = paths
        order = self.orderer.order(context)
        for key, value in context.diagnostics.items():
            setattr(self, key, value)
        return SimulationPlan(
            paths=dict(paths),
            order=list(order),
            name=self.name,
            allocator=self.alloc,
            spec=self.signature(),
        )

    def simulate(self, instance: CoflowInstance, network: Network, simulator=None):
        """Execute the scheme: static single plan, or arrival-driven re-plans.

        Static pipelines plan once and run as one kernel session (via the
        base-class path).  Online pipelines open a
        :class:`~repro.sim.streaming.StreamingScheduler` session under its
        default per-arrival policy: at every coflow arrival the *same*
        stage composition re-plans the currently known, unfinished volume
        (flows that already moved volume keep their path), and the epochs
        are spliced into one result.
        """
        if not self.online:
            return super().simulate(instance, network, simulator)
        from ..sim.streaming import StreamingScheduler

        session = StreamingScheduler(
            network, lambda context: self.plan(context.instance, context.network)
        )
        return session.run(instance, plan_name=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PipelineScheme(name={self.name!r}, spec={self.spec(compact=True)!r})"

