"""Online coflow simulation: arrival-driven re-planning over the kernel.

The paper evaluates *clairvoyant offline* schedules: every scheme sees the
whole instance up front and produces one static plan.  The systems it
compares against (Varys-style schedulers) operate differently: coflows
*arrive over time* and the scheduler *re-plans on every arrival*, reordering
and re-routing the unfinished volume.

Since PR 8 the engine itself lives in :mod:`repro.sim.streaming`:
:class:`StreamingScheduler` generalises arrival-driven re-planning to
*batched* re-planning with a staleness bound, and
:class:`OnlineFlowSimulator` is its batch-size-1 special case — each ``run``
opens a fresh streaming session under ``BatchPolicy(max_batch=1)``, whose
re-plan times are exactly the distinct coflow release times.  The
equivalence is bit-exact and property-tested
(``tests/sim/test_streaming_equivalence.py``); this module keeps the
original public names (:class:`ReplanContext`, :data:`Replanner`,
:class:`StaticPlanReplanner`, :class:`OnlineFlowSimulator`) as the stable
import surface for sweeps and pipeline schemes.

* the stream of **arrival events** is derived from the instance itself —
  one event per distinct coflow release time (a coflow arrives when its
  first flow is released);
* at every arrival the engine pauses the kernel, snapshots the unfinished
  volume, and invokes a **replanner callback** with a
  :class:`ReplanContext`: a sub-instance holding the arrived coflows'
  unfinished flows (sizes replaced by their remaining volumes), the
  network, and the mapping back to original flow ids;
* the returned plan is spliced into one continuous simulation: the
  session kernel opens a new epoch at the arrival time and runs it until
  the next arrival.
  Flows that already moved volume keep their path (re-routing mid-transfer
  would corrupt the realised schedule); their priorities may change freely.

The result is a single :class:`~repro.sim.simulator.SimulationResult` whose
completion times, realised schedule and per-coflow slowdowns span the whole
horizon, directly comparable with a static run of the same scheme — which is
exactly what ``online=true`` pipeline schemes (the registry's ``Online-*``
names, :mod:`repro.baselines.pipeline`) expose to sweeps.  With a replanner
that always returns the restriction of one fixed plan
(:class:`StaticPlanReplanner`), online simulation reproduces the static
simulation of that plan (property-tested up to splice-point rounding).
"""

from __future__ import annotations

from typing import Optional

from ..core.flows import CoflowInstance
from ..core.network import Network
from .simulator import SimulationResult, validate_backend
from .streaming import (
    BatchPolicy,
    ReplanContext,
    Replanner,
    StaticPlanReplanner,
    StreamingScheduler,
)

__all__ = ["ReplanContext", "Replanner", "OnlineFlowSimulator", "StaticPlanReplanner"]


class OnlineFlowSimulator:
    """Simulate with re-planning at every coflow arrival (see module doc).

    Parameters
    ----------
    network:
        The capacitated topology.
    replanner:
        Callback invoked at every coflow arrival (see :data:`Replanner`).
    max_events:
        Optional per-epoch event cap forwarded to each kernel epoch.
    backend:
        Kernel backend of each run's session (``"array"``, ``"jit"``,
        ``"auto"`` or ``None`` — defer to the first plan / environment,
        then resolve like ``"auto"``).  A replanner that switches away
        from the greedy allocator needs ``backend="array"``: a compiled
        session keeps the allocator of its first plan.
        Epoch splicing is backend-agnostic: the compiled tier pauses at
        arrival deadlines with exactly the Python tier's semantics.
    """

    def __init__(
        self,
        network: Network,
        replanner: Replanner,
        max_events: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        validate_backend(backend)
        self.network = network
        self.replanner = replanner
        self.max_events = max_events
        self.backend = backend
        #: The streaming session behind the most recent :meth:`run` (exposes
        #: ``decision_log`` / ``streaming_metrics()`` for diagnostics).
        self.last_session: Optional[StreamingScheduler] = None

    # ------------------------------------------------------------------- run
    def run(
        self, instance: CoflowInstance, plan_name: Optional[str] = None
    ) -> SimulationResult:
        """Simulate the instance end-to-end; returns the spliced result.

        Each call opens a fresh batch-size-1 :class:`StreamingScheduler`
        session, so repeated runs stay independent and deterministic.
        """
        session = StreamingScheduler(
            self.network,
            self.replanner,
            policy=BatchPolicy(max_batch=1),
            max_events=self.max_events,
            backend=self.backend,
        )
        self.last_session = session
        return session.run(instance, plan_name=plan_name)
