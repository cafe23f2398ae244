"""Property harness for the streaming scheduler service.

Four pillars:

* **batch=1 == online** — an explicit ``BatchPolicy(max_batch=1)``
  :class:`StreamingScheduler` session reproduces an ``online=true``
  pipeline scheme's run bit-identically across a seeded topology ×
  workload-family × allocator matrix (an online scheme is the streaming
  service's batch-size-1 special case, and must stay that way);
* **staleness bound** — under any :class:`BatchPolicy`, no coflow waits
  longer than the policy's declared bound between arriving and being
  planned, and the realised re-plan times equal
  ``BatchPolicy.replan_times`` of the distinct release times;
* **pause/resume splice** — feeding the same stream through interleaved
  ``submit``/``advance`` calls yields the identical epoch structure and
  result as a one-shot ``run``, with the fid-map memoization (replan count
  and map identity) stable across the splice;
* **resident == rebuild** — a session holding one resident kernel across
  every re-plan reproduces :class:`RebuildOracle`, the rebuild-per-epoch
  reference kept here as an executable oracle, bit-identically (``==``, no
  tolerance) on both kernel tiers, including under departures (free-list
  recycling, and :class:`LPReplanner` re-solving its LP as coflows
  leave), buffer growth past the initial capacities, zero-size ghosts
  and pause/resume splices; a single-epoch session equals the static
  simulator.  Across the seeded topology × workload-family × allocator
  matrix, the default batch-size-1 policy (the engine behind every
  ``online=true`` scheme) re-plans exactly once per distinct release time
  with zero staleness.
"""

import dataclasses
import gc

import pytest

from repro.baselines import scheme_from_spec
from repro.circuit.given_paths import _default_horizon
from repro.core import Coflow, CoflowInstance, Flow, topologies
from repro.sim import (
    BatchPolicy,
    FlowLevelSimulator,
    LPReplanner,
    ResidentJitKernel,
    ResidentSimulationKernel,
    SimulationPlan,
    StaticPlanReplanner,
    StreamingError,
    StreamingScheduler,
    kernel_jit,
    make_kernel,
    paused_gc,
)
from repro.sim.simulator import load_plan
from repro.workloads import CoflowGenerator, WorkloadConfig

needs_jit = pytest.mark.skipif(
    not kernel_jit.available(), reason="compiled kernel tier unavailable"
)

#: Both kernel tiers; the jit tier drops out (skip, not fail) on machines
#: without a C toolchain.
TIERS = ["array", pytest.param("jit", marks=needs_jit)]


@pytest.fixture(params=TIERS)
def tier(request, monkeypatch):
    """Each kernel tier, forced the way an operator forces one: through
    ``REPRO_SIM_BACKEND``."""
    monkeypatch.setenv("REPRO_SIM_BACKEND", request.param)
    return request.param


class RebuildOracle(StreamingScheduler):
    """The rebuild-per-epoch reference a resident session is held to.

    Every epoch runs on a fresh kernel of the class the session would use
    (or of the oracle's own ``tier``, when one is given), loaded from the
    epoch's sub-instance and plan (remaining volumes as sizes, starting at
    the re-plan time), and its outcome is folded into the session's
    accumulators: volumes, first starts, segments coalesced across epoch
    boundaries, a pin for every flow that moved, completions.  The oracle
    never holds a session kernel, so it keeps its segments itself.
    """

    def __init__(self, *args, tier=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.tier = tier
        self._segments = {}

    def _segment_log(self):
        return self._segments.items()

    def _finalize_plan(self, sub_plan, sub_instance, fid_map):
        sub_plan = super()._finalize_plan(sub_plan, sub_instance, fid_map)
        self._planned = (sub_instance, sub_plan, fid_map)
        return sub_plan

    def _patch_session(self, now, sub_plan, orig_order, new_coflows):
        current_path = self._current_path
        for i in new_coflows:
            section = self._section_memo.get(i)
            if section is not None:
                for orig in section.members:
                    current_path[orig] = self._validated_paths[orig]
        for orig, path in self._changed_paths:
            current_path[orig] = path
        self._epoch = (now, *self._planned)

    def _close_open_epoch(self, until):
        if not self._epoch_open:
            return
        self._epoch_open = False
        now, sub_instance, sub_plan, fid_map = self._epoch
        kernel = make_kernel(
            self.network, sub_plan.allocator, backend=self.tier, start_time=now
        )
        ingested = load_plan(
            kernel, sub_instance, sub_plan, max_events=self.max_events
        )
        kernel.run(until=until)
        self._events += kernel.events
        self._fold_epoch(kernel, [fid_map[sub] for sub in ingested])

    def _fold_epoch(self, kernel, origs):
        """Fold one fresh epoch kernel (slot/ingest id ``k`` holds flow
        ``origs[k]``) into the global accumulators."""
        completions, starts, touched, _moved = kernel.harvest_epoch()
        for k, volume in touched:
            self._remaining[origs[k]] = volume
            self._dirty_coflows.add(origs[k][0])
        for k, t in starts:
            self._start.setdefault(origs[k], t)
        for sid, new_segments in kernel.drain_all_segments():
            orig = origs[sid]
            target = self._segments.setdefault(orig, [])
            for seg in new_segments:
                if target and target[-1][1] == seg[0] and target[-1][2] == seg[2]:
                    target[-1][1] = seg[1]
                else:
                    target.append(list(seg))
            self._pinned[orig] = self._current_path[orig]
        for k, t in completions:
            self._completion[origs[k]] = t
            # Completed flows never re-enter a plan: drop their pins.
            self._pinned.pop(origs[k], None)


def assert_results_identical(a, b):
    """Bit-exact equality of everything a simulation result asserts."""
    assert a.flow_completion == b.flow_completion
    assert a.flow_start == b.flow_start
    assert a.events == b.events
    assert a.coflow_slowdowns == b.coflow_slowdowns


TOPOLOGIES = {
    "leaf-spine": lambda: topologies.leaf_spine(
        num_leaves=2, num_spines=2, hosts_per_leaf=2
    ),
    "fat-tree": lambda: topologies.fat_tree(4),
}
WORKLOADS = {
    "poisson": {},
    "pareto": {"flow_size_distribution": "pareto"},
}


def seeded_case(topology_key, workload_key, seed=11):
    network = TOPOLOGIES[topology_key]()
    config = WorkloadConfig(
        num_coflows=4,
        coflow_width=3,
        mean_flow_size=4.0,
        coflow_arrival_rate=0.4,
        seed=seed,
        **WORKLOADS[workload_key],
    )
    instance = CoflowGenerator(network, config).instance()
    return network, instance


def staircase_stream():
    """Deterministic stream on the triangle: unit flows arriving far enough
    apart that earlier coflows *depart* before later ones arrive."""
    network = topologies.triangle()
    coflows = [
        Coflow(flows=(Flow("x", "y", size=1.0),), name="c0"),
        Coflow(flows=(Flow("x", "y", size=1.0, release_time=3.0),), name="c1"),
        Coflow(
            flows=(
                Flow("y", "z", size=1.0, release_time=6.0),
                Flow("x", "y", size=2.0, release_time=6.0),
            ),
            name="c2",
        ),
        Coflow(flows=(Flow("z", "x", size=1.0, release_time=9.0),), name="c3"),
    ]
    return network, CoflowInstance(coflows=coflows, name="staircase")


# ------------------------------------------------- batch=1 == online scheme

class TestBatchOneEqualsOnline:
    @pytest.mark.parametrize("topology_key", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
    @pytest.mark.parametrize("allocator", ["greedy", "max-min"])
    def test_bit_identical_across_matrix(
        self, topology_key, workload_key, allocator
    ):
        network, instance = seeded_case(topology_key, workload_key)
        scheme = scheme_from_spec(
            f"pipeline(router=balanced, order=sebf, alloc={allocator}, "
            "online=true)"
        )
        online = scheme.simulate(instance, network)
        session = StreamingScheduler(
            network,
            lambda context: scheme.plan(context.instance, context.network),
            policy=BatchPolicy(max_batch=1),
        )
        streamed = session.run(instance, plan_name=scheme.name)
        assert_results_identical(streamed, online)
        assert online.plan_name == streamed.plan_name == scheme.name


# --------------------------------------------------------- staleness bound

class TestStalenessBound:
    POLICIES = [
        BatchPolicy(max_batch=1),
        BatchPolicy(max_batch=2, max_delay=3.0),
        BatchPolicy(max_batch=4, max_delay=8.0),
        BatchPolicy(max_batch=None, max_delay=5.0),
    ]

    @pytest.mark.parametrize(
        "policy", POLICIES, ids=["one", "two", "four", "unbounded"]
    )
    def test_no_coflow_waits_past_the_bound(self, policy):
        network, instance = seeded_case("leaf-spine", "poisson", seed=37)
        base = scheme_from_spec("SEBF").plan(instance, network)
        session = StreamingScheduler(
            network, StaticPlanReplanner(base), policy=policy
        )
        session.run(instance)
        report = session.staleness_report()
        assert report["within_bound"] == 1.0
        assert report["max_staleness"] <= policy.staleness_bound() + 1e-9

        # The realised re-plan times are exactly the policy's closed-form
        # schedule over the distinct release times.
        releases = sorted({c.release_time for c in instance.coflows})
        assert [e["now"] for e in session.decision_log] == pytest.approx(
            policy.replan_times(releases)
        )
        # Every coflow is admitted at the first re-plan at/after its release
        # — within the bound of its own arrival.
        times = policy.replan_times(releases)
        for coflow in instance.coflows:
            admission = min(t for t in times if t >= coflow.release_time)
            assert admission - coflow.release_time <= (
                policy.staleness_bound() + 1e-9
            )

    def test_replan_times_closed_form(self):
        policy = BatchPolicy(max_batch=2, max_delay=3.0)
        assert policy.replan_times([0.0, 1.0, 2.5, 7.0, 8.0]) == [1.0, 5.5, 8.0]
        # Suffix property: the schedule for a suffix starting at a batch
        # boundary is the suffix of the schedule.
        assert policy.replan_times([2.5, 7.0, 8.0]) == [5.5, 8.0]
        assert BatchPolicy(max_batch=1).replan_times([0.0, 4.0]) == [0.0, 4.0]
        assert BatchPolicy(max_batch=None, max_delay=2.0).replan_times(
            [0.0, 1.0, 1.5, 5.0]
        ) == [2.0, 7.0]

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_delay"):
            BatchPolicy(max_batch=2, max_delay=-1.0)
        with pytest.raises(ValueError, match="max_delay"):
            BatchPolicy(max_batch=2, max_delay=float("inf"))
        with pytest.raises(ValueError, match="unbounded"):
            BatchPolicy(max_batch=None, max_delay=0.0)
        assert BatchPolicy(max_batch=1, max_delay=9.0).staleness_bound() == 0.0
        assert BatchPolicy(max_batch=2, max_delay=9.0).staleness_bound() == 9.0


# ------------------------------------------------------ pause/resume splice

class RecordingReplanner:
    """SRPT on remaining volume, recording every context's fid_map."""

    def __init__(self, network):
        self.network = network
        self.fid_maps = []

    def __call__(self, context):
        self.fid_maps.append(context.fid_map)
        order = sorted(
            context.instance.flow_ids(),
            key=lambda fid: (context.instance.flow(fid).size, fid),
        )
        paths = {}
        for fid in context.instance.flow_ids():
            flow = context.instance.flow(fid)
            paths[fid] = tuple(
                self.network.shortest_path(flow.source, flow.destination)
            )
        return SimulationPlan(paths=paths, order=order, name="srpt")


class ReroutingReplanner(RecordingReplanner):
    """SRPT that moves every flow to another of its equal-cost shortest
    paths at each re-plan, so admitted flows that have not moved volume
    yet are re-routed (the engine pins the paths of the rest)."""

    def __init__(self, network):
        super().__init__(network)
        self.calls = 0

    def __call__(self, context):
        plan = super().__call__(context)
        self.calls += 1
        paths = {}
        for fid in context.instance.flow_ids():
            flow = context.instance.flow(fid)
            options = self.network.all_shortest_paths(flow.source, flow.destination)
            paths[fid] = tuple(options[(self.calls + fid[1]) % len(options)])
        return SimulationPlan(paths=paths, order=plan.order, name="srpt-reroute")


class TestPauseResumeSplice:
    @pytest.mark.parametrize(
        "policy",
        [BatchPolicy(max_batch=1), BatchPolicy(max_batch=2, max_delay=4.0)],
        ids=["per-arrival", "batched"],
    )
    def test_splice_is_epoch_identical_to_one_shot(self, policy):
        network, instance = seeded_case("leaf-spine", "poisson", seed=51)

        one_shot = StreamingScheduler(
            network, RecordingReplanner(network), policy=policy
        )
        expected = one_shot.run(instance)

        spliced = StreamingScheduler(
            network, RecordingReplanner(network), policy=policy
        )
        for coflow in sorted(instance.coflows, key=lambda c: c.release_time):
            spliced.submit(coflow)
            spliced.advance(until=coflow.release_time)
        result = spliced.finish()

        assert_results_identical(result, expected)
        assert spliced.replan_count == one_shot.replan_count
        assert [e["now"] for e in spliced.decision_log] == [
            e["now"] for e in one_shot.decision_log
        ]
        assert spliced.fid_map_reuses == one_shot.fid_map_reuses

    def test_fid_map_object_reused_when_membership_stable(self):
        """A re-plan whose active membership matches the previous one gets
        the *same* fid_map dict object (the ISSUE-8 memoization fix)."""
        network = topologies.triangle()
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=10.0),), name="elephant"),
                # Zero-size coflow: completes at release, contributes no
                # members — the membership signature does not change.
                Coflow(
                    flows=(Flow("x", "y", size=0.0, release_time=2.0),),
                    name="ghost",
                ),
            ],
            name="stable-membership",
        )
        replanner = RecordingReplanner(network)
        session = StreamingScheduler(
            network, replanner, policy=BatchPolicy(max_batch=1)
        )
        result = session.run(instance)
        assert session.replan_count == 2
        assert session.fid_map_reuses == 1
        assert replanner.fid_maps[1] is replanner.fid_maps[0]
        assert result.flow_completion[(1, 0)] == pytest.approx(2.0)
        assert result.flow_completion[(0, 0)] == pytest.approx(10.0)


# -------------------------------------------------------- service contract

class TestServiceContract:
    def _simple(self):
        network = topologies.triangle()
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=2.0),)),
                Coflow(flows=(Flow("x", "y", size=1.0, release_time=4.0),)),
            ]
        )
        return network, instance

    def test_late_arrival_rejected(self):
        network, instance = self._simple()
        session = StreamingScheduler(network, RecordingReplanner(network))
        session.submit(instance.coflows[1])
        session.advance()
        with pytest.raises(StreamingError, match="late arrival"):
            session.submit(instance.coflows[0])

    def test_finish_is_idempotent_and_seals_the_session(self):
        network, instance = self._simple()
        session = StreamingScheduler(network, RecordingReplanner(network))
        result = session.run(instance)
        assert session.finish() is result
        with pytest.raises(StreamingError, match="finished"):
            session.submit(instance.coflows[0])
        with pytest.raises(StreamingError, match="finished"):
            session.advance()
        with pytest.raises(StreamingError, match="fresh session"):
            session.run(instance)

    def test_metrics_shape(self):
        network, instance = self._simple()
        session = StreamingScheduler(network, RecordingReplanner(network))
        session.run(instance)
        metrics = session.streaming_metrics()
        for key in (
            "replans",
            "arrivals",
            "plan_seconds",
            "replans_per_sec",
            "arrivals_per_plan_sec",
            "p50_decision_latency",
            "p99_decision_latency",
            "max_decision_latency",
            "max_staleness",
            "staleness_bound",
            "events",
            "fid_map_reuses",
            "epoch_setup_seconds",
        ):
            assert key in metrics
        assert metrics["replans"] == 2.0
        assert metrics["arrivals"] == 2.0
        assert metrics["plan_seconds"] > 0.0
        assert metrics["epoch_setup_seconds"] >= 0.0
        assert session.completed_coflows() == [0, 1]


# ------------------------------------------------------ resident == rebuild

def assert_schedules_identical(a, b, instance):
    for fid in instance.flow_ids():
        assert a.schedule.path(fid) == b.schedule.path(fid), fid
        assert a.schedule.segments(fid) == b.schedule.segments(fid), fid


class TestResidentEqualsRebuild:
    """One kernel survives every re-plan — arrivals are ingested as deltas,
    re-plans patch priorities and paths in place, departures tombstone
    slots into a free-list — and the results must stay bit-identical
    (``==``, no tolerance) to :class:`RebuildOracle`, on both tiers."""

    def _sessions(self, network, replanner, policy=None):
        policy = policy or BatchPolicy(max_batch=1)
        return tuple(
            cls(network, replanner(), policy=policy)
            for cls in (StreamingScheduler, RebuildOracle)
        )

    @pytest.mark.parametrize("topology_key", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
    @pytest.mark.parametrize("allocator", ["greedy", "max-min"])
    def test_bit_identical_across_matrix(
        self, topology_key, workload_key, allocator, tier
    ):
        network, instance = seeded_case(topology_key, workload_key)
        base = scheme_from_spec("SEBF").plan(instance, network)
        plan = SimulationPlan(
            paths=base.paths, order=base.order, name="sebf", allocator=allocator
        )
        session, oracle = self._sessions(
            network, lambda: StaticPlanReplanner(plan)
        )
        resident = session.run(instance)
        rebuild = oracle.run(instance)
        assert_results_identical(resident, rebuild)
        assert_schedules_identical(resident, rebuild, instance)
        # Residency really engaged — and only on the session.
        assert session._session_kernel is not None
        assert oracle._session_kernel is None
        assert [e["now"] for e in session.decision_log] == [
            e["now"] for e in oracle.decision_log
        ]
        # batch=1 re-plans exactly once per distinct release time.
        releases = sorted({c.release_time for c in instance.coflows})
        assert [e["now"] for e in session.decision_log] == releases
        assert session.staleness_report() == {
            "max_staleness": 0.0,
            "mean_staleness": 0.0,
            "bound": 0.0,
            "within_bound": 1.0,
        }

    @needs_jit
    @pytest.mark.parametrize("topology_key", sorted(TOPOLOGIES))
    @pytest.mark.parametrize("workload_key", sorted(WORKLOADS))
    def test_bit_identical_on_the_compiled_tier(
        self, topology_key, workload_key, monkeypatch
    ):
        network, instance = seeded_case(topology_key, workload_key)
        plan = scheme_from_spec("SEBF").plan(instance, network)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "jit")
        session, oracle = self._sessions(
            network, lambda: StaticPlanReplanner(plan)
        )
        resident = session.run(instance)
        assert_results_identical(resident, oracle.run(instance))
        assert isinstance(session._session_kernel, ResidentJitKernel)
        # ... and both agree with the Python-tier session.
        monkeypatch.setenv("REPRO_SIM_BACKEND", "array")
        array_session, _ = self._sessions(
            network, lambda: StaticPlanReplanner(plan)
        )
        array = array_session.run(instance)
        assert_results_identical(array, resident)
        assert_schedules_identical(array, resident, instance)

    def test_departures_recycle_slots(self, tier):
        """The staircase stream departs coflows mid-session: the resident
        kernel must tombstone their slots and hand them to later arrivals
        (the free list is load-bearing, not decorative)."""
        network, instance = staircase_stream()
        session, oracle = self._sessions(
            network, lambda: RecordingReplanner(network)
        )
        result = session.run(instance)
        assert_results_identical(result, oracle.run(instance))
        assert session._session_kernel.slots_reused > 0

    @pytest.mark.parametrize(
        "policy",
        [BatchPolicy(max_batch=1), BatchPolicy(max_batch=2, max_delay=4.0)],
        ids=["per-arrival", "batched"],
    )
    def test_lp_replanner_with_departures(self, policy, tier):
        """The LP replanner re-solves its LP over one pinned grid while
        coflows depart mid-stream; the session must still equal the
        oracle."""
        network, instance = staircase_stream()
        routed = instance.with_paths(
            {
                fid: network.shortest_path(
                    instance.flow(fid).source, instance.flow(fid).destination
                )
                for fid in instance.flow_ids()
            }
        )
        horizon = _default_horizon(routed, network)
        session, oracle = self._sessions(
            network, lambda: LPReplanner(network, horizon), policy
        )
        result = session.run(instance)
        rebuild = oracle.run(instance)
        assert_results_identical(result, rebuild)
        assert_schedules_identical(result, rebuild, instance)
        # The stream really exercises departures: some re-plan sees fewer
        # active coflows than have been admitted by then.
        admitted = 0
        pruned = False
        for entry in session.decision_log:
            admitted += entry["admitted"]
            if entry["active_coflows"] < admitted:
                pruned = True
        assert pruned, "no coflow departed mid-stream; the case is too easy"

    def test_reroutes_of_unmoved_flows_are_identical(self, tier, monkeypatch):
        """Re-plans that move admitted-but-unmoved flows to other paths
        patch the session kernel in place (``update_path``) and must still
        equal the oracle, which simply builds each epoch on the new paths."""
        reroutes = []
        for cls in (ResidentSimulationKernel, ResidentJitKernel):
            def counted(kernel, k, path, _update=cls.update_path):
                reroutes.append(k)
                _update(kernel, k, path)

            monkeypatch.setattr(cls, "update_path", counted)
        network, instance = seeded_case("fat-tree", "pareto", seed=51)
        policies = (BatchPolicy(max_batch=1), BatchPolicy(max_batch=2, max_delay=4.0))
        for policy in policies:
            session, oracle = self._sessions(
                network, lambda: ReroutingReplanner(network), policy
            )
            result = session.run(instance)
            rebuild = oracle.run(instance)
            assert_results_identical(result, rebuild)
            assert_schedules_identical(result, rebuild, instance)
        assert reroutes, "no admitted flow was re-routed; the case is too easy"

    def test_zero_size_ghost_never_reaches_the_session(self, tier):
        """Zero-size coflows complete at submit time; the resident kernel
        must never see them (ingesting one is an error by contract)."""
        network = topologies.triangle()
        instance = CoflowInstance(
            coflows=[
                Coflow(flows=(Flow("x", "y", size=10.0),), name="elephant"),
                Coflow(
                    flows=(Flow("x", "y", size=0.0, release_time=2.0),),
                    name="ghost",
                ),
            ],
            name="stable-membership",
        )
        session, oracle = self._sessions(
            network, lambda: RecordingReplanner(network)
        )
        result = session.run(instance)
        assert_results_identical(result, oracle.run(instance))
        assert result.flow_completion[(1, 0)] == pytest.approx(2.0)
        kernel = session._session_kernel
        assert all(fid != (1, 0) for fid in kernel.fids if fid is not None)

    @pytest.mark.parametrize(
        "policy",
        [BatchPolicy(max_batch=1), BatchPolicy(max_batch=2, max_delay=4.0)],
        ids=["per-arrival", "batched"],
    )
    def test_pause_resume_splice_stays_identical(self, policy, tier):
        network, instance = seeded_case("leaf-spine", "poisson", seed=51)
        one_shot, oracle = self._sessions(
            network, lambda: RecordingReplanner(network), policy
        )
        expected = one_shot.run(instance)

        spliced = StreamingScheduler(
            network, RecordingReplanner(network), policy=policy
        )
        for coflow in sorted(instance.coflows, key=lambda c: c.release_time):
            spliced.submit(coflow)
            spliced.advance(until=coflow.release_time)
        result = spliced.finish()

        assert_results_identical(result, expected)
        assert spliced.replan_count == one_shot.replan_count
        # The spliced resident stream also matches the rebuild reference.
        assert_results_identical(result, oracle.run(instance))

    @pytest.mark.parametrize("allocator", ["greedy", "max-min"])
    def test_single_epoch_session_equals_the_static_simulator(
        self, allocator, tier
    ):
        """Every coflow arrives at t=0, so the session runs one epoch: it
        must equal ``FlowLevelSimulator.run`` of the same plan, segments
        included."""
        network = topologies.leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
        config = WorkloadConfig(
            num_coflows=4, coflow_width=3, mean_flow_size=4.0, seed=29
        )
        generated = CoflowGenerator(network, config).instance()
        # Shift every coflow to arrive at t=0, keeping the later releases
        # of its other flows (they stay pending inside the one epoch).
        coflows = [
            Coflow(
                flows=tuple(
                    dataclasses.replace(
                        flow, release_time=flow.release_time - coflow.release_time
                    )
                    for flow in coflow.flows
                ),
                weight=coflow.weight,
            )
            for coflow in generated.coflows
        ]
        # A zero-size flow rides along: both paths complete it at release.
        first = coflows[0].flows[0]
        coflows.append(
            Coflow(flows=(Flow(first.source, first.destination, size=0.0),))
        )
        instance = CoflowInstance(coflows=coflows, name="t0")
        assert {c.release_time for c in instance.coflows} == {0.0}
        assert max(f.release_time for _, _, f in instance.iter_flows()) > 0.0
        base = scheme_from_spec("SEBF").plan(instance, network)
        plan = SimulationPlan(
            paths=base.paths, order=base.order, name="sebf", allocator=allocator
        )
        session = StreamingScheduler(network, StaticPlanReplanner(plan))
        streamed = session.run(instance)
        static = FlowLevelSimulator(network).run(instance, plan)
        assert session.replan_count == 1
        assert_results_identical(streamed, static)
        assert streamed.breakdown == static.breakdown
        assert_schedules_identical(streamed, static, instance)

    @staticmethod
    def _switching_replanner(plan):
        """Greedy at the first re-plan, max-min at every later one."""
        restrict = StaticPlanReplanner(plan)
        replans = []

        def replan(context):
            replans.append(context.now)
            sub_plan = restrict(context)
            if len(replans) == 1:
                return sub_plan
            return dataclasses.replace(sub_plan, allocator="max-min")

        return replan

    @pytest.mark.parametrize("oracle_tier", TIERS)
    def test_python_tier_follows_an_allocator_switch(
        self, oracle_tier, monkeypatch
    ):
        """The Python-tier session re-resolves the allocator at every
        epoch and equals the rebuild oracle, whose fresh per-epoch kernels
        pick their tier from each plan (greedy epochs reach the compiled
        tier when the oracle runs on ``jit``)."""
        monkeypatch.setenv("REPRO_SIM_BACKEND", "array")
        network, instance = seeded_case("leaf-spine", "poisson")
        plan = scheme_from_spec("SEBF").plan(instance, network)
        session = StreamingScheduler(network, self._switching_replanner(plan))
        oracle = RebuildOracle(
            network, self._switching_replanner(plan), tier=oracle_tier
        )
        result = session.run(instance)
        rebuild = oracle.run(instance)
        assert session.replan_count > 1
        assert session._session_kernel.allocator_name == "max-min"
        assert_results_identical(result, rebuild)
        assert_schedules_identical(result, rebuild, instance)

    @needs_jit
    @pytest.mark.parametrize("backend", ["jit", ""], ids=["jit", "unpinned"])
    def test_compiled_session_rejects_an_allocator_switch(
        self, backend, monkeypatch
    ):
        """A compiled session, which an unpinned one is wherever the C core
        builds, keeps the greedy allocator of its first plan: a later plan
        naming another allocator is refused, not run, and the error names
        the remedy."""
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)  # "" reads as unset
        network, instance = seeded_case("leaf-spine", "poisson")
        plan = scheme_from_spec("SEBF").plan(instance, network)
        session = StreamingScheduler(network, self._switching_replanner(plan))
        with pytest.raises(ValueError, match="'max-min' mid-session") as error:
            session.run(instance)
        assert "REPRO_SIM_BACKEND=array" in str(error.value)
        assert isinstance(session._session_kernel, ResidentJitKernel)


@needs_jit
class TestResidentBufferGrowth:
    """Drive the compiled resident tier directly — ingest → begin_epoch →
    run → harvest cycles — with pathologically small initial buffers, the
    growable array tier as the correctness twin: slot rows, the edge pool
    and the segment log must all grow past their initial capacities
    mid-session (the segment buffer mid-*run*) without disturbing results,
    and tombstoned slots must come back through the free list."""

    def _drive(self, kernel, batches, path):
        """Run one epoch per batch to completion; fold harvests the way the
        streaming engine does (earliest start wins)."""
        completions, starts = {}, {}
        live = []
        now = 0.0
        for new_flows in batches:
            for fid, size, release in new_flows:
                kernel.ingest(fid, size, now + release, path)
                live.append(fid)
            kernel.begin_epoch(now, [kernel.slot_of(fid) for fid in live])
            assert kernel.run() is True
            done, started, _touched, _moved = kernel.harvest_epoch()
            for k, t in done:
                completions[kernel.fids[k]] = t
            for k, t in started:
                starts.setdefault(kernel.fids[k], t)
            live = [fid for fid in live if fid not in completions]
            now = kernel.now
        return completions, starts

    def _batches(self):
        # 20 same-edge flows: >16 bandwidth segments in epoch 0, so the
        # segment buffer grows mid-run; 20 + 8 concurrent rows grow the
        # slot columns past initial_capacity=1; batch 3 recycles the 20
        # slots freed when batch 1's flows were tombstoned.
        first = [(("a", i), 1.0 + 0.5 * i, 0.25 * i) for i in range(20)]
        second = [(("b", i), 2.0 + 0.25 * i, 0.0) for i in range(8)]
        third = [(("c", i), 1.0 + 0.125 * i, 0.5 * i) for i in range(25)]
        return [first, second, third]

    def test_growth_and_reuse_match_the_array_twin(self):
        network = topologies.triangle()
        path = network.shortest_path("x", "y")
        jit = ResidentJitKernel(
            network, initial_capacity=1, initial_segment_capacity=16
        )
        twin = ResidentSimulationKernel(network)
        batches = self._batches()
        jit_completions, jit_starts = self._drive(jit, batches, path)
        twin_completions, twin_starts = self._drive(twin, batches, path)
        assert jit_completions == twin_completions
        assert jit_starts == twin_starts
        assert dict(jit.drain_all_segments()) == dict(twin.drain_all_segments())
        # The tiny initial buffers really grew, and slots really recycled.
        assert jit._cap > 1
        assert jit._seg_cap > 16
        assert jit.slots_reused == twin.slots_reused == 20

    def test_ingest_many_matches_sequential_ingest(self):
        """The vectorised batch ingest is defined as ``ingest`` in a loop:
        same slots, same sids, same epoch outcome."""
        network = topologies.triangle()
        path = network.shortest_path("x", "y")
        batch = ResidentJitKernel(
            network, initial_capacity=1, initial_segment_capacity=16
        )
        seq = ResidentJitKernel(
            network, initial_capacity=1, initial_segment_capacity=16
        )
        fids = [("a", i) for i in range(9)]
        sizes = [1.0 + 0.5 * i for i in range(9)]
        releases = [0.5 * i for i in range(9)]
        ks = batch.ingest_many(fids, sizes, releases, [path] * 9)
        ks_seq = [
            seq.ingest(fid, size, release, path)
            for fid, size, release in zip(fids, sizes, releases)
        ]
        assert list(ks) == ks_seq
        assert [batch.sid_of(fid) for fid in fids] == [
            seq.sid_of(fid) for fid in fids
        ]
        for kernel in (batch, seq):
            kernel.begin_epoch(0.0, [kernel.slot_of(fid) for fid in fids])
            assert kernel.run() is True
        done_batch, starts_batch, _, _ = batch.harvest_epoch()
        done_seq, starts_seq, _, _ = seq.harvest_epoch()
        assert done_batch == done_seq
        assert starts_batch == starts_seq

        # A second batch spans the free list and fresh rows: all 9 slots
        # are tombstoned, then 12 flows arrive on a two-hop path.
        now = batch.now
        assert seq.now == now
        two_hop = ("x", "y", "z")
        later = [("b", i) for i in range(12)]
        for kernel in (batch, seq):
            kernel.begin_epoch(now, [])
        ks = batch.ingest_many(later, [2.0] * 12, [now] * 12, [two_hop] * 12)
        ks_seq = [seq.ingest(fid, 2.0, now, two_hop) for fid in later]
        assert list(ks) == ks_seq
        assert batch.slots_reused == seq.slots_reused == 9
        for fid in later:
            k = batch.slot_of(fid)
            assert batch.sid_of(fid) == seq.sid_of(fid)
            assert batch._edge_ids_of(k) == seq._edge_ids_of(k)
        for kernel in (batch, seq):
            kernel.begin_epoch(now, [kernel.slot_of(fid) for fid in later])
            assert kernel.run() is True
        assert batch.harvest_epoch()[:2] == seq.harvest_epoch()[:2]

    def test_harvest_buffers_regrow_mid_session(self):
        """The harvest call's pointer group is cached after its first use;
        a later epoch with more live flows than the scratch holds regrows
        the ``_hv_*`` buffers, and every harvest after that must write into
        the new ones.  Epochs pause mid-flight, so completions, starts,
        volume updates and first moves all cross harvests; every one must
        equal the Python tier's."""
        network = topologies.triangle()
        one_hop, two_hop = ("x", "y"), ("x", "y", "z")
        # (epoch start, new flows, size, path).  Epoch 0's two-hop flows
        # grow the per-edge slab past epoch 1's need, so epoch 1's six
        # flows regrow the scratch and nothing else.
        arrivals = [
            (0.0, 4, 0.2, two_hop),
            (1.0, 6, 1.0, one_hop),
            (2.5, 40, 0.5, one_hop),
            (6.0, 0, 0.0, one_hop),
        ]

        def drive(kernel):
            live, log, starts, caps = [], [], {}, []
            for epoch, (now, count, size, path) in enumerate(arrivals):
                for n in range(count):
                    fid = (epoch, n)
                    kernel.ingest(fid, size + 0.125 * n, now + 0.0625 * n, path)
                    live.append(fid)
                kernel.begin_epoch(now, [kernel.slot_of(fid) for fid in live])
                last = epoch + 1 == len(arrivals)
                kernel.run(until=None if last else arrivals[epoch + 1][0])
                done, started, touched, moved = kernel.harvest_epoch()
                fid_of = kernel.fids
                log.append((
                    dict((fid_of[k], t) for k, t in done),
                    dict((fid_of[k], v) for k, v in touched),
                    sorted(fid_of[k] for k in moved),
                ))
                for k, t in started:
                    starts.setdefault(fid_of[k], t)
                if isinstance(kernel, ResidentJitKernel):
                    # The cached group points at the live buffers.
                    assert kernel._hv_ptrs[8].value == kernel._hv_done.ctypes.data
                    caps.append((kernel._scratch_cap, len(kernel._ea_flow)))
                live = [fid for fid in live if fid not in log[-1][0]]
            return log, starts, caps

        # Roomy slot and segment buffers: they never regrow.
        jit_log, jit_starts, caps = drive(
            ResidentJitKernel(network, initial_capacity=256)
        )
        twin_log, twin_starts, _ = drive(ResidentSimulationKernel(network))
        assert jit_log == twin_log
        assert jit_starts == twin_starts
        (scratch0, slab0), (scratch1, slab1) = caps[:2]
        assert scratch0 < scratch1 and slab0 == slab1
        assert all(entry[0] and entry[1] for entry in jit_log)

    def test_zero_volume_flow_is_rejected_by_both_tiers(self):
        network = topologies.triangle()
        path = network.shortest_path("x", "y")
        kernels = [
            ResidentJitKernel(
                network, initial_capacity=1, initial_segment_capacity=16
            ),
            ResidentSimulationKernel(network),
        ]
        for kernel in kernels:
            with pytest.raises(ValueError, match="no volume"):
                kernel.ingest(("ghost", 0), 0.0, 0.0, path)
            with pytest.raises(ValueError, match="no volume"):
                kernel.ingest_many([("ghost", 1)], [0.0], [0.0], [path])
            # A rejected batch admits nothing at all.
            assert all(fid is None for fid in kernel.fids)


# -------------------------------------------------------------- GC pausing

class TestPausedGC:
    """``paused_gc`` hoists the GC pause around the compiled event loop; it
    must restore whatever collector state it found — including when the
    guarded block raises — and nest as a no-op."""

    def test_restores_on_exception(self):
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                with paused_gc():
                    assert not gc.isenabled()
                    raise RuntimeError("boom")
            assert gc.isenabled()
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_nested_and_already_disabled(self):
        was_enabled = gc.isenabled()
        try:
            gc.disable()
            with paused_gc():
                assert not gc.isenabled()
            assert not gc.isenabled()  # found disabled: left disabled
            gc.enable()
            with paused_gc():
                with paused_gc():
                    assert not gc.isenabled()
                assert not gc.isenabled()  # inner exit keeps the outer pause
            assert gc.isenabled()
        finally:
            gc.enable() if was_enabled else gc.disable()
