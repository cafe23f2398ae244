"""The scheme spec grammar, stage registries and signature stability."""

import pickle
import random

import pytest

from repro.baselines import (
    ORDERERS,
    ROUTERS,
    SCHEME_ALIASES,
    BalancedRouter,
    BaselineScheme,
    LPOrderer,
    LPRouter,
    OnlineScheme,
    PipelineScheme,
    PlanContext,
    RandomOrderer,
    RandomRouter,
    SEBFOrderer,
    Scheme,
    build_stage,
    scheme_from_spec,
)
from repro.core import topologies
from repro.sim.plan import SimulationPlan
from repro.workloads import CoflowGenerator, WorkloadConfig


@pytest.fixture
def case():
    network = topologies.leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=4)
    instance = CoflowGenerator(
        network, WorkloadConfig(num_coflows=3, coflow_width=3, seed=5)
    ).instance()
    return network, instance


class TestGrammar:
    def test_alias_keeps_its_display_name(self):
        scheme = scheme_from_spec("SEBF-MaxMin")
        assert scheme.name == "SEBF-MaxMin"
        assert scheme.alloc == "max-min"
        assert scheme.orderer.key == "sebf"

    def test_raw_spec_names_itself_compactly(self):
        scheme = scheme_from_spec(
            "pipeline(router=balanced, order=sebf, alloc=greedy, online=false)"
        )
        assert scheme.name == "pipeline(router=balanced, order=sebf)"

    def test_stage_kwargs_parse_with_literal_coercion(self):
        scheme = scheme_from_spec(
            "pipeline(router=lp(epsilon=0.25, seed=7, path_selection=random), "
            "order=lp, online=true)"
        )
        assert scheme.router.epsilon == 0.25
        assert scheme.router.seed == 7
        assert scheme.router.path_selection == "random"
        assert scheme.online is True

    def test_canonical_spec_round_trips(self):
        for text in list(SCHEME_ALIASES.values()) + [
            "pipeline(router=lp(seed=3), order=mct, alloc=weighted)"
        ]:
            scheme = scheme_from_spec(text)
            reparsed = scheme_from_spec(scheme.signature())
            assert reparsed.signature() == scheme.signature(), text
            assert scheme_from_spec(scheme.spec(compact=True)).signature() == (
                scheme.signature()
            ), text

    def test_kwarg_order_and_defaults_do_not_change_the_signature(self):
        variants = [
            "pipeline(router=random, order=mct)",
            "pipeline(order=mct, router=random)",
            "pipeline(router=random(seed=0, max_paths=16), order=mct, "
            "alloc=greedy, online=false)",
            "Schedule-only",
        ]
        signatures = {scheme_from_spec(text).signature() for text in variants}
        assert len(signatures) == 1

    def test_whitespace_is_insignificant(self):
        a = scheme_from_spec("pipeline(router=random,order=mct)")
        b = scheme_from_spec("  pipeline( router = random , order = mct )  ")
        assert a.signature() == b.signature()


class TestGrammarErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("pipeline(router=xlp, order=sebf)", "unknown router 'xlp'"),
            ("pipeline(router=xlp, order=sebf)", "valid routers: "),
            ("pipeline(router=lp, order=zebra)", "unknown orderer 'zebra'"),
            ("pipeline(router=lp, order=zebra)", "valid orderers: "),
            ("pipeline(router=lp, order=lp, alloc=fairest)", "unknown allocator"),
            ("pipeline(router=lp(eps=1), order=lp)", "unknown parameter(s) ['eps']"),
            ("pipeline(order=sebf)", "missing the required router= stage"),
            ("pipeline(router=lp)", "missing the required order= stage"),
            ("pipeline(router=lp, order=lp, foo=1)", "unknown key(s) ['foo']"),
            ("pipeline(router=lp, order=lp, online=maybe)", "online must be true or false"),
            ("pipeline(router=lp, order=lp, alloc=max-min(x=1))", "takes no parameters"),
            ("pipeline(router=lp, order=lp", "expected ',' or ')'"),
            ("pipeline(router=lp, router=lp)", "duplicate parameter 'router'"),
            ("pipeline(router=, order=lp)", "expected a value for 'router'"),
            ("nope", "unknown scheme 'nope'"),
            ("nope", "known scheme names: "),
            ("nope", "pipeline(router="),
            (
                "pipeline(router=random(max_paths=0), order=random)",
                "invalid parameters for router 'random': max_paths must be at least 1",
            ),
            (
                "pipeline(router=balanced(max_paths=-2), order=sebf)",
                "invalid parameters for router 'balanced': max_paths must be at least 1",
            ),
            (
                "pipeline(router=lp(max_candidate_paths=0), order=lp)",
                "invalid parameters for router 'lp': max_candidate_paths must be at least 1",
            ),
        ],
    )
    def test_errors_name_the_bad_piece(self, text, fragment):
        with pytest.raises(ValueError, match=".*"):
            try:
                scheme_from_spec(text)
            except ValueError as error:
                assert fragment in str(error), str(error)
                raise

    def test_build_stage_unknown_name_lists_registry(self):
        with pytest.raises(ValueError) as excinfo:
            build_stage("router", ROUTERS, "bogus")
        assert "balanced, given, lp, random" in str(excinfo.value)
        assert sorted(ORDERERS) == ["arrival", "lp", "mct", "random", "sebf"]


class TestStages:
    def test_context_rng_is_shared_per_seed(self, case):
        network, instance = case
        context = PlanContext(instance, network)
        assert context.rng(0) is context.rng(0)
        assert context.rng(0) is not context.rng(1)

    def test_shared_rng_reproduces_the_single_stream_baseline(self, case):
        # Baseline's legacy contract: one Random(seed) routes then shuffles.
        network, instance = case
        plan = BaselineScheme(seed=9).plan(instance, network)
        rng = random.Random(9)
        from repro.baselines import random_route

        paths = random_route(instance, network, rng, max_paths=16)
        order = list(instance.flow_ids())
        rng.shuffle(order)
        assert plan.paths == paths
        assert plan.order == order

    def test_given_router_requires_paths(self, case):
        network, instance = case
        with pytest.raises(ValueError, match="router 'given'"):
            scheme_from_spec("pipeline(router=given, order=arrival)").plan(
                instance, network
            )

    def test_lp_orderer_consumes_the_router_hint_without_solving(self, case):
        network, instance = case
        context = PlanContext(instance, network)
        context.order_hint = list(reversed(instance.flow_ids()))
        assert LPOrderer().order(context) == list(reversed(instance.flow_ids()))
        assert "last_relaxation" not in context.diagnostics

    def test_lp_orderer_explicit_epsilon_overrides_the_hint(self, case):
        # A non-default epsilon selects a specific interval structure, so
        # it must force its own solve even when the lp router hinted an
        # order — otherwise the parameter would be a silent no-op that
        # still changed the run-store signature.
        network, instance = case
        context = PlanContext(instance, network)
        context.paths = scheme_from_spec("SEBF").router.route(context)
        context.order_hint = list(reversed(instance.flow_ids()))
        order = LPOrderer(epsilon=0.25).order(context)
        assert sorted(order) == sorted(instance.flow_ids())
        assert "last_relaxation" in context.diagnostics  # really solved

    @pytest.mark.parametrize(
        "make",
        [
            lambda: RandomRouter(max_paths=0),
            lambda: BalancedRouter(max_paths=-1),
            lambda: LPRouter(max_candidate_paths=0),
        ],
        ids=["random", "balanced", "lp"],
    )
    def test_routers_reject_empty_candidate_sets(self, make):
        with pytest.raises(ValueError, match="must be at least 1"):
            make()

    def test_int_parameters_reject_fractional_floats(self):
        with pytest.raises(ValueError, match="expected an integer for 'max_paths'"):
            scheme_from_spec("pipeline(router=random(max_paths=2.7), order=mct)")

    def test_lp_orderer_composes_with_any_router(self, case):
        # A composition the legacy class hierarchy could not express:
        # load-balanced routing under the LP completion-time order.
        network, instance = case
        scheme = scheme_from_spec("pipeline(router=balanced, order=lp)")
        plan = scheme.plan(instance, network)
        plan.validate(instance, network)
        assert sorted(plan.order) == sorted(instance.flow_ids())
        assert scheme.last_relaxation.lower_bound > 0.0

    def test_stage_spec_compact_and_canonical(self):
        router = RandomRouter(seed=3)
        assert router.spec(compact=True) == "random(seed=3)"
        assert router.spec() == "random(seed=3, max_paths=16)"
        assert SEBFOrderer().spec(compact=True) == "sebf"
        assert str(RandomOrderer()) == "random"


class TestPipelineScheme:
    def test_plan_carries_the_canonical_spec(self, case):
        network, instance = case
        scheme = scheme_from_spec("pipeline(router=balanced, order=sebf)")
        plan = scheme.plan(instance, network)
        assert plan.spec == scheme.signature()
        assert plan.normalized(instance).spec == scheme.signature()

    def test_schemes_pickle_for_the_worker_pool(self):
        scheme = scheme_from_spec("Online-LP-Based")
        clone = pickle.loads(pickle.dumps(scheme))
        assert clone.signature() == scheme.signature()
        assert clone.name == scheme.name

    def test_with_options_replaces_only_what_is_asked(self):
        scheme = scheme_from_spec("SEBF")
        online = scheme.with_options(online=True, name="Online-SEBF")
        assert online.online and online.name == "Online-SEBF"
        assert online.router == scheme.router and online.orderer == scheme.orderer
        assert scheme.online is False  # original untouched

    def test_online_factory_rejects_non_pipeline_schemes(self):
        class Custom(Scheme):
            """A scheme outside the pipeline world."""

            def plan(self, instance, network):
                """Unused."""
                raise NotImplementedError

        with pytest.raises(TypeError, match="OnlineFlowSimulator"):
            OnlineScheme(Custom())

    def test_unknown_allocator_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown rate allocator"):
            PipelineScheme(RandomRouter(), RandomOrderer(), alloc="bogus")


class TestSignatureShim:
    """Custom Scheme subclasses keep a stable vars()-based signature."""

    def test_default_object_reprs_are_stable_across_instances(self):
        class Knob:
            """A parameter object without a custom __repr__."""

        class Custom(Scheme):
            """Custom scheme carrying an opaque parameter object."""

            name = "custom"

            def __init__(self):
                self.knob = Knob()
                self.last_debug = object()  # excluded: mutable diagnostic

            def plan(self, instance, network):
                """Unused."""
                raise NotImplementedError

        first, second = Custom(), Custom()
        # Distinct objects at distinct addresses — the pre-fix signature
        # embedded `<Knob object at 0x...>` and differed every process.
        assert first.signature() == second.signature()
        assert "0x" not in first.signature()
        assert "last_debug" not in first.signature()
        assert "Knob object" in first.signature()
