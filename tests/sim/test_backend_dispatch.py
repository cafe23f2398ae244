"""Backend dispatch: selection precedence, fallback, and cache identity.

The kernel tier (``array`` / ``jit`` / ``auto``) is a *speed* knob — the
backends are bit-identical by contract — so the dispatch layer must (a)
decide the tier in one place, :func:`repro.sim.kernel_tier`, from the
explicit argument > ``REPRO_SIM_BACKEND`` environment variable >
``"auto"`` chain and the allocator (an unpinned greedy run gets the
compiled tier wherever its C core builds), (b) degrade gracefully (warn on
an explicit ``jit`` request, never fail; stay silent when unpinned) when
the compiled tier cannot run, and (c) keep the choice *out* of scheme
signatures and run-store keys: the same experiment simulated on either
backend must hit the same cache entry.
"""

import warnings

import pytest

from repro.analysis.runstore import run_key
from repro.baselines import scheme_from_spec
from repro.core import topologies
from repro.sim import (
    BACKENDS,
    FlowLevelSimulator,
    GreedyPriorityAllocator,
    MaxMinFairAllocator,
    ResidentJitKernel,
    ResidentSimulationKernel,
    StaticPlanReplanner,
    StreamingScheduler,
    kernel_jit,
    kernel_tier,
    make_kernel,
    resolve_backend,
    validate_backend,
)
from repro.workloads import CoflowGenerator, WorkloadConfig


@pytest.fixture
def case():
    network = topologies.leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=2)
    config = WorkloadConfig(
        num_coflows=2, coflow_width=3, mean_flow_size=2.0, release_rate=1.0, seed=9
    )
    instance = CoflowGenerator(network, config).instance()
    plan = scheme_from_spec("SEBF").plan(instance, network).normalized(instance)
    return network, config, instance, plan


class TestResolution:
    def test_default_is_the_compiled_tier_where_it_builds(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        expected = "jit" if kernel_jit.available() else "array"
        assert resolve_backend() == expected
        assert resolve_backend(None) == expected
        monkeypatch.setattr(kernel_jit, "available", lambda: False)
        assert resolve_backend() == "array"

    def test_explicit_argument_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "jit")
        assert resolve_backend("array") == "array"

    def test_environment_applies_when_unpinned(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "jit")
        assert resolve_backend() == "jit"
        monkeypatch.setenv("REPRO_SIM_BACKEND", "array")
        assert resolve_backend() == "array"
        monkeypatch.setenv("REPRO_SIM_BACKEND", "")  # empty == unset
        assert resolve_backend() == ("jit" if kernel_jit.available() else "array")

    def test_auto_resolves_to_a_concrete_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        resolved = resolve_backend("auto")
        assert resolved == ("jit" if kernel_jit.available() else "array")

    def test_unknown_names_raise(self):
        with pytest.raises(ValueError, match="unknown simulator backend"):
            validate_backend("numba")
        with pytest.raises(ValueError, match="unknown simulator backend"):
            resolve_backend("cython")
        for backend in BACKENDS:
            validate_backend(backend)  # all published names are valid


class TestDispatch:
    """``make_kernel`` is the one tier selector of static runs and streaming
    sessions: the compiled tier only for a resolved ``jit`` backend, the
    greedy allocator and a C core that builds; the Python tier otherwise."""

    def test_backend_selects_the_kernel_class(self, case, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        network, _config, _instance, _plan = case
        unpinned = (
            ResidentJitKernel if kernel_jit.available() else ResidentSimulationKernel
        )
        assert type(make_kernel(network)) is unpinned
        assert type(make_kernel(network, backend="array")) is ResidentSimulationKernel
        if kernel_jit.available():
            assert type(make_kernel(network, backend="jit")) is ResidentJitKernel

    def test_unpinned_non_greedy_run_takes_the_python_tier_silently(
        self, case, monkeypatch
    ):
        """An unpinned ``max-min`` plan runs on the Python tier, which the C
        core does not cover, and says nothing about it."""
        import dataclasses

        from repro.sim import simulator as simulator_module

        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        network, _config, instance, plan = case
        made = []
        real_make_kernel = simulator_module.make_kernel

        def spy(*args, **kwargs):
            kernel = real_make_kernel(*args, **kwargs)
            made.append(type(kernel))
            return kernel

        monkeypatch.setattr(simulator_module, "make_kernel", spy)
        fair = dataclasses.replace(plan, allocator="max-min")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FlowLevelSimulator(network).run(instance, fair)
        assert made == [ResidentSimulationKernel]

    def test_only_the_greedy_allocator_reaches_the_compiled_tier(self, case):
        if not kernel_jit.available():
            pytest.skip("compiled kernel tier unavailable")
        network, _config, _instance, _plan = case
        for allocator in ("max-min", "weighted", MaxMinFairAllocator()):
            kernel = make_kernel(network, allocator, backend="jit")
            assert type(kernel) is ResidentSimulationKernel
        greedy = make_kernel(network, GreedyPriorityAllocator(), backend="jit")
        assert type(greedy) is ResidentJitKernel

    def test_kernel_tier_names_the_class_make_kernel_builds(
        self, case, monkeypatch
    ):
        """The tier ``kernel_tier`` reports is the kernel ``make_kernel``
        builds, for every backend request and allocator."""
        from repro.sim import simulator as simulator_module

        monkeypatch.setattr(simulator_module, "_fallback_warned", True)
        network, _config, _instance, _plan = case
        classes = {"array": ResidentSimulationKernel, "jit": ResidentJitKernel}
        for environment in ("", "array", "jit"):
            monkeypatch.setenv("REPRO_SIM_BACKEND", environment)
            for backend in (None, *BACKENDS):
                for allocator in ("greedy", "max-min", "weighted"):
                    tier = kernel_tier(allocator, backend)
                    kernel = make_kernel(network, allocator, backend=backend)
                    assert type(kernel) is classes[tier]
                    if allocator != "greedy":
                        assert tier == "array"

    def test_run_argument_wins_over_the_environment(self, case, monkeypatch):
        if not kernel_jit.available():
            pytest.skip("compiled kernel tier unavailable")
        from repro.sim import simulator as simulator_module

        network, _config, instance, plan = case
        made = []
        real_make_kernel = simulator_module.make_kernel

        def spy(*args, **kwargs):
            kernel = real_make_kernel(*args, **kwargs)
            made.append(type(kernel))
            return kernel

        monkeypatch.setattr(simulator_module, "make_kernel", spy)
        simulator = FlowLevelSimulator(network)
        monkeypatch.setenv("REPRO_SIM_BACKEND", "array")
        simulator.run(instance, plan)
        simulator.run(instance, plan, backend="jit")
        monkeypatch.setenv("REPRO_SIM_BACKEND", "jit")
        simulator.run(instance, plan)
        simulator.run(instance, plan, backend="array")
        assert made == [ResidentSimulationKernel, ResidentJitKernel,
                        ResidentJitKernel, ResidentSimulationKernel]

    def test_streaming_session_takes_the_environment_tier(self, case, monkeypatch):
        if not kernel_jit.available():
            pytest.skip("compiled kernel tier unavailable")
        network, _config, instance, plan = case
        for backend, expected in (("", ResidentJitKernel),
                                  ("array", ResidentSimulationKernel)):
            monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
            session = StreamingScheduler(network, StaticPlanReplanner(plan))
            session.run(instance)
            assert type(session._session_kernel) is expected

    def test_environment_variable_reaches_the_kernel(self, case, monkeypatch):
        if not kernel_jit.available():
            pytest.skip("compiled kernel tier unavailable")
        network, _config, _instance, _plan = case
        monkeypatch.setenv("REPRO_SIM_BACKEND", "jit")
        assert type(make_kernel(network)) is ResidentJitKernel

    def test_unavailable_jit_falls_back_with_a_warning(self, case, monkeypatch):
        """An explicit jit request on a machine without a toolchain degrades
        to the Python tier (identical results) instead of failing."""
        network, _config, _instance, _plan = case
        monkeypatch.setattr(kernel_jit, "available", lambda: False)
        monkeypatch.setattr(
            kernel_jit, "unavailable_reason", lambda: "no C compiler (test)"
        )
        from repro.sim import simulator as simulator_module

        monkeypatch.setattr(simulator_module, "_fallback_warned", False)
        with pytest.warns(RuntimeWarning, match="falling back to the 'array'"):
            kernel = make_kernel(network, backend="jit")
        assert type(kernel) is ResidentSimulationKernel
        # ... and only warns once per process.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel = make_kernel(network, backend="jit")
        assert type(kernel) is ResidentSimulationKernel

    def test_unavailable_jit_run_matches_the_python_tier(self, case, monkeypatch):
        """A jit run on a machine without the compiled core gives the array
        run's result, through the fallback."""
        network, _config, instance, plan = case
        simulator = FlowLevelSimulator(network)
        expected = simulator.run(instance, plan, backend="array")
        monkeypatch.setattr(kernel_jit, "available", lambda: False)
        from repro.sim import simulator as simulator_module

        monkeypatch.setattr(simulator_module, "_fallback_warned", True)
        fallback = simulator.run(instance, plan, backend="jit")
        assert fallback.flow_completion == expected.flow_completion
        assert fallback.flow_start == expected.flow_start
        assert fallback.events == expected.events


class TestCacheIdentity:
    def test_backends_share_one_run_store_key(self, case, monkeypatch):
        """Same topology, config and scheme -> same run-store key, whatever
        backend the environment selects: the tier must never fork the cache."""
        network, config, _instance, _plan = case
        scheme = scheme_from_spec("SEBF")
        keys = set()
        for backend in ("array", "jit"):
            monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
            keys.add(run_key(network.fingerprint(), config, scheme.signature()))
        assert len(keys) == 1

    def test_scheme_signatures_do_not_encode_the_backend(self, case, monkeypatch):
        _network, _config, _instance, _plan = case
        scheme = scheme_from_spec("SEBF")
        monkeypatch.setenv("REPRO_SIM_BACKEND", "jit")
        jit_signature = scheme.signature()
        monkeypatch.setenv("REPRO_SIM_BACKEND", "array")
        assert scheme.signature() == jit_signature
        assert "jit" not in jit_signature and "backend" not in jit_signature

    def test_results_are_identical_across_backends(self, case, monkeypatch):
        if not kernel_jit.available():
            pytest.skip("compiled kernel tier unavailable")
        network, _config, instance, plan = case
        simulator = FlowLevelSimulator(network)
        array = simulator.run(instance, plan, backend="array")
        jit = simulator.run(instance, plan, backend="jit")
        assert array.flow_completion == jit.flow_completion
        assert array.metrics() == jit.metrics()
