"""Tests for the spec/artifact layer behind the ``repro`` CLI."""

import json
from dataclasses import replace

import pytest

from repro.analysis import RunStore, render_report
from repro.analysis.artifacts import (
    DEFAULT_SCHEMES,
    SCHEME_ALIASES,
    build_schemes,
    export_artifacts,
    load_spec,
    provenance,
    provenance_lines,
    replay_spec,
    run_spec,
    scheme_from_spec,
    spec_from_dict,
    spec_networks,
    stats_summary,
)

try:
    import yaml
except ImportError:  # pragma: no cover
    yaml = None


def tiny_spec_dict(**overrides):
    """A two-point, two-topology spec that runs in well under a second."""
    data = {
        "name": "tiny",
        "title": "Tiny two-topology matrix",
        "schemes": ["Baseline", "Route-only"],
        "tries": 1,
        "reference": "Baseline",
        "base": {"num_coflows": 2, "coflow_width": 2, "mean_flow_size": 2.0},
        "points": [
            {"label": "fat-tree", "config": {"seed": 1, "topology": "fat_tree(k=4)"}},
            {
                "label": "leaf-spine",
                "config": {
                    "seed": 2,
                    "topology": "leaf_spine(num_leaves=2, num_spines=1, hosts_per_leaf=2)",
                },
            },
        ],
    }
    data.update(overrides)
    return data


class TestSpecParsing:
    def test_points_form(self):
        spec = spec_from_dict(tiny_spec_dict())
        assert spec.name == "tiny"
        assert [p.label for p in spec.points] == ["fat-tree", "leaf-spine"]
        # base is merged under each point's config
        assert spec.points[0].config.num_coflows == 2
        assert spec.points[0].config.seed == 1
        assert spec.points[1].config.topology.startswith("leaf_spine")

    def test_sweep_form(self):
        spec = spec_from_dict(
            {
                "name": "width",
                "schemes": ["Baseline"],
                "tries": 1,
                "reference": "Baseline",
                "base": {"topology": "fat_tree(k=4)", "num_coflows": 2, "seed": 5},
                "sweep": {
                    "parameter": "coflow_width",
                    "values": [2, 4],
                    "label": "{value} flows",
                },
            }
        )
        assert [p.label for p in spec.points] == ["2 flows", "4 flows"]
        assert [p.config.coflow_width for p in spec.points] == [2, 4]
        # the un-swept base fields are identical across points
        assert {p.config.num_coflows for p in spec.points} == {2}

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown spec key"):
            spec_from_dict(tiny_spec_dict(workers=4))

    def test_unknown_config_key_rejected(self):
        data = tiny_spec_dict()
        data["points"][0]["config"]["coflow_widht"] = 3  # typo must not pass
        with pytest.raises(ValueError, match="coflow_widht"):
            spec_from_dict(data)

    def test_sweep_and_points_are_exclusive(self):
        data = tiny_spec_dict()
        data["sweep"] = {"parameter": "coflow_width", "values": [2]}
        with pytest.raises(ValueError, match="exactly one"):
            spec_from_dict(data)

    def test_missing_topology_rejected(self):
        data = tiny_spec_dict()
        del data["points"][0]["config"]["topology"]
        with pytest.raises(ValueError, match="topology"):
            spec_from_dict(data)

    @pytest.mark.parametrize(
        "override",
        [
            {"metric": "weighted_completion_tim"},
            {"extra_metrics": ["mean_slowdown", "mean_slowdwn"]},
        ],
    )
    def test_unknown_metric_rejected_listing_the_recorded_ones(self, override):
        bad = next(iter(override.values()))
        bad = bad if isinstance(bad, str) else bad[-1]
        with pytest.raises(ValueError) as excinfo:
            spec_from_dict(tiny_spec_dict(**override))
        message = str(excinfo.value)
        assert message.startswith(f"unknown metric {bad!r}")
        assert "weighted_completion_time" in message and "max_slowdown" in message

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            spec_from_dict(tiny_spec_dict(schemes=["Baseline", "GPT-Routing"]))

    def test_reference_must_be_a_spec_scheme(self):
        with pytest.raises(ValueError, match="reference"):
            spec_from_dict(tiny_spec_dict(reference="LP-Based"))

    def test_round_trip_through_dict(self):
        spec = spec_from_dict(tiny_spec_dict())
        assert spec_from_dict(spec.to_dict()) == spec

    def test_total_tasks(self):
        spec = spec_from_dict(tiny_spec_dict(tries=3))
        assert spec.total_tasks() == 2 * 3 * 2  # points x tries x schemes


class TestSmoke:
    def test_smoke_shrinks_instances_not_grid(self):
        spec = spec_from_dict(tiny_spec_dict(tries=5))
        base = {"num_coflows": 8, "coflow_width": 8}
        spec = replace(
            spec,
            points=tuple(
                replace(p, config=replace(p.config, **base)) for p in spec.points
            ),
        )
        smoke = spec.smoke()
        assert smoke.name == "tiny-smoke"
        assert smoke.tries == 1
        assert len(smoke.points) == len(spec.points)
        for point in smoke.points:
            assert point.config.num_coflows == 2
            assert point.config.coflow_width == 2

    def test_smoke_preserves_the_swept_axis(self):
        # Clamping the swept field would collapse a width sweep into
        # identical points; smoke must leave varying fields alone.
        spec = spec_from_dict(
            {
                "name": "width",
                "schemes": ["Baseline"],
                "base": {"topology": "fat_tree(k=4)", "num_coflows": 8},
                "sweep": {"parameter": "coflow_width", "values": [4, 8, 16]},
            }
        )
        smoke = spec.smoke()
        assert [p.config.coflow_width for p in smoke.points] == [4, 8, 16]
        assert {p.config.num_coflows for p in smoke.points} == {2}


class TestSpecFiles:
    def test_load_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec_dict()))
        assert load_spec(path) == spec_from_dict(tiny_spec_dict())

    @pytest.mark.skipif(yaml is None, reason="PyYAML not installed")
    def test_load_yaml(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(yaml.safe_dump(tiny_spec_dict()))
        assert load_spec(path) == spec_from_dict(tiny_spec_dict())

    def test_non_mapping_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="mapping"):
            load_spec(path)


class TestSchemeRegistry:
    def test_registry_covers_the_paper_schemes(self):
        assert set(DEFAULT_SCHEMES) <= set(SCHEME_ALIASES)

    def test_build_schemes_names(self):
        schemes = build_schemes(DEFAULT_SCHEMES)
        assert [s.name for s in schemes] == list(DEFAULT_SCHEMES)

    def test_signatures_are_deterministic(self):
        # Spec reproducibility depends on a name alone fixing the signature.
        for name in SCHEME_ALIASES:
            assert (
                scheme_from_spec(name).signature()
                == scheme_from_spec(name).signature()
            )

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_schemes(["Baseline", "nope"])


class TestRunSpec:
    @pytest.fixture(scope="class")
    def executed(self):
        spec = spec_from_dict(tiny_spec_dict())
        store = RunStore()
        return spec, store, run_spec(spec, store, workers=0)

    def test_point_order_preserved_across_topology_groups(self, executed):
        spec, _, run = executed
        assert [p.label for p in run.result.points] == [p.label for p in spec.points]
        for point in run.result.points:
            assert set(point.values) == {"Baseline", "Route-only"}

    def test_stats_and_store(self, executed):
        spec, store, run = executed
        assert run.stats.total_tasks == spec.total_tasks()
        assert run.stats.executed == spec.total_tasks()
        assert run.stats.cached == 0
        assert len(store) == spec.total_tasks()

    def test_fingerprint_per_topology(self, executed):
        spec, _, run = executed
        assert set(run.fingerprints) == {p.config.topology for p in spec.points}
        assert len(set(run.fingerprints.values())) == 2

    def test_warm_rerun_executes_nothing(self, executed):
        spec, store, first = executed
        warm = run_spec(spec, store, workers=0)
        assert warm.stats.executed == 0
        assert warm.stats.cached == spec.total_tasks()
        for a, b in zip(first.result.points, warm.result.points):
            assert a.values == b.values

    def test_replay_spec_matches_run(self, executed):
        spec, store, run = executed
        replayed = replay_spec(spec, store)
        assert replayed.stats.missing == 0
        assert replayed.fingerprints == run.fingerprints
        for a, b in zip(run.result.points, replayed.result.points):
            assert a.label == b.label
            assert a.values == b.values

    def test_a_topology_the_builder_rejects_stops_the_run_before_any_engine(self):
        """The second point's ``fat_tree(k=3)`` parses but cannot be built:
        :func:`run_spec` builds every topology first, so it raises naming
        the point before the first point's engine runs a task."""
        data = tiny_spec_dict()
        data["points"][1]["config"]["topology"] = "fat_tree(k=3)"
        spec = spec_from_dict(data)
        store = RunStore()
        with pytest.raises(ValueError) as excinfo:
            run_spec(spec, store, workers=0)
        assert str(excinfo.value) == (
            "point 'leaf-spine' of spec 'tiny': "
            "fat-tree arity k must be an even integer >= 2, got 3"
        )
        assert len(store) == 0
        assert spec_networks(spec_from_dict(tiny_spec_dict())).keys() == {
            point["config"]["topology"] for point in tiny_spec_dict()["points"]
        }

    def test_result_from_partial_store_counts_missing(self, executed):
        spec, store, _ = executed
        partial = RunStore()
        for index, (key, record) in enumerate(store._records.items()):
            if index % 2 == 0:
                partial.put(key, record)
        stats = replay_spec(spec, partial).stats
        assert stats.missing == spec.total_tasks() - len(partial)
        assert stats.coverage == len(partial) / spec.total_tasks()


class TestExtraMetrics:
    def test_spec_round_trip_preserves_extra_metrics(self):
        spec = spec_from_dict(
            tiny_spec_dict(extra_metrics=["mean_slowdown", "max_slowdown"])
        )
        assert spec.extra_metrics == ("mean_slowdown", "max_slowdown")
        assert spec_from_dict(spec.to_dict()) == spec
        # Specs without the key keep an empty tuple (and omit it on export).
        plain = spec_from_dict(tiny_spec_dict())
        assert plain.extra_metrics == ()
        assert "extra_metrics" not in plain.to_dict()

    def test_run_spec_aggregates_extras_over_the_same_grid(self):
        spec = spec_from_dict(
            tiny_spec_dict(extra_metrics=["mean_slowdown", "max_slowdown"])
        )
        store = RunStore()
        run = run_spec(spec, store, workers=0)
        assert set(run.extras) == {"mean_slowdown", "max_slowdown"}
        for extra in run.extras.values():
            assert [p.label for p in extra.points] == [p.label for p in spec.points]
            for point in extra.points:
                assert set(point.values) == {"Baseline", "Route-only"}
                for values in point.values.values():
                    assert all(v >= 0.0 for v in values)

    def test_records_missing_the_metric_count_as_missing(self):
        """Hand-written records: one without the spec's metric is a missing
        cell; one without an extra metric gives that column no value."""
        spec = spec_from_dict(tiny_spec_dict(extra_metrics=["makespan"]))
        store = RunStore()
        run_spec(spec, store, workers=0)
        for key, metric in zip(list(store._records), (spec.metric, "makespan")):
            record = json.loads(json.dumps(store.peek(key)))
            del record["metrics"][metric]
            store.put(key, record)
        run = replay_spec(spec, store)
        assert run.stats.missing == 1
        assert run.stats.coverage == (spec.total_tasks() - 1) / spec.total_tasks()
        for result in (run.result, run.extras["makespan"]):
            values = [v for p in result.points for vs in p.values.values() for v in vs]
            assert len(values) == spec.total_tasks() - 1

    def test_extras_render_as_report_blocks_and_csv_columns(self):
        from repro.analysis.report import csv_report, render_report

        spec = spec_from_dict(tiny_spec_dict(extra_metrics=["mean_slowdown"]))
        store = RunStore()
        run = run_spec(spec, store, workers=0)
        text = render_report(
            run.result, "Tiny", reference="Baseline", extras=run.extras
        )
        assert "Tiny — avg mean_slowdown" in text
        csv_text = csv_report(run.result, "Baseline", run.extras)
        header = csv_text.splitlines()[0].split(",")
        assert header[-1] == "mean_mean_slowdown"
        # One numeric slowdown cell per (point, scheme) row.
        assert len(csv_text.splitlines()) == 1 + 2 * 2


class TestProvenance:
    def test_provenance_document(self):
        info = provenance()
        assert info["version"]
        assert "HiGHS" in info["solver"]
        assert any("DESIGN.md" in d for d in info["deviations"])

    def test_provenance_lines_render(self):
        lines = provenance_lines()
        assert lines[0].startswith("repro ")
        assert any("deviation" in line for line in lines)

    def test_stats_summary(self):
        spec = spec_from_dict(tiny_spec_dict())
        run = run_spec(spec, RunStore(), workers=0)
        text = stats_summary(run.stats)
        assert "tasks" in text and "cached" in text and "worker" in text


class TestExportArtifacts:
    def test_files_written_and_consistent(self, tmp_path):
        spec = spec_from_dict(tiny_spec_dict())
        store = RunStore(tmp_path / "store.jsonl")
        run = run_spec(spec, store, workers=0)
        paths = export_artifacts(
            tmp_path / "out", spec, run.result, run.stats, run.fingerprints, store
        )
        for kind in ("run", "text", "markdown", "csv"):
            assert paths[kind].exists(), kind

        metadata = json.loads(paths["run"].read_text())
        assert metadata["spec"] == spec.to_dict()
        assert metadata["engine"]["executed"] == spec.total_tasks()
        assert metadata["topology_fingerprints"] == run.fingerprints
        assert metadata["provenance"]["version"]

        rendered = render_report(
            run.result, spec.display_title(), spec.reference, fmt="markdown"
        )
        assert paths["markdown"].read_text().rstrip("\n") == rendered.rstrip("\n")


class TestFaultsInSpecs:
    def test_faults_entry_round_trips(self):
        spec = spec_from_dict(tiny_spec_dict(faults="rate=0.1,seed=7"))
        assert spec.faults == "rate=0.1,seed=7"
        assert spec.to_dict()["faults"] == "rate=0.1,seed=7"
        assert spec_from_dict(spec.to_dict()) == spec
        plain = spec_from_dict(tiny_spec_dict())
        assert plain.faults is None
        assert "faults" not in plain.to_dict()

    def test_invalid_faults_entry_rejected_naming_the_spec(self):
        with pytest.raises(ValueError, match="'tiny'.*invalid faults spec"):
            spec_from_dict(tiny_spec_dict(faults="rate=9000"))

    def test_run_spec_argument_overrides_spec_faults(self):
        # The spec declares chaos; passing rate=0 from the CLI disables it.
        spec = spec_from_dict(
            tiny_spec_dict(faults="rate=1.0,kinds=timeout")
        )
        run = run_spec(spec, RunStore(), workers=0, faults="rate=0.0")
        assert run.stats.retried == 0
        assert run.stats.failed == 0

    def test_spec_declared_faults_apply(self):
        spec = spec_from_dict(tiny_spec_dict(faults="rate=1.0,kinds=timeout"))
        run = run_spec(spec, RunStore(), workers=0)
        assert run.stats.retried == spec.total_tasks()
        assert run.stats.failed == 0


class TestFailureAggregation:
    def chaos_spec(self):
        # An LP-solving scheme so "lp" faults land somewhere real.
        return spec_from_dict(
            tiny_spec_dict(schemes=["Baseline", "LP-Based"])
        )

    def test_failed_records_surface_in_result_and_stats(self):
        spec = self.chaos_spec()
        store = RunStore()
        run = run_spec(spec, store, workers=0, faults="rate=1.0,kinds=lp")
        # Every LP-Based task fails; every Baseline task succeeds.
        assert run.stats.failed == len(spec.points)
        assert run.stats.coverage == pytest.approx(0.5)
        for point in run.result.points:
            assert point.failures == {"LP-Based": ["LPInfeasibleError"]}
            assert set(point.values) == {"Baseline"}

    def test_replay_spec_routes_failures_not_missing(self):
        spec = self.chaos_spec()
        store = RunStore()
        run_spec(spec, store, workers=0, faults="rate=1.0,kinds=lp")
        replayed = replay_spec(spec, store)
        assert replayed.stats.missing == 0  # a failed cell is known-bad, not absent
        assert replayed.stats.failed == len(spec.points)
        for point in replayed.result.points:
            assert point.failures == {"LP-Based": ["LPInfeasibleError"]}

    def test_stats_summary_mentions_failures_only_when_present(self):
        spec = self.chaos_spec()
        run = run_spec(spec, RunStore(), workers=0, faults="rate=1.0,kinds=lp")
        text = stats_summary(run.stats)
        assert f"{run.stats.failed} failed" in text
        clean = run_spec(spec, RunStore(), workers=0)
        assert "failed" not in stats_summary(clean.stats)
        assert "retried" not in stats_summary(clean.stats)

    def test_export_artifacts_records_failure_accounting(self, tmp_path):
        spec = self.chaos_spec()
        store = RunStore(tmp_path / "store.jsonl")
        run = run_spec(spec, store, workers=0, faults="rate=1.0,kinds=lp")
        paths = export_artifacts(
            tmp_path / "out", spec, run.result, run.stats, run.fingerprints, store
        )
        metadata = json.loads(paths["run"].read_text())
        assert metadata["engine"]["failed"] == len(spec.points)
        assert metadata["engine"]["retried"] == 0
        assert metadata["engine"]["pool_restarts"] == 0
        assert metadata["engine"]["coverage"] == pytest.approx(0.5)
        assert "failures" in paths["csv"].read_text().splitlines()[0]

    def test_retry_failed_heals_through_run_spec(self):
        spec = self.chaos_spec()
        store = RunStore()
        run_spec(spec, store, workers=0, faults="rate=1.0,kinds=lp")
        healed = run_spec(spec, store, workers=0, retry_failed=True)
        assert healed.stats.failed == 0
        clean = run_spec(spec, RunStore(), workers=0)
        for a, b in zip(healed.result.points, clean.result.points):
            assert a.values == b.values
