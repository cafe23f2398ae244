"""Tests for the experiment sweep machinery and report formatting."""

import pytest

from repro.analysis import (
    ExperimentEngine,
    SweepPoint,
    SweepResult,
    build_schemes,
    format_table,
    improvement_summary,
    ratio_table,
    sweep_table,
)
from repro.core import topologies
from repro.workloads import WorkloadConfig


@pytest.fixture
def small_sweep():
    net = topologies.fat_tree(4)
    sweep = ExperimentEngine(net, build_schemes(["Baseline", "Route-only"]), tries=2)
    config = WorkloadConfig(num_coflows=3, coflow_width=3, seed=5)
    return sweep.run(config, "coflow_width", [3, 6], label_format="{value} flows")


class TestSweepPoint:
    def test_statistics(self):
        point = SweepPoint(label="p")
        point.add("A", 10.0)
        point.add("A", 20.0)
        point.add("B", 5.0)
        point.add("B", 10.0)
        assert point.mean("A") == 15.0
        assert point.std("A") == 5.0
        assert point.ratio_to("B", "A") == pytest.approx((5 / 10 + 10 / 20) / 2)
        assert point.improvement_percent("B", "A") == pytest.approx(100.0)


class TestExperimentSweep:
    def test_structure(self, small_sweep):
        assert len(small_sweep.points) == 2
        assert small_sweep.points[0].label == "3 flows"
        assert set(small_sweep.schemes()) == {"Baseline", "Route-only"}

    def test_each_point_has_all_tries(self, small_sweep):
        for point in small_sweep.points:
            for scheme in ("Baseline", "Route-only"):
                assert len(point.values[scheme]) == 2

    def test_series_and_ratios(self, small_sweep):
        series = small_sweep.series("Baseline")
        assert len(series) == 2 and all(v > 0 for v in series)
        ratios = small_sweep.ratio_series("Baseline", "Baseline")
        assert all(r == pytest.approx(1.0) for r in ratios)

    def test_average_improvement_finite(self, small_sweep):
        value = small_sweep.average_improvement("Route-only", "Baseline")
        assert value == value  # not NaN

    def test_invalid_parameter(self):
        net = topologies.fat_tree(4)
        sweep = ExperimentEngine(net, build_schemes(["Baseline"]), tries=1)
        with pytest.raises(ValueError):
            sweep.run(WorkloadConfig(), "not_a_config_field", [1, 2])

    def test_generalized_parameter_sweep(self):
        # Any workload config field is sweepable now, not just the two
        # figure parameters.
        net = topologies.fat_tree(4)
        sweep = ExperimentEngine(net, build_schemes(["Baseline"]), tries=1)
        result = sweep.run(
            WorkloadConfig(num_coflows=2, coflow_width=2, seed=3),
            "mean_flow_size",
            [2.0, 8.0],
        )
        assert len(result.points) == 2
        assert result.points[0].mean("Baseline") < result.points[1].mean("Baseline")

    def test_requires_schemes_and_tries(self):
        net = topologies.fat_tree(4)
        with pytest.raises(ValueError):
            ExperimentEngine(net, [], tries=1)
        with pytest.raises(ValueError):
            ExperimentEngine(net, build_schemes(["Baseline"]), tries=0)


class TestReports:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bbbb", 22.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_sweep_and_ratio_tables(self, small_sweep):
        table = sweep_table(small_sweep, "Figure X")
        assert "Figure X" in table
        assert "3 flows" in table and "6 flows" in table
        ratios = ratio_table(small_sweep, "Baseline", "Figure X")
        assert "ratio" in ratios
        assert "1.000" in ratios

    def test_improvement_summary(self, small_sweep):
        text = improvement_summary(small_sweep, "Route-only", ["Baseline"])
        assert "Route-only" in text and "Baseline" in text and "%" in text
