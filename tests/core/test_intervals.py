"""Unit tests for the geometric interval grid and rounding parameters."""

import math

import pytest

from repro.core import (
    IntervalGrid,
    RoundingParameters,
    PAPER_ALPHA,
    PAPER_DISPLACEMENT,
    PAPER_EPSILON,
    paper_rounding_parameters,
)


class TestRoundingParameters:
    def test_paper_constants_accepted(self):
        params = paper_rounding_parameters()
        assert params.alpha == PAPER_ALPHA
        assert params.displacement == PAPER_DISPLACEMENT
        assert params.epsilon == PAPER_EPSILON

    def test_paper_blowup_close_to_published_value(self):
        # The paper reports 17.5319 for alpha=0.5, D=3, eps~0.5436.
        assert paper_rounding_parameters().blowup_factor == pytest.approx(17.53, abs=0.05)

    def test_condition_12_enforced(self):
        # D must be at least ceil(log_{1+eps}(1/alpha)) + 1.
        with pytest.raises(ValueError, match="condition"):
            RoundingParameters(alpha=0.5, displacement=1, epsilon=0.5436)

    def test_condition_13_enforced(self):
        with pytest.raises(ValueError):
            RoundingParameters(alpha=0.1, displacement=2, epsilon=0.2)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            RoundingParameters(alpha=0.0, displacement=3, epsilon=0.5)
        with pytest.raises(ValueError):
            RoundingParameters(alpha=1.5, displacement=3, epsilon=0.5)

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            RoundingParameters(alpha=0.5, displacement=3, epsilon=0.0)

    def test_displacement_positive(self):
        with pytest.raises(ValueError):
            RoundingParameters(alpha=0.5, displacement=0, epsilon=0.5436)

    def test_blowup_formula(self):
        params = RoundingParameters(alpha=0.5, displacement=4, epsilon=1.0)
        expected = 2.0 ** 6 / 0.5
        assert params.blowup_factor == pytest.approx(expected)


class TestIntervalGridConstruction:
    def test_boundaries_geometric(self):
        grid = IntervalGrid(epsilon=1.0, horizon=16.0)
        b = grid.boundaries
        assert b[0] == 0.0
        assert b[1] == 1.0
        assert b[2] == 2.0
        assert b[3] == 4.0
        assert b[-1] >= 16.0

    def test_num_intervals_covers_horizon(self):
        for horizon in (1.0, 7.3, 100.0, 12345.0):
            grid = IntervalGrid(epsilon=0.5436, horizon=horizon)
            assert grid.boundaries[-1] >= horizon

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            IntervalGrid(epsilon=0.0, horizon=10.0)
        with pytest.raises(ValueError):
            IntervalGrid(epsilon=1.0, horizon=0.0)
        with pytest.raises(ValueError):
            IntervalGrid(epsilon=1.0, horizon=1.0, min_intervals=0)

    def test_left_right_length(self):
        grid = IntervalGrid(epsilon=1.0, horizon=8.0)
        assert grid.left(0) == 0.0
        assert grid.right(0) == 1.0
        assert grid.length(0) == 1.0
        assert grid.left(2) == 2.0
        assert grid.right(2) == 4.0
        assert grid.length(2) == 2.0

    def test_index_bounds_checked(self):
        grid = IntervalGrid(epsilon=1.0, horizon=4.0)
        with pytest.raises(IndexError):
            grid.left(-1)
        with pytest.raises(IndexError):
            grid.right(grid.num_intervals)


class TestIntervalQueries:
    def test_interval_of(self):
        grid = IntervalGrid(epsilon=1.0, horizon=32.0)
        assert grid.interval_of(0.0) == 0
        assert grid.interval_of(0.5) == 0
        assert grid.interval_of(1.0) == 0
        assert grid.interval_of(1.5) == 1
        assert grid.interval_of(2.0) == 1
        assert grid.interval_of(3.0) == 2
        assert grid.interval_of(4.0) == 2
        assert grid.interval_of(5.0) == 3

    def test_interval_of_boundary_consistency(self):
        grid = IntervalGrid(epsilon=0.5436, horizon=50.0)
        for ell in range(grid.num_intervals):
            left, right = grid.left(ell), grid.right(ell)
            assert grid.interval_of(right) == ell
            mid = (left + right) / 2
            assert grid.interval_of(mid) == ell

    def test_interval_of_out_of_range(self):
        grid = IntervalGrid(epsilon=1.0, horizon=4.0)
        with pytest.raises(ValueError):
            grid.interval_of(-1.0)
        with pytest.raises(ValueError):
            grid.interval_of(grid.boundaries[-1] * 2)

    def test_release_interval(self):
        grid = IntervalGrid(epsilon=1.0, horizon=32.0)
        assert grid.release_interval(0.0) == 0
        assert grid.release_interval(0.7) == 0
        assert grid.release_interval(3.0) == 2

    def test_release_intervals_follow_interval_of(self):
        """The vectorized lookup: 0 at or below time 0, else the interval
        the release closes, boundaries included; past tau_L it raises
        interval_of's error for the first such time."""
        grid = IntervalGrid(epsilon=0.5436, horizon=50.0)
        tau = grid.boundaries
        mids = (tau[:-1] + tau[1:]) / 2
        times = [0.0, 1e-12, 1.0, *tau[1:], *mids]
        expected = [0 if t <= 0 else grid.interval_of(t) for t in times]
        assert grid.release_intervals(times).tolist() == expected
        assert [grid.release_interval(t) for t in times] == expected
        late = tau[-1] * 2
        with pytest.raises(ValueError) as reference:
            grid.interval_of(late)
        with pytest.raises(ValueError) as vectorized:
            grid.release_intervals([1.0, late, late * 2])
        assert str(vectorized.value) == str(reference.value)

    def test_time_within_tolerance_past_tau_l_is_in_the_last_interval(self):
        """tau_L closes interval L - 1, and so does a time past it by less
        than the 1e-9 tolerance; both lookups agree, and a time past the
        tolerance still raises."""
        grid = IntervalGrid(0.5436, horizon=10.0)
        last = grid.num_intervals - 1
        tau_l = grid.boundaries[-1]
        assert grid.interval_of(tau_l + 5e-10) == last
        assert grid.release_intervals([tau_l + 5e-10]).tolist() == [last]
        assert grid.release_interval(tau_l + 5e-10) == last
        with pytest.raises(ValueError, match="exceeds the grid horizon"):
            grid.interval_of(tau_l + 2e-9)
        with pytest.raises(ValueError, match="exceeds the grid horizon"):
            grid.release_intervals([tau_l + 2e-9])

    def test_alpha_interval(self):
        grid = IntervalGrid(epsilon=1.0, horizon=8.0)
        fractions = [0.2, 0.2, 0.3, 0.3]
        assert grid.alpha_interval(fractions, alpha=0.5) == 2
        assert grid.alpha_interval(fractions, alpha=0.2) == 0
        assert grid.alpha_interval(fractions, alpha=1.0) == 3

    def test_alpha_interval_incomplete_raises(self):
        grid = IntervalGrid(epsilon=1.0, horizon=8.0)
        with pytest.raises(ValueError, match="incomplete"):
            grid.alpha_interval([0.1, 0.1], alpha=0.5)

    def test_alpha_interval_invalid_alpha(self):
        grid = IntervalGrid(epsilon=1.0, horizon=8.0)
        with pytest.raises(ValueError):
            grid.alpha_interval([1.0], alpha=0.0)

    def test_extended(self):
        grid = IntervalGrid(epsilon=1.0, horizon=8.0)
        bigger = grid.extended(3)
        assert bigger.num_intervals == grid.num_intervals + 3
        # existing boundaries preserved
        assert list(bigger.boundaries[: grid.num_intervals + 1]) == list(grid.boundaries)
        # continues geometrically
        assert bigger.boundaries[-1] == pytest.approx(2 * bigger.boundaries[-2])
        with pytest.raises(ValueError):
            grid.extended(-1)
