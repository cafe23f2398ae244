"""Unit tests for the LP solve driver (HiGHS via scipy)."""

import numpy as np
import pytest

from repro.lp import LinearProgram, LPInfeasibleError, solve


def test_simple_minimization():
    # min x + 2y  s.t.  x + y >= 4, x <= 3, y <= 5, x,y >= 0  ->  x=3, y=1.
    lp = LinearProgram("simple")
    lp.add_variable("x", upper=3.0, objective=1.0)
    lp.add_variable("y", upper=5.0, objective=2.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, ">=", 4.0)
    sol = solve(lp)
    assert sol.objective == pytest.approx(5.0)
    assert sol.value("x") == pytest.approx(3.0)
    assert sol.value("y") == pytest.approx(1.0)


def test_equality_constraints():
    # min x + y  s.t.  x + y == 2, x - y == 0  ->  x = y = 1.
    lp = LinearProgram()
    lp.add_variable("x", objective=1.0)
    lp.add_variable("y", objective=1.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, "==", 2.0)
    lp.add_constraint({"x": 1.0, "y": -1.0}, "==", 0.0)
    sol = solve(lp)
    assert sol.value("x") == pytest.approx(1.0)
    assert sol.value("y") == pytest.approx(1.0)


def test_transportation_lp():
    """Min-cost flow stated as an LP: classic 2x2 transportation problem."""
    supply = {"s1": 3.0, "s2": 2.0}
    demand = {"d1": 4.0, "d2": 1.0}
    cost = {("s1", "d1"): 1.0, ("s1", "d2"): 3.0, ("s2", "d1"): 2.0, ("s2", "d2"): 1.0}
    lp = LinearProgram("transport")
    for key, c in cost.items():
        lp.add_variable(key, objective=c)
    for s, cap in supply.items():
        lp.add_constraint({(s, d): 1.0 for d in demand}, "<=", cap)
    for d, need in demand.items():
        lp.add_constraint({(s, d): 1.0 for s in supply}, ">=", need)
    sol = solve(lp)
    # Optimal: s1->d1: 3, s2->d1: 1, s2->d2: 1, cost 3 + 2 + 1 = 6.
    assert sol.objective == pytest.approx(6.0)


def test_infeasible_raises():
    lp = LinearProgram("infeasible")
    lp.add_variable("x", upper=1.0, objective=1.0)
    lp.add_constraint({"x": 1.0}, ">=", 2.0)
    with pytest.raises(LPInfeasibleError):
        solve(lp)


def test_unbounded_raises():
    lp = LinearProgram("unbounded")
    lp.add_variable("x", objective=-1.0)  # minimize -x with x unbounded above
    with pytest.raises(LPInfeasibleError):
        solve(lp)


def test_empty_lp():
    sol = solve(LinearProgram("empty"))
    assert sol.objective == 0.0
    assert sol.values == {}


def test_negative_clipping():
    lp = LinearProgram()
    lp.add_variable("x", objective=1.0)
    lp.add_constraint({"x": 1.0}, ">=", 0.0)
    sol = solve(lp)
    assert sol.value("x") >= 0.0


def test_solution_helpers():
    lp = LinearProgram()
    lp.add_variable(("x", 0), objective=1.0)
    lp.add_variable(("x", 1), objective=1.0)
    lp.add_variable(("y", 0), objective=1.0)
    lp.add_constraint({("x", 0): 1.0}, ">=", 1.0)
    lp.add_constraint({("x", 1): 1.0}, ">=", 0.0)
    lp.add_constraint({("y", 0): 1.0}, ">=", 2.0)
    sol = solve(lp)
    assert sol.value(("x", 0)) == pytest.approx(1.0)
    assert sol.value("ghost", default=7.0) == 7.0
    with pytest.raises(KeyError):
        sol.value("ghost")
    nonzero = sol.nonzero()
    assert ("y", 0) in nonzero and ("x", 1) not in nonzero
    group = sol.group("x")
    assert set(group) == {("x", 0), ("x", 1)}


def test_bulk_getters_take_and_as_array():
    lp = LinearProgram()
    rng = lp.add_variables([("x", k) for k in range(4)], objective=1.0)
    lp.add_constraint({("x", 0): 1.0}, ">=", 1.0)
    lp.add_constraint({("x", 3): 1.0}, ">=", 2.0)
    sol = solve(lp)
    assert np.allclose(sol.take(rng), [1.0, 0.0, 0.0, 2.0])
    assert np.allclose(sol.take([3, 0]), [2.0, 1.0])
    assert np.allclose(sol.as_array([("x", 3), ("x", 0)]), [2.0, 1.0])
    with pytest.raises(KeyError):
        sol.as_array([("x", 0), "ghost"])
    assert np.allclose(sol.as_array([("x", 0), "ghost"], default=7.0), [1.0, 7.0])


def test_nonzero_reports_negative_values():
    # min x subject to x >= -5 with x in [-10, 10]: optimum x = -5.
    lp = LinearProgram()
    lp.add_variable("x", lower=-10.0, upper=10.0, objective=1.0)
    lp.add_variable("y", lower=0.0, objective=1.0)
    lp.add_constraint({"x": 1.0}, ">=", -5.0)
    sol = solve(lp, clip_negative=False)
    assert sol.value("x") == pytest.approx(-5.0)
    # abs() semantics: the negative optimum must not be silently dropped.
    assert "x" in sol.nonzero()
    assert "y" not in sol.nonzero()


def test_group_prefix_index():
    lp = LinearProgram()
    lp.add_variables([("x", 0), ("x", 1), ("y", 0), "scalar-key"], objective=1.0)
    lp.add_constraint({("x", 0): 1.0}, ">=", 1.0)
    sol = solve(lp)
    assert set(sol.group("x")) == {("x", 0), ("x", 1)}
    assert set(sol.group("y")) == {("y", 0)}
    assert sol.group("ghost") == {}
    # position > 0 groups by the second tuple component
    assert set(sol.group(0, position=1)) == {("x", 0), ("y", 0)}


def test_values_dict_matches_raw_vector():
    lp = LinearProgram()
    lp.add_variables(["a", "b"], objective=1.0)
    lp.add_constraint({"a": 1.0, "b": 1.0}, ">=", 3.0)
    sol = solve(lp)
    assert sol.values == {k: sol.value(k) for k in ("a", "b")}
    assert np.allclose(sol.x, [sol.values["a"], sol.values["b"]])


def test_solution_snapshots_variable_set():
    """Variables added to the model after solve() are unknown to the
    solution (the old snapshot-dict semantics), not index errors."""
    lp = LinearProgram()
    lp.add_variable("a", objective=1.0)
    lp.add_constraint({"a": 1.0}, ">=", 1.0)
    sol = solve(lp)
    lp.add_variable("late")
    assert sol.value("late", default=0.5) == 0.5
    with pytest.raises(KeyError):
        sol.value("late")
    with pytest.raises(KeyError):
        sol.as_array(["a", "late"])
    assert np.allclose(sol.as_array(["a", "late"], default=9.0), [1.0, 9.0])
    assert "late" not in sol.values
    assert set(sol.group("a", position=0)) == set()  # scalar key, no tuples


def test_take_descending_range():
    lp = LinearProgram()
    lp.add_variables(["a", "b", "c"], objective=1.0)
    lp.add_constraint({"a": 1.0}, ">=", 1.0)
    lp.add_constraint({"b": 1.0}, ">=", 2.0)
    lp.add_constraint({"c": 1.0}, ">=", 3.0)
    sol = solve(lp)
    assert np.allclose(sol.take(range(2, -1, -1)), [3.0, 2.0, 1.0])
    assert np.allclose(sol.take(range(0, 3)), [1.0, 2.0, 3.0])


def test_infeasible_error_carries_solver_diagnosis():
    lp = LinearProgram("diagnosable")
    lp.add_variable("x", upper=1.0, objective=1.0)
    lp.add_variable("y", upper=1.0, objective=1.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, ">=", 5.0)
    with pytest.raises(LPInfeasibleError) as excinfo:
        solve(lp)
    error = excinfo.value
    # The message alone is diagnosable: status, solver words, LP shape.
    assert "status=" in str(error)
    assert "shape=1x2" in str(error)
    assert "nnz=2" in str(error)
    # And the fields are structured for failure records.
    assert error.status is not None
    assert error.solver_message
    assert (error.rows, error.cols, error.nnz) == (1, 2, 2)
    assert error.detail() == {
        "status": error.status,
        "solver_message": error.solver_message,
        "rows": 1,
        "cols": 2,
        "nnz": 2,
    }


def test_infeasible_error_fields_default_to_none():
    error = LPInfeasibleError("plain")
    assert error.status is None
    assert error.detail() == {}


def test_time_limit_accepted_and_solves():
    lp = LinearProgram("timed")
    lp.add_variable("x", upper=3.0, objective=1.0)
    lp.add_constraint({"x": 1.0}, ">=", 1.0)
    sol = solve(lp, time_limit=30.0)
    assert sol.objective == pytest.approx(1.0)


def test_default_time_limit_is_used(monkeypatch):
    """The process default reaches HiGHS's ``time_limit`` option; an
    explicit limit wins over it."""
    from repro.lp import solver as solver_module

    binding = solver_module._highs
    if binding is None:
        pytest.skip("this scipy has no _highspy binding")
    made = []

    class RecordingBinding:
        """The binding module, keeping every ``_Highs`` that ``solve`` makes."""

        def __getattr__(self, name):
            return getattr(binding, name)

        def _Highs(self):
            made.append(binding._Highs())
            return made[-1]

    monkeypatch.setattr(solver_module, "_highs", RecordingBinding())
    monkeypatch.setattr(solver_module, "DEFAULT_TIME_LIMIT", 12.5)
    lp = LinearProgram("defaulted")
    lp.add_variable("x", upper=1.0, objective=1.0)
    lp.add_constraint({"x": 1.0}, ">=", 0.5)
    solve(lp)
    assert made[-1].getOptionValue("time_limit")[1] == 12.5
    solve(lp, time_limit=3.0)
    assert made[-1].getOptionValue("time_limit")[1] == 3.0


def test_default_time_limit_reaches_the_linprog_fallback(monkeypatch):
    from repro.lp import solver as solver_module

    seen = {}
    real_linprog = solver_module.linprog

    def spy(*args, **kwargs):
        seen.update(kwargs.get("options", {}))
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_highs", None)
    monkeypatch.setattr(solver_module, "linprog", spy)
    monkeypatch.setattr(solver_module, "DEFAULT_TIME_LIMIT", 12.5)
    lp = LinearProgram("defaulted")
    lp.add_variable("x", upper=1.0, objective=1.0)
    lp.add_constraint({"x": 1.0}, ">=", 0.5)
    solve(lp)
    assert seen["time_limit"] == 12.5
    seen.clear()
    solve(lp, time_limit=3.0)
    assert seen["time_limit"] == 3.0


def test_variable_free_lp_checks_its_rows():
    """A row without variables reads ``0 (sense) rhs``: one that fails makes
    the LP infeasible, exactly as the same row does beside a variable."""
    lone = LinearProgram("no-variables")
    lone.add_constraint({}, ">=", 1.0)
    beside = LinearProgram("one-variable")
    beside.add_variable("x", objective=1.0)
    beside.add_constraint({}, ">=", 1.0)
    for lp in (lone, beside):
        with pytest.raises(LPInfeasibleError) as excinfo:
            solve(lp)
        assert excinfo.value.status == 2


def test_variable_free_lp_with_rows_that_hold():
    lp = LinearProgram("no-variables")
    lp.add_constraint({}, "<=", 1.0)
    lp.add_constraint({}, ">=", -1.0)
    lp.add_constraint({}, "==", 0.0)
    solution = solve(lp)
    assert (solution.status, solution.objective) == (0, 0.0)
