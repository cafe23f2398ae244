"""The direct HiGHS path against its ``linprog`` oracle.

:func:`repro.lp.solve` drives scipy's bundled HiGHS binding and falls back
to :func:`scipy.optimize.linprog` on a scipy without it.  Both paths hand
HiGHS the same matrix, row order and options, so they must agree bit for
bit: the same solution vector, objective and iteration count on every LP,
and the same status code when an LP cannot be solved.  The fallback is
forced by hiding the binding; these tests skip where it is absent.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.circuit.given_paths import GivenPathsLP
from repro.circuit.routing import RoutingLP
from repro.lp import LinearProgram, LPInfeasibleError, solve
from repro.lp import solver as solver_module
from repro.packet.given_paths import PacketGivenPathsLP
from repro.packet.routing import PacketRoutingLP

pytestmark = pytest.mark.skipif(
    solver_module._highs is None, reason="this scipy has no _highspy binding"
)


@pytest.fixture
def fallback(monkeypatch):
    """Run ``fn`` with the binding hidden, as on a scipy without it."""

    def run(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_highs", None)
            return fn(*args)

    return run


def assert_same_solution(lp, fallback):
    direct = solve(lp)
    oracle = fallback(solve, lp)
    assert np.array_equal(direct.x, oracle.x)
    assert direct.objective == oracle.objective
    assert direct.iterations == oracle.iterations
    assert direct.status == oracle.status == 0


def status_of(lp):
    with pytest.raises(LPInfeasibleError) as excinfo:
        solve(lp)
    return excinfo.value.status


def test_circuit_given_paths(network, circuit_instance_with_paths, fallback):
    lp = GivenPathsLP(circuit_instance_with_paths, network).build()
    assert_same_solution(lp, fallback)


@pytest.mark.parametrize("formulation", ["path", "edge"])
def test_circuit_routing(network, circuit_instance, formulation, fallback):
    lp = RoutingLP(circuit_instance, network, formulation=formulation).build()
    assert_same_solution(lp, fallback)


def test_packet_given_paths(network, packet_instance, fallback):
    lp = PacketGivenPathsLP(packet_instance, network).build()
    assert_same_solution(lp, fallback)


def test_packet_time_expanded(network, packet_instance, fallback):
    lp = PacketRoutingLP(packet_instance, network, horizon=12).build()
    assert_same_solution(lp, fallback)


def test_all_equality_rows(fallback):
    lp = LinearProgram("all-eq")
    lp.add_variables(["a", "b", "c"], objective=[1.0, 2.0, 3.0])
    lp.add_constraint({"a": 1.0, "b": 1.0, "c": 1.0}, "==", 6.0)
    lp.add_constraint({"a": 1.0, "c": -1.0}, "==", 1.0)
    assert_same_solution(lp, fallback)


def test_all_less_equal_rows(fallback):
    lp = LinearProgram("all-le")
    lp.add_variables(["a", "b"], upper=5.0, objective=[-1.0, -2.0])
    lp.add_constraint({"a": 1.0, "b": 1.0}, "<=", 4.0)
    lp.add_constraint({"a": 1.0, "b": 3.0}, "<=", 6.0)
    assert_same_solution(lp, fallback)


def test_row_free_lp(fallback):
    lp = LinearProgram("row-free")
    lp.add_variables(["a", "b"], lower=[1.0, -2.0], upper=[3.0, 4.0], objective=[1.0, 1.0])
    assert_same_solution(lp, fallback)


def test_nan_bound_means_no_bound(fallback):
    lp = LinearProgram("nan-bound")
    lp.add_variable("x", lower=np.nan, upper=5.0, objective=1.0)
    lp.add_variable("y", lower=-1.0, upper=np.nan, objective=-1.0)
    lp.add_constraint({"x": 1.0}, ">=", -3.0)
    lp.add_constraint({"y": 1.0}, "<=", 2.0)
    direct = solve(lp, clip_negative=False)
    assert np.array_equal(direct.x, [-3.0, 2.0])
    assert_same_solution(lp, fallback)


def test_infeasible_status_matches(fallback):
    lp = LinearProgram("infeasible")
    lp.add_variables(["x", "y"], upper=1.0, objective=1.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, ">=", 5.0)
    assert status_of(lp) == fallback(status_of, lp) == 2


def test_unbounded_status_matches(fallback):
    lp = LinearProgram("unbounded")
    lp.add_variable("x", objective=-1.0)
    lp.add_variable("y", objective=1.0)
    lp.add_constraint({"x": 1.0, "y": 1.0}, ">=", 1.0)
    assert status_of(lp) == fallback(status_of, lp) == 3


def test_non_finite_coefficient_raises_value_error(fallback):
    lp = LinearProgram("non-finite")
    lp.add_variables(["x", "y"], objective=1.0)
    lp.add_constraints_coo([0, 0], [0, 1], [1.0, np.inf], ">=", [1.0])
    with pytest.raises(ValueError):
        solve(lp)
    with pytest.raises(ValueError):
        fallback(solve, lp)


def test_time_limit_status_matches(fallback):
    lp = LinearProgram("timed-out")
    n = 400
    block = lp.add_variables([("x", k) for k in range(n)], objective=np.linspace(1.0, 2.0, n))
    rows = np.repeat(np.arange(n - 1), 2)
    cols = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1).ravel() + block.start
    lp.add_constraints_coo(rows, cols, np.ones(rows.shape[0]), ">=", np.ones(n - 1))

    def timed_out_status(lp):
        with pytest.raises(LPInfeasibleError) as excinfo:
            solve(lp, time_limit=0.0)
        return excinfo.value.status

    assert timed_out_status(lp) == fallback(timed_out_status, lp) == 1


def test_columnwise_is_linprogs_stacked_matrix():
    """The one pass ``solve`` reads equals ``csc(vstack(A_ub, A_eq))``, the matrix
    ``linprog`` builds from :meth:`matrices`, with its row bounds."""
    lp = LinearProgram("stacked")
    lp.add_variables(["a", "b", "c"], objective=1.0)
    lp.add_constraint({"a": 1.0, "b": 2.0}, ">=", 1.0)
    lp.add_constraint({"b": 1.0, "c": 1.0}, "==", 2.0)
    lp.add_constraint({"a": 3.0, "c": -1.0}, "<=", 4.0)
    lp.add_constraints_coo([0, 0], [0, 0], [1.0, 2.0], "==", [5.0])  # summed
    form = lp.columnwise()
    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    stacked = sparse.csc_array(sparse.vstack([sparse.coo_array(a_ub), sparse.coo_array(a_eq)]))
    assert np.array_equal(form.start, stacked.indptr)
    assert np.array_equal(form.index, stacked.indices)
    assert np.array_equal(form.value, stacked.data)
    assert form.num_ub == 2
    assert np.array_equal(form.row_upper, [-1.0, 4.0, 2.0, 5.0])
    assert np.array_equal(form.row_lower, [-np.inf, -np.inf, 2.0, 5.0])
    assert np.array_equal(b_ub, [-1.0, 4.0]) and np.array_equal(b_eq, [2.0, 5.0])
    assert np.array_equal(a_eq.toarray(), [[0.0, 1.0, 1.0], [3.0, 0.0, 0.0]])
