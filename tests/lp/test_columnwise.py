"""``LinearProgram.columnwise()`` against its oracle, scipy's CSC constructor.

:meth:`LinearProgram.columnwise` builds the column-wise matrix in numpy (a
16-bit radix sort plus an in-order duplicate sum).  Its ``start``,
``index`` and ``value`` arrays must be the ones
``scipy.sparse.csc_matrix((data, (i, j)))`` holds for the same entries, in
values, bits and dtypes: that is the matrix the ``linprog`` fallback
hands HiGHS, so the two solve paths stay bit-identical.  The oracle here
reads the rows through the public :meth:`LinearProgram.iter_constraints`
view and stacks them in solver order itself.
"""

import numpy as np
import pytest
from scipy import sparse

from repro.circuit.given_paths import GivenPathsLP
from repro.circuit.routing import RoutingLP
from repro.lp import LinearProgram
from repro.lp.model import _radix_order
from repro.packet.given_paths import PacketGivenPathsLP
from repro.packet.routing import PacketRoutingLP


def scipy_csc(lp):
    """``csc_matrix((data, (i, j)))`` of ``lp``'s rows in solver order:
    ``<=`` and ``>=`` rows first, ``>=`` negated, then ``==`` rows."""
    views = list(lp.iter_constraints())
    stacked = [v for v in views if v.sense != "=="] + [v for v in views if v.sense == "=="]
    i, j, data = [], [], []
    for position, view in enumerate(stacked):
        sign = -1.0 if view.sense == ">=" else 1.0
        i += [position] * len(view.indices)
        j += view.indices
        data += [sign * value for value in view.coefficients]
    return sparse.csc_matrix(
        (np.array(data, dtype=float), (np.array(i, dtype=np.int64), np.array(j, dtype=np.int64))),
        shape=(len(stacked), lp.num_variables),
    )


def assert_matches_scipy(lp):
    form = lp.columnwise()
    oracle = scipy_csc(lp)
    for got, want in (
        (form.start, oracle.indptr),
        (form.index, oracle.indices),
        (form.value, oracle.data),
    ):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros too
        assert not got.flags.writeable
    assert form.start.dtype == form.index.dtype == np.int32
    for col in range(lp.num_variables):
        rows = form.index[form.start[col] : form.start[col + 1]]
        assert (np.diff(rows) > 0).all(), f"column {col} rows not strictly ascending"
    return form


def test_circuit_given_paths(network, circuit_instance_with_paths):
    assert_matches_scipy(GivenPathsLP(circuit_instance_with_paths, network).build())


@pytest.mark.parametrize("formulation", ["path", "edge"])
def test_circuit_routing(network, circuit_instance, formulation):
    assert_matches_scipy(RoutingLP(circuit_instance, network, formulation=formulation).build())


def test_packet_given_paths(network, packet_instance):
    assert_matches_scipy(PacketGivenPathsLP(packet_instance, network).build())


def test_packet_time_expanded(network, packet_instance):
    assert_matches_scipy(PacketRoutingLP(packet_instance, network, horizon=12).build())


def test_two_duplicates_of_a_cell_are_summed():
    lp = LinearProgram("two")
    lp.add_variables(["a", "b"])
    lp.add_constraints_coo([0, 0, 0], [1, 0, 1], [0.1, 5.0, 0.2], ">=", [1.0])
    form = assert_matches_scipy(lp)
    assert form.value.tolist() == [-5.0, -(0.1 + 0.2)]


def test_three_or_more_duplicates_are_summed_left_to_right():
    """scipy adds a cell's entries one at a time, in entry order:
    ``(0.1 + 0.2) + 0.3`` is ``0.6000000000000001``, while
    ``0.1 + (0.2 + 0.3)`` is ``0.6``."""
    lp = LinearProgram("many")
    lp.add_variables(["a", "b", "c"])
    rows = [0, 1, 0, 0, 1, 1, 1, 0]
    cols = [2, 0, 2, 2, 0, 0, 0, 1]
    vals = [0.1, 1e16, 0.2, 0.3, 1.0, 1.0, -1e16, 4.0]
    lp.add_constraints_coo(rows, cols, vals, ["<=", "=="], [1.0, 2.0])
    form = assert_matches_scipy(lp)
    assert form.value.tolist() == [((1e16 + 1.0) + 1.0) - 1e16, 4.0, (0.1 + 0.2) + 0.3]


def test_empty_columns():
    lp = LinearProgram("gaps")
    lp.add_variables([("x", k) for k in range(6)])
    lp.add_constraints_coo([0, 1, 1], [4, 1, 4], [1.0, 2.0, 3.0], "<=", [1.0, 1.0])
    form = assert_matches_scipy(lp)
    assert form.start.tolist() == [0, 0, 1, 1, 1, 3, 3]


def test_row_free_lp():
    lp = LinearProgram("row-free")
    lp.add_variables(["a", "b", "c"], objective=1.0)
    form = assert_matches_scipy(lp)
    assert form.start.tolist() == [0, 0, 0, 0]
    assert form.index.shape == form.value.shape == (0,)


def test_variable_free_lp():
    lp = LinearProgram("variable-free")
    lp.add_constraints_coo([], [], [], ["<=", "=="], [1.0, 0.0])
    form = assert_matches_scipy(lp)
    assert form.start.tolist() == [0]
    assert form.row_upper.tolist() == [1.0, 0.0]


def test_more_than_65535_rows_takes_two_radix_passes():
    rng = np.random.default_rng(11)
    m = 70_000
    lp = LinearProgram("tall")
    lp.add_variables([("x", k) for k in range(4)])
    rows = rng.permutation(np.repeat(np.arange(m), 2))
    cols = rng.integers(0, 4, rows.shape[0])
    senses = rng.choice(["<=", ">=", "=="], m)
    lp.add_constraints_coo(rows, cols, rng.normal(size=rows.shape[0]), list(senses), np.ones(m))
    assert_matches_scipy(lp)


def test_more_than_65535_columns_takes_two_radix_passes():
    rng = np.random.default_rng(12)
    n = 70_000
    lp = LinearProgram("wide")
    lp.add_variables([("x", k) for k in range(n)])
    cols = rng.permutation(n)
    rows = rng.integers(0, 5, n)
    lp.add_constraints_coo(rows, cols, rng.normal(size=n), [">=", "<=", "==", "<=", ">="], np.ones(5))
    assert_matches_scipy(lp)


@pytest.mark.parametrize("high", [3, 2**16 - 1, 2**16, 2**20])
def test_radix_order_is_lexsorts_order(high):
    rng = np.random.default_rng(high)
    keys = [rng.integers(0, high + 1, 5_000) for _ in range(2)]
    keys[0][0] = keys[1][1] = high  # the largest key sets the digit count
    assert np.array_equal(_radix_order(keys), np.lexsort(keys))
