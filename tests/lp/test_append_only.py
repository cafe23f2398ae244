"""Property tests for the append-only LP model, over all five LP builders.

A :class:`repro.lp.LinearProgram` is built once, in full, into append-only
buffers, and :meth:`~repro.lp.LinearProgram.matrices` is a cached single pass
over them (DESIGN.md Section 2).  Each property below is checked on the
models of **all five LP builders** (circuit given-paths, circuit routing in
both formulations, packet given-paths, packet time-expanded):

* the public views (``variable_keys``, ``bounds``, ``objective_vector``,
  ``iter_constraints``) describe the model completely — a fresh LP rebuilt
  from them is byte-identical and solves to the same vector;
* growth only appends — new rows and new columns leave every existing row,
  column, bound and objective entry untouched, and the matrix cache holds
  exactly until the model grows;
* the exports agree with one another (counts, sense groups, key registry,
  read-only bound views).
"""

import numpy as np
import pytest
from scipy import sparse

from repro.core import topologies
from repro.lp import ConstraintBlock, LinearProgram, solve
from repro.workloads import CoflowGenerator, WorkloadConfig


# ----------------------------------------------------------------- helpers

def snapshot(lp):
    """Capture an LP's full definition through its public views."""
    return {
        "keys": list(lp.variable_keys),
        "bounds": list(lp.bounds()),
        "objective": np.asarray(lp.objective_vector(), dtype=float),
        "constraints": [
            (list(c.indices), list(c.coefficients), c.sense, c.rhs)
            for c in lp.iter_constraints()
        ],
    }


def coo_rows(constraints):
    """Flatten ``(indices, coefficients, sense, rhs)`` rows into COO arrays."""
    rows, cols, vals, senses, rhs = [], [], [], [], []
    for r, (indices, coefficients, sense, b) in enumerate(constraints):
        rows.extend([r] * len(indices))
        cols.extend(indices)
        vals.extend(coefficients)
        senses.append(sense)
        rhs.append(b)
    return rows, cols, vals, senses, rhs


def rebuild(snap):
    """Assemble a fresh LP from a snapshot through the bulk API."""
    fresh = LinearProgram()
    lower, upper = zip(*snap["bounds"]) if snap["bounds"] else ((), ())
    fresh.add_variables(
        snap["keys"],
        lower=np.asarray(lower, dtype=float),
        upper=np.asarray(upper, dtype=float),
        objective=snap["objective"],
    )
    rows, cols, vals, senses, rhs = coo_rows(snap["constraints"])
    if senses:
        fresh.add_constraints_coo(
            rows=rows, cols=cols, vals=vals, senses=senses, rhs=rhs
        )
    return fresh


def assert_csr_identical(a, b):
    """Two CSR matrices with identical shape and identical stored arrays."""
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def assert_identical(lp_a, lp_b):
    """Matrices, bounds, objective and key order all byte-identical."""
    for a, b in zip(lp_a.matrices(), lp_b.matrices()):
        if a is None or b is None:
            assert a is None and b is None
            continue
        if sparse.issparse(a):
            assert_csr_identical(a.tocsr(), b.tocsr())
        else:
            assert np.array_equal(np.asarray(a), np.asarray(b))
    assert list(lp_a.variable_keys) == list(lp_b.variable_keys)
    assert lp_a.bounds() == lp_b.bounds()
    assert np.array_equal(
        np.asarray(lp_a.objective_vector()), np.asarray(lp_b.objective_vector())
    )


def dense_groups(lp):
    """``(A_ub, b_ub, A_eq, b_eq)`` as dense arrays built row by row from
    :meth:`~repro.lp.LinearProgram.iter_constraints`, ``>=`` rows negated."""
    n = lp.num_variables
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for c in lp.iter_constraints():
        row = np.zeros(n)
        np.add.at(row, np.asarray(c.indices, dtype=np.int64), c.coefficients)
        if c.sense == "==":
            eq_rows.append(row)
            eq_rhs.append(c.rhs)
        else:
            sign = -1.0 if c.sense == ">=" else 1.0
            ub_rows.append(sign * row)
            ub_rhs.append(sign * c.rhs)

    def stack(rows, rhs):
        if not rows:
            return None, None
        return np.vstack(rows), np.asarray(rhs)

    return stack(ub_rows, ub_rhs) + stack(eq_rows, eq_rhs)


def num_rows(matrix):
    return 0 if matrix is None else matrix.shape[0]


def _routed(instance, network):
    return instance.with_paths(
        {
            fid: network.shortest_path(
                instance.flow(fid).source, instance.flow(fid).destination
            )
            for fid in instance.flow_ids()
        }
    )


def _circuit_instance(seed=71):
    network = topologies.leaf_spine(
        num_leaves=2, num_spines=2, hosts_per_leaf=2
    )
    instance = CoflowGenerator(
        network,
        WorkloadConfig(num_coflows=2, coflow_width=3, mean_flow_size=4.0, seed=seed),
    ).instance()
    return instance, network


def _packet_instance(seed=72):
    network = topologies.leaf_spine(
        num_leaves=2, num_spines=2, hosts_per_leaf=2
    )
    instance = CoflowGenerator(
        network,
        WorkloadConfig(
            num_coflows=2,
            coflow_width=3,
            unit_sizes=True,
            release_rate=None,
            seed=seed,
        ),
    ).instance()
    return instance, network


def build_circuit_given_paths():
    from repro.circuit.given_paths import GivenPathsLP

    instance, network = _circuit_instance()
    return GivenPathsLP(_routed(instance, network), network).build()


def build_circuit_routing_edge():
    from repro.circuit.routing import RoutingLP

    instance, network = _circuit_instance()
    return RoutingLP(instance, network, formulation="edge").build()


def build_circuit_routing_path():
    from repro.circuit.routing import RoutingLP

    instance, network = _circuit_instance()
    return RoutingLP(instance, network, formulation="path").build()


def build_packet_given_paths():
    from repro.packet.given_paths import PacketGivenPathsLP

    instance, network = _packet_instance()
    return PacketGivenPathsLP(_routed(instance, network), network).build()


def build_packet_time_expanded():
    from repro.packet.routing import PacketRoutingLP

    instance, network = _packet_instance()
    return PacketRoutingLP(instance, network).build()


BUILDERS = {
    "circuit-given-paths": build_circuit_given_paths,
    "circuit-routing-edge": build_circuit_routing_edge,
    "circuit-routing-path": build_circuit_routing_path,
    "packet-given-paths": build_packet_given_paths,
    "packet-time-expanded": build_packet_time_expanded,
}


@pytest.fixture(params=sorted(BUILDERS), ids=sorted(BUILDERS))
def built_lp(request):
    return BUILDERS[request.param]()


# ------------------------------------------ the views describe the model

class TestRebuildFromViews:
    """A fresh LP assembled from the public views equals the original."""

    def test_rebuild_is_byte_identical(self, built_lp):
        assert built_lp.num_constraints > 0 and built_lp.num_variables > 0
        assert_identical(built_lp, rebuild(snapshot(built_lp)))

    def test_solve_rebuilt_matches_original(self, built_lp):
        original, rebuilt = solve(built_lp), solve(rebuild(snapshot(built_lp)))
        assert original.objective == rebuilt.objective
        assert np.array_equal(original.x, rebuilt.x)
        assert original.keys == rebuilt.keys


# ---------------------------------------------------- growth only appends

class TestAppendOnlyGrowth:
    """Rows and columns added after a build never perturb what is there."""

    def test_matrices_cached_until_growth(self, built_lp):
        first = built_lp.matrices()
        assert built_lp.matrices() is first
        built_lp.add_variable(("appended", 0))
        grown = built_lp.matrices()
        assert grown is not first
        assert built_lp.matrices() is grown

    def test_appended_rows_leave_existing_rows_untouched(self, built_lp):
        old = built_lp.matrices()
        old_counts = (built_lp.num_constraints, built_lp.num_entries)
        # Re-append a few existing rows under every sense, so both sense
        # groups grow.
        source = list(built_lp.iter_constraints())[:6]
        extra = [
            (c.indices, c.coefficients, ("<=", ">=", "==")[r % 3], c.rhs + 1.0)
            for r, c in enumerate(source)
        ]
        rows, cols, vals, senses, rhs = coo_rows(extra)
        appended = built_lp.add_constraints_coo(rows, cols, vals, senses, rhs)
        assert appended == range(old_counts[0], old_counts[0] + len(extra))
        assert built_lp.num_entries == old_counts[1] + len(vals)

        new = built_lp.matrices()
        for old_a, old_b, new_a, new_b in ((old[0], old[1], new[0], new[1]),
                                           (old[2], old[3], new[2], new[3])):
            k = num_rows(old_a)
            if k:
                assert_csr_identical(new_a[:k], old_a)
                assert np.array_equal(new_b[:k], old_b)
        grown = sum(s != "==" for s in senses), sum(s == "==" for s in senses)
        assert num_rows(new[0]) == num_rows(old[0]) + grown[0]
        assert num_rows(new[2]) == num_rows(old[2]) + grown[1]
        # The appended tail holds exactly the appended rows.
        expected = dense_groups(built_lp)
        for got, want in zip(new, expected):
            got = got.toarray() if sparse.issparse(got) else got
            assert np.array_equal(got, want)

    def test_appended_columns_leave_existing_columns_untouched(self, built_lp):
        snap = snapshot(built_lp)
        old = built_lp.matrices()
        n = built_lp.num_variables
        new_keys = [("appended", i) for i in range(3)]
        added = built_lp.add_variables(
            new_keys, lower=0.0, upper=[1.0, 2.0, 3.0], objective=0.5
        )
        assert added == range(n, n + 3)
        assert built_lp.variable_keys == snap["keys"] + new_keys
        assert built_lp.bounds()[:n] == snap["bounds"]
        assert built_lp.bounds()[n:] == [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)]
        assert np.array_equal(built_lp.objective_vector()[:n], snap["objective"])
        for i, key in enumerate(snap["keys"]):
            assert built_lp.variable_index(key) == i
        for old_m, new_m in zip(old, built_lp.matrices()):
            if old_m is None:
                assert new_m is None
            elif sparse.issparse(old_m):
                # Same stored entries; only the column count grew.
                assert new_m.shape == (old_m.shape[0], n + 3)
                assert np.array_equal(new_m.indptr, old_m.indptr)
                assert np.array_equal(new_m.indices, old_m.indices)
                assert np.array_equal(new_m.data, old_m.data)
            else:
                assert np.array_equal(new_m, old_m)

    def test_constraint_block_appends_like_coo(self, built_lp):
        other = rebuild(snapshot(built_lp))
        extra = [
            (c.indices, c.coefficients, c.sense, c.rhs)
            for c in list(built_lp.iter_constraints())[-5:]
        ]
        block = ConstraintBlock(built_lp)
        for indices, coefficients, sense, rhs in extra:
            block.add_row(indices, coefficients, sense, rhs)
        rows, cols, vals, senses, rhs = coo_rows(extra)
        assert block.flush() == other.add_constraints_coo(
            rows, cols, vals, senses, rhs
        )
        assert_identical(built_lp, other)


# ------------------------------------------- the exports agree throughout

class TestExportsConsistent:
    """Counts, row views, key registry and bound views tell one story."""

    def test_counts_match_matrices(self, built_lp):
        a_ub, b_ub, a_eq, b_eq = built_lp.matrices()
        n = built_lp.num_variables
        assert n == len(built_lp.variable_keys) == len(built_lp.bounds())
        assert built_lp.objective_vector().shape == (n,)
        assert built_lp.num_constraints == num_rows(a_ub) + num_rows(a_eq)
        assert num_rows(a_ub) == (0 if b_ub is None else b_ub.shape[0])
        assert num_rows(a_eq) == (0 if b_eq is None else b_eq.shape[0])
        for m in (a_ub, a_eq):
            if m is not None:
                assert m.shape[1] == n
        constraints = list(built_lp.iter_constraints())
        assert len(constraints) == built_lp.num_constraints
        assert built_lp.num_entries == sum(len(c.indices) for c in constraints)

    def test_iter_constraints_match_matrices(self, built_lp):
        for got, want in zip(built_lp.matrices(), dense_groups(built_lp)):
            if got is None or want is None:
                assert got is None and want is None
                continue
            got = got.toarray() if sparse.issparse(got) else got
            assert np.array_equal(got, want)

    def test_solution_keys_alias_registry(self, built_lp):
        keys, index = built_lp.solution_keys()
        assert keys == built_lp.variable_keys
        assert len(index) == len(keys)
        for i, key in enumerate(keys):
            assert index[key] == i == built_lp.variable_index(key)
            assert built_lp.has_variable(key)
        assert built_lp.variable_keys is not keys  # a copy, not the registry

    def test_bound_and_objective_exports(self, built_lp):
        lower, upper = built_lp.bounds_arrays()
        assert not lower.flags.writeable and not upper.flags.writeable
        assert list(zip(lower.tolist(), upper.tolist())) == built_lp.bounds()
        assert np.all(lower <= upper)
        objective = built_lp.objective_vector()
        before = objective.copy()
        objective += 1.0  # a fresh array: mutating it leaves the model alone
        assert np.array_equal(built_lp.objective_vector(), before)
