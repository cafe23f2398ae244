"""Scalar reference builders: the oracle of ``test_equivalence.py``.

Every LP builder in ``repro`` assembles its model one way, through the bulk
COO pipeline (``build()``).  The functions here assemble the paper's LP the
legacy way, one ``add_variable`` / ``add_constraint`` call at a time
straight from its constraint families.  ``test_equivalence.py`` asserts
that the two are numerically identical, except for the Section-2.1 LP:
its builder folds rows into bounds, and deletes the columns they fix at
0, while building, and :func:`fold_given_paths_rows` applies the same
reductions to the LP as written here.  The routing and packet references read only builder
helpers that the bulk path uses too (``_transfer_rhs``, ``_edge_users``,
``candidate_paths``, ...), so neither side has a private helper a shared
bug could hide in; the Section-2.1 reference reads only the builder's
instance, network and grid.  ``benchmarks/bench_lp_assembly.py`` times
:func:`build_scalar` as the baseline of its assembly speedup.
"""

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.circuit.given_paths import GivenPathsLP
from repro.circuit.routing import RoutingLP
from repro.core.flows import CoflowInstance
from repro.core.intervals import IntervalGrid
from repro.core.network import path_edges
from repro.lp import LinearProgram
from repro.packet.given_paths import PacketGivenPathsLP
from repro.packet.routing import PacketRoutingLP

Edge = Tuple[Hashable, Hashable]


def add_completion_variables_scalar(
    lp: LinearProgram, instance: CoflowInstance, grid: IntervalGrid
) -> None:
    """The ``x``/``c``/``C`` variable blocks, one ``add_variable`` at a time."""
    L = grid.num_intervals
    for i, j, _flow in instance.iter_flows():
        for ell in range(L):
            lp.add_variable(("x", i, j, ell), lower=0.0, upper=1.0)
        lp.add_variable(("c", i, j), lower=0.0)
    for i, coflow in enumerate(instance.coflows):
        lp.add_variable(("C", i), lower=0.0, objective=coflow.weight)


def add_completion_structure_scalar(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: IntervalGrid,
    transfer_rhs: np.ndarray,
) -> None:
    """The shared completion skeleton, one call at a time.

    Emits the same variables and rows, in the same order, as
    ``repro.circuit._assembly.add_completion_structure_bulk``.
    """
    L = grid.num_intervals
    flows = list(instance.iter_flows())
    add_completion_variables_scalar(lp, instance, grid)

    for i, j, _flow in flows:
        lp.add_constraint(
            {("x", i, j, ell): 1.0 for ell in range(L)}, "==", 1.0,
            name=f"deliver[{i},{j}]",
        )
    for i, j, _flow in flows:
        lp.add_constraint(
            {
                **{("x", i, j, ell): grid.left(ell) for ell in range(L)},
                ("c", i, j): -1.0,
            },
            "<=",
            0.0,
            name=f"completion[{i},{j}]",
        )
    for i, j, _flow in flows:
        lp.add_constraint(
            {("c", i, j): 1.0, ("C", i): -1.0}, "<=", 0.0,
            name=f"coflow-last[{i},{j}]",
        )
    for pos, (i, j, flow) in enumerate(flows):
        if flow.size > 0:
            lp.add_constraint(
                {("c", i, j): 1.0}, ">=", float(transfer_rhs[pos]),
                name=f"transfer[{i},{j}]",
            )
    for i, j, flow in flows:
        first = grid.release_interval(flow.release_time)
        for ell in range(first):
            lp.add_constraint(
                {("x", i, j, ell): 1.0}, "==", 0.0, name=f"release[{i},{j},{ell}]"
            )


def circuit_given_paths_scalar(builder: GivenPathsLP) -> LinearProgram:
    """Section-2.1 LP (4)-(10) as written: the completion skeleton with its
    transfer and release rows, plus a capacity row per edge per interval.

    Edges take rows in first-seen order over the flows' paths; a path that
    crosses an edge twice loads it once (dict semantics).
    """
    instance, network, grid = builder.instance, builder.network, builder.grid
    L = grid.num_intervals
    lp = LinearProgram(name="circuit-given-paths")
    transfer_rhs = [
        flow.release_time + flow.size / network.bottleneck_capacity(flow.path)
        for _i, _j, flow in instance.iter_flows()
    ]
    add_completion_structure_scalar(lp, instance, grid, np.asarray(transfer_rhs))
    edge_users: Dict[Edge, List[Tuple[int, int, float]]] = {}
    for i, j, flow in instance.iter_flows():
        for edge in dict.fromkeys(path_edges(flow.path)):
            edge_users.setdefault(edge, []).append((i, j, flow.size))
    for edge, users in edge_users.items():
        cap = network.capacity(*edge)
        for ell in range(L):
            length = grid.length(ell)
            lp.add_constraint(
                {("x", i, j, ell): size / length for i, j, size in users},
                "<=",
                cap,
                name=f"capacity[{edge},{ell}]",
            )
    return lp


def fold_given_paths_rows(full: LinearProgram) -> LinearProgram:
    """The LP ``GivenPathsLP.build`` emits, derived from the LP as written
    (:func:`circuit_given_paths_scalar`) by presolve reductions (Andersen &
    Andersen, Math. Programming 71, 1995), row family by name:

    * the singleton ``release[...]`` rows (``x == 0``) and ``transfer[...]``
      rows (``c >= rhs``) become bounds of their variable;
    * the columns those bounds fix at 0 (``lower == upper == 0``, zero
      cost) are deleted, with their terms in every row;
    * a ``capacity[...]`` row whose largest activity under those bounds,
      summed term by term in row order, is at most its right-hand side
      cannot bind and is dropped.

    Every other row and column is kept as it is, in order.
    """
    keys = full.variable_keys
    lower, upper = (np.array(bound) for bound in full.bounds_arrays())
    kept = []
    for row in full.iter_constraints():
        family = row.name.split("[", 1)[0]
        if family not in ("release", "transfer"):
            kept.append(row)
            continue
        ((col,), (coef,)) = row.indices, row.coefficients
        assert coef > 0, row
        if row.sense in (">=", "=="):
            lower[col] = max(lower[col], row.rhs / coef)
        if row.sense in ("<=", "=="):
            upper[col] = min(upper[col], row.rhs / coef)
    objective = full.objective_vector()
    fixed = (lower == 0) & (upper == 0) & (objective == 0)
    folded = LinearProgram(name=full.name)
    folded.add_variables(
        [key for key, gone in zip(keys, fixed) if not gone],
        lower=lower[~fixed],
        upper=upper[~fixed],
        objective=objective[~fixed],
    )
    for row in kept:
        terms = list(zip(row.indices, row.coefficients))
        if row.name.startswith("capacity["):
            peak = 0.0
            for col, coef in terms:
                peak += coef * (upper[col] if coef > 0 else lower[col])
            if peak <= row.rhs:
                continue
        folded.add_constraint(
            [(keys[col], coef) for col, coef in terms if not fixed[col]],
            row.sense,
            row.rhs,
            name=row.name,
        )
    return folded


def written_lp_violation(written: LinearProgram, solution) -> float:
    """The largest amount by which ``solution``, an :class:`LPSolution` of
    ``GivenPathsLP.build``'s LP, violates a row or a bound of the LP as
    written (:func:`circuit_given_paths_scalar`).

    The solution's values are scattered by key onto the written LP's
    columns, with zeros for the columns ``build`` leaves out.
    """
    x = np.zeros(written.num_variables)
    x[[written.variable_index(key) for key in solution.keys]] = solution.x
    lower, upper = written.bounds_arrays()
    form = written.columnwise()
    column = np.repeat(np.arange(written.num_variables), np.diff(form.start))
    activity = np.bincount(
        form.index, weights=form.value * x[column], minlength=len(form.row_upper)
    )
    return float(max(
        0.0,
        np.max(lower - x, initial=0.0),
        np.max(x - upper, initial=0.0),
        np.max(form.row_lower - activity, initial=0.0),
        np.max(activity - form.row_upper, initial=0.0),
    ))


def routing_edge_scalar(builder: RoutingLP) -> LinearProgram:
    """Section-2.2 edge formulation: rate variables, conservation, capacity."""
    instance, network, grid = builder.instance, builder.network, builder.grid
    L = grid.num_intervals
    edges = network.edges()
    lp = LinearProgram(name="circuit-routing-edge")
    add_completion_structure_scalar(lp, instance, grid, builder._transfer_rhs())

    # Rate variables f[(i,j), ell, e].
    for i, j, flow in instance.iter_flows():
        if flow.size <= 0:
            continue
        for ell in range(L):
            for e in edges:
                lp.add_variable(("f", i, j, ell, e), lower=0.0)

    # Flow conservation (18)-(20) per flow per interval.
    for i, j, flow in instance.iter_flows():
        if flow.size <= 0:
            continue
        for ell in range(L):
            length = grid.length(ell)
            for v in network.nodes():
                incoming = network.in_edges(v)
                outgoing = network.out_edges(v)
                terms: Dict[Tuple, float] = {}
                for e in incoming:
                    terms[("f", i, j, ell, e)] = terms.get(("f", i, j, ell, e), 0.0) + 1.0
                for e in outgoing:
                    terms[("f", i, j, ell, e)] = terms.get(("f", i, j, ell, e), 0.0) - 1.0
                if v == flow.destination:
                    # net inflow at the sink equals the delivered rate
                    terms[("x", i, j, ell)] = -flow.size / length
                    lp.add_constraint(terms, "==", 0.0, name=f"sink[{i},{j},{ell}]")
                elif v == flow.source:
                    # net outflow at the source equals the delivered rate
                    terms[("x", i, j, ell)] = flow.size / length
                    lp.add_constraint(terms, "==", 0.0, name=f"source[{i},{j},{ell}]")
                else:
                    lp.add_constraint(terms, "==", 0.0, name=f"conserve[{i},{j},{ell},{v}]")

    # Capacity (21) per edge per interval.
    for ell in range(L):
        for e in edges:
            terms = {
                ("f", i, j, ell, e): 1.0
                for i, j, flow in instance.iter_flows()
                if flow.size > 0
            }
            lp.add_constraint(terms, "<=", network.capacity(*e), name=f"cap[{e},{ell}]")
    return lp


def routing_path_scalar(builder: RoutingLP) -> LinearProgram:
    """Section-2.2 path formulation: rates over the candidate paths."""
    instance, network, grid = builder.instance, builder.network, builder.grid
    L = grid.num_intervals
    lp = LinearProgram(name="circuit-routing-path")
    add_completion_structure_scalar(lp, instance, grid, builder._transfer_rhs())
    candidates = builder.candidate_paths()

    # Rate variables y[(i,j), ell, path-index].
    for i, j, flow in instance.iter_flows():
        if flow.size <= 0:
            continue
        for ell in range(L):
            for p in range(len(candidates[(i, j)])):
                lp.add_variable(("y", i, j, ell, p), lower=0.0)

    # Volume delivered per interval equals the rate on candidate paths
    # times the interval length.
    for i, j, flow in instance.iter_flows():
        if flow.size <= 0:
            continue
        for ell in range(L):
            length = grid.length(ell)
            terms = {
                ("y", i, j, ell, p): length
                for p in range(len(candidates[(i, j)]))
            }
            terms[("x", i, j, ell)] = -flow.size
            lp.add_constraint(terms, "==", 0.0, name=f"route[{i},{j},{ell}]")

    # Capacity per edge per interval.
    edge_terms: Dict[Tuple[Edge, int], Dict[Tuple, float]] = {}
    for i, j, flow in instance.iter_flows():
        if flow.size <= 0:
            continue
        for p, path in enumerate(candidates[(i, j)]):
            for e in path_edges(path):
                for ell in range(L):
                    edge_terms.setdefault((e, ell), {})[("y", i, j, ell, p)] = 1.0
    for (e, ell), terms in edge_terms.items():
        lp.add_constraint(terms, "<=", network.capacity(*e), name=f"cap[{e},{ell}]")
    return lp


def packet_given_paths_scalar(builder: PacketGivenPathsLP) -> LinearProgram:
    """Section-3.1 job-shop LP: dilation and congestion (28) rows."""
    instance, grid = builder.instance, builder.grid
    L = grid.num_intervals
    lp = LinearProgram(name="packet-given-paths")
    add_completion_variables_scalar(lp, instance, grid)
    flows = list(instance.iter_flows())
    earliest = builder._earliest_arrivals()

    for i, j, _flow in flows:
        lp.add_constraint(
            {("x", i, j, ell): 1.0 for ell in range(L)}, "==", 1.0,
            name=f"arrive[{i},{j}]",
        )
    for i, j, _flow in flows:
        lp.add_constraint(
            {
                **{("x", i, j, ell): grid.left(ell) for ell in range(L)},
                ("c", i, j): -1.0,
            },
            "<=",
            0.0,
            name=f"completion[{i},{j}]",
        )
    for i, j, _flow in flows:
        lp.add_constraint(
            {("c", i, j): 1.0, ("C", i): -1.0}, "<=", 0.0,
            name=f"coflow-last[{i},{j}]",
        )
    # A packet cannot arrive in an interval that closes before its
    # earliest feasible arrival (release + path length).
    for pos, (i, j, _flow) in enumerate(flows):
        for ell in range(L):
            if grid.right(ell) < earliest[pos] - 1e-9:
                lp.add_constraint(
                    {("x", i, j, ell): 1.0}, "==", 0.0,
                    name=f"dilation[{i},{j},{ell}]",
                )
    # The completion proxy can also never undercut the earliest arrival.
    for pos, (i, j, _flow) in enumerate(flows):
        lp.add_constraint(
            {("c", i, j): 1.0}, ">=", float(earliest[pos]), name=f"lbc[{i},{j}]"
        )

    # Congestion validity (constraint (28) of the paper).
    for e, users in builder._edge_users().items():
        for ell in range(L):
            lp.add_constraint(
                {
                    ("x", *flows[pos][:2], t): 1.0
                    for pos in users
                    for t in range(ell + 1)
                },
                "<=",
                grid.right(ell),
                name=f"congestion[{e},{ell}]",
            )
    return lp


def packet_time_expanded_scalar(builder: PacketRoutingLP) -> LinearProgram:
    """Section-3.2 time-expanded LP over the reachable ``G^T`` edges."""
    instance, network, gt = builder.instance, builder.network, builder.expanded
    T = gt.horizon
    lp = LinearProgram(name="packet-routing-time-expanded")

    # Completion variables.
    for i, j, _flow in instance.iter_flows():
        lp.add_variable(("c", i, j), lower=0.0)
    for i, coflow in enumerate(instance.coflows):
        lp.add_variable(("C", i), lower=0.0, objective=coflow.weight)

    # Per-packet flow variables on G^T edges.  Only edges the packet can
    # actually use are materialised: the departure node must be reachable
    # from the source copy by the departure time, and the arrival node
    # must still be able to reach the destination within the horizon.
    dist_from, dist_to = builder._distance_maps()
    infinite = T + 1

    for i, j, flow in instance.iter_flows():
        release = int(round(flow.release_time))
        from_src = dist_from(flow.source)
        to_dst = dist_to(flow.destination)

        def usable(u: Hashable, v: Hashable, t: int) -> bool:
            # departing u at step t, arriving v at t + 1
            if u == flow.destination:
                return False  # destination copies are absorbing
            if from_src.get(u, infinite) > t - release:
                return False
            if to_dst.get(v, infinite) > T - (t + 1):
                return False
            return True

        for t in range(release, T):
            for u, v in network.edges():
                if usable(u, v, t):
                    lp.add_variable(("f", i, j, ((u, t), (v, t + 1))), lower=0.0, upper=1.0)
            for v in network.nodes():
                if usable(v, v, t):
                    lp.add_variable(("f", i, j, ((v, t), (v, t + 1))), lower=0.0, upper=1.0)
        for t in range(release + 1, T + 1):
            lp.add_variable(("z", i, j, t), lower=0.0, upper=1.0)

    def fvar(i: int, j: int, edge: Tuple) -> Optional[Tuple]:
        key = ("f", i, j, edge)
        return key if lp.has_variable(key) else None

    # Flow conservation and absorption per packet.
    for i, j, flow in instance.iter_flows():
        release = int(round(flow.release_time))
        src, dst = flow.source, flow.destination
        # Unit supply at the source copy (s, release).
        supply_terms: Dict[Tuple, float] = {}
        for edge in gt.out_edges((src, release)):
            key = fvar(i, j, edge)
            if key is not None:
                supply_terms[key] = 1.0
        lp.add_constraint(supply_terms, "==", 1.0, name=f"supply[{i},{j}]")

        # Conservation at intermediate copies (v, t), v != dst; flow may
        # neither appear nor disappear anywhere but the source copy and
        # the destination copies.
        for t in range(release, T):
            for v in network.nodes():
                if v == dst or (v == src and t == release):
                    continue
                terms: Dict[Tuple, float] = {}
                for edge in gt.in_edges((v, t)):
                    key = fvar(i, j, edge)
                    if key is not None:
                        terms[key] = terms.get(key, 0.0) + 1.0
                for edge in gt.out_edges((v, t)):
                    key = fvar(i, j, edge)
                    if key is not None:
                        terms[key] = terms.get(key, 0.0) - 1.0
                if terms:
                    lp.add_constraint(terms, "==", 0.0, name=f"cons[{i},{j},{v},{t}]")

        # Absorption: z[t] equals the flow entering the destination copy.
        for t in range(release + 1, T + 1):
            terms = {("z", i, j, t): -1.0}
            for edge in gt.in_edges((dst, t)):
                key = fvar(i, j, edge)
                if key is not None:
                    terms[key] = terms.get(key, 0.0) + 1.0
            lp.add_constraint(terms, "==", 0.0, name=f"absorb[{i},{j},{t}]")
        lp.add_constraint(
            {("z", i, j, t): 1.0 for t in range(release + 1, T + 1)},
            "==",
            1.0,
            name=f"arrive[{i},{j}]",
        )
        # Completion proxies.
        lp.add_constraint(
            {
                **{("z", i, j, t): float(t) for t in range(release + 1, T + 1)},
                ("c", i, j): -1.0,
            },
            "<=",
            0.0,
            name=f"completion[{i},{j}]",
        )
        lp.add_constraint(
            {("c", i, j): 1.0, ("C", i): -1.0}, "<=", 0.0, name=f"coflow[{i},{j}]"
        )

    # Unit capacity on every movement edge of G^T.
    for t in range(T):
        for u, v in network.edges():
            edge = ((u, t), (v, t + 1))
            terms = {}
            for i, j, _flow in instance.iter_flows():
                key = fvar(i, j, edge)
                if key is not None:
                    terms[key] = 1.0
            if terms:
                lp.add_constraint(terms, "<=", 1.0, name=f"cap[{edge}]")
    return lp


def build_scalar(builder) -> LinearProgram:
    """The scalar reference of ``builder.build()``, for any of the four builders.

    For a :class:`GivenPathsLP` it is the LP as written;
    :func:`fold_given_paths_rows` of it equals what ``build()`` emits.
    """
    if isinstance(builder, RoutingLP):
        if builder.formulation == "edge":
            return routing_edge_scalar(builder)
        return routing_path_scalar(builder)
    if isinstance(builder, GivenPathsLP):
        return circuit_given_paths_scalar(builder)
    if isinstance(builder, PacketGivenPathsLP):
        return packet_given_paths_scalar(builder)
    if isinstance(builder, PacketRoutingLP):
        return packet_time_expanded_scalar(builder)
    raise TypeError(f"no scalar reference for {type(builder).__name__}")
