"""Circuit-based coflows where paths are *not* given (Section 2.2): the LP.

This module builds and solves the interval-indexed multicommodity LP
(15)-(23) that jointly routes and schedules connection requests.  Two
formulations are provided:

``"edge"``
    The paper's formulation: one rate variable per (flow, interval, edge),
    with per-interval flow-conservation constraints.  Faithful but large —
    ``O(n_flows * L * |E|)`` variables.

``"path"``
    An equivalent column formulation over a candidate path set (the
    equal-cost shortest paths by default): one rate variable per
    (flow, interval, candidate path).  On the fat-tree this is exactly the
    set of paths the paper's flow decomposition ends up using ("in all of our
    experiments, the path decomposition routine returns one path per flow"),
    and it is what makes paper-scale instances tractable with the open-source
    solver.  The ablation benchmark compares the two formulations.

Both formulations are assembled through the bulk COO pipeline of
:mod:`repro.lp` — whole variable blocks and constraint families are emitted
as arrays (see DESIGN.md Section 2).  The legacy one-row-at-a-time
emission survives only as the equivalence-test oracle and assembly-benchmark
baseline, ``tests/lp/reference_builders.py``.

Both produce a :class:`RoutingRelaxation` carrying, per flow, the interval
fractions, the LP completion-time proxies, and an aggregate edge (or path)
flow ready for the decomposition + randomized-rounding steps implemented in
:mod:`repro.circuit.flow_decomposition` and
:mod:`repro.circuit.randomized_rounding`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.flows import CoflowInstance, FlowId
from ..core.intervals import DEFAULT_ROUTING_EPSILON, IntervalGrid
from ..core.network import Network, path_edges
from ..lp import LinearProgram, LPSolution, solve, stacked_aranges
from ._assembly import (
    CompletionLayout,
    add_completion_structure_bulk,
    extract_completion,
)
from .flow_decomposition import FlowDecomposition, PathFlow, decompose_flow
from .lower_bounds import flow_transfer_lower_bounds

__all__ = ["RoutingLP", "RoutingRelaxation", "DEFAULT_ROUTING_EPSILON"]

Edge = Tuple[Hashable, Hashable]


def _default_horizon(instance: CoflowInstance, network: Network) -> float:
    min_cap = network.min_capacity()
    total = instance.total_volume
    horizon = instance.max_release_time + max(total, 1e-9) / min_cap
    return max(horizon, 1.0) * 2.0


@dataclass
class RoutingRelaxation:
    """Solution of the joint routing/scheduling LP (15)-(23)."""

    instance: CoflowInstance
    network: Network
    grid: IntervalGrid
    solution: LPSolution
    formulation: str
    #: per-flow interval fractions x[(i, j)] (length = grid.num_intervals)
    fractions: Dict[FlowId, np.ndarray]
    flow_completion: Dict[FlowId, float]
    coflow_completion: Dict[int, float]
    #: per-flow aggregate edge volume: total volume of the flow crossing each
    #: edge over the whole horizon (used by flow decomposition)
    edge_volumes: Dict[FlowId, Dict[Edge, float]]
    #: for the path formulation, the per-candidate-path volumes directly
    path_volumes: Dict[FlowId, List[PathFlow]]

    @property
    def objective(self) -> float:
        return self.solution.objective

    @property
    def lower_bound(self) -> float:
        """Lemma 5: ``objective / (1 + epsilon)`` (`/2` for the paper's eps=1)."""
        return self.solution.objective / (1.0 + self.grid.epsilon)

    def flow_order(self) -> List[FlowId]:
        """Flows ordered by LP completion times (Section 4.2 policy).

        Coflows are ranked by their LP completion proxy ``C_i`` (the dummy
        flow of the reformulation) and flows within a coflow by their own
        proxy ``c_ij`` — so the ordering respects the coflow-level objective
        the LP optimises while still serialising flows inside a coflow.
        """
        return sorted(
            self.fractions.keys(),
            key=lambda fid: (
                self.coflow_completion[fid[0]],
                self.flow_completion[fid],
                fid,
            ),
        )

    def decompositions(
        self, max_paths: Optional[int] = None
    ) -> Dict[FlowId, FlowDecomposition]:
        """Flow decomposition per connection request (thickest-path order).

        For the path formulation the LP already produces per-path volumes, so
        the decomposition is assembled directly; for the edge formulation the
        aggregate edge volumes are decomposed with
        :func:`repro.circuit.flow_decomposition.decompose_flow`.
        """
        result: Dict[FlowId, FlowDecomposition] = {}
        for i, j, flow in self.instance.iter_flows():
            fid = (i, j)
            if flow.size <= 0:
                continue
            if self.formulation == "path":
                paths = [p for p in self.path_volumes.get(fid, []) if p.value > 1e-9]
                paths.sort(key=lambda p: -p.value)
                result[fid] = FlowDecomposition(
                    source=flow.source, sink=flow.destination, paths=paths, residual={}
                )
            else:
                result[fid] = decompose_flow(
                    self.edge_volumes.get(fid, {}),
                    source=flow.source,
                    sink=flow.destination,
                    max_paths=max_paths,
                )
        return result


class RoutingLP:
    """Builder/solver for the Section-2.2 LP in either formulation."""

    def __init__(
        self,
        instance: CoflowInstance,
        network: Network,
        epsilon: float = DEFAULT_ROUTING_EPSILON,
        horizon: Optional[float] = None,
        formulation: str = "path",
        max_candidate_paths: int = 16,
        path_stretch: int = 0,
    ) -> None:
        if formulation not in ("edge", "path"):
            raise ValueError(f"unknown formulation {formulation!r}")
        for _, _, flow in instance.iter_flows():
            if not network.has_node(flow.source) or not network.has_node(
                flow.destination
            ):
                raise ValueError(
                    f"flow endpoints {flow.source!r}->{flow.destination!r} "
                    "missing from the network"
                )
        self.instance = instance
        self.network = network
        self.formulation = formulation
        self.max_candidate_paths = max_candidate_paths
        self.path_stretch = path_stretch
        self.grid = IntervalGrid(
            epsilon=epsilon, horizon=horizon or _default_horizon(instance, network)
        )
        self._candidate_paths: Dict[FlowId, List[List[Hashable]]] = {}
        self._layout: Optional[CompletionLayout] = None
        #: extra column-layout metadata for the rate-variable block
        self._rate_layout: Dict[str, object] = {}

    # ---------------------------------------------------------------- shared
    def _transfer_rhs(self) -> np.ndarray:
        """Transfer strengthening (endpoint-memoized widest-path searches)."""
        return flow_transfer_lower_bounds(self.instance, self.network)

    # ----------------------------------------------------------- edge builder
    def _build_edge(self) -> LinearProgram:
        """Vectorized assembly of the edge formulation."""
        instance, network, grid = self.instance, self.network, self.grid
        L = grid.num_intervals
        edges = network.edges()
        E = len(edges)
        lp = LinearProgram(name="circuit-routing-edge")
        layout = add_completion_structure_bulk(
            lp, instance, grid, self._transfer_rhs()
        )
        self._layout = layout
        flows = list(instance.iter_flows())
        active_pos = np.nonzero(layout.active)[0]
        A = active_pos.shape[0]
        lengths = layout.lengths
        nodes = network.nodes()
        N = len(nodes)
        node_index = {v: k for k, v in enumerate(nodes)}

        # Rate variables f[(i,j), ell, e], laid out (active flow, ell, edge).
        f_keys: List = []
        for p in active_pos:
            i, j, _flow = flows[p]
            for ell in range(L):
                f_keys.extend(("f", i, j, ell, e) for e in edges)
        f_range = lp.add_variables(f_keys, lower=0.0)
        f_base = f_range.start
        self._rate_layout = {
            "f_start": f_base,
            "active_pos": active_pos,
            "edges": edges,
            "E": E,
        }
        if A == 0:
            # Still emit the (empty) capacity rows to match the scalar reference.
            caps = np.asarray([network.capacity(*e) for e in edges], dtype=float)
            lp.add_constraints_coo(
                rows=np.zeros(0, dtype=np.int64),
                cols=np.zeros(0, dtype=np.int64),
                vals=np.zeros(0),
                senses="<=",
                rhs=np.tile(caps, L),
            )
            return lp

        # Flow conservation (18)-(20): one row per (active flow, interval,
        # node).  The +-1 incidence pattern is identical for every (flow,
        # interval) pair, so it is built once and broadcast.
        t_rows = np.empty(2 * E, dtype=np.int64)
        t_cols = np.empty(2 * E, dtype=np.int64)
        t_vals = np.empty(2 * E)
        for k, (u, v) in enumerate(edges):
            t_rows[2 * k] = node_index[v]      # in-edge of v: +1
            t_cols[2 * k] = k
            t_vals[2 * k] = 1.0
            t_rows[2 * k + 1] = node_index[u]  # out-edge of u: -1
            t_cols[2 * k + 1] = k
            t_vals[2 * k + 1] = -1.0

        a_ids = np.arange(A, dtype=np.int64)
        ell_ids = np.arange(L, dtype=np.int64)
        # rows: ((a * L + ell) * N + node), broadcast over the template.
        rowbase = ((a_ids[:, None] * L + ell_ids[None, :]) * N).reshape(A, L, 1)
        inc_rows = (rowbase + t_rows[None, None, :]).ravel()
        colbase = (f_base + (a_ids[:, None] * L + ell_ids[None, :]) * E).reshape(
            A, L, 1
        )
        inc_cols = (colbase + t_cols[None, None, :]).ravel()
        inc_vals = np.broadcast_to(t_vals, (A, L, 2 * E)).ravel()

        # Source/sink delivered-rate coupling: x[(i,j),ell] enters the source
        # and destination rows with +-size/length.
        src_nodes = np.asarray(
            [node_index[flows[p][2].source] for p in active_pos], dtype=np.int64
        )
        dst_nodes = np.asarray(
            [node_index[flows[p][2].destination] for p in active_pos],
            dtype=np.int64,
        )
        sizes = layout.sizes[active_pos]
        rate = sizes[:, None] / lengths[None, :]  # (A, L)
        x_cols = (layout.xc_base[active_pos][:, None] + ell_ids[None, :])  # (A, L)
        base_al = (a_ids[:, None] * L + ell_ids[None, :]) * N  # (A, L)
        src_rows = (base_al + src_nodes[:, None]).ravel()
        dst_rows = (base_al + dst_nodes[:, None]).ravel()
        x_rows = np.concatenate((dst_rows, src_rows))
        x_cols2 = np.concatenate((x_cols.ravel(), x_cols.ravel()))
        x_vals = np.concatenate((-rate.ravel(), rate.ravel()))

        lp.add_constraints_coo(
            rows=np.concatenate((inc_rows, x_rows)),
            cols=np.concatenate((inc_cols, x_cols2)),
            vals=np.concatenate((inc_vals, x_vals)),
            senses="==",
            rhs=np.zeros(A * L * N),
        )

        # Capacity (21) per edge per interval (row order: ell, then edge).
        caps = np.asarray([network.capacity(*e) for e in edges], dtype=float)
        cap_rows = np.tile(np.arange(L * E, dtype=np.int64), A)
        cap_cols = (
            f_base
            + (a_ids[:, None] * (L * E) + np.arange(L * E, dtype=np.int64)[None, :])
        ).ravel()
        lp.add_constraints_coo(
            rows=cap_rows,
            cols=cap_cols,
            vals=np.ones(A * L * E),
            senses="<=",
            rhs=np.tile(caps, L),
        )
        return lp

    # ----------------------------------------------------------- path builder
    def candidate_paths(self) -> Dict[FlowId, List[List[Hashable]]]:
        """Candidate path set per flow (cached; the network memoizes Yen's runs)."""
        if not self._candidate_paths:
            for i, j, flow in self.instance.iter_flows():
                self._candidate_paths[(i, j)] = self.network.candidate_paths(
                    flow.source,
                    flow.destination,
                    max_paths=self.max_candidate_paths,
                    stretch=self.path_stretch,
                )
        return self._candidate_paths

    def _build_path(self) -> LinearProgram:
        """Vectorized assembly of the path (column) formulation."""
        instance, network, grid = self.instance, self.network, self.grid
        L = grid.num_intervals
        lp = LinearProgram(name="circuit-routing-path")
        layout = add_completion_structure_bulk(
            lp, instance, grid, self._transfer_rhs()
        )
        self._layout = layout
        candidates = self.candidate_paths()
        flows = list(instance.iter_flows())
        active_pos = np.nonzero(layout.active)[0]
        A = active_pos.shape[0]
        lengths = layout.lengths
        ell_ids = np.arange(L, dtype=np.int64)

        # Rate variables y[(i,j), ell, p], laid out (active flow, ell, path).
        P = np.asarray(
            [len(candidates[(flows[p][0], flows[p][1])]) for p in active_pos],
            dtype=np.int64,
        )
        y_keys: List = []
        for a, p in enumerate(active_pos):
            i, j, _flow = flows[p]
            for ell in range(L):
                y_keys.extend(("y", i, j, ell, q) for q in range(P[a]))
        y_range = lp.add_variables(y_keys, lower=0.0)
        # Column base of each active flow's (L x P[a]) block.
        y_base = y_range.start + np.concatenate(([0], np.cumsum(P * L)[:-1])) if A else np.zeros(0, dtype=np.int64)
        self._rate_layout = {"y_base": y_base, "P": P, "active_pos": active_pos}

        if A:
            # Volume delivered per interval equals the rate on candidate
            # paths times the interval length: row per (active flow, ell).
            P_row = np.repeat(P, L)  # paths per row, rows ordered (a, ell)
            row_ids = np.arange(A * L, dtype=np.int64)
            row_col_start = np.repeat(y_base, L) + np.tile(ell_ids, A) * P_row
            y_rows = np.repeat(row_ids, P_row)
            y_cols = np.repeat(row_col_start, P_row) + stacked_aranges(P_row)
            y_vals = np.repeat(np.tile(lengths, A), P_row)
            x_rows = row_ids
            x_cols = (layout.xc_base[active_pos][:, None] + ell_ids[None, :]).ravel()
            x_vals = -np.repeat(layout.sizes[active_pos], L)
            lp.add_constraints_coo(
                rows=np.concatenate((y_rows, x_rows)),
                cols=np.concatenate((y_cols, x_cols)),
                vals=np.concatenate((y_vals, x_vals)),
                senses="==",
                rhs=np.zeros(A * L),
            )

        # Capacity per edge per interval.  Edge order matches the scalar
        # reference: first seen while walking flows, then their candidates.
        edge_users: Dict[Edge, List[Tuple[int, int]]] = {}
        for a, p in enumerate(active_pos):
            i, j, _flow = flows[p]
            for q, path in enumerate(candidates[(i, j)]):
                # dict.fromkeys: a non-simple candidate path contributes one
                # term per edge (the scalar dict semantics), not one per
                # traversal.
                for e in dict.fromkeys(path_edges(path)):
                    edge_users.setdefault(e, []).append((a, q))
        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        rhs_parts: List[np.ndarray] = []
        row_offset = 0
        for e, users in edge_users.items():
            a_arr = np.asarray([a for a, _q in users], dtype=np.int64)
            q_arr = np.asarray([q for _a, q in users], dtype=np.int64)
            # col of y[a, ell, q] = y_base[a] + ell * P[a] + q
            cols = (
                (y_base[a_arr] + q_arr)[None, :]
                + ell_ids[:, None] * P[a_arr][None, :]
            ).ravel()
            rows_parts.append(
                np.repeat(row_offset + ell_ids, a_arr.shape[0])
            )
            cols_parts.append(cols)
            rhs_parts.append(np.full(L, network.capacity(*e)))
            row_offset += L
        if rhs_parts:
            rows = np.concatenate(rows_parts)
            lp.add_constraints_coo(
                rows=rows,
                cols=np.concatenate(cols_parts),
                vals=np.ones(rows.shape[0]),
                senses="<=",
                rhs=np.concatenate(rhs_parts),
            )
        return lp

    def build(self) -> LinearProgram:
        """Assemble the LP in the selected formulation (bulk pipeline)."""
        if self.formulation == "edge":
            return self._build_edge()
        return self._build_path()

    # ------------------------------------------------------------------ solve
    def relax(self) -> RoutingRelaxation:
        """Build and solve the LP, extracting the structured relaxation."""
        lp = self.build()
        solution = solve(lp)
        grid = self.grid
        layout = self._layout
        L = grid.num_intervals
        lengths = layout.lengths
        fractions, flow_completion, coflow_completion = extract_completion(
            solution, layout
        )
        edge_volumes: Dict[FlowId, Dict[Edge, float]] = {}
        path_volumes: Dict[FlowId, List[PathFlow]] = {}
        active_pos = self._rate_layout["active_pos"]

        if self.formulation == "edge":
            edges = self._rate_layout["edges"]
            E = self._rate_layout["E"]
            f_start = self._rate_layout["f_start"]
            A = active_pos.shape[0]
            if A:
                rates = solution.take(range(f_start, f_start + A * L * E)).reshape(
                    A, L, E
                )
                significant = rates > 1e-9
                vols = np.where(significant, rates, 0.0) * lengths[None, :, None]
                vols = vols.sum(axis=1)  # (A, E)
                used = significant.any(axis=1)  # (A, E)
                for a, p in enumerate(active_pos):
                    fid = layout.flow_ids[p]
                    edge_volumes[fid] = {
                        edges[k]: float(vols[a, k]) for k in np.nonzero(used[a])[0]
                    }
        else:
            candidates = self.candidate_paths()
            y_base = self._rate_layout["y_base"]
            P = self._rate_layout["P"]
            for a, p in enumerate(active_pos):
                fid = layout.flow_ids[p]
                cands = candidates[fid]
                block = solution.take(
                    range(int(y_base[a]), int(y_base[a]) + L * int(P[a]))
                ).reshape(L, int(P[a]))
                per_path = lengths @ block
                path_volumes[fid] = [
                    PathFlow(path=tuple(cands[q]), value=float(per_path[q]))
                    for q in range(int(P[a]))
                    if per_path[q] > 1e-9
                ]
                volumes: Dict[Edge, float] = {}
                for pf in path_volumes[fid]:
                    for e in pf.edges:
                        volumes[e] = volumes.get(e, 0.0) + pf.value
                edge_volumes[fid] = volumes

        return RoutingRelaxation(
            instance=self.instance,
            network=self.network,
            grid=grid,
            solution=solution,
            formulation=self.formulation,
            fractions=fractions,
            flow_completion=flow_completion,
            coflow_completion=coflow_completion,
            edge_volumes=edge_volumes,
            path_volumes=path_volumes,
        )


def lower_bound(
    instance: CoflowInstance,
    network: Network,
    epsilon: float = DEFAULT_ROUTING_EPSILON,
    formulation: str = "path",
) -> float:
    """Lemma-5 lower bound on the optimum (joint routing + scheduling)."""
    return RoutingLP(
        instance, network, epsilon=epsilon, formulation=formulation
    ).relax().lower_bound
