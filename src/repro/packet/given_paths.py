"""Packet-based coflows with given paths (Section 3.1).

With fixed paths, packet coflow scheduling is a unit-processing-time job-shop
problem: each packet is a job, the edges of its path are the machines it must
visit in order, and a machine serves one job per step.  The paper invokes the
Queyranne–Sviridenko O(1)-approximation for the generalized min-sum job-shop
(Theorem 6).  This module implements the same interval-indexed-LP +
list-scheduling recipe in executable form:

1. an interval-indexed LP over powers-of-two intervals lower-bounds the
   optimum (the job-shop analogue of the Section-3.2 LP, with the standard
   congestion and dilation validity constraints); and
2. packets are list-scheduled on their fixed paths in order of their LP
   completion times (:func:`repro.packet.scheduling.list_schedule_packets`),
   which resolves per-edge contention greedily.

The measured objective is compared against the LP lower bound in the tests
and the Table-1 benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

import numpy as np

from ..circuit._assembly import (
    add_completion_variables_bulk,
    add_core_families_bulk,
    extract_completion,
)
from ..core.flows import CoflowInstance, FlowId
from ..core.intervals import IntervalGrid
from ..core.network import Network, path_edges
from ..core.schedule import PacketSchedule
from ..lp import LinearProgram, LPSolution, solve, stacked_aranges
from .scheduling import congestion, dilation, list_schedule_packets

__all__ = ["PacketGivenPathsLP", "PacketGivenPathsRelaxation", "PacketGivenPathsScheduler"]

Edge = Tuple[Hashable, Hashable]


def _check_packet_instance(instance: CoflowInstance, network: Network) -> None:
    for i, j, flow in instance.iter_flows():
        if flow.path is None:
            raise ValueError(
                "packet given-paths scheduling requires a path per packet; "
                "use repro.packet.routing otherwise"
            )
        network.validate_path(flow.path)
        if abs(flow.size - 1.0) > 1e-9:
            raise ValueError(
                f"packet-based coflows have unit-size flows; flow ({i},{j}) "
                f"has size {flow.size}"
            )


def _horizon(instance: CoflowInstance) -> float:
    """Safe schedule-length upper bound: all packets cross all their edges serially."""
    total_hops = sum(len(flow.path) - 1 for _, _, flow in instance.iter_flows())
    return instance.max_release_time + total_hops + 2


@dataclass
class PacketGivenPathsRelaxation:
    """LP relaxation of the fixed-path packet scheduling problem."""

    instance: CoflowInstance
    network: Network
    grid: IntervalGrid
    solution: LPSolution
    fractions: Dict[FlowId, np.ndarray]
    flow_completion: Dict[FlowId, float]
    coflow_completion: Dict[int, float]

    @property
    def objective(self) -> float:
        return self.solution.objective

    @property
    def lower_bound(self) -> float:
        """LP optimum / (1 + eps) — eps = 1, so half the LP optimum (Lemma 7 analogue)."""
        return self.solution.objective / (1.0 + self.grid.epsilon)

    def flow_order(self) -> List[FlowId]:
        return sorted(
            self.fractions.keys(),
            key=lambda fid: (
                self.coflow_completion[fid[0]],
                self.flow_completion[fid],
                fid,
            ),
        )


class PacketGivenPathsLP:
    """Interval-indexed LP lower bound for packets on fixed paths."""

    def __init__(
        self,
        instance: CoflowInstance,
        network: Network,
        epsilon: float = 1.0,
    ) -> None:
        _check_packet_instance(instance, network)
        self.instance = instance
        self.network = network
        self.grid = IntervalGrid(epsilon=epsilon, horizon=_horizon(instance))
        self._layout = None

    # ------------------------------------------------------------------ build
    def _earliest_arrivals(self) -> np.ndarray:
        """Per-flow dilation bound: release + path length (hops)."""
        return np.asarray(
            [
                flow.release_time + len(flow.path) - 1
                for _i, _j, flow in self.instance.iter_flows()
            ],
            dtype=float,
        )

    def _edge_users(self) -> Dict[Edge, List[int]]:
        """Edges in first-seen order → flow positions whose path crosses them.

        A packet whose (non-simple) path traverses an edge twice is listed
        once — matching the scalar dict semantics, where repeated terms for
        the same variable key overwrite rather than sum.
        """
        edge_users: Dict[Edge, List[int]] = {}
        for pos, (_i, _j, flow) in enumerate(self.instance.iter_flows()):
            for e in dict.fromkeys(path_edges(flow.path)):
                edge_users.setdefault(e, []).append(pos)
        return edge_users

    def build(self) -> LinearProgram:
        """Assemble the LP through the bulk (vectorized) pipeline."""
        instance, grid = self.instance, self.grid
        L = grid.num_intervals
        lp = LinearProgram(name="packet-given-paths")
        layout = add_completion_variables_bulk(lp, instance, grid)
        self._layout = layout
        F = layout.num_flows
        rights = grid.boundaries[1:]  # tau_{ell+1} for ell = 0..L-1
        earliest = self._earliest_arrivals()
        flow_ids = np.arange(F, dtype=np.int64)
        ell_ids = np.arange(L, dtype=np.int64)

        if F:
            # ---- arrive / completion / coflow-last: the shared families.
            add_core_families_bulk(lp, instance, layout)
            # ---- dilation: x[f, ell] == 0 where the interval closes before
            # the packet can possibly arrive (release + path length).
            blocked = rights[None, :] < earliest[:, None] - 1e-9  # (F, L)
            counts = blocked.sum(axis=1)  # prefix property: rights ascending
            total = int(counts.sum())
            if total:
                cols = np.repeat(layout.xc_base, counts) + stacked_aranges(counts)
                lp.add_constraints_coo(
                    rows=np.arange(total, dtype=np.int64),
                    cols=cols,
                    vals=np.ones(total),
                    senses="==",
                    rhs=np.zeros(total),
                )
            # ---- lbc: c[f] >= earliest arrival.
            lp.add_constraints_coo(
                rows=flow_ids,
                cols=layout.c_cols,
                vals=np.ones(F),
                senses=">=",
                rhs=earliest,
            )

        # ---- congestion (28): for each shared edge and interval ell, the
        # packets arrived by tau_{ell+1} each crossed the edge once, so their
        # count is at most tau_{ell+1}.  Entry pattern per edge is the
        # triangular (ell, t <= ell) prefix, built once and reused.
        tri_offsets = stacked_aranges(ell_ids + 1)  # [0, 0,1, 0,1,2, ...]
        tri_rows = np.repeat(ell_ids, ell_ids + 1)
        K = tri_offsets.shape[0]
        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        rhs_parts: List[np.ndarray] = []
        row_offset = 0
        for _e, users in self._edge_users().items():
            bases = layout.xc_base[np.asarray(users, dtype=np.int64)]
            cols_parts.append((bases[:, None] + tri_offsets[None, :]).ravel())
            rows_parts.append(
                np.broadcast_to(row_offset + tri_rows, (bases.shape[0], K)).ravel()
            )
            rhs_parts.append(rights[:L])
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

    def relax(self) -> PacketGivenPathsRelaxation:
        lp = self.build()
        solution = solve(lp)
        fractions, flow_completion, coflow_completion = extract_completion(
            solution, self._layout
        )
        return PacketGivenPathsRelaxation(
            instance=self.instance,
            network=self.network,
            grid=self.grid,
            solution=solution,
            fractions=fractions,
            flow_completion=flow_completion,
            coflow_completion=coflow_completion,
        )


@dataclass
class PacketGivenPathsResult:
    """Output of the fixed-path packet coflow scheduler."""

    relaxation: PacketGivenPathsRelaxation
    schedule: PacketSchedule
    congestion: int
    dilation: int

    @property
    def objective(self) -> float:
        return self.schedule.weighted_completion_time(self.relaxation.instance)

    @property
    def lower_bound(self) -> float:
        return self.relaxation.lower_bound

    @property
    def approximation_ratio(self) -> float:
        lb = self.lower_bound
        return self.objective / lb if lb > 0 else 1.0


class PacketGivenPathsScheduler:
    """LP-ordered list scheduling for packet coflows on fixed paths."""

    def __init__(
        self, instance: CoflowInstance, network: Network, epsilon: float = 1.0
    ) -> None:
        _check_packet_instance(instance, network)
        self.instance = instance
        self.network = network
        self._lp = PacketGivenPathsLP(instance, network, epsilon=epsilon)

    def relax(self) -> PacketGivenPathsRelaxation:
        return self._lp.relax()

    def schedule(
        self, relaxation: Optional[PacketGivenPathsRelaxation] = None
    ) -> PacketGivenPathsResult:
        """Solve the LP and list-schedule packets by LP completion order."""
        relaxation = relaxation or self.relax()
        order = relaxation.flow_order()
        priority = {fid: float(rank) for rank, fid in enumerate(order)}
        paths = {
            (i, j): flow.path for i, j, flow in self.instance.iter_flows()
        }
        schedule = list_schedule_packets(self.instance, paths, priority=priority)
        schedule.validate(self.instance, self.network)
        return PacketGivenPathsResult(
            relaxation=relaxation,
            schedule=schedule,
            congestion=congestion(paths),
            dilation=dilation(paths),
        )
