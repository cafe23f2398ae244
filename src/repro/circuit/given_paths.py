"""Circuit-based coflows with given paths (Section 2.1).

The algorithm has the paper's three-part structure:

1. **Reformulation** — coflow completion times are captured by a dummy flow
   per coflow that must finish last; the coflow weight moves to the dummy
   flow.  In the implementation the dummy flow is represented implicitly by
   the coflow completion variable ``("C", i)``.

2. **Interval-indexed LP** — the LP (4)-(10).  Variables:

   * ``("x", i, j, ell)``: fraction of flow ``(i, j)`` delivered in interval
     ``ell``;
   * ``("c", i, j)``: completion-time proxy of flow ``(i, j)``;
   * ``("C", i)``: completion-time proxy of coflow ``i`` (the dummy flow).

   Constraint (7) defines per-interval bandwidths.  We use the interval
   *length* as the divisor (see DESIGN.md Section 3): Lemma 1 shows a flow
   delivering volume ``v`` during an interval of length ``len`` can be given
   the constant bandwidth ``v / len`` without violating capacities, so
   ``b[i,j,ell] = sigma * x[i,j,ell] / len_ell`` and the capacity constraint
   (8) reads ``sum_{flows through e} b[i,j,ell] <= c(e)``.

3. **Rounding** — each flow is assigned to the ``D``-th interval after its
   alpha-interval and runs there at the constant rate ``sigma / len_k``.
   Feasibility of the construction requires

       alpha * epsilon * (1 + epsilon)^(D-1) >= 1,

   which the default parameters satisfy (the paper's optimized 17.53
   constants satisfy the weaker conditions (12)-(13) stated in the text but
   not this self-consistent one; see DESIGN.md).  The resulting schedule is
   validated against the network before being returned.

Besides the provably-good interval schedule, :class:`GivenPathsScheduler`
exposes the *LP-order policy* used in the paper's own evaluation (Section
4.2): flows ordered by LP completion time and started as early as possible by
the flow-level simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.flows import CoflowInstance, FlowId
from ..core.intervals import IntervalGrid, RoundingParameters
from ..core.network import Network, path_edges
from ..core.schedule import CircuitSchedule, ScheduleError
from ..lp import LinearProgram, LPSolution, solve
from ._assembly import add_completion_structure_bulk, extract_completion

__all__ = [
    "GivenPathsLP",
    "GivenPathsRelaxation",
    "GivenPathsResult",
    "GivenPathsScheduler",
    "feasible_rounding_parameters",
    "DEFAULT_EPSILON",
]

#: Default epsilon for the LP grid when only a lower bound / ordering is
#: needed (the paper's optimized value).
DEFAULT_EPSILON = 0.5436


def feasible_rounding_parameters() -> RoundingParameters:
    """Rounding constants under which the interval schedule is always feasible.

    The constants satisfy ``alpha * eps * (1+eps)^(D-1) >= 1`` (the condition
    needed for the per-interval capacity argument with length-normalised
    bandwidths) while keeping the provable blow-up
    ``(1+eps)^(D+2) / (1-alpha)`` close to its minimum (~27.2).
    """
    return RoundingParameters(alpha=0.49, displacement=4, epsilon=0.55)


def _feasibility_margin(params: RoundingParameters) -> float:
    """``alpha * eps * (1+eps)^(D-1)`` — must be >= 1 for guaranteed feasibility."""
    return (
        params.alpha
        * params.epsilon
        * (1.0 + params.epsilon) ** (params.displacement - 1)
    )


def _default_horizon(instance: CoflowInstance, network: Network) -> float:
    """A safe horizon: all flows run sequentially on the slowest relevant edge."""
    min_cap = network.min_capacity()
    total = instance.total_volume
    horizon = instance.max_release_time + max(total, 1e-9) / min_cap
    return max(horizon, 1.0) * 2.0


@dataclass
class GivenPathsRelaxation:
    """Solution of the interval-indexed LP relaxation (4)-(10)."""

    instance: CoflowInstance
    network: Network
    grid: IntervalGrid
    solution: LPSolution
    #: x[(i, j)] -> per-interval fractions (length = grid.num_intervals)
    fractions: Dict[FlowId, np.ndarray]
    #: LP completion-time proxy per flow
    flow_completion: Dict[FlowId, float]
    #: LP completion-time proxy per coflow
    coflow_completion: Dict[int, float]

    @property
    def objective(self) -> float:
        """Optimal LP objective (sum of weighted coflow completion proxies)."""
        return self.solution.objective

    @property
    def lower_bound(self) -> float:
        """Lemma 4: ``objective / (1 + epsilon)`` lower-bounds any schedule."""
        return self.solution.objective / (1.0 + self.grid.epsilon)

    def flow_order(self) -> List[FlowId]:
        """Flows ordered by LP completion times (the Section 4.2 policy).

        Coflows are ranked by their LP completion proxy (the dummy flow of the
        reformulation) and flows within a coflow by their own proxy; ties
        break lexicographically, so the order is deterministic.
        """
        return sorted(
            self.fractions.keys(),
            key=lambda fid: (
                self.coflow_completion[fid[0]],
                self.flow_completion[fid],
                fid,
            ),
        )

    def coflow_order(self) -> List[int]:
        """Coflows ordered by their LP completion-time proxy."""
        return sorted(
            self.coflow_completion.keys(), key=lambda i: (self.coflow_completion[i], i)
        )


class GivenPathsLP:
    """Builder for the interval-indexed LP (4)-(10)."""

    def __init__(
        self,
        instance: CoflowInstance,
        network: Network,
        epsilon: float = DEFAULT_EPSILON,
        horizon: Optional[float] = None,
    ) -> None:
        if not instance.all_paths_given:
            raise ValueError(
                "GivenPathsLP requires every flow to carry a fixed path; "
                "use repro.circuit.routing for the paths-not-given variant"
            )
        for _, _, flow in instance.iter_flows():
            network.validate_path(flow.path)
        self.instance = instance
        self.network = network
        self.grid = IntervalGrid(
            epsilon=epsilon, horizon=horizon or _default_horizon(instance, network)
        )
        self._layout = None

    # ------------------------------------------------------------------ build
    def _transfer_rhs(self) -> np.ndarray:
        """Per-flow transfer strengthening: release + size / path bottleneck."""
        rhs = []
        for _i, _j, flow in self.instance.iter_flows():
            if flow.size > 0:
                rhs.append(
                    flow.release_time
                    + flow.size / self.network.bottleneck_capacity(flow.path)
                )
            else:
                rhs.append(flow.release_time)
        return np.asarray(rhs, dtype=float)

    def _edge_users(self) -> Dict[Tuple[object, object], List[Tuple[int, float]]]:
        """Edges in first-seen order → list of (flow position, size) users.

        A flow whose (non-simple) path traverses the same edge twice is
        listed once for that edge — matching the scalar dict semantics, where
        repeated terms for the same variable key overwrite rather than sum.
        """
        edge_users: Dict[Tuple[object, object], List[Tuple[int, float]]] = {}
        for pos, (_i, _j, flow) in enumerate(self.instance.iter_flows()):
            for edge in dict.fromkeys(path_edges(flow.path)):
                edge_users.setdefault(edge, []).append((pos, flow.size))
        return edge_users

    def build(self) -> LinearProgram:
        """Assemble the LP through the bulk (vectorized) pipeline."""
        network, grid = self.network, self.grid
        L = grid.num_intervals
        lp = LinearProgram(name="circuit-given-paths")
        layout = add_completion_structure_bulk(
            lp, self.instance, grid, self._transfer_rhs()
        )
        self._layout = layout

        # (7)+(8) capacity per edge per interval, with bandwidths expressed
        # directly in terms of x: sum_f sigma_f * x_f_ell / len_ell <= c(e).
        # One COO sub-block of L rows per edge, concatenated and committed in
        # a single call.
        ell_offsets = np.arange(L, dtype=np.int64)
        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        vals_parts: List[np.ndarray] = []
        rhs_parts: List[np.ndarray] = []
        row_offset = 0
        for edge, users in self._edge_users().items():
            positions = np.asarray([p for p, _s in users], dtype=np.int64)
            sizes = np.asarray([s for _p, s in users], dtype=float)
            # row per interval, one entry per user: x[user, ell].
            rows_parts.append(
                np.repeat(row_offset + ell_offsets, positions.shape[0])
            )
            cols_parts.append(
                (layout.xc_base[positions][None, :] + ell_offsets[:, None]).ravel()
            )
            vals_parts.append((sizes[None, :] / layout.lengths[:, None]).ravel())
            rhs_parts.append(np.full(L, network.capacity(*edge)))
            row_offset += L
        if rhs_parts:
            lp.add_constraints_coo(
                rows=np.concatenate(rows_parts),
                cols=np.concatenate(cols_parts),
                vals=np.concatenate(vals_parts),
                senses="<=",
                rhs=np.concatenate(rhs_parts),
            )
        return lp

    # ------------------------------------------------------------------ solve
    def relax(self) -> GivenPathsRelaxation:
        """Build and solve the LP, returning the structured relaxation."""
        lp = self.build()
        solution = solve(lp)
        fractions, flow_completion, coflow_completion = extract_completion(
            solution, self._layout
        )
        return GivenPathsRelaxation(
            instance=self.instance,
            network=self.network,
            grid=self.grid,
            solution=solution,
            fractions=fractions,
            flow_completion=flow_completion,
            coflow_completion=coflow_completion,
        )


@dataclass
class GivenPathsResult:
    """Full output of the Section-2.1 algorithm."""

    relaxation: GivenPathsRelaxation
    schedule: CircuitSchedule
    parameters: RoundingParameters
    #: target interval index per flow (alpha-interval + D)
    target_intervals: Dict[FlowId, int]

    @property
    def objective(self) -> float:
        """Weighted coflow completion time of the rounded schedule."""
        return self.schedule.weighted_completion_time(self.relaxation.instance)

    @property
    def lower_bound(self) -> float:
        return self.relaxation.lower_bound

    @property
    def approximation_ratio(self) -> float:
        """Measured ratio of the rounded schedule to the LP lower bound."""
        lb = self.lower_bound
        if lb <= 0:
            return 1.0
        return self.objective / lb


class GivenPathsScheduler:
    """End-to-end scheduler for circuit coflows with fixed paths.

    Parameters
    ----------
    instance, network:
        The problem.  Every flow must carry a path that exists in the network.
    parameters:
        Rounding constants; defaults to :func:`feasible_rounding_parameters`.
    horizon:
        LP time horizon; defaults to a safe upper bound on any reasonable
        schedule's makespan.
    strict:
        When true (default) the rounded schedule is validated and a
        :class:`ScheduleError` is raised on any violation.
    """

    def __init__(
        self,
        instance: CoflowInstance,
        network: Network,
        parameters: Optional[RoundingParameters] = None,
        horizon: Optional[float] = None,
        strict: bool = True,
    ) -> None:
        self.instance = instance
        self.network = network
        self.parameters = parameters or feasible_rounding_parameters()
        self.strict = strict
        self._lp = GivenPathsLP(
            instance, network, epsilon=self.parameters.epsilon, horizon=horizon
        )

    # ------------------------------------------------------------------ steps
    def relax(self) -> GivenPathsRelaxation:
        """Solve the LP relaxation only."""
        return self._lp.relax()

    def round(self, relaxation: GivenPathsRelaxation) -> GivenPathsResult:
        """Round an LP relaxation into a feasible interval schedule."""
        params = self.parameters
        if self.strict and _feasibility_margin(params) < 1.0 - 1e-9:
            raise ScheduleError(
                "rounding parameters do not satisfy "
                "alpha*eps*(1+eps)^(D-1) >= 1; the interval schedule may "
                "violate capacities (pass strict=False to attempt anyway)"
            )
        grid = relaxation.grid.extended(params.displacement + 1)
        schedule = CircuitSchedule()
        targets: Dict[FlowId, int] = {}
        for i, j, flow in self.instance.iter_flows():
            fid = (i, j)
            schedule.set_path(fid, flow.path)
            if flow.size <= 0:
                targets[fid] = 0
                continue
            h = grid.alpha_interval(relaxation.fractions[fid], params.alpha)
            k = h + params.displacement
            targets[fid] = k
            start, end = grid.left(k), grid.right(k)
            rate = flow.size / (end - start)
            schedule.add_segment(fid, start, end, rate)
        if self.strict:
            schedule.validate(self.instance, self.network)
        return GivenPathsResult(
            relaxation=relaxation,
            schedule=schedule,
            parameters=params,
            target_intervals=targets,
        )

    def schedule(self) -> GivenPathsResult:
        """Solve the LP and round it (the full Section-2.1 algorithm)."""
        return self.round(self.relax())

    # ----------------------------------------------------------------- policy
    def lp_order(self) -> List[FlowId]:
        """The practical policy of Section 4.2: flows by LP completion time."""
        return self.relax().flow_order()


def lower_bound(
    instance: CoflowInstance,
    network: Network,
    epsilon: float = DEFAULT_EPSILON,
    horizon: Optional[float] = None,
) -> float:
    """Lemma-4 lower bound on the optimal weighted coflow completion time."""
    return GivenPathsLP(instance, network, epsilon=epsilon, horizon=horizon).relax().lower_bound
