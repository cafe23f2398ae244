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

   :class:`GivenPathsLP` builds the LP in the form HiGHS presolve would
   reduce it to: the release rows (9) and the ``x`` they fix at 0 are left
   out, the transfer rows are bounds, and so are the capacity rows (8)
   that cannot bind (DESIGN.md Section 3).  Put back zeros for the missing
   ``x`` and its solutions are exactly those of (4)-(10): the objective and
   the Lemma-4 bound are the written LP's, while the flow proxies ``c``,
   which are degenerate (only ``C`` is in the objective), may come from
   another optimal vertex.  The LP-equivalence tests hold the model and its
   solutions to the LP as written.

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

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..core.flows import CoflowInstance, FlowId
from ..core.intervals import DEFAULT_EPSILON, IntervalGrid, RoundingParameters
from ..core.network import Network
from ..core.schedule import CircuitSchedule, ScheduleError
from ..lp import LinearProgram, LPSolution, solve, stacked_aranges
from ._assembly import (
    add_completion_variables_bulk,
    add_core_families_bulk,
    extract_completion,
)

__all__ = [
    "GivenPathsLP",
    "GivenPathsRelaxation",
    "GivenPathsResult",
    "GivenPathsScheduler",
    "feasible_rounding_parameters",
    "DEFAULT_EPSILON",
]


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
    """Builder for the interval-indexed LP (4)-(10).

    :meth:`build` emits the LP HiGHS presolve would leave of (4)-(10) as
    written (Andersen & Andersen's singleton-row, fixed-column and
    redundant-row reductions, done while building; DESIGN.md §3):

    * the release rows (9), ``x[f, ell] = 0`` for intervals closing before
      the flow's release, are left out with the columns they fix: ``x[f,
      ell]`` is registered only from the flow's release interval on;
    * the transfer rows ``c[f] >= r + sigma / bottleneck`` are lower bounds
      on ``c[f]``;
    * a capacity row (8) for edge ``e`` and interval ``ell`` is emitted only
      if it can bind: if the ``sigma / len_ell`` of its users released by
      ``ell`` sum to more than ``c(e)``.

    Every other row is kept.  A solution, with zeros put back for the
    missing ``x``, is a solution of (4)-(10) and every solution of (4)-(10)
    is one of this LP, so the objective is the written LP's; the
    relaxation's ``fractions`` are length-``L`` arrays, 0 before release.
    ``tests/lp`` checks the emission row for row against the LP as written,
    and the solutions against its rows and bounds.
    """

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
        self.instance = instance
        self.network = network
        self._map_paths()
        self.grid = IntervalGrid(
            epsilon=epsilon, horizon=horizon or _default_horizon(instance, network)
        )
        self._layout = None

    def _map_paths(self) -> None:
        """Map every path to edge ids once, validating it on the way.

        Sets the incidence arrays ``_inc_flow`` / ``_inc_edge`` (one entry
        per distinct edge of each path, flows in ``iter_flows()`` order: a
        non-simple path crossing an edge twice loads it once), the
        ``_capacity`` of every edge id and the per-flow ``_bottleneck``
        capacity.  The ids come from :meth:`Network.path_edge_ids`, so a
        path that is too short or uses a missing edge raises the
        ``ValueError`` of :meth:`Network.validate_path`.
        """
        path_edge_ids = self.network.path_edge_ids
        inc_flow: List[int] = []
        inc_edge: List[int] = []
        starts: List[int] = []
        for pos, (_i, _j, flow) in enumerate(self.instance.iter_flows()):
            ids = dict.fromkeys(path_edge_ids(flow.path))
            starts.append(len(inc_edge))
            inc_edge.extend(ids)
            inc_flow.extend([pos] * len(ids))
        self._inc_flow = np.asarray(inc_flow, dtype=np.int64)
        self._inc_edge = np.asarray(inc_edge, dtype=np.int64)
        self._capacity = np.asarray(self.network.capacity_vector(), dtype=float)
        self._bottleneck = (
            np.minimum.reduceat(self._capacity[self._inc_edge], starts)
            if starts
            else np.zeros(0)
        )

    # ------------------------------------------------------------------ build
    def build(self) -> LinearProgram:
        """Assemble the LP through the bulk (vectorized) pipeline."""
        instance, grid = self.instance, self.grid
        L = grid.num_intervals
        flows = list(instance.iter_flows())
        F = len(flows)
        sizes = np.asarray([f.size for _i, _j, f in flows], dtype=float)
        releases = [f.release_time for _i, _j, f in flows]
        first = grid.release_intervals(releases)

        # Release rows (9) fold away with the columns they fix at 0: x[f, ell]
        # exists only from ell = first[f] on.  Transfer rows are the lower
        # bounds c >= r + sigma / c_m.
        sized = sizes > 0
        c_lower = np.zeros(F)
        c_lower[sized] = (
            np.asarray(releases)[sized] + sizes[sized] / self._bottleneck[sized]
        )
        lp = LinearProgram(name="circuit-given-paths")
        layout = add_completion_variables_bulk(
            lp, instance, grid, first=first, c_lower=c_lower
        )
        self._layout = layout
        add_core_families_bulk(lp, instance, layout)

        # (7)+(8) capacity per edge per interval, with bandwidths expressed
        # directly in terms of x: sum_f sigma_f * x_f_ell / len_ell <= c(e).
        # Edges own L rows each, in first-seen order; a row is emitted only
        # if its users released by ell, all at x = 1, would exceed c(e), and
        # it holds only those users' terms.
        edges, first_seen, inc_slot = np.unique(
            self._inc_edge, return_index=True, return_inverse=True
        )
        E = edges.shape[0]
        seen = np.argsort(first_seen)
        rank = np.empty(E, dtype=np.int64)
        rank[seen] = np.arange(E)
        cell_cap = np.repeat(self._capacity[edges[seen]], L)
        inc = np.flatnonzero(sized[self._inc_flow])  # zero sizes add no term
        # One term per incidence and interval from the flow's release on,
        # incidence-major.
        users = self._inc_flow[inc]
        runs = L - first[users]
        flow = np.repeat(users, runs)
        ell = np.repeat(first[users], runs) + stacked_aranges(runs)
        cell = np.repeat(rank[inc_slot[inc]] * L, runs) + ell
        coef = sizes[flow] / layout.lengths[ell]
        # bincount sums each cell's terms in entry order: users in flow order.
        load = np.bincount(cell, weights=coef, minlength=E * L)
        live = load > cell_cap
        if live.any():
            row_of = np.cumsum(live) - 1
            keep = live[cell]
            # x[f, ell] sits ell - first[f] columns into the flow's block.
            cols = layout.xc_base[flow] + ell - first[flow]
            lp.add_constraints_coo(
                rows=row_of[cell[keep]],
                cols=cols[keep],
                vals=coef[keep],
                senses="<=",
                rhs=cell_cap[live],
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
