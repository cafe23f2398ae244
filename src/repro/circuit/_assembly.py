"""Vectorized emission of the shared completion-time LP block.

The interval LPs share the "reformulation" skeleton: per flow ``(i, j)`` the
interval fractions ``("x", i, j, ell)`` and the completion proxy
``("c", i, j)``, per coflow the dummy-flow proxy ``("C", i)`` carrying the
weight, and the constraint families

* **deliver** — ``sum_ell x = 1`` (``==``),
* **completion** — ``sum_ell tau_ell * x <= c`` (``<=``),
* **coflow-last** — ``c <= C`` (``<=``),
* **transfer** — ``c >= release + size / bottleneck`` (sized flows),
* **release** — ``x_ell = 0`` for intervals closing before release.

This module emits that skeleton on top of :mod:`repro.lp` in blocks, through
:meth:`LinearProgram.add_variables` / ``add_constraints_coo``, and returns a
:class:`CompletionLayout` describing where everything landed, so solution
extraction can read contiguous slices.  Builders compose the variables
(:func:`add_completion_variables_bulk`) and the first three families
(:func:`add_core_families_bulk`).  The last two are one-variable rows:

* the Section-2.1 given-paths builder passes them to
  :func:`add_completion_variables_bulk` as bounds (``x <= 0``,
  ``c >= release + size / bottleneck``), as HiGHS presolve would
  (DESIGN.md §3);
* the Section-2.2 routing builder emits them as rows, through
  :func:`add_completion_structure_bulk`; folding them there moved the
  vertex HiGHS returns.

The one-variable / one-constraint-at-a-time reference of the skeleton lives
with the LP-equivalence tests (``tests/lp/reference_builders.py``), which
hold the routing LP's emission numerically identical to it, rows and
variable order included, and the given-paths LP to it with those rows
folded into bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.flows import CoflowInstance, FlowId
from ..core.intervals import IntervalGrid
from ..lp import LinearProgram, LPSolution, stacked_aranges

__all__ = [
    "CompletionLayout",
    "add_completion_variables_bulk",
    "add_core_families_bulk",
    "add_completion_structure_bulk",
    "extract_completion",
]


@dataclass
class CompletionLayout:
    """Column layout of the completion block (indices into the LP)."""

    #: flows in ``instance.iter_flows()`` order
    flow_ids: List[FlowId]
    #: number of intervals L
    L: int
    #: first column of the whole x/c block
    xc_start: int
    #: first column of each flow's ``[x_0 .. x_{L-1}, c]`` block
    xc_base: np.ndarray
    #: column of each flow's ``c`` proxy
    c_cols: np.ndarray
    #: first column of the coflow ``C`` block
    C_start: int
    num_coflows: int
    #: interval left endpoints / lengths (length L)
    lefts: np.ndarray
    lengths: np.ndarray
    #: per-flow sizes and "has positive size" mask
    sizes: np.ndarray
    active: np.ndarray

    @property
    def num_flows(self) -> int:
        return len(self.flow_ids)

    def x_cols(self, flow_pos: int) -> np.ndarray:
        """Columns of ``x[flow, 0..L-1]`` for one flow position."""
        return np.arange(self.xc_base[flow_pos], self.xc_base[flow_pos] + self.L)


def _grid_arrays(grid: IntervalGrid) -> Tuple[np.ndarray, np.ndarray]:
    boundaries = grid.boundaries
    return boundaries[:-1].copy(), np.diff(boundaries)


def add_completion_variables_bulk(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: IntervalGrid,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
) -> CompletionLayout:
    """Register the ``x``/``c``/``C`` variable blocks and return the layout.

    Shared by the circuit builders and the packet given-paths builder, whose
    constraint families differ but whose variable skeleton is identical.
    ``lower`` / ``upper`` bound each flow's ``[x_0 .. x_{L-1}, c]`` block, as
    ``(F, L + 1)`` arrays in flow order; they default to ``0 <= x <= 1`` and
    ``c >= 0``.
    """
    L = grid.num_intervals
    B = L + 1
    lefts, lengths = _grid_arrays(grid)
    flows = list(instance.iter_flows())
    F = len(flows)

    # ---- variables: per flow [x_0..x_{L-1}, c], then the coflow C block.
    keys: List = []
    for i, j, _flow in flows:
        keys.extend(("x", i, j, ell) for ell in range(L))
        keys.append(("c", i, j))
    if lower is None:
        lower = np.zeros((F, B))
    if upper is None:
        upper = np.tile(np.concatenate((np.ones(L), [np.inf])), (F, 1))
    xc_range = lp.add_variables(
        keys, lower=np.ravel(lower), upper=np.ravel(upper)
    )
    weights = np.asarray([c.weight for c in instance.coflows], dtype=float)
    C_range = lp.add_variables(
        [("C", i) for i in range(len(instance.coflows))],
        lower=0.0,
        objective=weights,
    )

    xc_base = xc_range.start + np.arange(F, dtype=np.int64) * B
    sizes = np.asarray([f.size for _i, _j, f in flows], dtype=float)
    return CompletionLayout(
        flow_ids=[(i, j) for i, j, _f in flows],
        L=L,
        xc_start=xc_range.start,
        xc_base=xc_base,
        c_cols=xc_base + L,
        C_start=C_range.start,
        num_coflows=len(instance.coflows),
        lefts=lefts,
        lengths=lengths,
        sizes=sizes,
        active=sizes > 0,
    )


def add_core_families_bulk(
    lp: LinearProgram, instance: CoflowInstance, layout: CompletionLayout
) -> None:
    """Emit the three constraint families every interval LP shares:

    * deliver/arrive — ``sum_ell x[f, ell] == 1``,
    * completion — ``sum_ell tau_ell * x[f, ell] - c[f] <= 0``,
    * coflow-last — ``c[f] - C[coflow(f)] <= 0``.
    """
    L, B, F = layout.L, layout.L + 1, layout.num_flows
    if F == 0:
        return
    coflow_of_flow = np.asarray(
        [i for i, _j, _f in instance.iter_flows()], dtype=np.int64
    )
    x_cols_all = (
        layout.xc_base[:, None] + np.arange(L, dtype=np.int64)[None, :]
    ).ravel()
    lp.add_constraints_coo(
        rows=np.repeat(np.arange(F, dtype=np.int64), L),
        cols=x_cols_all,
        vals=np.ones(F * L),
        senses="==",
        rhs=np.ones(F),
    )
    lp.add_constraints_coo(
        rows=np.repeat(np.arange(F, dtype=np.int64), B),
        cols=layout.xc_start + np.arange(F * B, dtype=np.int64),
        vals=np.tile(np.concatenate((layout.lefts, [-1.0])), F),
        senses="<=",
        rhs=np.zeros(F),
    )
    lp.add_constraints_coo(
        rows=np.repeat(np.arange(F, dtype=np.int64), 2),
        cols=np.column_stack(
            (layout.c_cols, layout.C_start + coflow_of_flow)
        ).ravel(),
        vals=np.tile([1.0, -1.0], F),
        senses="<=",
        rhs=np.zeros(F),
    )


def add_completion_structure_bulk(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: IntervalGrid,
    transfer_rhs: np.ndarray,
) -> CompletionLayout:
    """Emit the completion skeleton with its transfer and release rows.

    The Section-2.2 routing LP's skeleton: all five families as rows.
    ``transfer_rhs[f]`` is the right-hand side of the transfer strengthening
    for flow position ``f`` (only read where the flow has positive size).
    """
    layout = add_completion_variables_bulk(lp, instance, grid)
    flows = list(instance.iter_flows())
    xc_base = layout.xc_base
    c_cols = layout.c_cols
    active = layout.active
    F = layout.num_flows

    if F == 0:
        return layout

    add_core_families_bulk(lp, instance, layout)
    # ---- transfer: c[f] >= release + size / bottleneck (sized flows only).
    if active.any():
        m = int(active.sum())
        lp.add_constraints_coo(
            rows=np.arange(m, dtype=np.int64),
            cols=c_cols[active],
            vals=np.ones(m),
            senses=">=",
            rhs=np.asarray(transfer_rhs, dtype=float)[active],
        )
    # ---- release: x[f, ell] == 0 for ell < release_interval(f).
    first = grid.release_intervals([f.release_time for _i, _j, f in flows])
    total = int(first.sum())
    if total:
        cols = np.repeat(xc_base, first) + stacked_aranges(first)
        lp.add_constraints_coo(
            rows=np.arange(total, dtype=np.int64),
            cols=cols,
            vals=np.ones(total),
            senses="==",
            rhs=np.zeros(total),
        )
    return layout


def extract_completion(
    solution: LPSolution, layout: CompletionLayout
) -> Tuple[Dict[FlowId, np.ndarray], Dict[FlowId, float], Dict[int, float]]:
    """Read ``(fractions, flow_completion, coflow_completion)`` from a solution
    in three slices instead of one key lookup per variable."""
    F, L = layout.num_flows, layout.L
    xc = (
        solution.take(
            range(layout.xc_start, layout.xc_start + F * (L + 1))
        ).reshape(F, L + 1)
        if F
        else np.zeros((0, L + 1))
    )
    C_vals = solution.take(range(layout.C_start, layout.C_start + layout.num_coflows))
    fractions = {fid: xc[pos, :L].copy() for pos, fid in enumerate(layout.flow_ids)}
    flow_completion = {
        fid: float(xc[pos, L]) for pos, fid in enumerate(layout.flow_ids)
    }
    coflow_completion = {i: float(C_vals[i]) for i in range(layout.num_coflows)}
    return fractions, flow_completion, coflow_completion
