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

* the Section-2.1 given-paths builder folds them away (DESIGN.md §3): it
  registers ``x[f, ell]`` only from the flow's release interval on (the
  layout's per-flow ``first``), as presolve would once the release rows
  fixed the earlier ones at 0, and passes the transfer rows as lower
  bounds on ``c``;
* the Section-2.2 routing builder emits them as rows, through
  :func:`add_completion_structure_bulk`, with every ``x`` registered
  (``first`` is 0); folding them there moved the vertex HiGHS returns.

The one-variable / one-constraint-at-a-time reference of the skeleton lives
with the LP-equivalence tests (``tests/lp/reference_builders.py``), which
hold the routing LP's emission numerically identical to it, rows and
variable order included, and the given-paths LP to it with those rows
folded into bounds and the columns they fix at 0 deleted.
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
    """Column layout of the completion block (indices into the LP).

    Flow ``f`` owns the contiguous columns ``[x_first .. x_{L-1}, c]``,
    where ``first[f]`` is the first interval whose ``x`` is registered: the
    flow's release interval in the given-paths LP, 0 in the others.
    """

    #: flows in ``instance.iter_flows()`` order
    flow_ids: List[FlowId]
    #: number of intervals L
    L: int
    #: first interval with an ``x`` column, per flow
    first: np.ndarray
    #: first column of the whole x/c block
    xc_start: int
    #: first column of each flow's ``[x_first .. x_{L-1}, c]`` block
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

    def block_intervals(self) -> np.ndarray:
        """The interval of every column of the x/c block, in column order,
        with ``L`` at each flow's ``c``."""
        block = self.L + 1 - self.first
        return np.repeat(self.first, block) + stacked_aranges(block)


def _grid_arrays(grid: IntervalGrid) -> Tuple[np.ndarray, np.ndarray]:
    boundaries = grid.boundaries
    return boundaries[:-1].copy(), np.diff(boundaries)


def add_completion_variables_bulk(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: IntervalGrid,
    first: Optional[np.ndarray] = None,
    c_lower: Optional[np.ndarray] = None,
) -> CompletionLayout:
    """Register the ``x``/``c``/``C`` variable blocks and return the layout.

    Shared by the circuit builders and the packet given-paths builder, whose
    constraint families differ but whose variable skeleton is identical.
    Flow ``f`` gets ``0 <= x[f, ell] <= 1`` for ``ell`` from ``first[f]``
    (default 0) to ``L - 1``, then ``c[f] >= c_lower[f]`` (default 0); both
    arrays are in flow order.
    """
    L = grid.num_intervals
    lefts, lengths = _grid_arrays(grid)
    flows = list(instance.iter_flows())
    F = len(flows)
    if first is None:
        first = np.zeros(F, dtype=np.int64)
    block = L + 1 - first

    # ---- variables: per flow [x_first..x_{L-1}, c], then the coflow C block.
    keys: List = []
    for (i, j, _flow), start in zip(flows, first.tolist()):
        keys.extend(("x", i, j, ell) for ell in range(start, L))
        keys.append(("c", i, j))
    c_pos = np.cumsum(block) - 1  # each flow's c within the block
    lower = np.zeros(len(keys))
    if c_lower is not None:
        lower[c_pos] = c_lower
    upper = np.ones(len(keys))
    upper[c_pos] = np.inf
    xc_range = lp.add_variables(keys, lower=lower, upper=upper)
    weights = np.asarray([c.weight for c in instance.coflows], dtype=float)
    C_range = lp.add_variables(
        [("C", i) for i in range(len(instance.coflows))],
        lower=0.0,
        objective=weights,
    )

    sizes = np.asarray([f.size for _i, _j, f in flows], dtype=float)
    return CompletionLayout(
        flow_ids=[(i, j) for i, j, _f in flows],
        L=L,
        first=first,
        xc_start=xc_range.start,
        xc_base=xc_range.start + c_pos - (block - 1),
        c_cols=xc_range.start + c_pos,
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
    * coflow-last — ``c[f] - C[coflow(f)] <= 0``,

    each over the ``x`` the layout registers.
    """
    L, F = layout.L, layout.num_flows
    if F == 0:
        return
    coflow_of_flow = np.asarray(
        [i for i, _j, _f in instance.iter_flows()], dtype=np.int64
    )
    flow_rows = np.arange(F, dtype=np.int64)
    ell = layout.block_intervals()  # L at each flow's c
    rows = np.repeat(flow_rows, L + 1 - layout.first)
    cols = layout.xc_start + np.arange(ell.shape[0], dtype=np.int64)
    is_x = ell < L
    lp.add_constraints_coo(
        rows=rows[is_x],
        cols=cols[is_x],
        vals=np.ones(ell.shape[0] - F),
        senses="==",
        rhs=np.ones(F),
    )
    lp.add_constraints_coo(
        rows=rows,
        cols=cols,
        vals=np.append(layout.lefts, -1.0)[ell],
        senses="<=",
        rhs=np.zeros(F),
    )
    lp.add_constraints_coo(
        rows=np.repeat(flow_rows, 2),
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
    release = grid.release_intervals([f.release_time for _i, _j, f in flows])
    total = int(release.sum())
    if total:
        cols = np.repeat(xc_base, release) + stacked_aranges(release)
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
    in two slices instead of one key lookup per variable.

    Every flow's fractions are a length-``L`` array, 0 before ``first``.
    """
    F, L = layout.num_flows, layout.L
    xc = np.zeros((F, L + 1))
    if F:
        values = solution.take(range(layout.xc_start, int(layout.c_cols[-1]) + 1))
        cells = np.repeat(np.arange(F, dtype=np.int64) * (L + 1), L + 1 - layout.first)
        np.put(xc, cells + layout.block_intervals(), values)
    C_vals = solution.take(range(layout.C_start, layout.C_start + layout.num_coflows))
    fractions = {fid: xc[pos, :L].copy() for pos, fid in enumerate(layout.flow_ids)}
    flow_completion = {
        fid: float(xc[pos, L]) for pos, fid in enumerate(layout.flow_ids)
    }
    coflow_completion = {i: float(C_vals[i]) for i in range(layout.num_coflows)}
    return fractions, flow_completion, coflow_completion
