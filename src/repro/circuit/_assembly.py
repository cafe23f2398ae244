"""Vectorized emission of the shared completion-time LP block.

The circuit LPs of Sections 2.1 and 2.2 share the "reformulation" skeleton:
per flow ``(i, j)`` the interval fractions ``("x", i, j, ell)`` and the
completion proxy ``("c", i, j)``, per coflow the dummy-flow proxy
``("C", i)`` carrying the weight, and the constraint families

* **deliver** — ``sum_ell x = 1`` (``==``),
* **completion** — ``sum_ell tau_ell * x <= c`` (``<=``),
* **coflow-last** — ``c <= C`` (``<=``),
* **transfer** — ``c >= release + size / bottleneck`` (``>=``, sized flows),
* **release** — ``x_ell = 0`` for intervals closing before release (``==``).

This module emits that skeleton two ways on top of :mod:`repro.lp`:

* :func:`add_completion_structure_bulk` — block emission through
  :meth:`LinearProgram.add_variables` / ``add_constraints_coo`` (the hot
  path), returning a :class:`CompletionLayout` describing where everything
  landed so solution extraction can read contiguous slices; and
* :func:`add_completion_structure_scalar` — the legacy one-variable /
  one-constraint-at-a-time emission, kept as the reference implementation for
  the LP-equivalence regression tests and the assembly benchmark.

Both paths emit variables and rows in the identical order, so the matrices
they produce are numerically identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.flows import CoflowInstance, FlowId
from ..core.intervals import IntervalGrid
from ..lp import LinearProgram, LPSolution, stacked_aranges

__all__ = [
    "CompletionLayout",
    "add_completion_variables_bulk",
    "add_completion_variables_scalar",
    "add_core_families_bulk",
    "add_completion_structure_bulk",
    "add_completion_structure_scalar",
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
    lp: LinearProgram, instance: CoflowInstance, grid: IntervalGrid
) -> CompletionLayout:
    """Register the ``x``/``c``/``C`` variable blocks and return the layout.

    Shared by the circuit builders and the packet given-paths builder, whose
    constraint families differ but whose variable skeleton is identical.
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
    upper = np.tile(np.concatenate((np.ones(L), [np.inf])), F) if F else np.zeros(0)
    xc_range = lp.add_variables(keys, lower=0.0, upper=upper)
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


def add_completion_variables_scalar(
    lp: LinearProgram, instance: CoflowInstance, grid: IntervalGrid
) -> None:
    """Scalar counterpart of :func:`add_completion_variables_bulk`."""
    L = grid.num_intervals
    for i, j, _flow in instance.iter_flows():
        for ell in range(L):
            lp.add_variable(("x", i, j, ell), lower=0.0, upper=1.0)
        lp.add_variable(("c", i, j), lower=0.0)
    for i, coflow in enumerate(instance.coflows):
        lp.add_variable(("C", i), lower=0.0, objective=coflow.weight)


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
    """Emit the completion skeleton in vectorized blocks.

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
    first = np.asarray(
        [grid.release_interval(f.release_time) for _i, _j, f in flows],
        dtype=np.int64,
    )
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


def add_completion_structure_scalar(
    lp: LinearProgram,
    instance: CoflowInstance,
    grid: IntervalGrid,
    transfer_rhs: np.ndarray,
) -> None:
    """Legacy scalar emission of the completion skeleton.

    Emits exactly the same variables and rows (in the same order) as
    :func:`add_completion_structure_bulk`, one call at a time; kept as the
    equivalence-test reference and benchmark baseline.
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
