"""Sparse linear-program modelling layer.

The paper builds several large interval-indexed linear programs (Sections 2.1,
2.2 and 3.2) and solves them with IBM CPLEX.  This repository substitutes the
open-source HiGHS solver that ships inside :mod:`scipy.optimize`; this module
provides the modelling layer that lets algorithm code state LPs in terms of
named variables and constraints while the matrix is assembled sparsely
(COO → CSC) so instances with hundreds of thousands of variables stay
tractable.

The layer has two tiers (see DESIGN.md Section 2):

* a **scalar API** — :meth:`LinearProgram.add_variable` /
  :meth:`LinearProgram.add_constraint` — convenient for small models and for
  stating one-off rows, and
* a **bulk API** — :meth:`LinearProgram.add_variables` /
  :meth:`LinearProgram.add_constraints_coo` / :class:`ConstraintBlock` — which
  registers whole blocks of variables (returning a contiguous index range) and
  whole blocks of constraint rows as flat COO triplet arrays.  The interval
  LP builders emit their variables and constraints through this path, which is
  what keeps model *assembly* (not just the solve) off the critical path for
  large instances.

Internally both tiers append into the same growable NumPy buffers; the scalar
API is a thin wrapper over the bulk one.  The buffers are append-only: a model
is built once, in full, and :meth:`LinearProgram.columnwise` is a cached single
pass over them into the column-wise matrix and row bounds that
:func:`~repro.lp.solve` hands to HiGHS (:meth:`LinearProgram.matrices` is a row
split of it), both invalidated whenever the model grows.  The column-wise
arrays are built in numpy, by a 16-bit radix sort, and equal the ones
:class:`scipy.sparse.csc_matrix` would build; only
:meth:`LinearProgram.matrices` imports :mod:`scipy.sparse`, so a process that
just solves LPs never loads it (DESIGN.md §2).

Only what the paper's LPs need is implemented: continuous variables with
bounds, linear ``<=`` / ``>=`` / ``==`` constraints, and a minimization
objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # matrices() imports it when called
    from scipy import sparse

__all__ = [
    "LinearProgram",
    "ColumnwiseLP",
    "Constraint",
    "ConstraintBlock",
    "LPError",
    "stacked_aranges",
]


def stacked_aranges(counts) -> np.ndarray:
    """Concatenate ``[arange(c) for c in counts]`` without a Python loop.

    The standard trick for emitting variable-length COO blocks: e.g. with
    ``counts = [2, 0, 3]`` the result is ``[0, 1, 0, 1, 2]``.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)

VarKey = Hashable

#: Integer sense codes used in the row-sense buffer.
_SENSE_LE = 0
_SENSE_GE = 1
_SENSE_EQ = 2
_SENSE_CODE = {"<=": _SENSE_LE, ">=": _SENSE_GE, "==": _SENSE_EQ}
_SENSE_STR = {_SENSE_LE: "<=", _SENSE_GE: ">=", _SENSE_EQ: "=="}


class LPError(RuntimeError):
    """Raised for modelling mistakes (duplicate variables, unknown names...)."""


@dataclass
class Constraint:
    """One linear constraint ``sum coef * var  (sense)  rhs``.

    Kept as the row *view* type: the model stores rows in flat COO buffers,
    and :meth:`LinearProgram.iter_constraints` materialises these on demand
    for inspection and debugging.
    """

    indices: List[int]
    coefficients: List[float]
    sense: str
    rhs: float
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise LPError(f"unknown constraint sense {self.sense!r}")
        if len(self.indices) != len(self.coefficients):
            raise LPError("indices and coefficients must have equal length")


class _GrowableArray:
    """An append-only NumPy buffer with amortized-O(1) growth."""

    __slots__ = ("_data", "_size")

    def __init__(self, dtype, capacity: int = 64) -> None:
        self._data = np.empty(capacity, dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        need = self._size + extra
        if need > self._data.shape[0]:
            capacity = max(need, 2 * self._data.shape[0])
            grown = np.empty(capacity, dtype=self._data.dtype)
            grown[: self._size] = self._data[: self._size]
            self._data = grown

    def append(self, value) -> None:
        self._reserve(1)
        self._data[self._size] = value
        self._size += 1

    def extend(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=self._data.dtype)
        self._reserve(values.shape[0])
        self._data[self._size : self._size + values.shape[0]] = values
        self._size += values.shape[0]

    def view(self) -> np.ndarray:
        """A read-only view of the filled prefix (no copy)."""
        out = self._data[: self._size]
        out.flags.writeable = False
        return out

    def __getitem__(self, item):
        return self._data[: self._size][item]

    def __setitem__(self, item, value) -> None:
        self._data[: self._size][item] = value


def _broadcast(value, n: int, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise LPError(f"{what} must be a scalar or a length-{n} array, got shape {arr.shape}")
    return arr


class ColumnwiseLP(NamedTuple):
    """The constraint rows as one column-wise (CSC) matrix plus row bounds.

    Rows come in :func:`scipy.optimize.linprog`'s stacking order: the
    ``<=`` and ``>=`` rows in model order, each ``>=`` row negated into
    ``<=`` form, then the ``==`` rows in model order.  Row ``r`` reads
    ``row_lower[r] <= A[r] @ x <= row_upper[r]``: the first ``num_ub`` rows
    are the inequalities (``row_lower = -inf``), the rest are equalities
    (both bounds equal the right-hand side).  ``start``/``index``/``value``
    are the CSC arrays, row indices sorted within each column.  All arrays
    are read-only.
    """

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    num_ub: int


class LinearProgram:
    """A minimization LP assembled incrementally.

    Variables are identified by arbitrary hashable keys (tuples like
    ``("x", i, j, ell)`` are typical).  Keys must be unique.
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._keys: List[VarKey] = []
        self._index: Dict[VarKey, int] = {}
        self._lower = _GrowableArray(np.float64)
        self._upper = _GrowableArray(np.float64)
        self._objective = _GrowableArray(np.float64)
        # Flat COO entry buffers (parallel arrays).
        self._entry_rows = _GrowableArray(np.int64)
        self._entry_cols = _GrowableArray(np.int64)
        self._entry_vals = _GrowableArray(np.float64)
        # Per-row buffers.
        self._row_sense = _GrowableArray(np.int8)
        self._row_rhs = _GrowableArray(np.float64)
        self._row_names: List[Optional[str]] = []
        self._columnwise_cache: Optional[ColumnwiseLP] = None
        self._matrices_cache = None

    # -------------------------------------------------------------- variables
    def add_variable(
        self,
        key: VarKey,
        lower: float = 0.0,
        upper: float = np.inf,
        objective: float = 0.0,
    ) -> int:
        """Register a single variable and return its column index."""
        if key in self._index:
            raise LPError(f"variable {key!r} already defined")
        if upper < lower:
            raise LPError(f"variable {key!r} has upper bound < lower bound")
        idx = len(self._keys)
        self._keys.append(key)
        self._index[key] = idx
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        self._objective.append(float(objective))
        self._invalidate()
        return idx

    def add_variables(
        self,
        keys: Sequence[VarKey],
        lower=0.0,
        upper=np.inf,
        objective=0.0,
    ) -> range:
        """Register a block of variables, returning their contiguous index range.

        ``lower`` / ``upper`` / ``objective`` may each be a scalar (applied to
        every variable) or an array of the same length as ``keys``.  This is
        the bulk counterpart of :meth:`add_variable`: one call allocates the
        whole block, and the returned :class:`range` lets callers recover
        column indices (and later solution values) without any key hashing.
        """
        keys = list(keys)
        n = len(keys)
        start = len(self._keys)
        if n == 0:
            return range(start, start)
        lo = _broadcast(lower, n, "lower")
        up = _broadcast(upper, n, "upper")
        obj = _broadcast(objective, n, "objective")
        if np.any(up < lo):
            bad = int(np.argmax(up < lo))
            raise LPError(f"variable {keys[bad]!r} has upper bound < lower bound")
        index = self._index
        for offset, key in enumerate(keys):
            if key in index:
                # Roll back the partially-inserted block before failing.
                for k in keys[:offset]:
                    del index[k]
                raise LPError(f"variable {key!r} already defined")
            index[key] = start + offset
        self._keys.extend(keys)
        self._lower.extend(lo)
        self._upper.extend(up)
        self._objective.extend(obj)
        self._invalidate()
        return range(start, start + n)

    def has_variable(self, key: VarKey) -> bool:
        """Whether a variable with this key is registered."""
        return key in self._index

    def variable_index(self, key: VarKey) -> int:
        """Column index of the variable ``key`` (:class:`LPError` if unknown)."""
        try:
            return self._index[key]
        except KeyError as exc:
            raise LPError(f"unknown variable {key!r}") from exc

    def set_objective_coefficient(self, key: VarKey, coefficient: float) -> None:
        """Overwrite the objective coefficient of an existing variable."""
        self._objective[self.variable_index(key)] = float(coefficient)

    @property
    def num_variables(self) -> int:
        """Number of registered variables (columns)."""
        return len(self._keys)

    @property
    def num_constraints(self) -> int:
        """Number of constraint rows."""
        return len(self._row_rhs)

    @property
    def num_entries(self) -> int:
        """Number of stored (row, col, value) coefficient entries."""
        return len(self._entry_vals)

    @property
    def variable_keys(self) -> List[VarKey]:
        """Keys of the variables, in column order."""
        return list(self._keys)

    def solution_keys(self) -> Tuple[List[VarKey], Dict[VarKey, int]]:
        """``(keys, index)`` describing the solved column space: zero-copy
        aliases of the internal registries."""
        return self._keys, self._index

    # ------------------------------------------------------------ constraints
    def add_constraint(
        self,
        terms: Union[Mapping[VarKey, float], Iterable[Tuple[VarKey, float]]],
        sense: str,
        rhs: float,
        name: Optional[str] = None,
    ) -> None:
        """Add the constraint ``sum_k terms[k] * var_k  (sense)  rhs``.

        Terms with zero coefficient are dropped; terms referencing the same
        variable twice are summed.  This is the scalar convenience wrapper
        over the COO buffers the bulk API fills directly.
        """
        code = _SENSE_CODE.get(sense)
        if code is None:
            raise LPError(f"unknown constraint sense {sense!r}")
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        accum: Dict[int, float] = {}
        for key, coef in items:
            if coef == 0.0:
                continue
            idx = self.variable_index(key)
            accum[idx] = accum.get(idx, 0.0) + float(coef)
        row = len(self._row_rhs)
        if accum:
            cols = np.fromiter(accum.keys(), dtype=np.int64, count=len(accum))
            vals = np.fromiter(accum.values(), dtype=np.float64, count=len(accum))
            self._entry_rows.extend(np.full(len(accum), row, dtype=np.int64))
            self._entry_cols.extend(cols)
            self._entry_vals.extend(vals)
        self._row_sense.append(code)
        self._row_rhs.append(float(rhs))
        self._row_names.append(name)
        self._invalidate()

    def add_constraints_coo(
        self,
        rows,
        cols,
        vals,
        senses,
        rhs,
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> range:
        """Append a block of constraint rows given as flat COO triplets.

        Parameters
        ----------
        rows, cols, vals:
            Parallel arrays of coefficient entries.  ``rows`` holds row ids
            *local to this block* (``0 .. m-1``); ``cols`` holds global
            variable column indices (as returned by :meth:`add_variables`).
            Duplicate ``(row, col)`` entries are summed when the matrix is
            assembled (:meth:`columnwise`).
        senses:
            One sense string (``"<="``, ``">="``, ``"=="``) applied to every
            row, or a length-``m`` sequence of sense strings.
        rhs:
            Length-``m`` array of right-hand sides (a scalar is broadcast
            only when the block size is unambiguous, i.e. ``senses`` is a
            sequence); rows with no coefficient entries are allowed.
        names:
            Optional per-row names for debugging.

        Returns the global row-index range of the appended block.
        """
        rhs_arr = np.atleast_1d(np.asarray(rhs, dtype=np.float64))
        if isinstance(senses, str):
            codes = np.full(rhs_arr.shape[0], _sense_code(senses), dtype=np.int8)
        else:
            codes = np.fromiter(
                (_sense_code(s) for s in senses), dtype=np.int8
            )
            if rhs_arr.shape[0] == 1 and codes.shape[0] > 1:
                rhs_arr = np.full(codes.shape[0], rhs_arr[0])
        m = rhs_arr.shape[0]
        if codes.shape[0] != m:
            raise LPError(
                f"senses (length {codes.shape[0]}) and rhs (length {m}) disagree"
            )
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise LPError("rows, cols and vals must have identical shapes")
        if rows.size:
            if rows.min() < 0 or rows.max() >= m:
                raise LPError(f"row ids must lie in [0, {m}); got [{rows.min()}, {rows.max()}]")
            if cols.min() < 0 or cols.max() >= len(self._keys):
                raise LPError(
                    f"column ids must lie in [0, {len(self._keys)}); "
                    f"got [{cols.min()}, {cols.max()}]"
                )
        if names is not None and len(names) != m:
            raise LPError(f"names (length {len(names)}) and rhs (length {m}) disagree")
        start = len(self._row_rhs)
        self._entry_rows.extend(rows + start)
        self._entry_cols.extend(cols)
        self._entry_vals.extend(vals)
        self._row_sense.extend(codes)
        self._row_rhs.extend(rhs_arr)
        self._row_names.extend(names if names is not None else [None] * m)
        self._invalidate()
        return range(start, start + m)

    def block(self) -> "ConstraintBlock":
        """A fresh :class:`ConstraintBlock` accumulator bound to this LP."""
        return ConstraintBlock(self)

    def iter_constraints(self) -> Iterator[Constraint]:
        """Materialise the stored rows as :class:`Constraint` views (slow path,
        intended for tests and debugging only)."""
        rows = self._entry_rows.view()
        cols = self._entry_cols.view()
        vals = self._entry_vals.view()
        order = np.argsort(rows, kind="stable")
        boundaries = np.searchsorted(rows[order], np.arange(self.num_constraints + 1))
        for r in range(self.num_constraints):
            sel = order[boundaries[r] : boundaries[r + 1]]
            yield Constraint(
                indices=[int(c) for c in cols[sel]],
                coefficients=[float(v) for v in vals[sel]],
                sense=_SENSE_STR[int(self._row_sense[r])],
                rhs=float(self._row_rhs[r]),
                name=self._row_names[r],
            )

    # ---------------------------------------------------------------- exports
    def bounds(self) -> List[Tuple[float, float]]:
        """``(lower, upper)`` bound pairs, one per variable in column order."""
        return list(zip(self._lower.view().tolist(), self._upper.view().tolist()))

    def bounds_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` bound vectors as arrays (no per-variable tuples)."""
        return self._lower.view(), self._upper.view()

    def objective_vector(self) -> np.ndarray:
        """The objective coefficients as a fresh array, in column order."""
        return np.array(self._objective.view(), dtype=float)

    def columnwise(self) -> ColumnwiseLP:
        """The constraint matrix column-wise plus row bounds, in solver order.

        One vectorized pass over the COO buffers, and the form
        :func:`~repro.lp.solve` hands to HiGHS (see :class:`ColumnwiseLP` for the row
        order).  Duplicate ``(row, col)`` entries are summed.  The result
        is cached until the model grows.
        """
        if self._columnwise_cache is not None:
            return self._columnwise_cache

        senses = self._row_sense.view()
        rows = self._entry_rows.view()
        m = senses.shape[0]
        is_eq = senses == _SENSE_EQ
        num_ub = m - int(np.count_nonzero(is_eq))
        # Each model row's position in solver order: inequalities first.
        position = np.empty(m, dtype=np.int64)
        position[~is_eq] = np.arange(num_ub)
        position[is_eq] = np.arange(num_ub, m)
        # ">=" rows are negated into "<=" form.
        sign = np.where(senses == _SENSE_GE, -1.0, 1.0)

        start, index, value = _csc_arrays(
            position[rows],
            self._entry_cols.view(),
            self._entry_vals.view() * sign[rows],
            self.num_variables,
        )
        row_upper = np.empty(m)
        row_upper[position] = self._row_rhs.view() * sign
        row_lower = np.full(m, -np.inf)
        row_lower[num_ub:] = row_upper[num_ub:]
        for array in (start, index, value, row_lower, row_upper):
            array.flags.writeable = False
        self._columnwise_cache = ColumnwiseLP(
            start=start,
            index=index,
            value=value,
            row_lower=row_lower,
            row_upper=row_upper,
            num_ub=num_ub,
        )
        return self._columnwise_cache

    def matrices(
        self,
    ) -> Tuple[
        Optional[sparse.csr_matrix],
        Optional[np.ndarray],
        Optional[sparse.csr_matrix],
        Optional[np.ndarray],
    ]:
        """Assemble ``(A_ub, b_ub, A_eq, b_eq)`` sparse matrices.

        A row split of :meth:`columnwise`: ``>=`` constraints come negated
        into ``<=`` form, and empty groups are returned as ``None`` (the
        convention :func:`scipy.optimize.linprog` expects).  The direct
        HiGHS path reads :meth:`columnwise`; this export serves the
        ``linprog`` fallback, diagnostics and tests, and is the only
        caller of :mod:`scipy.sparse`, which it imports when first called.
        Cached like :meth:`columnwise`.
        """
        if self._matrices_cache is not None:
            return self._matrices_cache

        from scipy import sparse

        form = self.columnwise()
        m, k = form.row_upper.shape[0], form.num_ub
        by_row = sparse.csc_matrix(
            (form.value, form.index, form.start), shape=(m, self.num_variables)
        ).tocsr()
        a_ub = b_ub = a_eq = b_eq = None
        if k:
            a_ub, b_ub = by_row[:k], form.row_upper[:k]
        if k < m:
            a_eq, b_eq = by_row[k:], form.row_upper[k:]
        self._matrices_cache = (a_ub, b_ub, a_eq, b_eq)
        return self._matrices_cache

    def _invalidate(self) -> None:
        """Drop the cached exports after the model grew."""
        self._columnwise_cache = None
        self._matrices_cache = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinearProgram(name={self.name!r}, variables={self.num_variables}, "
            f"constraints={self.num_constraints})"
        )


def _radix_order(keys: Sequence[np.ndarray]) -> np.ndarray:
    """The stable order that sorts entries by ``keys``, the last key most
    significant (:func:`numpy.lexsort`'s convention); keys are non-negative
    integers.

    An LSD radix sort with 16-bit digits: numpy sorts ``uint16`` keys
    stably by counting, in linear time, so one ``argsort`` per digit,
    least significant first, takes about a quarter of the time of
    :func:`numpy.lexsort` on the LPs here.
    """
    order = np.arange(keys[0].shape[0])
    for key in keys:
        top = int(key.max()) if key.shape[0] else 0
        for shift in range(0, max(top.bit_length(), 1), 16):
            digit = (key[order] >> shift).astype(np.uint16)  # the low 16 bits
            order = order[np.argsort(digit, kind="stable")]
    return order


def _csc_arrays(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, num_cols: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, index, value)`` of the column-wise matrix of COO entries.

    The arrays ``scipy.sparse.csc_matrix((vals, (rows, cols)))`` holds, in
    values and dtypes: entries in column order, rows ascending within a
    column, ``int32`` positions.  A duplicate ``(row, col)`` cell is summed
    left to right in entry order, as scipy's ``csr_sum_duplicates`` does.
    """
    order = _radix_order([rows, cols])
    rows, cols, vals = rows[order], cols[order], vals[order]
    new_cell = np.ones(rows.shape[0], dtype=bool)
    new_cell[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    first = np.flatnonzero(new_cell)
    if first.shape[0] < rows.shape[0]:
        count = np.diff(first, append=rows.shape[0])
        summed = vals[first]
        for depth in range(1, int(count.max())):
            more = np.flatnonzero(count > depth)
            summed[more] += vals[first[more] + depth]
        rows, cols, vals = rows[first], cols[first], summed
    start = np.zeros(num_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=num_cols), out=start[1:])
    return start, rows.astype(np.int32), vals


def _sense_code(sense: str) -> int:
    code = _SENSE_CODE.get(sense)
    if code is None:
        raise LPError(f"unknown constraint sense {sense!r}")
    return code


class ConstraintBlock:
    """Accumulator for a block of constraint rows, flushed in one bulk call.

    The LP builders use this where row contents are discovered incrementally
    (e.g. the time-expanded packet LP, whose per-row variable sets depend on
    reachability): rows are appended as ``(cols, vals, sense, rhs)`` without
    building a dict or a :class:`Constraint` object per row, and
    :meth:`flush` hands the whole block to
    :meth:`LinearProgram.add_constraints_coo` at once.

    Unlike the scalar :meth:`LinearProgram.add_constraint`, no zero-dropping
    or duplicate-summing happens at append time; duplicates are summed by the
    CSC conversion inside :meth:`LinearProgram.columnwise`.
    """

    def __init__(self, lp: LinearProgram) -> None:
        self._lp = lp
        self._chunks_rows: List[np.ndarray] = []
        self._chunks_cols: List[np.ndarray] = []
        self._chunks_vals: List[np.ndarray] = []
        self._senses: List[str] = []
        self._rhs: List[float] = []
        self._names: List[Optional[str]] = []

    @property
    def num_rows(self) -> int:
        """Number of rows accumulated since the last :meth:`flush`."""
        return len(self._rhs)

    def add_row(
        self,
        cols,
        vals,
        sense: str,
        rhs: float,
        name: Optional[str] = None,
    ) -> int:
        """Append one row; ``cols`` are global column indices.  Returns the
        row id local to the block."""
        row = len(self._rhs)
        cols = np.asarray(cols, dtype=np.int64)
        if cols.size:
            vals_arr = np.asarray(vals, dtype=np.float64)
            if vals_arr.ndim == 0:
                vals_arr = np.full(cols.shape[0], float(vals_arr))
            self._chunks_rows.append(np.full(cols.shape[0], row, dtype=np.int64))
            self._chunks_cols.append(cols)
            self._chunks_vals.append(vals_arr)
        self._senses.append(sense)
        self._rhs.append(float(rhs))
        self._names.append(name)
        return row

    def flush(self) -> range:
        """Commit the accumulated rows to the LP; the block is then reset."""
        if not self._rhs:
            return range(self._lp.num_constraints, self._lp.num_constraints)
        rows = (
            np.concatenate(self._chunks_rows)
            if self._chunks_rows
            else np.zeros(0, dtype=np.int64)
        )
        cols = (
            np.concatenate(self._chunks_cols)
            if self._chunks_cols
            else np.zeros(0, dtype=np.int64)
        )
        vals = (
            np.concatenate(self._chunks_vals)
            if self._chunks_vals
            else np.zeros(0, dtype=np.float64)
        )
        out = self._lp.add_constraints_coo(
            rows, cols, vals, self._senses, np.asarray(self._rhs), names=self._names
        )
        self._chunks_rows.clear()
        self._chunks_cols.clear()
        self._chunks_vals.clear()
        self._senses.clear()
        self._rhs.clear()
        self._names.clear()
        return out
