"""LP solution objects and the HiGHS solve driver.

This is the CPLEX substitution layer described in DESIGN.md: every LP built by
the algorithm modules is handed to :func:`solve`, which calls
:func:`scipy.optimize.linprog` with the HiGHS dual-simplex/IPM hybrid and wraps
the result in :class:`LPSolution`.

:class:`LPSolution` holds the raw solution vector plus the model's key→index
map; values stay addressable by the variable keys the modelling layer uses,
but bulk consumers (the interval LP builders' extraction loops) read whole
index ranges at once via :meth:`LPSolution.take` / :meth:`LPSolution.as_array`
instead of hashing one tuple key per variable.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np
from scipy.optimize import linprog

from ..faults import maybe_inject
from .model import LinearProgram, LPError

__all__ = ["LPSolution", "LPInfeasibleError", "solve", "DEFAULT_TIME_LIMIT"]

#: Process-wide default wall-clock budget (seconds) handed to HiGHS when
#: :func:`solve` is called without an explicit ``time_limit``.  ``None``
#: means unlimited.  The experiment engine sets this in worker processes
#: (``--lp-time-limit``) so every LP a scheme solves inherits the budget
#: without threading a parameter through every scheme constructor.
DEFAULT_TIME_LIMIT: Optional[float] = None


class LPInfeasibleError(RuntimeError):
    """Raised when the LP is infeasible, unbounded or the solver fails.

    Beyond the message, the error carries the solver's diagnosis so a
    failure record written by the experiment engine is diagnosable from the
    report alone: ``status`` (HiGHS status code, ``-1`` for injected
    faults), ``solver_message`` (the solver's own words), and the LP
    dimensions ``rows`` x ``cols`` with ``nnz`` constraint nonzeros.
    Every field defaults to ``None`` so ``LPInfeasibleError("msg")`` keeps
    working for callers that have no solver context.
    """

    def __init__(
        self,
        message: str,
        *,
        status: Optional[int] = None,
        solver_message: Optional[str] = None,
        rows: Optional[int] = None,
        cols: Optional[int] = None,
        nnz: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.solver_message = solver_message
        self.rows = rows
        self.cols = cols
        self.nnz = nnz

    def detail(self) -> Dict[str, Any]:
        """The non-``None`` diagnostic fields as a JSON-safe dict."""
        fields = {
            "status": self.status,
            "solver_message": self.solver_message,
            "rows": self.rows,
            "cols": self.cols,
            "nnz": self.nnz,
        }
        return {key: value for key, value in fields.items() if value is not None}


class LPSolution:
    """An optimal solution of a :class:`LinearProgram`.

    Parameters
    ----------
    objective, status, message, iterations:
        Solver metadata.
    x, keys, index:
        The raw solution vector, the variable keys in column order, and the
        key→column map.  ``keys``/``index`` may alias the model's internal
        structures (zero-copy); the solution snapshots the variable *count*
        at construction, so variables added to the model afterwards are
        simply unknown to the solution rather than corrupting lookups.
    """

    def __init__(
        self,
        objective: float,
        status: int,
        message: str,
        iterations: int = 0,
        *,
        x: Optional[np.ndarray] = None,
        keys: Optional[Sequence[Hashable]] = None,
        index: Optional[Mapping[Hashable, int]] = None,
    ) -> None:
        self.objective = float(objective)
        self.status = int(status)
        self.message = str(message)
        self.iterations = int(iterations)
        self._x = np.zeros(0, dtype=float) if x is None else np.asarray(x, dtype=float)
        if keys is None:
            self._keys: List[Hashable] = []
        elif isinstance(keys, list):
            self._keys = keys
        else:
            self._keys = list(keys)
        if len(self._keys) != self._x.shape[0]:
            raise ValueError(
                f"keys (length {len(self._keys)}) and x (length {self._x.shape[0]}) disagree"
            )
        self._index: Mapping[Hashable, int] = (
            index if index is not None else {k: i for i, k in enumerate(self._keys)}
        )
        #: number of variables at solve time; aliased keys/index may grow
        #: later, and anything beyond this count is not part of the solution
        self._n = self._x.shape[0]
        self._values_cache: Optional[Dict[Hashable, float]] = None
        #: prefix → sorted column-index array, built lazily per tuple position
        self._prefix_index: Dict[int, Dict[Hashable, np.ndarray]] = {}

    # ------------------------------------------------------------- raw access
    @property
    def x(self) -> np.ndarray:
        """The raw solution vector in variable-column order."""
        return self._x

    @property
    def keys(self) -> List[Hashable]:
        """Variable keys in column order."""
        return self._keys

    @property
    def values(self) -> Dict[Hashable, float]:
        """Key → value dict (materialised lazily; prefer :meth:`take` /
        :meth:`as_array` in hot paths)."""
        if self._values_cache is None:
            self._values_cache = {
                key: float(v) for key, v in zip(self._keys, self._x)
            }
        return self._values_cache

    # ----------------------------------------------------------- point access
    def value(self, key: Hashable, default: Optional[float] = None) -> float:
        """Value of a variable by key (``default`` if the key is unknown)."""
        idx = self._index.get(key)
        if idx is not None and idx < self._n:
            return float(self._x[idx])
        if default is not None:
            return default
        raise KeyError(f"variable {key!r} not in LP solution")

    # ------------------------------------------------------------ bulk access
    def take(self, indices) -> np.ndarray:
        """Solution values at the given column indices (range/array/slice).

        The natural companion of :meth:`LinearProgram.add_variables`: pass the
        index range it returned and get the block's values as one array with
        no key hashing at all.
        """
        if isinstance(indices, range):
            # A negative stop in a descending range means "before index 0",
            # not the slice wrap-around meaning — map it to None.
            stop = indices.stop if indices.stop >= 0 else None
            return self._x[indices.start : stop : indices.step]
        if isinstance(indices, slice):
            return self._x[indices]
        return self._x[np.asarray(indices, dtype=np.int64)]

    def as_array(
        self, keys: Iterable[Hashable], default: Optional[float] = None
    ) -> np.ndarray:
        """Values for a sequence of keys as one array.

        Unknown keys raise :class:`KeyError` unless ``default`` is given.
        """
        index = self._index
        keys = list(keys)
        if default is None:
            try:
                idx = np.fromiter(
                    (index[k] for k in keys), dtype=np.int64, count=len(keys)
                )
            except KeyError as exc:
                raise KeyError(f"variable {exc.args[0]!r} not in LP solution") from None
            if idx.size and idx.max() >= self._n:
                bad = keys[int(np.argmax(idx >= self._n))]
                raise KeyError(f"variable {bad!r} not in LP solution")
            return self._x[idx]
        idx = np.fromiter(
            (index.get(k, -1) for k in keys), dtype=np.int64, count=len(keys)
        )
        if self._x.size == 0:
            return np.full(len(keys), float(default))
        known = (idx >= 0) & (idx < self._n)
        out = np.where(known, self._x[np.clip(idx, 0, self._n - 1)], float(default))
        return out

    # -------------------------------------------------------------- filtering
    def nonzero(self, tolerance: float = 1e-9) -> Dict[Hashable, float]:
        """All variables whose magnitude exceeds ``tolerance``.

        Uses ``abs(value)`` so free (unclipped) variables with negative
        optimal values are reported too.
        """
        hits = np.nonzero(np.abs(self._x) > tolerance)[0]
        keys = self._keys
        return {keys[i]: float(self._x[i]) for i in hits}

    def group(self, prefix: Hashable, position: int = 0) -> Dict[Hashable, float]:
        """Values of all tuple-keyed variables whose ``position`` entry equals
        ``prefix`` (e.g. every ``("x", i, j, ell)`` variable with ``"x"``).

        The first call for a given ``position`` builds a prefix→columns index
        in one scan; every subsequent lookup is O(matching variables) rather
        than O(num_variables).
        """
        table = self._prefix_index.get(position)
        if table is None:
            buckets: Dict[Hashable, List[int]] = {}
            for i in range(self._n):
                key = self._keys[i]
                if isinstance(key, tuple) and len(key) > position:
                    try:
                        buckets.setdefault(key[position], []).append(i)
                    except TypeError:  # unhashable component
                        continue
            table = {
                p: np.asarray(ix, dtype=np.int64) for p, ix in buckets.items()
            }
            self._prefix_index[position] = table
        cols = table.get(prefix)
        if cols is None:
            return {}
        keys = self._keys
        return {keys[i]: float(self._x[i]) for i in cols}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LPSolution(objective={self.objective!r}, status={self.status}, "
            f"variables={len(self._keys)})"
        )


def solve(
    lp: LinearProgram,
    method: str = "highs",
    presolve: bool = True,
    clip_negative: bool = True,
    time_limit: Optional[float] = None,
) -> LPSolution:
    """Solve ``lp`` to optimality and return an :class:`LPSolution`.

    Parameters
    ----------
    lp:
        The assembled linear program (minimization).
    method:
        ``scipy.optimize.linprog`` method; HiGHS is both the default and the
        only one exercised by the test-suite.
    presolve:
        Passed through to the solver options.
    clip_negative:
        Clamp tiny negative values (solver noise on >=0 variables) to zero so
        downstream rounding code can treat values as exact fractions.
    time_limit:
        Wall-clock budget in seconds handed to HiGHS; exceeding it raises
        :class:`LPInfeasibleError` with the solver's time-limit status.
        ``None`` falls back to the process default
        :data:`DEFAULT_TIME_LIMIT` (unlimited out of the box).

    Raises
    ------
    LPInfeasibleError
        If the solver reports anything other than an optimal solution —
        including running out of its time budget.  The error carries the
        status code, the solver message and the LP dimensions.
    """
    maybe_inject("lp")
    if lp.num_variables == 0:
        return LPSolution(objective=0.0, status=0, message="empty LP")

    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    lower, upper = lp.bounds_arrays()
    options: Dict[str, Any] = {"presolve": presolve}
    if time_limit is None:
        time_limit = DEFAULT_TIME_LIMIT
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = linprog(
        c=lp.objective_vector(),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack((lower, upper)),
        method=method,
        options=options,
    )
    if not result.success:
        rows = sum(m.shape[0] for m in (a_ub, a_eq) if m is not None)
        nnz = sum(int(m.nnz) for m in (a_ub, a_eq) if m is not None)
        raise LPInfeasibleError(
            f"LP {lp.name!r} could not be solved to optimality: "
            f"status={result.status}, message={result.message!r}, "
            f"shape={rows}x{lp.num_variables}, nnz={nnz}",
            status=int(result.status),
            solver_message=str(result.message),
            rows=rows,
            cols=int(lp.num_variables),
            nnz=nnz,
        )
    x = np.asarray(result.x, dtype=float)
    if clip_negative:
        x = np.where(x < 0.0, 0.0, x)
    iterations = int(getattr(result, "nit", 0) or 0)
    keys, index = lp.solution_keys()
    return LPSolution(
        objective=float(result.fun),
        status=int(result.status),
        message=str(result.message),
        iterations=iterations,
        x=x,
        keys=keys,
        index=index,
    )
