"""LP solution objects and the HiGHS solve driver.

This is the CPLEX substitution layer described in DESIGN.md §1: every LP
built by the algorithm modules is handed to :func:`solve`, which drives the
HiGHS binding bundled with scipy (``scipy.optimize._highspy._core._Highs``)
directly and wraps the result in :class:`LPSolution`.  :func:`solve` passes
the model's one cached column-wise form (:meth:`LinearProgram.columnwise`)
through the array overload of ``passModel``, with the options, input
checks, post-solve check and status codes of
:func:`scipy.optimize.linprog`, so both give the same solution vector.

The binding is one compiled extension inside :mod:`scipy.optimize`.  It is
loaded from its file, under its own dotted name, without running
:mod:`scipy.optimize`'s package ``__init__``, which would load most of
scipy (about 0.4 s).  A later ``import scipy.optimize`` in the same process
gets the same extension from CPython's extension cache.  The binding is
private to scipy: where its file is missing or does not load, :func:`solve`
falls back to :func:`scipy.optimize.linprog` on
:meth:`LinearProgram.matrices`, imported here at once so the first solve
does not pay for it.  With the binding loaded, ``linprog`` is still an
attribute of this module, resolved on first access.  The path is selected
once, at import, from what the installed scipy provides;
:func:`solver_description` names it.

:class:`LPSolution` holds the raw solution vector plus the model's key→index
map; values stay addressable by the variable keys the modelling layer uses,
but bulk consumers (the interval LP builders' extraction loops) read whole
index ranges at once via :meth:`LPSolution.take` / :meth:`LPSolution.as_array`
instead of hashing one tuple key per variable.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from types import ModuleType
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy

from ..faults import maybe_inject
from .model import ColumnwiseLP, LinearProgram

__all__ = [
    "LPSolution",
    "LPInfeasibleError",
    "solve",
    "solver_description",
    "DEFAULT_TIME_LIMIT",
]


def _load_highs(folders: Sequence[str]) -> Optional[ModuleType]:
    """scipy's HiGHS extension, loaded from its file in ``folders``, or
    ``None`` where no folder holds one that loads.

    The module keeps its dotted name, so CPython's extension cache hands
    the same module to a later ``import scipy.optimize``: one pybind11
    registration, one ``_Highs`` type.  It is not entered in
    :data:`sys.modules`, whose entry would have no parent packages.
    """
    spec = PathFinder.find_spec("scipy.optimize._highspy._core", list(folders))
    if spec is None:
        return None
    try:
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    except ImportError:  # pragma: no cover - a binding built for another ABI
        return None
    return module


_highs = _load_highs(
    [os.path.join(root, "optimize", "_highspy") for root in scipy.__path__]
)
if _highs is None:
    # The fallback path: load linprog with the module, so set-up pays for
    # scipy.optimize and the first solve does not.
    from scipy.optimize import linprog


def __getattr__(name: str) -> Any:
    """Resolve ``linprog`` on first access (PEP 562).

    With the binding loaded, :mod:`scipy.optimize` is imported only by
    something that asks for ``linprog``: the fallback when a test hides the
    binding, or a test that patches it.
    """
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog

    globals()["linprog"] = linprog
    return linprog


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
    report alone: ``status``, ``solver_message`` (the solver's own words),
    and the LP dimensions ``rows`` x ``cols`` with ``nnz`` constraint
    nonzeros.  Every field defaults to ``None`` so
    ``LPInfeasibleError("msg")`` keeps working for callers that have no
    solver context.

    ``status`` is :func:`scipy.optimize.linprog`'s exit code, on both solve
    paths, not HiGHS's own model status (HiGHS calls infeasible ``8``; the
    message quotes it):

    ====  ==================================================
    0     optimal (never raised)
    1     time or iteration limit reached
    2     infeasible (also a model HiGHS rejects on load, and a
          variable-free LP with a row that fails at zero)
    3     unbounded
    4     anything else, including a solution that fails the
          post-solve check
    -1    an injected fault (:mod:`repro.faults`)
    ====  ==================================================
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


#: linprog's post-solve tolerance on bounds, slack and equality residuals
#: (``sqrt(tol) * 10`` for its default ``tol=1e-9``).
_RESIDUAL_TOL = float(np.sqrt(1e-9) * 10)

#: HiGHS's default primal feasibility tolerance, which it also applies to a
#: row without entries; :func:`solve` checks the rows of a variable-free LP
#: against it.
_PRIMAL_FEASIBILITY_TOL = 1e-7

#: (status code, message) of a solve attempt, plus on success the solution
#: vector, objective and iteration count.
_Outcome = Tuple[int, str, Optional[np.ndarray], float, int]

if _highs is not None:
    _MODEL_STATUS = _highs.HighsModelStatus
    #: linprog's status code and message per HiGHS model status
    #: (``scipy.optimize._linprog_highs``); any other status is 4.
    _LINPROG_STATUS = {
        _MODEL_STATUS.kOptimal: (0, "Optimization terminated successfully. "),
        _MODEL_STATUS.kTimeLimit: (1, "Time limit reached. "),
        _MODEL_STATUS.kIterationLimit: (1, "Iteration limit reached. "),
        _MODEL_STATUS.kInfeasible: (2, "The problem is infeasible. "),
        _MODEL_STATUS.kModelError: (2, ""),
        _MODEL_STATUS.kUnbounded: (3, "The problem is unbounded. "),
        _MODEL_STATUS.kUnboundedOrInfeasible: (
            4,
            "The problem is unbounded or infeasible. ",
        ),
    }


def solver_description() -> str:
    """The LP solve path this process runs, with the HiGHS version."""
    if _highs is None:
        return "HiGHS via scipy.optimize.linprog (no _highspy binding in this scipy)"
    return f"HiGHS {_highs._Highs().version()} via scipy.optimize._highspy._core._Highs"


def _check_inputs(lp: LinearProgram, objective: np.ndarray, form: ColumnwiseLP) -> None:
    """linprog's input check: costs, coefficients and right-hand sides must
    all be finite."""
    for what, values in (
        ("objective coefficients", objective),
        ("constraint coefficients", form.value),
        ("right-hand sides", form.row_upper),
    ):
        if not np.isfinite(values).all():
            raise ValueError(f"LP {lp.name!r} has non-finite {what}")


def _solve_highs(
    lp: LinearProgram, objective: np.ndarray, time_limit: Optional[float]
) -> _Outcome:
    """Solve through a fresh ``_Highs`` with linprog's options and checks."""
    form = lp.columnwise()
    n = lp.num_variables
    lower, upper = lp.bounds_arrays()
    # linprog reads a NaN bound as no bound; HiGHS would reject the model.
    lower = np.where(np.isnan(lower), -np.inf, lower)
    upper = np.where(np.isnan(upper), np.inf, upper)
    highs = _highs._Highs()
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("highs_debug_level", 0)
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue(
        "simplex_strategy",
        int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    )
    if time_limit is not None:
        highs.setOptionValue("time_limit", float(time_limit))
    loaded = highs.passModel(
        n,
        form.row_upper.shape[0],
        form.value.shape[0],
        int(_highs.MatrixFormat.kColwise),
        int(_highs.ObjSense.kMinimize),
        0.0,
        objective,
        lower,
        upper,
        form.row_lower,
        form.row_upper,
        form.start,
        form.index,
        form.value,
        np.zeros(n, dtype=np.int32),  # all continuous; HiGHS rejects an empty one
    )
    if loaded == _highs.HighsStatus.kError:
        model_status = _MODEL_STATUS.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    info = highs.getInfo()
    iterations = int(info.simplex_iteration_count or info.ipm_iteration_count)
    status, text = _LINPROG_STATUS.get(model_status, (4, ""))
    words = highs.modelStatusToString(model_status)
    if status != 0 and loaded != _highs.HighsStatus.kError:
        words = (
            f"model_status is {words}; primal_status is "
            f"{highs.solutionStatusToString(info.primal_solution_status)}"
        )
    message = f"{text}(HiGHS Status {int(model_status)}: {words})"
    if status != 0:
        return status, message, None, 0.0, iterations

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = float(info.objective_function_value)
    residual = form.row_upper - np.array(solution.row_value)
    slack, con = residual[: form.num_ub], residual[form.num_ub :]
    if (
        np.isnan(x).any()
        or np.isnan(fun)
        or np.isnan(residual).any()
        or not np.all((x >= lower - _RESIDUAL_TOL) & (x <= upper + _RESIDUAL_TOL))
        or (slack < -_RESIDUAL_TOL).any()
        or (np.abs(con) > _RESIDUAL_TOL).any()
    ):
        return (
            4,
            "The solution does not satisfy the constraints within the required "
            f"tolerance of {_RESIDUAL_TOL:.2E}, yet HiGHS reported it optimal.",
            None,
            0.0,
            iterations,
        )
    return 0, message, x, fun, iterations


def _solve_linprog(
    lp: LinearProgram, objective: np.ndarray, time_limit: Optional[float]
) -> _Outcome:
    """Solve through :func:`scipy.optimize.linprog` on :meth:`LinearProgram.matrices`."""
    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    lower, upper = lp.bounds_arrays()
    options: Dict[str, Any] = {"presolve": True}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    # A module attribute read: __getattr__ loads it, or a test patched it.
    linprog = sys.modules[__name__].linprog
    result = linprog(
        c=objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack((lower, upper)),
        method="highs",
        options=options,
    )
    x = np.asarray(result.x, dtype=float) if result.status == 0 else None
    fun = float(result.fun) if result.status == 0 else 0.0
    return int(result.status), str(result.message), x, fun, int(result.nit or 0)


def solve(
    lp: LinearProgram,
    clip_negative: bool = True,
    time_limit: Optional[float] = None,
) -> LPSolution:
    """Solve ``lp`` to optimality and return an :class:`LPSolution`.

    Parameters
    ----------
    lp:
        The assembled linear program (minimization).
    clip_negative:
        Clamp tiny negative values (solver noise on >=0 variables) to zero so
        downstream rounding code can treat values as exact fractions.
    time_limit:
        Wall-clock budget in seconds handed to HiGHS; exceeding it raises
        :class:`LPInfeasibleError` with status 1.  ``None`` falls back to
        the process default :data:`DEFAULT_TIME_LIMIT` (unlimited out of
        the box).

    Raises
    ------
    ValueError
        If a cost, coefficient or right-hand side is not finite.
    LPInfeasibleError
        If the LP is not solved to optimality — including running out of
        its time budget, and a variable-free LP with a row ``0 (sense) rhs``
        that does not hold.  The error carries the status code (see
        :class:`LPInfeasibleError`), the solver message and the LP
        dimensions.
    """
    maybe_inject("lp")
    objective = lp.objective_vector()
    form = lp.columnwise()
    _check_inputs(lp, objective, form)
    if lp.num_variables == 0:
        broken = np.count_nonzero(
            (form.row_lower > _PRIMAL_FEASIBILITY_TOL)
            | (form.row_upper < -_PRIMAL_FEASIBILITY_TOL)
        )
        if not broken:
            return LPSolution(objective=0.0, status=0, message="empty LP")
        status, message = 2, (
            f"The problem is infeasible. (The LP has no variables, and "
            f"{broken} of its {lp.num_constraints} rows do not hold at zero.)"
        )
    else:
        if time_limit is None:
            time_limit = DEFAULT_TIME_LIMIT
        run = _solve_linprog if _highs is None else _solve_highs
        status, message, x, fun, iterations = run(lp, objective, time_limit)
    if status != 0:
        rows = lp.num_constraints
        nnz = int(form.value.shape[0])
        raise LPInfeasibleError(
            f"LP {lp.name!r} could not be solved to optimality: "
            f"status={status}, message={message!r}, "
            f"shape={rows}x{lp.num_variables}, nnz={nnz}",
            status=status,
            solver_message=message,
            rows=rows,
            cols=int(lp.num_variables),
            nnz=nnz,
        )
    if clip_negative:
        x = np.where(x < 0.0, 0.0, x)
    keys, index = lp.solution_keys()
    return LPSolution(
        objective=fun,
        status=status,
        message=message,
        iterations=iterations,
        x=x,
        keys=keys,
        index=index,
    )
