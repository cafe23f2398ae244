"""Geometric interval grids for interval-indexed linear programs.

Both sections 2 and 3 of the paper index time by geometrically growing
intervals.  For the circuit LPs (Section 2.1) the grid is

    [0, 1], (1, 1+eps], (1+eps, (1+eps)^2], ..., (tau_ell, tau_{ell+1}]

with ``tau_0 = 0`` and ``tau_ell = (1+eps)^(ell-1)`` for ``ell >= 1``; the
packet LP of Section 3.2 uses the same grid with ``eps = 1`` (powers of two).

:class:`IntervalGrid` owns the boundary sequence, maps time points to interval
indices and implements the two quantities the rounding steps need:

* the *alpha-interval* of a flow — the first interval by whose end a
  cumulative ``alpha`` fraction of the flow is finished (Section 2.1), and
* the displacement arithmetic: a flow whose alpha-interval is ``h`` is
  scheduled to run entirely inside interval ``h + D``.

The paper's optimized constants ``alpha = 0.5``, ``D = 3``, ``eps ~= 0.5436``
(giving the 17.53 approximation factor) are exposed as module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

__all__ = [
    "IntervalGrid",
    "RoundingParameters",
    "PAPER_ALPHA",
    "PAPER_DISPLACEMENT",
    "PAPER_EPSILON",
    "DEFAULT_EPSILON",
    "DEFAULT_ROUTING_EPSILON",
    "paper_rounding_parameters",
]

#: Optimized constants from the end of Section 2.1 (17.5319-approximation).
PAPER_ALPHA = 0.5
PAPER_DISPLACEMENT = 3
PAPER_EPSILON = 0.5436

#: Default grid ratio of the Section-2.1 given-paths LP when only a lower
#: bound / ordering is needed (the paper's optimized value).
DEFAULT_EPSILON = 0.5436

#: Default grid ratio of the Section-2.2 routing LP: epsilon = 1, so the
#: intervals are powers of two.
DEFAULT_ROUTING_EPSILON = 1.0


@dataclass(frozen=True)
class RoundingParameters:
    """The (alpha, D, epsilon) triple governing the Section-2.1 rounding.

    The constraints the paper imposes are checked on construction:

    * condition (12): ``D >= ceil(log_{1+eps}(1/alpha)) + 1``;
    * condition (13): ``1 / (1+eps)^(D-1) <= alpha``.

    (The two are equivalent up to integrality; both are asserted.)
    """

    alpha: float = PAPER_ALPHA
    displacement: int = PAPER_DISPLACEMENT
    epsilon: float = PAPER_EPSILON

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.displacement < 1:
            raise ValueError("displacement D must be a positive integer")
        min_d = math.ceil(math.log(1.0 / self.alpha, 1.0 + self.epsilon)) + 1
        if self.displacement < min_d:
            raise ValueError(
                f"displacement D={self.displacement} violates condition (12); "
                f"need D >= {min_d} for alpha={self.alpha}, eps={self.epsilon}"
            )
        if 1.0 / (1.0 + self.epsilon) ** (self.displacement - 1) > self.alpha + 1e-12:
            raise ValueError(
                "parameters violate condition (13): 1/(1+eps)^(D-1) must be <= alpha"
            )

    @property
    def blowup_factor(self) -> float:
        """The completion-time blow-up bound of expression (14).

        ``(1+eps)^(D+2) / (1 - alpha)`` — equals ~17.53 for the paper's
        optimized constants.
        """
        return (1.0 + self.epsilon) ** (self.displacement + 2) / (1.0 - self.alpha)


def paper_rounding_parameters() -> RoundingParameters:
    """The optimized constants reported at the end of Section 2.1."""
    return RoundingParameters(
        alpha=PAPER_ALPHA, displacement=PAPER_DISPLACEMENT, epsilon=PAPER_EPSILON
    )


class IntervalGrid:
    """Geometric time grid ``tau_0 = 0 < tau_1 = 1 < tau_2 = 1+eps < ...``.

    Interval ``ell`` is ``(tau_ell, tau_{ell+1}]`` for ``ell = 0 .. L-1``
    (interval 0 is ``[0, 1]``).  ``L`` is chosen so that ``tau_L`` covers the
    requested time ``horizon``.
    """

    def __init__(self, epsilon: float, horizon: float, min_intervals: int = 2) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if min_intervals < 1:
            raise ValueError("min_intervals must be at least 1")
        self.epsilon = float(epsilon)
        self.horizon = float(horizon)
        # Number of intervals L such that tau_L = (1+eps)^(L-1) >= horizon.
        length = max(
            min_intervals,
            1 + math.ceil(math.log(max(horizon, 1.0), 1.0 + epsilon)) + 1,
        )
        boundaries = [0.0]
        for ell in range(1, length + 1):
            boundaries.append((1.0 + epsilon) ** (ell - 1))
        self._boundaries = np.asarray(boundaries, dtype=float)

    # ------------------------------------------------------------------ sizes
    @property
    def num_intervals(self) -> int:
        """Number of intervals L (indices ``0 .. L-1``)."""
        return len(self._boundaries) - 1

    @property
    def boundaries(self) -> np.ndarray:
        """The array ``[tau_0, tau_1, ..., tau_L]``."""
        return self._boundaries.copy()

    def left(self, ell: int) -> float:
        """Left endpoint ``tau_ell`` of interval ``ell``."""
        self._check_index(ell)
        return float(self._boundaries[ell])

    def right(self, ell: int) -> float:
        """Right endpoint ``tau_{ell+1}`` of interval ``ell``."""
        self._check_index(ell)
        return float(self._boundaries[ell + 1])

    def length(self, ell: int) -> float:
        """Length of interval ``ell`` (1 for interval 0)."""
        self._check_index(ell)
        return float(self._boundaries[ell + 1] - self._boundaries[ell])

    def _check_index(self, ell: int) -> None:
        if not (0 <= ell < self.num_intervals):
            raise IndexError(
                f"interval index {ell} out of range [0, {self.num_intervals})"
            )

    # --------------------------------------------------------------- queries
    def interval_of(self, t: float) -> int:
        """Index of the interval containing time ``t`` (``t`` <= tau_L).

        Time 0 belongs to interval 0; boundary points belong to the interval
        they close (intervals are left-open, right-closed).  A time past
        ``tau_L`` by no more than the ``1e-9`` tolerance belongs to the last
        interval, ``L - 1``.
        """
        if t < 0:
            raise ValueError(f"time must be non-negative, got {t}")
        if t > self._boundaries[-1] + 1e-9:
            raise ValueError(
                f"time {t} exceeds the grid horizon tau_L = {self._boundaries[-1]}"
            )
        if t <= self._boundaries[1]:
            return 0
        # searchsorted with side='left' on boundaries: first boundary >= t.
        idx = int(np.searchsorted(self._boundaries, t, side="left"))
        return min(idx, self.num_intervals) - 1

    def release_interval(self, release_time: float) -> int:
        """First interval in which a flow released at ``release_time`` may run.

        The LP moves every release time to the end of the interval it falls
        in (constraint (9): ``r > tau_{ell+1}  =>  x_ell = 0``), so a flow may
        run in interval ``ell`` iff ``r <= tau_{ell+1}``.
        """
        return int(self.release_intervals([release_time])[0])

    def release_intervals(self, release_times: Sequence[float]) -> np.ndarray:
        """:meth:`release_interval` of every time in ``release_times`` at once.

        Times at or below 0 map to interval 0; a time within the ``1e-9``
        tolerance past ``tau_L`` maps to the last interval, ``L - 1``; a time
        further out raises the ``ValueError`` of :meth:`interval_of`, naming
        the first such time.
        """
        times = np.asarray(release_times, dtype=float)
        late = times > self._boundaries[-1] + 1e-9
        if late.any():
            t = release_times[int(np.argmax(late))]
            raise ValueError(
                f"time {t} exceeds the grid horizon tau_L = {self._boundaries[-1]}"
            )
        # The first boundary >= t closes the interval t falls in.
        first = np.searchsorted(self._boundaries, times, side="left") - 1
        return np.clip(first, 0, self.num_intervals - 1)

    def alpha_interval(self, fractions: Sequence[float], alpha: float) -> int:
        """The alpha-interval of a flow given its per-interval LP fractions.

        ``fractions[ell]`` is ``x_{ell}`` from the LP solution; the
        alpha-interval is ``min { ell : sum_{t <= ell} x_t >= alpha }``.
        """
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
        total = 0.0
        for ell, frac in enumerate(fractions):
            total += frac
            if total >= alpha - 1e-9:
                return ell
        raise ValueError(
            f"fractions sum to {total:.6f} < alpha={alpha}; LP solution incomplete"
        )

    def extended(self, extra_intervals: int) -> "IntervalGrid":
        """A grid with the same epsilon and ``extra_intervals`` more intervals.

        Rounding displaces flows ``D`` intervals to the right, so schedules
        may need boundaries beyond the LP horizon.
        """
        if extra_intervals < 0:
            raise ValueError("extra_intervals must be non-negative")
        new = IntervalGrid.__new__(IntervalGrid)
        new.epsilon = self.epsilon
        new.horizon = self.horizon
        boundaries = list(self._boundaries)
        ell = len(boundaries) - 1
        for _ in range(extra_intervals):
            ell += 1
            boundaries.append((1.0 + self.epsilon) ** (ell - 1))
        new._boundaries = np.asarray(boundaries, dtype=float)
        return new

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IntervalGrid(epsilon={self.epsilon}, horizon={self.horizon}, "
            f"L={self.num_intervals})"
        )
