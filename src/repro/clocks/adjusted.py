"""Piecewise-linear adjusted clocks (SSTSP's ``c_i(t) = k^j * t + b^j``).

SSTSP never touches the hardware clock. Each node maintains an *adjusted*
clock that maps local hardware time ``t`` to synchronized time through the
current linear segment ``(k, b)``. Every accepted reference beacon replaces
the segment, subject to two invariants the paper guarantees (section 3.3):

* **continuity** - equation (2) forces the old and new segments to agree at
  the switch point, so the adjusted clock never jumps;
* **monotonicity** - the slope ``k`` stays positive, so the adjusted clock
  never runs backward.

:class:`AdjustedClock` enforces both at adjustment time and keeps the full
segment history so tests and the leap audit
(:func:`repro.analysis.metrics.audit_no_leaps`) can re-derive the entire
trajectory.
"""

from __future__ import annotations

import bisect
import math
from typing import List, NamedTuple


class MonotonicityError(ValueError):
    """Raised when an adjustment would create a backward or discontinuous leap."""


class ClockSegment(NamedTuple):
    """One linear piece of an adjusted clock, active for ``t >= start``.

    Attributes
    ----------
    start:
        Hardware time (microseconds) at which this segment became active.
    k, b:
        Slope and intercept of ``c(t) = k * t + b`` on this segment.
    """

    start: float
    k: float
    b: float

    def value(self, local_time: float) -> float:
        """Adjusted time this segment maps ``local_time`` to."""
        return self.k * local_time + self.b


#: Continuity slack allowed at a segment switch, in microseconds. The
#: closed-form (k, b) solution is exact in real arithmetic; this only
#: absorbs float rounding over ~1e9 us magnitudes.
CONTINUITY_TOL_US: float = 1e-3


class AdjustedClock:
    """SSTSP adjusted clock: continuous, strictly increasing, piecewise linear.

    Parameters
    ----------
    k, b:
        Initial segment. The paper initialises ``k = 1, b = 0`` (identity)
        before the coarse phase contributes an offset.

    Examples
    --------
    >>> c = AdjustedClock()
    >>> c.read(100.0)
    100.0
    >>> c.adjust(1.0001, -0.01, at_local_time=100.0)
    >>> round(c.read(100.0), 6)
    100.0
    """

    __slots__ = ("_segments", "_starts")

    def __init__(self, k: float = 1.0, b: float = 0.0) -> None:
        _validate_slope(k)
        self._segments: List[ClockSegment] = [
            ClockSegment(start=-math.inf, k=float(k), b=float(b))
        ]
        self._starts: List[float] = [-math.inf]

    @property
    def k(self) -> float:
        """Slope of the currently active (latest) segment."""
        return self._segments[-1].k

    @property
    def b(self) -> float:
        """Intercept of the currently active (latest) segment."""
        return self._segments[-1].b

    @property
    def active(self) -> ClockSegment:
        """The currently active (latest) segment."""
        return self._segments[-1]

    @property
    def segments(self) -> List[ClockSegment]:
        """Full segment history, oldest first (copy)."""
        return list(self._segments)

    @property
    def adjustments(self) -> int:
        """Number of ``adjust`` calls applied so far."""
        return len(self._segments) - 1

    def read(self, local_time: float) -> float:
        """Adjusted time at hardware time ``local_time``.

        Works for any ``local_time``, including times inside older segments
        (used by audits); new adjustments may only be appended after the
        latest segment start.
        """
        idx = bisect.bisect_right(self._starts, local_time) - 1
        return self._segments[idx].value(local_time)

    def read_current(self, local_time: float) -> float:
        """Adjusted time using only the active segment (the protocol's view)."""
        return self._segments[-1].value(local_time)

    def adjust(self, k: float, b: float, at_local_time: float) -> None:
        """Switch to segment ``(k, b)`` effective at hardware time
        ``at_local_time``.

        Raises
        ------
        MonotonicityError
            If ``k <= 0`` (backward-running clock), if the new segment does
            not join the old one continuously at the switch point, or if the
            switch point precedes the previous one.
        """
        # The slope and continuity checks inline; NaN fails both bounds.
        if not 0.0 < k < math.inf:
            _validate_slope(k)  # raises
        last_start, last_k, last_b = self._segments[-1]
        if at_local_time < last_start:
            raise MonotonicityError(
                f"adjustment at t={at_local_time} precedes previous segment "
                f"start {last_start}"
            )
        gap = (k * at_local_time + b) - (last_k * at_local_time + last_b)
        if abs(gap) > CONTINUITY_TOL_US:
            raise MonotonicityError(
                "discontinuous adjustment: segment values differ by "
                f"{gap:.6f}us at t={at_local_time}"
            )
        start = float(at_local_time)
        self._segments.append(ClockSegment(start, float(k), float(b)))
        self._starts.append(start)

    def slew_to(
        self, target_value: float, target_slope: float, at_local_time: float
    ) -> None:
        """Convenience: install the segment of slope ``target_slope`` that is
        continuous at ``at_local_time`` (so ``b`` is derived, not given)."""
        current = self.read_current(at_local_time)
        b = current - target_slope * at_local_time
        del target_value  # kept for signature symmetry with tests
        self.adjust(target_slope, b, at_local_time)

    def is_monotonic(self, t_start: float, t_end: float, samples: int = 256) -> bool:
        """Check the adjusted clock never decreases on ``[t_start, t_end]``.

        Piecewise-linear with positive slopes and continuous joins is
        monotone by construction; this re-verifies it numerically over the
        segment breakpoints plus a uniform grid (used by property tests).
        """
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        points = [t_start + (t_end - t_start) * i / samples for i in range(samples + 1)]
        points.extend(s for s in self._starts if t_start <= s <= t_end)
        points.sort()
        previous = -math.inf
        for point in points:
            value = self.read(point)
            if value < previous - 1e-6:
                return False
            previous = value
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AdjustedClock(k={self.k:.9f}, b={self.b:.3f}, "
            f"adjustments={self.adjustments})"
        )


def _validate_slope(k: float) -> None:
    if not (k > 0.0) or math.isinf(k) or math.isnan(k):
        raise MonotonicityError(f"slope k must be finite and > 0, got {k}")
