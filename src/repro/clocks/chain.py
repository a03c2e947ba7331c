"""The per-node clock chain: true time -> hardware clock -> adjusted clock.

Every lane of the simulator needs the same three conversions:

``true time --(HardwareClock)--> hardware time --(AdjustedClock)--> adjusted``

:class:`ClockChain` states them for one node, both inverses included.
The oscillator and the active adjusted-clock segment are affine, so the
exact closed-form inversion is used where the active segment is known
(:meth:`ClockChain.true_at_adjusted`). No lane calls it: it is the
scalar oracle that the array forms are tested against.
:func:`adjusted_at_all` and :func:`true_at_adjusted_all` are those array
forms, two conversions over many chains given as parallel arrays,
bit-identical to the single calls; the multi-hop lane runs them over its
station table. Protocol drivers that only expose an opaque
``synchronized_time`` mapping invert by fixed-point iteration
(:func:`invert_affine_fixed_point`), which is how
:meth:`repro.network.node.Node.scheduled_true_time` maps adjusted TBTTs
onto the true-time axis.

The chain holds *references*: mutating the hardware clock in place (as
``freq_step`` faults do) or replacing :attr:`ClockChain.adjusted` (as a
sync re-acquisition does) is immediately visible through the chain.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.clocks.adjusted import AdjustedClock
from repro.clocks.oscillator import HardwareClock
from repro.obs.counters import count


class ClockChain:
    """One node's hardware oscillator with an adjusted clock stacked on top."""

    __slots__ = ("hw", "adjusted")

    def __init__(
        self, hw: HardwareClock, adjusted: Optional[AdjustedClock] = None
    ) -> None:
        self.hw = hw
        self.adjusted = adjusted if adjusted is not None else AdjustedClock()

    def hw_at(self, true_time: float) -> float:
        """Hardware clock reading at true time ``true_time``."""
        count("clock.hw_at")
        return self.hw.read(true_time)

    def adjusted_at(self, true_time: float) -> float:
        """Adjusted clock reading (active segment) at true time ``true_time``."""
        count("clock.adjusted_at")
        return self.adjusted.read_current(self.hw.read(true_time))

    def true_at_hw(self, hw_value: float) -> float:
        """True time at which the hardware clock reads ``hw_value``."""
        count("clock.true_at_hw")
        return self.hw.true_time_at(hw_value)

    def true_at_adjusted(self, value: float) -> float:
        """True time at which the adjusted clock (active segment) reads
        ``value``.

        Exact affine inversion: first through the active segment
        ``c = k * hw + b``, then through the oscillator.
        """
        count("clock.true_at_adjusted")
        hw_value = (value - self.adjusted.b) / self.adjusted.k
        return self.hw.true_time_at(hw_value)


def adjusted_at_all(
    rate: np.ndarray,
    offset: np.ndarray,
    k: np.ndarray,
    b: np.ndarray,
    true_time: float,
) -> np.ndarray:
    """:meth:`ClockChain.adjusted_at` of many chains at one true time.

    The chains come as parallel arrays: each oscillator's ``rate`` and
    ``offset`` (``initial_offset``) and each active segment's ``k`` and
    ``b``. Each value is ``k * (offset + rate * true_time) + b``, the
    same operations in the same order as the single read, so the results
    are bit-identical; ``clock.adjusted_at`` is counted once per chain.
    """
    if len(rate):
        count("clock.adjusted_at", len(rate))
    return k * (offset + rate * true_time) + b


def true_at_adjusted_all(
    rate: np.ndarray,
    offset: np.ndarray,
    k: np.ndarray,
    b: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """:meth:`ClockChain.true_at_adjusted` of many chains (parallel
    arrays as for :func:`adjusted_at_all`), each at its own adjusted
    reading in ``values``: bit-identical to the single conversions, with
    ``clock.true_at_adjusted`` counted once per chain."""
    if len(rate):
        count("clock.true_at_adjusted", len(rate))
    return ((values - b) / k - offset) / rate


def invert_affine_fixed_point(
    mapping: Callable[[float], float],
    target: float,
    tol_us: float = 1e-4,
    max_iterations: int = 12,
) -> float:
    """Invert a near-identity clock mapping by fixed-point iteration.

    ``mapping`` is any hardware-time -> synchronized-time function whose
    slope is within a few hundred ppm of 1 (every clock in this simulator
    qualifies); the iteration ``guess += target - mapping(guess)``
    contracts with factor ``|1 - slope|`` and converges in 2-3 steps.

    Raises :class:`ArithmeticError` when it fails to converge within
    ``max_iterations`` (pathological slope).
    """
    guess = target
    for _ in range(max_iterations):
        error = target - mapping(guess)
        if abs(error) < tol_us:
            break
        guess += error
    else:  # pragma: no cover - pathological slope
        raise ArithmeticError("clock inversion did not converge")
    return guess
