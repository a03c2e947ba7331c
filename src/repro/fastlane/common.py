"""Shared plumbing of the vectorised engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.clocks.population import ClockPopulation
from repro.mac.contention import resolve_contention
from repro.network.ibss import ScenarioSpec
from repro.sim.rng import RngRegistry


@dataclass
class VectorState:
    """Clock arrays and membership shared by both vector engines."""

    rates: np.ndarray
    offsets: np.ndarray
    present: np.ndarray  # bool mask
    rngs: RngRegistry
    _population: Optional[ClockPopulation] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def from_spec(cls, spec: ScenarioSpec, extra_nodes: int = 0) -> "VectorState":
        rngs = RngRegistry(spec.seed)
        population = ClockPopulation.sample(
            spec.n + extra_nodes,
            rngs.get("clocks"),
            drift_ppm=spec.drift_ppm,
            initial_offset_us=spec.initial_offset_us,
        )
        return cls(
            rates=population.rates,
            offsets=population.offsets.copy(),
            present=np.ones(spec.n + extra_nodes, dtype=bool),
            rngs=rngs,
        )

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    @property
    def population(self) -> ClockPopulation:
        """The shared vectorised clock view over this state's arrays.

        A :class:`ClockPopulation` holds array *references*, so in-place
        offset/rate mutations stay visible; the view is rebuilt only when
        an engine rebinds the arrays wholesale.
        """
        pop = self._population
        if pop is None or pop.rates is not self.rates or pop.offsets is not self.offsets:
            pop = ClockPopulation(self.rates, self.offsets)
            self._population = pop
        return pop

    def hw_at(self, true_time: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Hardware clock of every node at one instant."""
        return self.population.read_all(true_time, out=out)

    def is_present(self, node_id: int) -> Optional[bool]:
        """Presence of ``node_id`` for churn (None outside the population)."""
        if not 0 <= node_id < self.present.shape[0]:
            return None
        return bool(self.present[node_id])


def resolve_window(
    ids: np.ndarray,
    times: np.ndarray,
    airtime_us: float,
    cca_us: float,
) -> Tuple[Optional[int], Optional[float], int]:
    """Run the shared contention cascade over vectorised candidates.

    A thin adapter: the arrays go straight to
    :func:`repro.mac.contention.resolve_contention`, the one cascade both
    lanes share, and the window ends at its first success.

    Parameters
    ----------
    ids, times:
        Candidate station indices and their scheduled transmission times
        (true-time axis, so clock skew is honoured - at large N this skew
        is what eventually de-quantises colliding transmissions and lets
        an election conclude).

    Returns
    -------
    (winner, tx_start, collisions):
        Winning station (or None), the actual start time of its successful
        transmission (deferrals may shift it), and the number of collided
        transmissions in the window.
    """
    if ids.size == 0:
        return None, None, 0
    result = resolve_contention(ids, times, airtime_us, cca_us)
    success = result.first_success
    if success is None:
        return None, None, result.collisions
    return success.members[0], success.start_us, result.collisions
