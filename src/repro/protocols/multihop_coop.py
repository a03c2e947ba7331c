"""Cooperative time synchronization via spatial averaging (Hu-Servetto
style).

Modeled after Hu & Servetto (cs/0611003, cs/0503031): instead of hanging
off a single upstream, every station treats *all* the beacons it decodes
in a period as one aggregate observation and steers its clock toward
their **average** — the spatial-averaging estimator whose error, in the
dense-network limit, decays with the number of cooperating neighbours
rather than accumulating per relay link.

Mapping onto this simulator's discrete-beacon world:

* every decoded frame ``i`` yields an offset observation
  ``est_i - local_i``; the period's correction steers toward the *mean*
  offset with gain ``_ALPHA`` (averaging with the neighbourhood, not
  snapping to one parent);
* the rate is tracked from consecutive aggregate observations (implied
  ``d est / d hw`` slope, EWMA-blended), so the steady state absorbs
  oscillator drift instead of re-measuring it every period;
* ``hop`` bookkeeping is ``1 + min(heard hops)`` — it orders the
  beacon-window segments and the takeover election, but unlike SSTSP it
  does not privilege the low-hop sender's timestamp;
* every synchronized station relays *every* period (cooperation wants
  density); the shootout's overhead column shows what that costs.

Corrections are slews through the shared
:class:`~repro.clocks.adjusted.AdjustedClock` (continuous re-sloping at
the current instant), so ``audit_no_leaps`` holds here too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.clocks.chain import ClockChain
from repro.phy.params import COOP_BEACON_AIRTIME_SLOTS, COOP_BEACON_BYTES
from repro.protocols.multihop_base import (
    MultiHopContext,
    MultiHopFrame,
    MultiHopProtocol,
    _HOP_THEN_TIME,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec

#: Fraction of the neighbourhood-mean offset corrected per period.
_ALPHA = 0.5
#: EWMA weight of the newest implied rate sample.
_RATE_GAIN = 0.2


class CoopAverageProtocol(MultiHopProtocol):
    """One station's spatial-averaging driver."""

    protocol_name = "coop"
    beacon_bytes = COOP_BEACON_BYTES
    beacon_airtime_slots = COOP_BEACON_AIRTIME_SLOTS

    def __init__(
        self, node_id: int, chain: ClockChain, spec: "MultiHopSpec"
    ) -> None:
        super().__init__(node_id, chain, spec)
        #: Last aggregate observation: (hw_on_grid, mean upstream time).
        self._last_agg: Optional[Tuple[float, float]] = None
        #: Tracked rate factor (EWMA of implied d est / d hw).
        self._rate = 1.0

    def reset_sync(self) -> None:
        super().reset_sync()
        self._rate = 1.0

    def _detach(self) -> None:
        super()._detach()
        self._last_agg = None  # a stale aggregate would alias the rate

    # ------------------------------------------------------------------
    # Reception: average over every decoded frame
    # ------------------------------------------------------------------

    def on_receptions(
        self, period: int, decoded: List[MultiHopFrame], ctx: MultiHopContext
    ) -> bool:
        spec = self.spec
        decoded.sort(key=_HOP_THEN_TIME)
        # Aggregate every decoded frame: per-frame timestamp jitter is
        # independent, so averaging genuinely suppresses it.
        hw_sum = 0.0
        est_sum = 0.0
        offset_sum = 0.0
        jitters = ctx.sample_timestamp_errors(len(decoded)).tolist()
        for tx, jitter in zip(decoded, jitters):
            hw, est = self._observe(tx, jitter, ctx)
            hw_sum += hw
            est_sum += est
            offset_sum += est - self.clock.read_current(hw)
        n = len(decoded)
        hw_mean = hw_sum / n
        est_mean = est_sum / n
        offset_mean = offset_sum / n
        self.silent = 0
        min_hop = decoded[0].hop
        self.upstream = decoded[0].sender  # best-hop sender, for diagnostics
        if self.hop is None:
            self._align(self.clock.read_current(hw_mean), est_mean)
            self.hop = min_hop + 1
            self._last_agg = (hw_mean, est_mean)
            return True
        self.hop = min_hop + 1
        if self._last_agg is not None:
            prev_hw, prev_est = self._last_agg
            d_hw = hw_mean - prev_hw
            d_est = est_mean - prev_est
            if d_hw > 0 and d_est > 0:
                implied = d_est / d_hw
                implied = min(
                    max(implied, 1.0 - spec.k_clamp), 1.0 + spec.k_clamp
                )
                self._rate += _RATE_GAIN * (implied - self._rate)
        self._last_agg = (hw_mean, est_mean)
        # slew toward the neighbourhood mean: the tracked rate plus the
        # gain-weighted offset spread over one beacon period
        self._slew(
            self._rate + _ALPHA * offset_mean / spec.beacon_period_us, hw_mean
        )
        return True
