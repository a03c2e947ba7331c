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

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.clocks.oscillator import HardwareClock
from repro.obs.events import tracing_enabled
from repro.phy.params import COOP_BEACON_AIRTIME_SLOTS, COOP_BEACON_BYTES
from repro.protocols.multihop_base import MultiHopContext
from repro.protocols.multihop_table import (
    Entries,
    PeriodFrames,
    RelayTable,
    column_sums,
    left_aligned,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.phy.channel import WindowDelivery

#: Fraction of the neighbourhood-mean offset corrected per period.
_ALPHA = 0.5
#: EWMA weight of the newest implied rate sample.
_RATE_GAIN = 0.2


class CoopAverageTable(RelayTable):
    """Every station's last aggregate observation (hardware time on the
    grid and mean upstream time) and tracked rate factor (EWMA of the
    implied ``d est / d hw``)."""

    protocol_name = "coop"
    beacon_bytes = COOP_BEACON_BYTES
    beacon_airtime_slots = COOP_BEACON_AIRTIME_SLOTS

    def __init__(self, spec: "MultiHopSpec", hws: Sequence[HardwareClock]) -> None:
        super().__init__(spec, hws)
        n = self.n
        self.has_last = np.zeros(n, dtype=bool)
        self.last_hw = np.zeros(n)
        self.last_est = np.zeros(n)
        self.rate_factor = np.ones(n)

    def reset_sync(self, ids: np.ndarray) -> None:
        super().reset_sync(ids)
        self.rate_factor[ids] = 1.0

    def detach(self, ids: np.ndarray) -> None:
        super().detach(ids)
        self.has_last[ids] = False  # a stale aggregate would alias the rate

    # ------------------------------------------------------------------
    # Reception: average over every decoded frame
    # ------------------------------------------------------------------

    def receive(
        self,
        period: int,
        frames: PeriodFrames,
        delivery: "WindowDelivery",
        ctx: MultiHopContext,
    ) -> np.ndarray:
        """Aggregate every frame a station decoded this period (best hop
        first, then earliest): per-frame timestamp jitter is independent,
        so averaging genuinely suppresses it. First contact aligns to the
        aggregate; afterwards the rate tracks consecutive aggregates and
        the clock slews toward the neighbourhood mean."""
        accepted = np.zeros(self.n, dtype=bool)
        rx = self.entries(frames, delivery, ctx.root, accepted)
        if len(rx.receiver):
            self._average(rx, frames.timestamp, accepted, ctx)
        if tracing_enabled():
            self.trace_receptions(period, frames, delivery, ctx.rx_latency_us)
        return accepted

    def _average(
        self,
        rx: Entries,
        timestamp: float,
        accepted: np.ndarray,
        ctx: MultiHopContext,
    ) -> None:
        """Every receiver's aggregate over its frames, then its rate and
        slew (first contact aligns to the aggregate instead)."""
        spec = self.spec
        order, first, ids = self.rank(rx.receiver, rx.hop, rx.tx_true)
        receiver = rx.receiver.take(order)
        hw, est = self.observe(
            receiver,
            rx.tx_true.take(order),
            rx.delay_us.take(order),
            timestamp,
            self.jitter(len(order), ctx),
            ctx.rx_latency_us,
        )
        observations = np.empty((len(order), 3))
        observations[:, 0] = hw
        observations[:, 1] = est
        observations[:, 2] = est - (self.seg_k[receiver] * hw + self.seg_b[receiver])
        counts = np.empty(len(first), dtype=np.intp)
        counts[:-1] = first[1:] - first[:-1]
        counts[-1] = len(order) - first[-1]
        hw_mean, est_mean, offset_mean = (
            column_sums(left_aligned(first, len(order), observations)) / counts[:, None]
        ).T
        self.silent[ids] = 0
        accepted[ids] = True
        best = order.take(first)
        self.upstream[ids] = rx.sender.take(best)  # best-hop sender, for diagnostics
        joined = self.hop.take(ids) < 0
        self.hop[ids] = rx.hop.take(best) + 1
        rows = ids
        if np.count_nonzero(joined):
            new = ids[joined]
            local = self.seg_k[new] * hw_mean[joined] + self.seg_b[new]
            self.align(new, local, est_mean[joined])
            later = ~joined
            rows = ids[later]
        else:
            later = slice(None)
        d_hw = hw_mean[later] - self.last_hw.take(rows)
        d_est = est_mean[later] - self.last_est.take(rows)
        tracked = self.has_last.take(rows) & (d_hw > 0) & (d_est > 0)
        if np.count_nonzero(tracked):
            moving = rows[tracked]
            implied = np.minimum(
                np.maximum(d_est[tracked] / d_hw[tracked], 1.0 - spec.k_clamp),
                1.0 + spec.k_clamp,
            )
            rate = self.rate_factor[moving]
            self.rate_factor[moving] = rate + _RATE_GAIN * (implied - rate)
        self.has_last[ids] = True
        self.last_hw[ids] = hw_mean
        self.last_est[ids] = est_mean
        # slew toward the neighbourhood mean: the tracked rate plus the
        # gain-weighted offset spread over one beacon period
        self.slew(
            rows,
            self.rate_factor.take(rows)
            + _ALPHA * offset_mean[later] / spec.beacon_period_us,
            hw_mean[later],
        )
