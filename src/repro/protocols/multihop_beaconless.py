"""Beaconless asymmetric one-way dissemination (Huan et al. style).

Modeled after the energy-efficient WSN scheme of Huan, Kim, Lee, Kim &
Ko (arXiv:1906.09037): time flows strictly *one way* from the source,
timestamps ride piggyback on frames a node was sending anyway (here: a
bare 34-byte piggyback frame, no authentication material), and receivers
compensate skew by **least-squares regression** over a sliding window of
one-way observations instead of exchanging two-way handshakes.

Differences from SSTSP relaying, deliberately kept (they are the
scheme's identity, and the shootout measures their cost):

* **No security envelope** — no uTESLA pending buffer, no per-hop guard
  window; every decoded frame becomes a sample immediately. Cheaper and
  faster to converge, but a forged timestamp would be consumed as-is.
* **Asymmetric duty cycle** — relays disseminate every other period
  (``_DUTY_CYCLE``), halving beacon traffic (the shared
  ``relay_probability`` thins on top); the regression window tolerates
  the sparser sampling because one-way samples are cheap.
* **Windowed regression** — offset *and* skew come from an 8-sample
  ordinary-least-squares fit of (local hardware time → upstream time),
  the paper's asymmetric high-precision estimator, rather than the
  two-sample closed form of SSTSP equations (2)-(5).

The correction is applied as a *slew*: the adjusted clock is re-sloped,
continuously at the current instant, to intersect the regression line
one beacon period ahead — so the clock never steps and
``audit_no_leaps`` holds for this protocol too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.clocks.oscillator import HardwareClock
from repro.obs.events import tracing_enabled
from repro.phy.params import (
    BEACONLESS_BEACON_AIRTIME_SLOTS,
    BEACONLESS_BEACON_BYTES,
)
from repro.protocols.multihop_base import MultiHopContext
from repro.protocols.multihop_table import (
    PeriodFrames,
    RelayTable,
    column_sums,
    python_squares,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.phy.channel import WindowDelivery

#: Relays disseminate every other period (the scheme's energy asymmetry).
_DUTY_CYCLE = 2
#: Sliding regression window (samples).
_WINDOW = 8
#: Discard samples older than this many periods (a stale window would
#: drag the fit after an upstream change or long outage).
_MAX_SAMPLE_AGE = 40
#: Window positions, for masks over the window's columns.
_SLOTS = np.arange(_WINDOW)


class BeaconlessTable(RelayTable):
    """Every station's regression window: up to :data:`_WINDOW`
    ``(period, hw_on_grid, upstream_time)`` observations, oldest first,
    one row per station."""

    protocol_name = "beaconless"
    beacon_bytes = BEACONLESS_BEACON_BYTES
    beacon_airtime_slots = BEACONLESS_BEACON_AIRTIME_SLOTS

    def __init__(self, spec: "MultiHopSpec", hws: Sequence[HardwareClock]) -> None:
        super().__init__(spec, hws)
        n = self.n
        self.window = np.zeros(n, dtype=np.intp)
        self.window_period = np.zeros((n, _WINDOW), dtype=np.intp)
        self.window_hw = np.zeros((n, _WINDOW))
        self.window_est = np.zeros((n, _WINDOW))
        # per period parity: the stations on duty, (period + id) even
        self._on_duty = [
            (parity + np.arange(n)) % _DUTY_CYCLE == 0
            for parity in range(_DUTY_CYCLE)
        ]

    def detach(self, ids: np.ndarray) -> None:
        super().detach(ids)
        self.window[ids] = 0

    def relay_turn(
        self, period: int, relay: np.ndarray, ctx: MultiHopContext
    ) -> np.ndarray:
        """The duty cycle: every other period, staggered by id (the
        shared ``relay_probability`` thins on top)."""
        return relay & self._on_duty[period % _DUTY_CYCLE]

    # ------------------------------------------------------------------
    # Reception: windowed least squares over one-way samples
    # ------------------------------------------------------------------

    def receive(
        self,
        period: int,
        frames: PeriodFrames,
        delivery: "WindowDelivery",
        ctx: MultiHopContext,
    ) -> np.ndarray:
        """Every decoded frame from the chosen upstream becomes a sample
        at once (no security envelope): first contact aligns, an upstream
        change empties the window (it only ever mixes samples from one
        upstream), then the window is refitted (:meth:`_refit`)."""
        accepted = np.zeros(self.n, dtype=bool)
        rx = self.entries(frames, delivery, ctx.root, accepted)
        ids, chosen = self.choose_upstream(rx.receiver, rx.sender, rx.hop, rx.tx_true)
        hw, est = self.observe(
            ids,
            rx.tx_true.take(chosen),
            rx.delay_us.take(chosen),
            frames.timestamp,
            self.jitter(len(ids), ctx),
            ctx.rx_latency_us,
        )
        self.silent[ids] = 0
        accepted[ids] = True
        new_hop = rx.hop.take(chosen) + 1
        sender = rx.sender.take(chosen)
        # first contact: one-shot offset alignment, then regress
        first = self.hop.take(ids) < 0
        if np.count_nonzero(first):
            joined = ids[first]
            local = self.seg_k[joined] * hw[first] + self.seg_b[joined]
            self.align(joined, local, est[first])
            self.hop[joined] = new_hop[first]
            self.upstream[joined] = sender[first]
            later = ~first
            ids, sender, new_hop = ids[later], sender[later], new_hop[later]
            hw, est = hw[later], est[later]
        moved = ids[sender != self.upstream.take(ids)]
        self.upstream[ids] = sender
        self.window[moved] = 0
        self.hop[ids] = new_hop
        self._append(period, ids, hw, est)
        self._refit(ids, hw)
        if tracing_enabled():
            self.trace_receptions(period, frames, delivery, ctx.rx_latency_us)
        return accepted

    def _append(
        self, period: int, ids: np.ndarray, hw: np.ndarray, est: np.ndarray
    ) -> None:
        """Append one sample per station, keep the newest
        :data:`_WINDOW`, then drop samples older than
        :data:`_MAX_SAMPLE_AGE` periods from the front."""
        columns = (self.window_period, self.window_hw, self.window_est)
        full = ids[self.window.take(ids) == _WINDOW]
        if len(full):
            for column in columns:
                column[full, :-1] = column[full, 1:]
            self.window[full] -= 1
        at = self.window.take(ids)
        for column, value in zip(columns, (period, hw, est)):
            column[ids, at] = value
        self.window[ids] += 1
        # samples are appended in period order, so the stale ones lead
        oldest = self.window_period[ids, 0]
        aged = ids[period - oldest > _MAX_SAMPLE_AGE]
        if len(aged):
            count = self.window[aged]
            stale = (period - self.window_period[aged] > _MAX_SAMPLE_AGE) & (
                _SLOTS < count[:, None]
            )
            drop = np.count_nonzero(stale, axis=1)
            keep = np.minimum(_SLOTS + drop[:, None], _WINDOW - 1)
            for column in columns:
                column[aged] = np.take_along_axis(column[aged], keep, axis=1)
            self.window[aged] = count - drop

    def _refit(self, ids: np.ndarray, hw_now: np.ndarray) -> None:
        """OLS fit of upstream time over local hardware time; slew each
        adjusted clock onto its fitted line over the expected gap to the
        next update."""
        spec = self.spec
        ready = self.window.take(ids) >= 2
        ids = ids[ready]
        hw_now = hw_now[ready]
        n = self.window.take(ids)
        live = _SLOTS < n[:, None]
        samples = np.empty((len(ids), _WINDOW, 2))
        samples[:, :, 0] = self.window_hw[ids]
        samples[:, :, 1] = self.window_est[ids]
        samples *= live[:, :, None]  # zero the unused cells: exact for the sums
        mean = column_sums(samples) / n[:, None]
        d_hw = samples[:, :, 0] - mean[:, 0, None]
        moments = np.zeros((len(ids), _WINDOW, 2))
        moments[:, :, 0][live] = python_squares(d_hw[live])
        d_hw *= live
        np.multiply(d_hw, samples[:, :, 1] - mean[:, 1, None], out=moments[:, :, 1])
        var, cov = column_sums(moments).T
        mean_hw, mean_est = mean.T
        # a zero (or NaN) variance fits no line
        positive = var > 0.0
        k_fit = cov[positive] / var[positive]
        close = ~(np.abs(k_fit - 1.0) > spec.k_clamp)
        fit = positive.nonzero()[0][close]
        k_fit = k_fit[close]
        ids = ids[fit]
        hw_now = hw_now[fit]
        b_fit = mean_est[fit] - k_fit * mean_hw[fit]
        # Converge onto the fitted line at the *next expected update*
        # (one duty cycle out, stretched by the relay_probability
        # thinning), continuously from now. A shorter horizon would
        # overshoot the line and keep overshooting until the next refit —
        # an oscillation that compounds per hop.
        horizon = _DUTY_CYCLE / spec.relay_probability * spec.beacon_period_us
        current = self.seg_k[ids] * hw_now + self.seg_b[ids]
        target = k_fit * (hw_now + horizon) + b_fit
        # far off the line (fresh join, post-outage) the clamp steps the
        # window limit and later fits finish the approach
        self.slew(ids, (target - current) / horizon, hw_now)
