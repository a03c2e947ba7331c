"""Rentel & Kunz controlled-clock synchronization (paper reference [1]).

The Carleton technical report proposes a scheme where *all* stations
participate equally instead of privileging the fastest: each station keeps
a **controlled clock** - an adjusted view of its real clock with a rate
factor ``s = controlled_clock / real_clock`` - and competes for beacon
transmission with probability ``p`` every ``T_DELAY`` BPs, but only if it
received no beacon within the last ``T_DELAY`` BPs. On receiving a beacon
the station updates ``s`` (rate) and ``p`` (contention eagerness) to
converge toward the sender.

The technical report's exact update laws are not reprinted in the SSTSP
paper, so this module is a documented reconstruction that preserves the
scheme's defining properties: a *slewed* (never stepped) controlled clock,
rate learning from consecutive beacon pairs, equal participation, and the
``T_DELAY``/``p`` contention throttle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.clocks.oscillator import TsfTimer
from repro.mac.beacon import BeaconFrame
from repro.phy.params import TSF_BEACON_BYTES
from repro.protocols.base import ClockKind, RxContext, SyncProtocol, TxIntent
from repro.sim.units import S


@dataclass(frozen=True)
class RentelConfig:
    """Controlled-clock scheme parameters."""

    beacon_period_us: float = 0.1 * S
    w: int = 30
    slot_time_us: float = 9.0
    #: Silence (in BPs) before a station considers contending.
    t_delay: int = 3
    #: Initial contention probability.
    p_initial: float = 0.5
    #: Floor for the contention probability.
    p_min: float = 0.05
    #: Fraction of the observed offset corrected per received beacon
    #: (slewed over the following BP, never stepped).
    offset_gain: float = 1.0
    #: Clamp on the rate factor ``s`` (a real oscillator is within a few
    #: hundred ppm of nominal; wilder implied rates indicate a bad sample).
    max_rate_deviation: float = 5e-3

    def __post_init__(self) -> None:
        if self.beacon_period_us <= 0:
            raise ValueError("beacon_period_us must be > 0")
        if self.t_delay < 1:
            raise ValueError("t_delay must be >= 1")
        if not 0 < self.p_initial <= 1 or not 0 < self.p_min <= 1:
            raise ValueError("probabilities must be in (0, 1]")
        if not 0 < self.offset_gain <= 1:
            raise ValueError("offset_gain must be in (0, 1]")


class RentelProtocol(SyncProtocol):
    """One station's controlled-clock driver.

    The controlled clock is ``cc(hw) = s * hw + off``; corrections adjust
    ``s`` and re-anchor ``off`` so ``cc`` stays continuous, then let the
    slope difference absorb the measured offset over the next BP - the
    "no uncontinuous leaps" behaviour the report advertises (and SSTSP
    later borrows).
    """

    protocol_name = "rentel"

    def __init__(
        self,
        node_id: int,
        timer: TsfTimer,
        config: RentelConfig,
        rng: np.random.Generator,
    ) -> None:
        self.node_id = node_id
        self.timer = timer  # unused for sync; kept for interface symmetry
        self.config = config
        self._rng = rng
        self.s = 1.0
        self.off = 0.0
        self.p = config.p_initial
        self._silent_periods = 0
        self._last_sample: Optional[tuple] = None  # (hw_time, est_timestamp)
        #: Pending offset to slew out, as an extra slope over one BP.
        self._slew_slope = 0.0
        self._slew_until_hw = -np.inf
        self.beacons_sent = 0
        self.beacons_received = 0

    def controlled_clock(self, hw_time: float) -> float:
        """The station's controlled clock at hardware time ``hw_time``."""
        base = self.s * hw_time + self.off
        if hw_time < self._slew_until_hw:
            base += self._slew_slope * (hw_time - (self._slew_until_hw - self.config.beacon_period_us))
        else:
            base += self._slew_slope * self.config.beacon_period_us
        return base

    def begin_period(self, period: int) -> Optional[TxIntent]:
        if self._silent_periods < self.config.t_delay:
            return None
        if self._rng.random() >= self.p:
            return None
        slot = int(self._rng.integers(0, self.config.w + 1))
        local = period * self.config.beacon_period_us + slot * self.config.slot_time_us
        return TxIntent(local_time=local, clock=ClockKind.ADJUSTED)

    def make_frame(self, hw_time: float, period: int) -> BeaconFrame:
        self.beacons_sent += 1
        return BeaconFrame(
            sender=self.node_id,
            timestamp_us=self.controlled_clock(hw_time),
            size_bytes=TSF_BEACON_BYTES,
        )

    def on_beacon(self, frame: BeaconFrame, rx: RxContext) -> None:
        self.beacons_received += 1
        self._silent_periods = 0
        cc_now = self.controlled_clock(rx.hw_time)
        offset = rx.est_timestamp - cc_now
        # Rate learning from a consecutive sample pair.
        if self._last_sample is not None:
            hw_prev, ts_prev = self._last_sample
            d_hw = rx.hw_time - hw_prev
            d_ts = rx.est_timestamp - ts_prev
            if d_hw > 0 and d_ts > 0:
                implied = d_ts / d_hw
                dev = self.config.max_rate_deviation
                implied = min(max(implied, 1.0 - dev), 1.0 + dev)
                # Re-anchor off so cc is continuous at the rate change.
                self.off = cc_now - implied * rx.hw_time
                self.s = implied
        self._last_sample = (rx.hw_time, rx.est_timestamp)
        # Slew the measured offset out over the next BP (no step).
        bp_hw = self.config.beacon_period_us  # ~1 ppm error: negligible
        self._finalize_slew(rx.hw_time)
        self._slew_slope = self.config.offset_gain * offset / bp_hw
        self._slew_until_hw = rx.hw_time + bp_hw
        # Yield contention eagerness to the station we just heard.
        self.p = max(self.config.p_min, self.p * 0.5)

    def _finalize_slew(self, hw_time: float) -> None:
        """Fold any completed (or partial) slew into the base offset."""
        if self._slew_slope == 0.0:
            return
        start = self._slew_until_hw - self.config.beacon_period_us
        elapsed = min(hw_time, self._slew_until_hw) - start
        if elapsed > 0:
            self.off += self._slew_slope * elapsed
        self._slew_slope = 0.0
        self._slew_until_hw = -np.inf

    def end_period(
        self, period: int, heard_beacon: bool, transmitted: bool, tx_success: bool
    ) -> None:
        if not heard_beacon:
            self._silent_periods += 1
            # Silence emboldens: drift back toward the initial eagerness.
            self.p = min(self.config.p_initial, self.p * 1.25)

    def synchronized_time(self, hw_time: float) -> float:
        return self.controlled_clock(hw_time)
