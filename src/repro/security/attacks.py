"""Attacker models (paper sections 4 and 5).

Attackers are protocol drivers: a malicious station runs different
software but lives in the same network, clocks, MAC and channel as
everyone else, so every attack flows through exactly the code paths a
real deployment would expose.

* :class:`TsfChannelAttacker` - the section 5 attacker against TSF:
  transmits a beacon at every BP *without delay* (with a small lead, so it
  deterministically beats the backoff window) carrying an erroneous time
  slower than its clock. TSF stations cancel their own beacons upon
  receiving it, so the fast stations are silenced and the network
  free-runs apart.
* :class:`SstspInsiderAttacker` - the same attacker against SSTSP, as a
  *compromised legitimate node* (it owns a registered hash chain, so
  uTESLA passes): it seizes the reference role and advertises timestamps
  shaved by a per-BP amount "carefully configured to pass the guard time
  check". The network follows the shaved virtual clock but stays
  internally synchronized - the paper's point.
* :class:`ExternalForger` - crafts secure-looking beacons without any
  registered chain; every one is rejected by the uTESLA pipeline.
* :class:`ReplayAttacker` - stores overheard secure beacons and replays
  them ``delay_periods`` later; rejected by the interval safety check.
  Combined with channel jam windows (:func:`schedule_pulse_delay_jam`)
  this realises the pulse-delay attack of [8].
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

import numpy as np

from repro.clocks.adjusted import AdjustedClock
from repro.core.backend import CryptoBackend
from repro.core.config import SstspConfig
from repro.core.sstsp import SstspProtocol, SstspState
from repro.mac.beacon import BeaconFrame, SecureBeaconFrame
from repro.phy.channel import BroadcastChannel
from repro.protocols.base import ClockKind, RxContext, TxIntent
from repro.protocols.tsf import TsfConfig, TsfProtocol
from repro.sim.units import S

_REFERENCE = SstspState.REFERENCE


@dataclass(frozen=True)
class AttackWindow:
    """Half-open period range ``[start_period, end_period)`` the attack is
    active in."""

    start_period: int
    end_period: int

    def __post_init__(self) -> None:
        if self.end_period <= self.start_period:
            raise ValueError("attack window must have end > start")

    def active(self, period: int) -> bool:
        """Whether the attack runs during ``period``."""
        return self.start_period <= period < self.end_period

    @classmethod
    def from_seconds(
        cls, start_s: float, end_s: float, beacon_period_us: float = 0.1 * S
    ) -> "AttackWindow":
        """Window from true-time seconds (the paper attacks 400 s - 600 s)."""
        return cls(
            start_period=int(round(start_s * S / beacon_period_us)),
            end_period=int(round(end_s * S / beacon_period_us)),
        )


class TsfChannelAttacker(TsfProtocol):
    """Section 5 attacker against TSF.

    Outside the window it behaves as an honest TSF station. Inside, it
    transmits at every TBTT with a ``lead_slots`` head start (the paper's
    "without delay"; the lead makes the win deterministic against
    slot-0 draws) and advertises ``timer - error_offset_us``. Receivers
    ignore the value (it is not later than their clocks) but cancel their
    own beacons - which is the damage: the fastest station can no longer
    pull the network forward, so the honest clocks free-run apart for the
    whole attack.

    To *keep* winning (the paper: "the attacker always wins the
    contentions"), the attacker paces its TBTTs ``pace_boost_us_per_period``
    faster than its oscillator - a compromised station can trivially run
    its timer fast. The default boost (30 us/BP = 300 ppm) outruns any
    legitimate +-100 ppm oscillator, so no honest station's window ever
    opens before the attacker transmits.
    """

    protocol_name = "tsf_channel_attacker"

    def __init__(
        self,
        node_id: int,
        timer,
        config: TsfConfig,
        rng: np.random.Generator,
        window: AttackWindow,
        lead_slots: float = 2.0,
        error_offset_us: float = 2_000.0,
        pace_boost_us_per_period: float = 30.0,
    ) -> None:
        super().__init__(node_id, timer, config, rng)
        self.window = window
        self.lead_us = lead_slots * config.slot_time_us
        self.error_offset_us = float(error_offset_us)
        self.pace_boost_us_per_period = float(pace_boost_us_per_period)
        self.attack_beacons = 0

    def _boost_total(self, period: int) -> float:
        if period < self.window.start_period:
            return 0.0
        last = min(period, self.window.end_period - 1)
        return (last - self.window.start_period) * self.pace_boost_us_per_period

    def begin_period(self, period: int) -> Optional[TxIntent]:
        if not self.window.active(period):
            return super().begin_period(period)
        local = (
            period * self.config.beacon_period_us
            - self._boost_total(period)
            - self.lead_us
        )
        return TxIntent(local_time=local, clock=ClockKind.TSF)

    def make_frame(self, hw_time: float, period: int) -> BeaconFrame:
        if not self.window.active(period):
            return super().make_frame(hw_time, period)
        self.attack_beacons += 1
        timestamp = math.floor(self.timer.raw_from_hw(hw_time)) - self.error_offset_us
        return BeaconFrame(sender=self.node_id, timestamp_us=timestamp)

    def on_beacon(self, frame: BeaconFrame, rx: RxContext) -> None:
        if self.window.active(rx.period):
            return  # the attacker does not synchronize while attacking
        super().on_beacon(frame, rx)

    def synchronized_time(self, hw_time: float) -> float:
        # The attacker's public clock is whatever it advertises.
        base = super().synchronized_time(hw_time)
        return base - self.error_offset_us if self._advertising(hw_time) else base

    def _advertising(self, hw_time: float) -> bool:
        period = int(self.timer.raw_from_hw(hw_time) // self.config.beacon_period_us)
        return self.window.active(period)


class SstspInsiderAttacker(SstspProtocol):
    """Compromised legitimate SSTSP node (internal attacker, sections 4-5).

    During the window it claims the reference role outright (transmitting
    with a ``lead_slots`` head start silences the honest reference via the
    cancel rule), and each BP advertises its claimed clock *shaved* by a
    further ``shave_per_period_us`` - tuned by the operator to stay inside
    the receivers' guard time. uTESLA passes (the chain is genuine); the
    guard time is the only line of defence, and it bounds the per-beacon
    damage exactly as section 4 argues.

    When the window closes the attacker simply *rejoins* the network as a
    listener (coarse re-acquisition): if the attack held, the network now
    lives on the dragged virtual timeline and the attacker lands there; if
    an honest station managed to retake the channel, the attacker lands on
    the honest timeline instead of polluting elections with a stale clock.
    """

    protocol_name = "sstsp_insider"

    def __init__(
        self,
        node_id: int,
        config: SstspConfig,
        backend: CryptoBackend,
        rng: np.random.Generator,
        window: AttackWindow,
        shave_per_period_us: float = 40.0,
        lead_slots: float = 5.0,
        founding: bool = True,
        initial_offset_us: float = 0.0,
    ) -> None:
        super().__init__(
            node_id, config, backend, rng,
            founding=founding, initial_offset_us=initial_offset_us,
        )
        self.window = window
        self.shave_per_period_us = float(shave_per_period_us)
        self.lead_us = lead_slots * config.slot_time_us
        self.attack_beacons = 0
        self._rejoined = False

    def _shave_total(self, period: int) -> float:
        """Accumulated shave at ``period``.

        Starts at zero on the first attack beacon - the takeover beacon
        matches the honest timeline (and beats the honest reference on the
        air thanks to the lead), then each subsequent beacon shaves a
        further ``shave_per_period_us``.
        """
        if period < self.window.start_period:
            return 0.0
        last = min(period, self.window.end_period - 1)
        return (last - self.window.start_period) * self.shave_per_period_us

    def begin_period(self, period: int) -> Optional[TxIntent]:
        if not self.window.active(period):
            if period >= self.window.end_period:
                self._rejoin_once(period)
            return super().begin_period(period)
        self.state = _REFERENCE
        self.current_ref = self.node_id
        nominal = self._nominal_time(period)
        return TxIntent(local_time=nominal - self.lead_us, clock=ClockKind.ADJUSTED)

    def make_frame(self, hw_time: float, period: int) -> SecureBeaconFrame:
        if not self.window.active(period):
            return super().make_frame(hw_time, period)
        self.attack_beacons += 1
        claimed = self.clock.read_current(hw_time) - self._shave_total(period)
        return self.backend.make_frame(self.node_id, period, claimed)

    def on_beacon(self, frame, rx: RxContext) -> None:
        if self.window.active(rx.period):
            return  # ignore everyone while attacking
        super().on_beacon(frame, rx)

    def synchronized_time(self, hw_time: float) -> float:
        base = self.clock.read_current(hw_time)
        if self._rejoined:
            return base
        # Publicly the attacker's clock is the claimed (shaved) one.
        period = int(
            (base - self.config.t0_us) // self.config.beacon_period_us
        )
        return base - self._shave_total(period)

    def _rejoin_once(self, period: int) -> None:
        """At window close: re-acquire the network like a returning node."""
        if self._rejoined:
            return
        self._rejoined = True
        self.on_return(period)


class ExternalForger(SstspProtocol):
    """External attacker: no registered chain, forged beacon material.

    Every frame it emits fails the uTESLA pipeline (unknown sender or bad
    key), so it can suppress the channel while active but never influence
    any clock - the property the tests pin down.
    """

    protocol_name = "sstsp_forger"

    FORGED_ID_BASE = 1_000_000

    def __init__(
        self,
        node_id: int,
        config: SstspConfig,
        backend: CryptoBackend,
        rng: np.random.Generator,
        window: AttackWindow,
        impersonate: Optional[int] = None,
        lead_slots: float = 2.0,
        forged_offset_us: float = 50_000.0,
    ) -> None:
        # Note: deliberately NOT registered with the backend.
        super().__init__(node_id, config, backend, rng, founding=True)
        self.window = window
        self.impersonate = impersonate
        self.lead_us = lead_slots * config.slot_time_us
        self.forged_offset_us = float(forged_offset_us)
        self.forged_frames = 0

    def begin_period(self, period: int) -> Optional[TxIntent]:
        if not self.window.active(period):
            return None  # passive outside the window
        nominal = self._nominal_time(period)
        return TxIntent(local_time=nominal - self.lead_us, clock=ClockKind.ADJUSTED)

    def make_frame(self, hw_time: float, period: int) -> SecureBeaconFrame:
        self.forged_frames += 1
        claimed_sender = (
            self.impersonate
            if self.impersonate is not None
            else self.FORGED_ID_BASE + self.node_id
        )
        return SecureBeaconFrame(
            sender=claimed_sender,
            timestamp_us=self.clock.read_current(hw_time) + self.forged_offset_us,
            interval=period,
            mac_tag=b"forged-tag------",
            disclosed_key=b"forged-key------",
        )

    def on_beacon(self, frame, rx: RxContext) -> None:
        # An external attacker cannot forge beacons, but it can *listen*:
        # it tracks network time passively so its injections land before
        # the legitimate reference's TBTT. Being an attacker, it steps its
        # own clock freely (no-leap guarantees protect victims, not it).
        offset = rx.est_timestamp - self.clock.read_current(rx.hw_time)
        self.clock = AdjustedClock(self.clock.k, self.clock.b + offset)

    def end_period(self, period, heard_beacon, transmitted, tx_success) -> None:
        return


class ReplayAttacker(SstspProtocol):
    """Replays overheard secure beacons ``delay_periods`` later.

    The uTESLA interval safety check rejects the stale interval index; the
    guard time independently rejects the stale timestamp. With
    :func:`schedule_pulse_delay_jam` suppressing the original delivery
    first, this is the pulse-delay attack of [8].
    """

    protocol_name = "sstsp_replay"

    def __init__(
        self,
        node_id: int,
        config: SstspConfig,
        backend: CryptoBackend,
        rng: np.random.Generator,
        window: AttackWindow,
        delay_periods: int = 3,
        lead_slots: float = 2.0,
    ) -> None:
        super().__init__(node_id, config, backend, rng, founding=True)
        self.window = window
        self.delay_periods = int(delay_periods)
        self.lead_us = lead_slots * config.slot_time_us
        self._captured: Deque[SecureBeaconFrame] = deque(maxlen=delay_periods + 2)
        self.replayed_frames = 0

    def on_beacon(self, frame, rx: RxContext) -> None:
        if isinstance(frame, SecureBeaconFrame):
            self._captured.append(frame)
        if not self.window.active(rx.period):
            super().on_beacon(frame, rx)

    def begin_period(self, period: int) -> Optional[TxIntent]:
        if not self.window.active(period) or not self._has_stale_frame(period):
            return None if self.window.active(period) else super().begin_period(period)
        nominal = self._nominal_time(period)
        return TxIntent(local_time=nominal - self.lead_us, clock=ClockKind.ADJUSTED)

    def make_frame(self, hw_time: float, period: int) -> SecureBeaconFrame:
        frame = self._stale_frame(period)
        if frame is None:  # nothing captured: fall back to honest frame
            return super().make_frame(hw_time, period)
        self.replayed_frames += 1
        return frame

    def _stale_frame(self, period: int) -> Optional[SecureBeaconFrame]:
        target = period - self.delay_periods
        for frame in self._captured:
            if frame.interval == target:
                return frame
        return None

    def _has_stale_frame(self, period: int) -> bool:
        return self._stale_frame(period) is not None


def schedule_pulse_delay_jam(
    channel: BroadcastChannel,
    window: AttackWindow,
    beacon_period_us: float = 0.1 * S,
    guard_band_us: float = 5_000.0,
) -> None:
    """Jam the legitimate beacon deliveries inside the attack window.

    Adds one jam window per period around each expected beacon emission,
    so the victim misses the genuine beacon and only ever sees the delayed
    replay - the setup of the pulse-delay attack.
    """
    for period in range(window.start_period, window.end_period):
        center = period * beacon_period_us
        channel.add_jam_window(center - guard_band_us, center + guard_band_us)
