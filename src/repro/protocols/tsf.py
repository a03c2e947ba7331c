"""IEEE 802.11 ad-hoc-mode TSF (the baseline the paper attacks and beats).

Per ANSI/IEEE Std 802.11-1999, clause 11.1.2.2 (and section 2 of the
paper): every station competes to send a beacon each beacon period. At its
TBTT it draws a random delay uniform in ``[0, w] x aSlotTime``, transmits
when the delay expires unless it received a beacon first, and - on
receiving a beacon - sets its TSF timer to the beacon timestamp *if the
timestamp is later* than its own timer.

The two scalability pathologies the paper reproduces follow directly:

* *fastest-node asynchronization* - the fastest clock only synchronizes
  others when it wins the contention (probability ~1/N), so it drifts
  ahead between wins;
* *beacon collision* - the more stations contend, the more windows end in
  collisions with no beacon at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.clocks.oscillator import TsfTimer
from repro.mac.beacon import BeaconFrame
from repro.phy.params import TSF_BEACON_BYTES
from repro.protocols.base import ClockKind, RxContext, SyncProtocol, TxIntent
from repro.sim.units import S


@dataclass(frozen=True)
class TsfConfig:
    """TSF parameters (paper section 5 values as defaults)."""

    beacon_period_us: float = 0.1 * S
    w: int = 30
    slot_time_us: float = 9.0

    def __post_init__(self) -> None:
        if self.beacon_period_us <= 0:
            raise ValueError("beacon_period_us must be > 0")
        if self.w < 0:
            raise ValueError("w must be >= 0")
        if self.slot_time_us <= 0:
            raise ValueError("slot_time_us must be > 0")


class TsfProtocol(SyncProtocol):
    """One station's TSF driver.

    Parameters
    ----------
    node_id:
        Station identity (stamped into beacons).
    timer:
        The station's settable TSF timer.
    config:
        Protocol parameters.
    rng:
        Stream for this station's backoff draws.
    """

    secure_beacons = False
    protocol_name = "tsf"

    def __init__(
        self,
        node_id: int,
        timer: TsfTimer,
        config: TsfConfig,
        rng: np.random.Generator,
    ) -> None:
        self.node_id = node_id
        self.timer = timer
        self.config = config
        self._rng = rng
        self.beacons_sent = 0
        self.beacons_received = 0
        self.adoptions = 0

    def begin_period(self, period: int) -> Optional[TxIntent]:
        slot = int(self._rng.integers(0, self.config.w + 1))
        local = period * self.config.beacon_period_us + slot * self.config.slot_time_us
        return TxIntent(local_time=local, clock=ClockKind.TSF)

    def make_frame(self, hw_time: float, period: int) -> BeaconFrame:
        # The hardware stamps the timer value (whole microseconds - the
        # counter's resolution) into the frame below the MAC.
        timestamp = math.floor(self.timer.raw_from_hw(hw_time))
        self.beacons_sent += 1
        return BeaconFrame(
            sender=self.node_id,
            timestamp_us=float(timestamp),
            size_bytes=TSF_BEACON_BYTES,
        )

    def on_beacon(self, frame: BeaconFrame, rx: RxContext) -> None:
        self.beacons_received += 1
        # Adopt the received time only if it is later than the local timer.
        if self.timer.set_forward_from_hw(rx.est_timestamp, rx.hw_time):
            self.adoptions += 1

    def synchronized_time(self, hw_time: float) -> float:
        return self.timer.raw_from_hw(hw_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TsfProtocol(node={self.node_id}, sent={self.beacons_sent})"


class GatedTsfProtocol(TsfProtocol):
    """A TSF station that contends only every :meth:`current_interval`
    BPs and notes whether it was beaten (adopted a later received
    timestamp) in the current BP — the machinery ATSP, TATSP and SATSF
    share.

    A subclass sets the initial ``_countdown`` (BPs to sit out before
    its first contention), and its ``end_period`` reads and clears
    ``_beaten_this_period`` to adapt the interval.
    """

    _countdown = 0
    _beaten_this_period = False

    def current_interval(self) -> int:
        """BPs from one contention to the next (1 = every BP)."""
        raise NotImplementedError

    def begin_period(self, period: int) -> Optional[TxIntent]:
        if self._countdown > 0:
            self._countdown -= 1
            return None
        self._countdown = self.current_interval() - 1
        return super().begin_period(period)

    def on_beacon(self, frame: BeaconFrame, rx: RxContext) -> None:
        before = self.adoptions
        super().on_beacon(frame, rx)
        if self.adoptions > before:
            self._beaten_this_period = True
