"""A station: hardware clock + TSF timer + protocol driver + presence.

The node also owns the conversion from protocol-local scheduling times to
the shared true-time axis, so clock skew shifts real transmission
instants exactly as on hardware.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.clocks.chain import invert_affine_fixed_point
from repro.clocks.oscillator import HardwareClock, TsfTimer
from repro.protocols.base import ClockKind, SyncProtocol, TxIntent


class Node:
    """One IBSS station."""

    __slots__ = ("node_id", "hw", "timer", "protocol", "present", "include_in_metrics")

    def __init__(
        self,
        node_id: int,
        hw: HardwareClock,
        protocol: Optional[SyncProtocol] = None,
    ) -> None:
        self.node_id = node_id
        self.hw = hw
        self.timer = TsfTimer(hw)
        self.protocol = protocol
        self.present = True
        #: Attacker nodes are excluded from the max-clock-difference metric:
        #: the paper's figures plot the synchronization of the victim
        #: network, and an attacker's advertised clock is not a
        #: synchronized clock.
        self.include_in_metrics = True

    def scheduled_true_time(self, intent: TxIntent) -> float:
        """True time at which the intent's local scheduled time occurs.

        TSF times invert exactly through the timer; adjusted times invert
        the protocol's synchronized clock by fixed-point iteration (the
        clock's slope is within ~1e-3 of 1, so convergence takes 2-3
        steps).
        """
        if intent.clock is ClockKind.TSF:
            return self.timer.true_time_when(intent.local_time)
        if intent.clock is ClockKind.HARDWARE:
            return self.hw.true_time_at(intent.local_time)
        # ClockKind.ADJUSTED: find hw with synchronized_time(hw) == local.
        try:
            hw_guess = invert_affine_fixed_point(
                self.protocol.synchronized_time, intent.local_time
            )
        except ArithmeticError as exc:  # pragma: no cover - pathological slope
            raise ArithmeticError(
                f"clock inversion did not converge for node {self.node_id}"
            ) from exc
        true_time = self.hw.true_time_at(hw_guess)
        if math.isnan(true_time) or math.isinf(true_time):
            raise ArithmeticError(f"invalid scheduled time for node {self.node_id}")
        return true_time

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "present" if self.present else "away"
        return f"Node(id={self.node_id}, {state}, {self.protocol!r})"
