"""TATSP - Tiered ATSP (Lai & Zhou, AINA 2003; paper reference [4]).

The improved ATSP variant the paper summarises: stations are dynamically
classified into three tiers by clock speed. Tier-1 stations (believed
fastest) compete every BP, tier-2 "once in a while", tier-3 "rarely".
Classification is driven by how often a station is beaten (adopts a
received, later timestamp) within a sliding window: never beaten -> tier 1,
occasionally -> tier 2, often -> tier 3.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.clocks.oscillator import TsfTimer
from repro.protocols.tsf import GatedTsfProtocol, TsfConfig


@dataclass(frozen=True)
class TatspConfig(TsfConfig):
    """TATSP parameters on top of the TSF ones."""

    #: Contention interval of tier-2 stations ("once in a while").
    tier2_interval: int = 10
    #: Contention interval of tier-3 stations ("rarely").
    tier3_interval: int = 50
    #: Sliding window (BPs) over which beat events are counted.
    window: int = 40
    #: Beat count (within the window) above which a station is tier 3.
    tier3_beats: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.tier2_interval <= self.tier3_interval:
            raise ValueError("need 1 <= tier2_interval <= tier3_interval")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.tier3_beats < 1:
            raise ValueError("tier3_beats must be >= 1")


class TatspProtocol(GatedTsfProtocol):
    """One station's TATSP driver."""

    protocol_name = "tatsp"

    def __init__(
        self,
        node_id: int,
        timer: TsfTimer,
        config: TatspConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(node_id, timer, config, rng)
        self.config: TatspConfig = config
        self.tier = 1  # optimistic start, like ATSP's I = 1
        self._beat_history: deque = deque(maxlen=config.window)

    def current_interval(self) -> int:
        """Contention interval implied by the current tier."""
        if self.tier == 1:
            return 1
        if self.tier == 2:
            return self.config.tier2_interval
        return self.config.tier3_interval

    def end_period(
        self, period: int, heard_beacon: bool, transmitted: bool, tx_success: bool
    ) -> None:
        self._beat_history.append(1 if self._beaten_this_period else 0)
        self._beaten_this_period = False
        beats = sum(self._beat_history)
        full_window = len(self._beat_history) == self.config.window
        if beats == 0 and full_window:
            new_tier = 1
        elif beats > self.config.tier3_beats:
            new_tier = 3
        elif beats > 0:
            new_tier = 2
        else:
            new_tier = self.tier  # window not yet representative
        if new_tier != self.tier:
            self.tier = new_tier
            self._countdown = min(self._countdown, self.current_interval() - 1)
