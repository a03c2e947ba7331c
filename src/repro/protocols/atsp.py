"""ATSP - Adaptive Timing Synchronization Procedure (Lai & Zhou, AINA 2003).

The paper's reference [4]: TSF's fastest-node asynchronization is
mitigated by letting the station that *believes* it is fastest compete for
beacon transmission every BP while everyone else competes only every
``I_max`` BPs:

* when a station adopts a received timestamp (someone faster exists), it
  sets its contention interval ``I`` to ``I_max``;
* when a station goes ``promote_after`` consecutive BPs without being
  beaten, it concludes it is the fastest and sets ``I = 1``.

``I_max`` trades scalability against stability (paper section 2: it
"should be carefully chosen to reach a compromise").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clocks.oscillator import TsfTimer
from repro.protocols.tsf import GatedTsfProtocol, TsfConfig


@dataclass(frozen=True)
class AtspConfig(TsfConfig):
    """ATSP parameters on top of the TSF ones."""

    #: Contention interval of stations that know a faster station exists.
    i_max: int = 30
    #: Consecutive unbeaten BPs after which a station assumes it is fastest.
    promote_after: int = 30

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.i_max < 1:
            raise ValueError("i_max must be >= 1")
        if self.promote_after < 1:
            raise ValueError("promote_after must be >= 1")


class AtspProtocol(GatedTsfProtocol):
    """One station's ATSP driver."""

    protocol_name = "atsp"

    def __init__(
        self,
        node_id: int,
        timer: TsfTimer,
        config: AtspConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(node_id, timer, config, rng)
        self.config: AtspConfig = config
        self.interval = 1  # everyone starts eager, like TSF
        self.unbeaten_streak = 0
        # Random phase so stations with equal intervals do not sync up.
        self._countdown = int(rng.integers(0, self.interval + 1))

    def current_interval(self) -> int:
        return self.interval

    def end_period(
        self, period: int, heard_beacon: bool, transmitted: bool, tx_success: bool
    ) -> None:
        if self._beaten_this_period:
            # Someone faster exists: back off to the slow contention tier.
            self.interval = self.config.i_max
            self.unbeaten_streak = 0
            self._countdown = max(self._countdown, 1)
        else:
            self.unbeaten_streak += 1
            if self.unbeaten_streak >= self.config.promote_after and self.interval != 1:
                self.interval = 1
                self._countdown = 0
        self._beaten_this_period = False
