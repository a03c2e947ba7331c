"""SATSF (Zhou & Lai, ICPP 2005; the paper's reference [10]).

A TSF-compatible, self-adjusting scheme: station ``i`` competes for beacon
transmission every ``FFT(i)`` BPs, and ``FFT(i)`` is adjusted at the end of
each BP so that fast stations end up competing more frequently than slow
ones (paper section 2's summary). The reconstruction here adjusts
multiplicatively:

* when the station adopts a received timestamp (it is slower than the
  sender) its ``FFT`` doubles, up to ``fft_max`` - it yields the channel;
* when the station goes a full ``FFT`` cycle without being beaten its
  ``FFT`` halves, down to 1 - it gradually claims every BP.

The fixed point is the ATSP/TATSP-like state (fastest station at
``FFT = 1``, rest near ``fft_max``) reached without any explicit
fastest-station detection, which is what made SATSF scalable and
TSF-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clocks.oscillator import TsfTimer
from repro.protocols.tsf import GatedTsfProtocol, TsfConfig


@dataclass(frozen=True)
class SatsfConfig(TsfConfig):
    """SATSF parameters on top of the TSF ones."""

    #: Upper bound on the contention interval FFT(i).
    fft_max: int = 64

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fft_max < 1:
            raise ValueError("fft_max must be >= 1")


class SatsfProtocol(GatedTsfProtocol):
    """One station's SATSF driver."""

    protocol_name = "satsf"

    def __init__(
        self,
        node_id: int,
        timer: TsfTimer,
        config: SatsfConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(node_id, timer, config, rng)
        self.config: SatsfConfig = config
        self.fft = 1
        self._unbeaten_run = 0
        self._countdown = int(rng.integers(0, 2))

    def current_interval(self) -> int:
        return self.fft

    def end_period(
        self, period: int, heard_beacon: bool, transmitted: bool, tx_success: bool
    ) -> None:
        if self._beaten_this_period:
            self.fft = min(self.fft * 2, self.config.fft_max)
            self._unbeaten_run = 0
            self._countdown = max(self._countdown, 1)
        else:
            self._unbeaten_run += 1
            if self._unbeaten_run >= self.fft and self.fft > 1:
                self.fft //= 2
                self._unbeaten_run = 0
                self._countdown = min(self._countdown, self.fft - 1)
        self._beaten_this_period = False
