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

from typing import TYPE_CHECKING, List, Tuple

from repro.clocks.chain import ClockChain
from repro.phy.params import (
    BEACONLESS_BEACON_AIRTIME_SLOTS,
    BEACONLESS_BEACON_BYTES,
)
from repro.protocols.multihop_base import (
    MultiHopContext,
    MultiHopFrame,
    MultiHopProtocol,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec

#: Relays disseminate every other period (the scheme's energy asymmetry).
_DUTY_CYCLE = 2
#: Sliding regression window (samples).
_WINDOW = 8
#: Discard samples older than this many periods (a stale window would
#: drag the fit after an upstream change or long outage).
_MAX_SAMPLE_AGE = 40


class BeaconlessProtocol(MultiHopProtocol):
    """One station's beaconless dissemination driver."""

    protocol_name = "beaconless"
    beacon_bytes = BEACONLESS_BEACON_BYTES
    beacon_airtime_slots = BEACONLESS_BEACON_AIRTIME_SLOTS

    def __init__(
        self, node_id: int, chain: ClockChain, spec: "MultiHopSpec"
    ) -> None:
        super().__init__(node_id, chain, spec)
        #: (period, hw_on_grid, upstream_time) observations.
        self.samples: List[Tuple[int, float, float]] = []

    def _detach(self) -> None:
        super()._detach()
        self.samples.clear()

    def _relays(self, period: int, ctx: MultiHopContext) -> bool:
        """The duty cycle (every other period, staggered by id), thinned
        further by the shared ``relay_probability``."""
        on_duty = (period + self.node_id) % _DUTY_CYCLE == 0
        return on_duty and super()._relays(period, ctx)

    # ------------------------------------------------------------------
    # Reception: windowed least squares over one-way samples
    # ------------------------------------------------------------------

    def on_receptions(
        self, period: int, decoded: List[MultiHopFrame], ctx: MultiHopContext
    ) -> bool:
        chosen = self._choose_upstream(decoded)
        if chosen is None:
            return False  # upstream quiet this period; stay patient
        hw, est = self._observe(chosen, ctx.sample_timestamp_error(), ctx)
        self.silent = 0
        if self.hop is None:
            # first contact: one-shot offset alignment, then regress
            self._align(self.clock.read_current(hw), est)
            self.hop = chosen.hop + 1
            self.upstream = chosen.sender
            return True
        if chosen.sender != self.upstream:
            # one-way scheme: no stickiness ceremony, but the regression
            # window only ever mixes samples from a single upstream
            self.upstream = chosen.sender
            self.samples.clear()
        self.hop = chosen.hop + 1
        self.samples.append((period, hw, est))
        del self.samples[: -_WINDOW]
        while self.samples and period - self.samples[0][0] > _MAX_SAMPLE_AGE:
            self.samples.pop(0)
        self._refit(period, hw)
        return True

    def _refit(self, period: int, hw_now: float) -> None:
        """OLS fit of upstream time over local hardware time; slew the
        adjusted clock onto the fitted line over one beacon period."""
        spec = self.spec
        if len(self.samples) < 2:
            return
        n = len(self.samples)
        mean_hw = sum(s[1] for s in self.samples) / n
        mean_est = sum(s[2] for s in self.samples) / n
        var = sum((s[1] - mean_hw) ** 2 for s in self.samples)
        if var <= 0.0:
            return
        cov = sum(
            (s[1] - mean_hw) * (s[2] - mean_est) for s in self.samples
        )
        k_fit = cov / var
        if abs(k_fit - 1.0) > spec.k_clamp:
            return
        b_fit = mean_est - k_fit * mean_hw
        # Converge onto the fitted line at the *next expected update*
        # (one duty cycle out, stretched by the relay_probability
        # thinning), continuously from now. A shorter horizon would
        # overshoot the line and keep overshooting until the next refit —
        # an oscillation that compounds per hop.
        horizon = _DUTY_CYCLE / spec.relay_probability * spec.beacon_period_us
        current = self.clock.read_current(hw_now)
        target = k_fit * (hw_now + horizon) + b_fit
        # far off the line (fresh join, post-outage) the clamp steps the
        # window limit and later fits finish the approach
        self._slew((target - current) / horizon, hw_now)
