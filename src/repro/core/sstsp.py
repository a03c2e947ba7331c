"""The SSTSP per-node protocol driver (paper section 3.3).

State machine
-------------

::

    COARSE ──(offset applied)──> SYNCED ──(l silent BPs)──> CONTENDING
                                   ^  ^                        │   │
                                   │  └──(heard a beacon)──────┘   │
                                   │                               │
                                   └────(heard a beacon)── REFERENCE
                                            (steps down)      ^
                                                               │
                                    (won contention, heard nothing)

* Founding nodes start SYNCED with their silence counter saturated, so
  the very first BP holds the initial election ("all nodes contend to
  emit the synchronization beacon at the beginning", section 3.1).
* The REFERENCE beacons at ``T^j = T_0 + j * BP`` on its adjusted clock
  with *no random delay*; everyone else disables beacon emission.
* Every received beacon runs the security pipeline: uTESLA interval and
  key checks, guard-time check, and delayed MAC authentication; only
  *authenticated* observations ever become clock-adjustment samples, and
  only beacons that pass all checks count as "hearing the reference".

Recovery hardening (all opt-in through :class:`SstspConfig`, see
``SstspConfig.hardened``): persistent guard rejections restart
synchronization from the coarse phase; a coarse-phase node facing a
*silent* network gives up scanning and enters the election (otherwise an
all-coarse network deadlocks — coarse nodes never transmit); consecutive
failed election rounds widen the contention window with a bounded
exponential backoff; and a node hearing nothing for a configured stretch
clamps its adjusted clock to a free-run pace so mid-slew transients are
not extrapolated across the outage.
"""

from __future__ import annotations

import enum
import logging
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.clocks.adjusted import AdjustedClock, MonotonicityError
from repro.core.adjustment import (
    AdjustmentSample,
    DegenerateSamplesError,
    solve_adjustment,
)
from repro.core.backend import CryptoBackend
from repro.core.coarse import CoarseSynchronizer
from repro.core.config import SstspConfig
from repro.core.guard import GuardPolicy
from repro.mac.beacon import SecureBeaconFrame
from repro.protocols.base import ClockKind, RxContext, SyncProtocol, TxIntent

logger = logging.getLogger(__name__)


class SstspState(enum.Enum):
    """Protocol phase of one node."""

    COARSE = "coarse"
    SYNCED = "synced"
    CONTENDING = "contending"
    REFERENCE = "reference"


# Module-level aliases for the state checks every station makes every
# period: a global read costs a fraction of an enum member lookup.
_COARSE = SstspState.COARSE
_SYNCED = SstspState.SYNCED
_CONTENDING = SstspState.CONTENDING
_REFERENCE = SstspState.REFERENCE


@dataclass
class SstspStats:
    """Per-node protocol counters (tests and analysis read these)."""

    beacons_sent: int = 0
    beacons_received: int = 0
    rejected_pipeline: int = 0
    rejected_guard: int = 0
    adjustments: int = 0
    adjustments_skipped: int = 0
    elections_entered: int = 0
    became_reference: int = 0
    recoveries: int = 0
    coarse_watchdog_trips: int = 0
    free_run_clamps: int = 0
    rejections_by_reason: Dict[str, int] = field(default_factory=dict)


class SstspProtocol(SyncProtocol):
    """One node's SSTSP driver.

    Parameters
    ----------
    node_id:
        Station identity.
    config:
        Protocol parameters.
    backend:
        Shared beacon-protection backend (the node must already be
        registered with it).
    rng:
        Stream for this node's election backoff draws.
    founding:
        True for nodes present at network formation (they are loosely
        synchronized by construction and skip the coarse phase); False for
        later joiners, which start in COARSE.
    initial_offset_us:
        Initial adjusted-clock intercept (founding nodes start with their
        hardware clock: ``c = hw + 0``).
    """

    secure_beacons = True
    protocol_name = "sstsp"

    def __init__(
        self,
        node_id: int,
        config: SstspConfig,
        backend: CryptoBackend,
        rng: np.random.Generator,
        founding: bool = True,
        initial_offset_us: float = 0.0,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.backend = backend
        self._rng = rng
        self.clock = AdjustedClock(1.0, initial_offset_us)
        self.guard = GuardPolicy(config.guard_fine_us, node_id=node_id)
        self.stats = SstspStats()
        self.state = _SYNCED if founding else _COARSE
        self._coarse = None if founding else CoarseSynchronizer(config, node_id=node_id)
        # Saturated silence counter: founding nodes contend immediately.
        self._silent_periods = config.l if founding else 0
        self._valid_beacon_this_period = False
        self._consecutive_guard_rejections = 0
        self._pace_reset_pending = False
        self._last_hw_time: Optional[float] = None
        self._heard_in_coarse = False
        self._coarse_silent_periods = 0
        self._election_rounds = 0
        self.current_ref: Optional[int] = None
        # sender -> authenticated samples, newest last (we keep two).
        self._samples: Dict[int, List[AdjustmentSample]] = defaultdict(list)
        # (sender, interval) -> (hw_time, est_timestamp) of guard-passing
        # receptions awaiting authentication.
        self._pending_rx: Dict[Tuple[int, int], Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # SyncProtocol interface
    # ------------------------------------------------------------------

    def on_period_time(self, period: int, hw_time: float) -> None:
        self._last_hw_time = hw_time

    def begin_period(self, period: int) -> Optional[TxIntent]:
        if self.state is _COARSE:
            return None
        nominal = self._nominal_time(period)
        if self.state is _REFERENCE:
            # The reference beacons at the start of every BP, no delay.
            return TxIntent(local_time=nominal, clock=ClockKind.ADJUSTED)
        if self.state is _SYNCED and self._silent_periods >= self.config.l:
            self.state = _CONTENDING
            self.stats.elections_entered += 1
        if self.state is _CONTENDING:
            slot = int(self._rng.integers(0, self._election_window() + 1))
            return TxIntent(
                local_time=nominal + slot * self.config.slot_time_us,
                clock=ClockKind.ADJUSTED,
            )
        return None

    def _election_window(self) -> int:
        """Contention window in slots: ``w``, doubled per consecutive
        failed election round, capped at ``w * election_backoff_cap``."""
        cfg = self.config
        if cfg.election_backoff_cap <= 1 or self._election_rounds == 0:
            return cfg.w
        rounds = min(self._election_rounds, 16)  # avoid silly exponents
        return min(cfg.w * (2 ** rounds), cfg.w * cfg.election_backoff_cap)

    def make_frame(self, hw_time: float, period: int) -> SecureBeaconFrame:
        if self._pace_reset_pending:
            self._reset_reference_pace(hw_time)
        timestamp = self.clock.read_current(hw_time)
        self.stats.beacons_sent += 1
        return self.backend.make_frame(self.node_id, period, timestamp)

    def on_beacon(self, frame, rx: RxContext) -> None:
        self.stats.beacons_received += 1
        if not isinstance(frame, SecureBeaconFrame):
            return  # a plain TSF beacon carries no authenticator: ignore
        if self.state is _COARSE:
            self._heard_in_coarse = True
            offset = rx.est_timestamp - self.clock.read_current(rx.hw_time)
            self._coarse.add_sample(offset)
            return
        hw_time = rx.hw_time
        # The active segment, read once: nothing below adjusts the clock
        # before _try_adjust.
        _, k, b = self.clock.active
        local_adjusted = k * hw_time + b
        verdict = self.backend.process(self.node_id, frame, local_adjusted)
        if not verdict.accepted:
            self.stats.rejected_pipeline += 1
            reasons = self.stats.rejections_by_reason
            reasons[verdict.reason] = reasons.get(verdict.reason, 0) + 1
            return
        # Guard-time check on the (not yet authenticated) current beacon; a
        # failing beacon is discarded - it will authenticate later but its
        # reception record is never stored, so it can never become a sample.
        if not self.guard.check(rx.est_timestamp, local_adjusted):
            self.stats.rejected_guard += 1
            self._consecutive_guard_rejections += 1
            self._maybe_recover()
            return
        self._consecutive_guard_rejections = 0
        self._valid_beacon_this_period = True
        sender = frame.sender
        interval = frame.interval
        if self.current_ref != sender:
            self._on_reference_changed(sender)
        pending_rx = self._pending_rx
        pending_rx[(sender, interval)] = (hw_time, rx.est_timestamp)
        self._prune_pending(interval)
        # Promote any newly authenticated receptions to samples.
        for released in verdict.authenticated_intervals:
            record = pending_rx.pop((sender, released), None)
            if record is None:
                continue
            samples = self._samples[sender]
            samples.append(AdjustmentSample(released, record[0], record[1]))
            del samples[:-2]
        self._try_adjust(sender, interval, hw_time, k, b)

    def end_period(
        self, period: int, heard_beacon: bool, transmitted: bool, tx_success: bool
    ) -> None:
        if self.state is _COARSE:
            self._coarse.tick_period()
            if self._heard_in_coarse:
                self._coarse_silent_periods = 0
            else:
                self._coarse_silent_periods += 1
                if self._coarse_watchdog_trips(period):
                    return
            self._heard_in_coarse = False
            offset = self._coarse.try_finish()
            if offset is not None:
                # One-time initialisation (documented in repro.core.coarse).
                # The offsets were measured against the *current* segment, so
                # the slope must be preserved: shifting only the intercept
                # moves the whole clock by exactly the measured offset.
                self.clock = AdjustedClock(self.clock.k, self.clock.b + offset)
                self.state = _SYNCED
                self._silent_periods = 0
            return
        heard_valid = self._valid_beacon_this_period
        self._valid_beacon_this_period = False
        if heard_valid:
            self._silent_periods = 0
        else:
            self._silent_periods += 1
            self._maybe_clamp_free_run()
        if self.state is _CONTENDING:
            if tx_success and not heard_valid:
                self.state = _REFERENCE
                logger.info(
                    "node %d became the reference at period %d",
                    self.node_id, period,
                )
                self.stats.became_reference += 1
                self.current_ref = self.node_id
                self._silent_periods = 0
                self._election_rounds = 0
                # The reference is the timebase: a transient slewing slope
                # must not be frozen in (applied on the next beacon, when a
                # hardware timestamp is available).
                self._pace_reset_pending = True
            elif heard_valid:
                self.state = _SYNCED
                self._election_rounds = 0
            else:
                # Contended, nobody won, nothing heard: a failed round -
                # the next draw backs off (bounded) to break livelock.
                self._election_rounds += 1
        elif self.state is _REFERENCE and heard_valid:
            # Another station's beacon passed all checks: it took over
            # (post-collision double win, or a lead-transmitting insider).
            self.state = _SYNCED

    def synchronized_time(self, hw_time: float) -> float:
        return self.clock.read_current(hw_time)

    def is_synchronized(self) -> bool:
        return self.state is not _COARSE

    def on_leave(self, period: int) -> None:
        if self.state is _REFERENCE or self.state is _CONTENDING:
            self.state = _SYNCED
        self._silent_periods = 0
        self._election_rounds = 0

    def on_return(self, period: int) -> None:
        # A returning node is a re-joiner: while away its clock free-ran
        # and may have drifted beyond the fine guard, in which case it
        # could never re-acquire the reference. Per the paper's joining
        # rule it re-enters the coarse phase (scan, filter, average) and
        # only then resumes fine-grained synchronization.
        self._samples.clear()
        self._pending_rx.clear()
        self._silent_periods = 0
        self._election_rounds = 0
        self._coarse_silent_periods = 0
        self._heard_in_coarse = False
        self.current_ref = None
        self.state = _COARSE
        self._coarse = CoarseSynchronizer(self.config, node_id=self.node_id)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def is_reference(self) -> bool:
        """Whether this node currently believes it is the reference."""
        return self.state is _REFERENCE

    def _nominal_time(self, period: int) -> float:
        """``T^j = T_0 + j * BP`` on the synchronized (adjusted) axis."""
        return self.config.t0_us + period * self.config.beacon_period_us

    def _reset_reference_pace(self, hw_time: float) -> None:
        """Clamp the new reference's clock slope to a hardware-plausible
        free-run pace (continuous at ``hw_time``); see
        ``SstspConfig.reference_pace_clamp``."""
        self._pace_reset_pending = False
        self._clamp_pace(hw_time)

    def _clamp_pace(self, hw_time: float) -> bool:
        """Clamp the adjusted-clock slope to ``1 +- reference_pace_clamp``
        continuously at ``hw_time``. Returns True when a new segment was
        installed."""
        clamp = self.config.reference_pace_clamp
        k = self.clock.k
        clamped = min(max(k, 1.0 - clamp), 1.0 + clamp)
        if clamped == k:
            return False
        try:
            self.clock.slew_to(0.0, clamped, at_local_time=hw_time)
        except MonotonicityError:
            # hw_time predates the latest segment (a beacon arrived later
            # in the same period) - skip; the next period retries.
            return False
        return True

    def _maybe_clamp_free_run(self) -> None:
        """Graceful free-run: once silence exceeds the configured stretch,
        stop extrapolating a transient slewing slope and fall back to a
        hardware-plausible pace (continuous - no leap) until a reference
        reappears."""
        after = self.config.free_run_clamp_after
        if (
            after is None
            or self._silent_periods != after
            or self._last_hw_time is None
        ):
            return
        if self._clamp_pace(self._last_hw_time):
            self.stats.free_run_clamps += 1
            logger.info(
                "node %d: no reference for %d periods - clamped to free-run pace",
                self.node_id, after,
            )

    def _coarse_watchdog_trips(self, period: int) -> bool:
        """Coarse-silence watchdog: a scanning node that heard *nothing*
        for the configured stretch stops waiting for a network that is
        not transmitting and enters the election as a founder of last
        resort (its clock is the best timeline it has). Returns True when
        the watchdog fired and the state changed."""
        watchdog = self.config.coarse_silence_watchdog_periods
        if watchdog is None or self._coarse_silent_periods < watchdog:
            return False
        self.stats.coarse_watchdog_trips += 1
        self.stats.elections_entered += 1
        logger.warning(
            "node %d: %d silent periods in the coarse phase - entering "
            "the election at period %d",
            self.node_id, self._coarse_silent_periods, period,
        )
        self._coarse_silent_periods = 0
        self._coarse = CoarseSynchronizer(self.config, node_id=self.node_id)
        self._silent_periods = self.config.l
        self.current_ref = None
        self.state = _CONTENDING
        return True

    def _maybe_recover(self) -> None:
        """The paper's future-work recovery (opt-in, see SstspConfig):
        persistent guard rejections mean this node's clock has diverged
        from the network's timeline beyond repair - restart the
        synchronization procedure from the coarse phase."""
        threshold = self.config.recovery_rejection_threshold
        if threshold is None or self._consecutive_guard_rejections < threshold:
            return
        self.stats.recoveries += 1
        logger.warning(
            "node %d: %d consecutive guard rejections - restarting "
            "synchronization from the coarse phase",
            self.node_id, threshold,
        )
        self._consecutive_guard_rejections = 0
        self._samples.clear()
        self._pending_rx.clear()
        self.current_ref = None
        self._silent_periods = 0
        self._election_rounds = 0
        self._coarse_silent_periods = 0
        self._heard_in_coarse = False
        self.state = _COARSE
        self._coarse = CoarseSynchronizer(self.config, node_id=self.node_id)

    def _on_reference_changed(self, sender: int) -> None:
        self.current_ref = sender
        # Samples from the old reference describe a different clock.
        for other in list(self._samples):
            if other != sender:
                del self._samples[other]

    def _prune_pending(self, current_interval: int) -> None:
        horizon = current_interval - self.config.max_sample_age_periods - 2
        pending = self._pending_rx
        for key in pending:
            if key[1] < horizon:
                break
        else:
            return  # nothing stale, the usual case: allocate nothing
        for key in [key for key in pending if key[1] < horizon]:
            del pending[key]

    def _try_adjust(
        self, sender: int, interval: int, t_now_hw: float, k: float, b: float
    ) -> None:
        """Solve for a new segment from the sender's two newest samples,
        given the active segment ``(k, b)``, and install it."""
        if sender != self.current_ref:
            return
        samples = self._samples.get(sender, ())
        if len(samples) < 2:
            return
        newest, older = samples[-1], samples[-2]
        cfg = self.config
        if interval - newest.interval > cfg.max_sample_age_periods:
            self.stats.adjustments_skipped += 1
            return
        if newest.interval - older.interval > cfg.max_pair_gap_periods:
            self.stats.adjustments_skipped += 1
            return
        # T^{j+m} (see _nominal_time) plus the known reception latency.
        target = (
            cfg.t0_us + (interval + cfg.m) * cfg.beacon_period_us + cfg.rx_latency_us
        )
        try:
            k, b = solve_adjustment(k, b, t_now_hw, newest, older, target)
        except DegenerateSamplesError:
            self.stats.adjustments_skipped += 1
            return
        if abs(k - 1.0) > cfg.k_clamp:
            self.stats.adjustments_skipped += 1
            return
        try:
            self.clock.adjust(k, b, t_now_hw)
        except MonotonicityError:
            self.stats.adjustments_skipped += 1
            return
        self.stats.adjustments += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SstspProtocol(node={self.node_id}, state={self.state.value}, "
            f"ref={self.current_ref})"
        )
