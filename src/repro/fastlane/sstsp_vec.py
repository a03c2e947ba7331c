"""Vectorised SSTSP engine.

The reference node is a scalar; *receiver* state is arrays: the active
adjusted-clock segment ``(k, b)``, the sample history (the pending,
unauthenticated sample and the two newest authenticated ones, stacked in
one array so a release moves them all in one masked copy), silence
counters, and the coarse re-acquisition accumulators for returning
nodes. One beacon period is a handful of fused numpy expressions over
all nodes.

Crypto decisions are the modeled backend's logic inlined: honest and
insider beacons carry genuine chain material (accepted), the interval
safety check and guard time are evaluated per receiver, and delayed
authentication is the one-period sample promotion (with the lost-beacon
key-derivation rule: any pending interval older than the current beacon
releases).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.analysis.metrics import SyncTrace
from repro.core.adjustment import segment_through, target_hw_time
from repro.core.config import SstspConfig
from repro.fastlane.common import VectorLane, resolve_window
from repro.network.ibss import ScenarioSpec
from repro.obs.counters import work_lane


@dataclass
class VectorSstspResult:
    """Output of one vectorised SSTSP run."""

    trace: SyncTrace
    successful_beacons: int
    reference_changes: int
    recoveries: int = 0
    events: List[str] = field(default_factory=list)


class _VectorSstsp:
    def __init__(
        self,
        spec: ScenarioSpec,
        config: Optional[SstspConfig],
        keep_values: bool = False,
    ) -> None:
        self.spec = spec
        self.lane = lane = VectorLane(spec, keep_values)
        n = lane.n
        self.rates, self.offsets = lane.clocks.rates, lane.clocks.offsets
        self.attacker_idx = lane.attacker
        self.window = lane.window
        if config is None:
            config = spec.sstsp_config()
        self.config = config

        # Adjusted clocks: c_i(hw) = k_i * hw + b_i.
        self.k = np.ones(n)
        self.b = np.zeros(n)
        # Sample history, three rows (interval j, hardware time t at
        # reception, timestamp estimate ts) per sample: the pending
        # (unauthenticated) one, then the two newest authenticated ones.
        # An interval is a whole number of periods (exact in float64);
        # -1 marks no sample.
        self.hist = np.zeros((9, n))
        self.hist[::3] = -1.0
        self.pend_j = self.hist[0]
        self.j1, self.t1, self.ts1 = self.hist[3:6]
        self.j2, self.t2, self.ts2 = self.hist[6:9]
        # The pending sample of this beacon: (period, hw, est) rows.
        self._observed = np.empty((3, n))
        self.silent = np.full(n, config.l, dtype=np.int64)
        self.last_ref = np.full(n, -1, dtype=np.int64)
        # Coarse re-acquisition (returning nodes / recovery extension).
        self.in_coarse = np.zeros(n, dtype=bool)
        self.coarse_sum = np.zeros(n)
        self.coarse_cnt = np.zeros(n, dtype=np.int64)
        self.consecutive_rejections = np.zeros(n, dtype=np.int64)
        self.recoveries = 0
        self._coarse_changed()

        self.ref: Optional[int] = None
        self.reference_changes = 0
        self.successes = 0
        self._last_beacon_true = 0.0

    # -- churn hooks ----------------------------------------------------

    def _churn_reference(self) -> int:
        """Reference id for REFERENCE_MARKER churn: none once it has left,
        and the attacker is not a legitimate station the scenario can
        remove."""
        ref = self.ref
        if ref is None or ref == self.attacker_idx or not self.lane.present[ref]:
            return -1
        return ref

    def _on_return(self, node: int) -> None:
        self.in_coarse[node] = True
        self.coarse_sum[node] = 0.0
        self.coarse_cnt[node] = 0
        self.hist[::3, node] = -1.0
        self.silent[node] = 0
        self.last_ref[node] = -1
        self._coarse_changed()

    def _coarse_changed(self) -> None:
        """Recompute the masks that change only on churn or a coarse
        transition: :attr:`_synced` (present and not re-acquiring) and
        the sample mask (None while no node is in coarse)."""
        self._any_coarse = bool(self.in_coarse.any())
        if self._any_coarse:
            self._sample_mask: Optional[np.ndarray] = ~self.in_coarse
            self._synced = self.lane.present & self._sample_mask
        else:
            self._sample_mask = None
            self._synced = self.lane.present.copy()

    # -- one period -------------------------------------------------------

    def run(self) -> VectorSstspResult:
        cfg = self.config
        lane = self.lane
        bp = cfg.beacon_period_us
        for period in range(1, self.spec.periods + 1):
            changes = lane.apply_churn(period, self._churn_reference)
            for action, node in changes:
                if action == "return":
                    self._on_return(node)
                elif node == self.ref:
                    self.ref = None
            if changes:
                self._coarse_changed()

            attack_active = lane.attack_active(period)
            winner, timestamp, tx_true = self._transmitter(period, attack_active)
            if winner is not None:
                self.successes += 1
                self._deliver(period, winner, timestamp, tx_true, attack_active)
                self._last_beacon_true = tx_true
            else:
                self.silent += self._synced
                self._last_beacon_true += bp

            # Sample at a fixed phase relative to the *beacon* grid, not the
            # nominal grid: the reference's emission instants drift against
            # nominal at its pace error (~1e-4), so nominal-grid sampling
            # would sweep from 0.9 to 1.9 BP after the last correction over
            # a long run - an artifact, not a protocol property.
            sample_time = self._last_beacon_true + 0.9 * bp
            values = self.k * lane.hw_at(sample_time) + self.b
            if attack_active:
                # the attacker's public clock is its claimed (shaved) one;
                # it is excluded from metrics anyway
                values[self.attacker_idx] -= self._shave_total(period)
            # re-acquiring (coarse) nodes are not yet synchronized members
            lane.sample(
                sample_time,
                values,
                self._sample_mask,
                self.ref if self.ref is not None else -1,
            )
        return VectorSstspResult(
            trace=lane.recorder.finalize(),
            successful_beacons=self.successes,
            reference_changes=self.reference_changes,
            recoveries=self.recoveries,
            events=lane.events,
        )

    # -- helpers ----------------------------------------------------------

    def _shave_total(self, period: int) -> float:
        window = self.window
        if window is None or period < window.start_period:
            return 0.0
        last = min(period, window.end_period - 1)
        return (last - window.start_period) * self.spec.attacker.shave_per_period_us

    def _transmitter(self, period: int, attack_active: bool):
        """Pick this period's transmitter; returns (node, timestamp, tx_true)."""
        cfg = self.config
        nominal = cfg.t0_us + period * cfg.beacon_period_us
        if (
            self.window is not None
            and period == self.window.end_period
            and self.attacker_idx is not None
        ):
            # at window close the attacker rejoins as a listener (coarse
            # re-acquisition): correct whether or not the attack held
            self._on_return(self.attacker_idx)
            if self.ref == self.attacker_idx:
                self.ref = None
        # Candidates: the reference (no delay) plus any synchronized node
        # whose silence counter expired (election) - plus, while attacking,
        # the insider with its lead. All resolved by the shared carrier-
        # sense cascade on skew-exact times: at large N that skew is what
        # lets an election conclude, and it is also what lets honest nodes
        # retake the channel from an attacker whose claimed timeline has
        # receded after guard rejections.
        present = self.lane.present
        contenders = self._synced & (self.silent >= cfg.l)
        if self.ref is not None:
            contenders[self.ref] = False
        local = nominal + self.lane.draw_slots(cfg.w) * cfg.slot_time_us
        if self.ref is not None and present[self.ref]:
            contenders[self.ref] = True
            local[self.ref] = nominal
        if attack_active and present[self.attacker_idx]:
            attacker = self.attacker_idx
            lead = self.spec.attacker.lead_slots * cfg.slot_time_us
            contenders[attacker] = True
            # scheduled on the *claimed* (shaved) timeline
            local[attacker] = nominal - lead + self._shave_total(period)
        ids = contenders.nonzero()[0]  # np.flatnonzero, less its ravel
        if ids.size == 0:
            return None, 0.0, 0.0
        hw_targets = (local[ids] - self.b[ids]) / self.k[ids]
        tx_times = (hw_targets - self.offsets[ids]) / self.rates[ids]
        airtime = cfg.rx_latency_us  # airtime + t_p; close enough for busy time
        winner, tx_start, _n_coll = resolve_window(
            ids, tx_times, airtime, self.spec.phy.cca_us
        )
        if winner is None:
            return None, 0.0, 0.0
        hw_tx = self.rates[winner] * tx_start + self.offsets[winner]
        if winner != self.ref:
            self.ref = winner
            self.reference_changes += 1
            # A new reference free-runs at a hardware-plausible pace: clamp
            # away any transient slewing slope (continuously at hw_tx).
            clamp = cfg.reference_pace_clamp
            k_old = float(self.k[winner])
            k_new = min(max(k_old, 1.0 - clamp), 1.0 + clamp)
            if k_new != k_old:
                c_now = k_old * hw_tx + self.b[winner]
                self.k[winner] = k_new
                self.b[winner] = c_now - k_new * hw_tx
        # timestamp: the winner's adjusted clock at its actual tx start
        # (for the attacking insider: its claimed, shaved clock)
        timestamp = float(self.k[winner] * hw_tx + self.b[winner])
        if attack_active and winner == self.attacker_idx:
            timestamp -= self._shave_total(period)
        return winner, timestamp, tx_start

    def _deliver(
        self,
        period: int,
        winner: int,
        timestamp: float,
        tx_true: float,
        attack_active: bool = False,
    ) -> None:
        # Runs once per beacon on n-element arrays: masked copies use
        # np.putmask/np.copyto and mask tests np.count_nonzero, the
        # cheapest numpy forms of each at n in the hundreds.
        cfg = self.config
        latency = cfg.rx_latency_us
        observed = self._observed
        observed[0] = period
        hw = self.lane.hw_at(tx_true + latency, out=observed[1])
        local = self.k * hw + self.b

        delivered = self.lane.loss_mask(winner)
        est = np.add(self.lane.jitter(), timestamp + latency, out=observed[2])

        # uTESLA interval safety check on each receiver's adjusted clock.
        interval_ok = np.rint((local - cfg.t0_us) / cfg.beacon_period_us) == period
        guard_ok = np.abs(est - local) <= cfg.guard_fine_us

        # Coarse re-acquisition: returning nodes average raw offsets.
        heard = delivered & interval_ok
        if self._any_coarse:
            coarse_rx = delivered & self.in_coarse
            if np.count_nonzero(coarse_rx):
                offsets = est - local
                self.coarse_sum[coarse_rx] += offsets[coarse_rx]
                self.coarse_cnt[coarse_rx] += 1
                done = coarse_rx & (self.coarse_cnt >= cfg.coarse_min_samples)
                if done.any():
                    self.b[done] += self.coarse_sum[done] / self.coarse_cnt[done]
                    self.in_coarse[done] = False
                    self.silent[done] = 0
                    self._coarse_changed()
                    local = self.k * hw + self.b  # the (k, b) update reads it
            heard &= self._synced  # delivered is within present already

        valid = heard & guard_ok
        if attack_active and self.attacker_idx is not None:
            valid[self.attacker_idx] = False  # attacker ignores beacons
        # Optional recovery extension: persistent guard rejections send a
        # node back to the coarse phase (see SstspConfig).
        threshold = cfg.recovery_rejection_threshold
        if threshold is not None:
            rejected = heard & ~guard_ok
            self.consecutive_rejections[rejected] += 1
            self.consecutive_rejections[valid] = 0
            recover = rejected & (self.consecutive_rejections >= threshold)
            if recover.any():
                self.recoveries += int(recover.sum())
                self.consecutive_rejections[recover] = 0
                for node in np.flatnonzero(recover):
                    self._on_return(int(node))  # same reset as a re-joiner
        np.putmask(self.silent, valid, 0)
        missed = self._synced & ~valid
        missed[winner] = False  # the transmitter does not count itself silent
        self.silent += missed

        hist = self.hist
        # Reference change: discard samples learned from the old reference.
        changed = valid & (self.last_ref != winner)
        if np.count_nonzero(changed):
            np.copyto(hist[::3], -1.0, where=changed)
            self.last_ref[changed] = winner

        # Delayed authentication: any pending interval < current releases,
        # each sample moving one place down the history.
        release = valid & (self.pend_j >= 0) & (self.pend_j < period)
        if np.count_nonzero(release):
            np.copyto(hist[3:], hist[:6], where=release)
        np.copyto(hist[:3], observed, where=valid)

        # The (k, b) update of equations (2)-(5), element-wise through
        # core.adjustment's helpers; ``local`` is the continuity value.
        can_adjust = (
            valid
            & (self.j1 >= 0)
            & (self.j2 >= 0)
            & (period - self.j1 <= cfg.max_sample_age_periods)
            & (self.j1 - self.j2 <= cfg.max_pair_gap_periods)
        )
        can_adjust[winner] = False
        if not np.count_nonzero(can_adjust):
            return
        d_ts = self.ts1 - self.ts2
        d_hw = self.t1 - self.t2
        with np.errstate(divide="ignore", invalid="ignore"):
            target = cfg.t0_us + (period + cfg.m) * cfg.beacon_period_us + latency
            t_target = target_hw_time(self.t1, self.ts1, d_hw, d_ts, target)
            k_new, b_new = segment_through(local, hw, t_target, target)
        ok = (
            can_adjust
            & (d_ts > 0)
            & (d_hw > 0)
            & (t_target > hw)
            & (np.abs(k_new - 1.0) <= cfg.k_clamp)
            & np.isfinite(k_new)
        )
        if np.count_nonzero(ok):
            np.putmask(self.k, ok, k_new)
            np.putmask(self.b, ok, b_new)


def run_sstsp_vectorized(
    spec: ScenarioSpec,
    config: Optional[SstspConfig] = None,
    keep_values: bool = False,
) -> VectorSstspResult:
    """Run the spec's SSTSP scenario on the vector engine.

    ``keep_values`` retains the per-node clock matrix in the trace (used
    by the application-layer evaluations in :mod:`repro.apps`).
    """
    with work_lane("fastlane/sstsp"):
        return _VectorSstsp(spec, config, keep_values=keep_values).run()
