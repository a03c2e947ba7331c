"""Vectorised TSF engine.

Per beacon period, one numpy pass over all stations computes each
contender's scheduled transmission instant on the true-time axis (its own
TBTT plus its backoff draw, through its own skewed timer); the shared
carrier-sense cascade resolves the window exactly as the reference lane
does; the winner's timestamp is then broadcast and the TSF adoption rule
(set timer forward iff the received time is later) applies as one masked
array update.

The cascade with skew-exact times matters: the fastest station's timer
head start is precisely the self-correcting mechanism that bounds TSF
desynchronisation at small N, and growing collision chains are the
pathology that unbounds it at large N (Fig. 1). A slot-quantised
"unique minimum" rule reproduces neither.

Supports the full section 5 scenario: churn and the Fig. 3 channel
attacker (who transmits with a lead and a fast-paced TBTT, so it keeps
the channel for the whole window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.analysis.metrics import SyncTrace
from repro.fastlane.common import VectorLane, resolve_window
from repro.network.ibss import ScenarioSpec
from repro.obs.counters import work_lane
from repro.phy.params import TSF_BEACON_AIRTIME_SLOTS
from repro.protocols.tsf import TsfConfig


@dataclass
class VectorTsfResult:
    """Output of one vectorised TSF run."""

    trace: SyncTrace
    successful_beacons: int
    collisions: int
    events: List[str] = field(default_factory=list)


def run_tsf_vectorized(
    spec: ScenarioSpec, keep_values: bool = False
) -> VectorTsfResult:
    """Run the spec's TSF scenario on the vector engine.

    ``keep_values`` retains the per-node clock matrix in the trace (used
    by the application-layer evaluations in :mod:`repro.apps`).
    """
    with work_lane("fastlane/tsf"):
        return _run_tsf_vectorized(spec, keep_values)


def _run_tsf_vectorized(
    spec: ScenarioSpec, keep_values: bool
) -> VectorTsfResult:
    lane = VectorLane(spec, keep_values)
    rates, offsets = lane.clocks.rates, lane.clocks.offsets
    attacker, window = lane.attacker, lane.window

    bp = spec.beacon_period_us
    slot_time = spec.phy.slot_time_us
    w = TsfConfig.w  # the contention window the OO lane's stations use
    airtime = TSF_BEACON_AIRTIME_SLOTS * slot_time
    latency = airtime + spec.phy.propagation_delay_us

    # TSF timer of node i at true time t: rates[i] * t + offsets[i] + adj[i]
    adj = np.zeros(lane.n)
    successes = 0
    collisions = 0

    for period in range(1, spec.periods + 1):
        lane.apply_churn(period)

        attack_active = lane.attack_active(period)
        # Scheduled transmission instants on the true-time axis: the node's
        # timer reads (period * BP + slot * aSlotTime) at
        # (local - adj - offset) / rate.
        local_targets = period * bp + lane.draw_slots(w) * slot_time
        if attack_active:
            boost = (
                min(period, window.end_period - 1) - window.start_period
            ) * spec.attacker.pace_boost_us_per_period
            lead = spec.attacker.lead_slots * slot_time
            local_targets[attacker] = period * bp - boost - lead
        tx_times = (local_targets - adj - offsets) / rates

        ids = lane.present_ids
        # With every station present the gather would copy tx_times as is.
        times = tx_times if ids.size == lane.n else tx_times[ids]
        winner, tx_start, n_coll = resolve_window(
            ids, times, airtime, spec.phy.cca_us
        )
        collisions += n_coll

        if winner is not None:
            successes += 1
            timestamp = float(
                np.floor(rates[winner] * tx_start + offsets[winner] + adj[winner])
            )
            if attack_active and winner == attacker:
                timestamp -= spec.attacker.error_offset_us
            timers = lane.hw_at(tx_start + latency) + adj
            est = timestamp + latency + lane.jitter()
            adopt = lane.loss_mask(winner) & (est > timers)
            adj[adopt] += est[adopt] - timers[adopt]

        sample_time = (period + 0.9) * bp  # the nominal grid
        lane.sample(sample_time, lane.hw_at(sample_time) + adj)

    return VectorTsfResult(
        trace=lane.recorder.finalize(),
        successful_beacons=successes,
        collisions=collisions,
        events=lane.events,
    )
