"""SSTSP configuration.

Defaults reproduce the paper's section 5 simulation setup; every knob the
paper discusses (``m``, ``l``, guard times, the hash-chain start ``T_0``)
is explicit here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phy.params import SSTSP_BEACON_AIRTIME_SLOTS
from repro.sim.units import S

#: Default :attr:`SstspConfig.reference_pace_clamp`; the multi-hop root
#: takeover (:meth:`~repro.protocols.multihop_base.MultiHopProtocol.
#: on_elected_root`) clamps with the same bound.
REFERENCE_PACE_CLAMP = 3e-4


@dataclass(frozen=True)
class SstspConfig:
    """All SSTSP protocol parameters.

    Attributes
    ----------
    beacon_period_us:
        ``BP``; the paper uses 0.1 s.
    w:
        Beacon generation window parameter (``w + 1`` slots); used only
        during reference elections.
    slot_time_us:
        ``aSlotTime``.
    l:
        A node contends to become reference after ``l`` consecutive BPs
        without hearing a beacon (paper section 3.3; section 5 uses 1).
        Larger ``l`` tolerates beacon loss; smaller reacts faster.
    m:
        Aggressiveness of the clock slewing: the adjusted clock aims to
        coincide with the reference at the expected beacon ``j + m``
        (Table 1 sweeps 1..5; 2-3 is the paper's best trade-off, the
        analysis shows ``m = l + 3`` is optimal across reference changes).
    t0_us:
        ``T_0``: start time of the hash-chain interval schedule, published
        network-wide.
    guard_fine_us:
        Guard time ``delta`` of the fine-grained phase: beacons whose
        timestamp differs more than this from the local adjusted clock are
        rejected (replay / delay / forged-internal defence). Sizing rule
        (the paper defers to [7]/[8]): it must exceed the worst *legitimate*
        clock difference a node can see - the maximum initial pairwise
        offset at formation (2 x 112 us in the Table 1 scenario) plus the
        drift accumulated before the first fine adjustment - or unlucky
        nodes go permanently deaf during bootstrap. 500 us is still only
        0.5% of a beacon period.
    guard_coarse_us:
        The looser threshold of the coarse phase's offset filter.
    coarse_min_samples:
        Offset samples a joiner collects before averaging.
    coarse_max_periods:
        BPs after which a joiner averages whatever it has (if at least one
        survivor) rather than scanning forever.
    coarse_use_gesd:
        Run the GESD multi-outlier test after the threshold filter in the
        coarse phase.
    rx_latency_us:
        Known constant reception latency a receiver adds to a beacon
        timestamp (beacon airtime + propagation delay ``t_p``); part of
        the ``ts_ref`` estimate.
    k_clamp:
        Maximum allowed ``|k - 1|`` of the adjusted-clock slope. A solution
        outside this range indicates corrupt samples and is skipped. Note
        the clamp must stay well above the oscillator tolerance (1e-4):
        legitimate slewing transiently needs slopes around
        ``offset / (m * BP)`` to close an offset gap, so a tight clamp
        would freeze re-convergence after a reference change.
    max_sample_age_periods:
        An authenticated sample pair older than this (relative to the
        current interval) is considered stale and not used for adjustment.
    max_pair_gap_periods:
        Maximum interval gap between the two samples of a rate-estimation
        pair.
    reference_pace_clamp:
        When a node assumes the reference role its adjusted clock stops
        chasing anyone - it *is* the timebase - so a transient slewing
        slope must not be frozen in: the slope is clamped to
        ``1 +- reference_pace_clamp`` (continuously) on its first beacon.
        A converged clock's slope is within ~2e-4 of 1 (own oscillator
        tolerance + learned network pace), so 3e-4 never disturbs a
        healthy node but stops a node elected mid-slew from dragging the
        whole network at its transient rate.
    recovery_rejection_threshold:
        Optional extension implementing the paper's proposed future-work
        recovery ("restarting the synchronization procedure", section
        3.4): after this many *consecutive* guard-rejected beacons a node
        concludes its clock has diverged beyond repair (e.g. after a
        jamming-grade channel-suppression attack) and re-enters the coarse
        phase. ``None`` (the default) reproduces the paper faithfully:
        erroneous beacons are simply discarded.
    coarse_min_survivors:
        Recovery hardening (opt-in): minimum offsets that must survive
        the coarse phase's outlier filter for the batch to be usable;
        fewer survivors drop the batch and re-scan instead of averaging a
        possibly-biased remnant. The default 1 is the paper's behaviour
        (any survivor is averaged).
    coarse_silence_watchdog_periods:
        Recovery hardening (opt-in): a coarse-phase node that has scanned
        this many *consecutive* beacon-less periods concludes the network
        is silent (every reference candidate crashed or is unreachable)
        and enters the election instead of scanning forever. Without it a
        network whose members are all in the coarse phase is deadlocked:
        coarse nodes never transmit, so nobody ever hears anything.
        ``None`` (the default) reproduces the paper, which never reaches
        total silence.
    free_run_clamp_after:
        Recovery hardening (opt-in): after this many consecutive silent
        periods a node clamps its adjusted-clock slope to a
        hardware-plausible free-run pace (``1 +- reference_pace_clamp``,
        continuously - no leap), so an interrupted mid-slew transient is
        not extrapolated for the whole outage. ``None`` (default) keeps
        the paper's behaviour: the last learned segment free-runs as-is.
    election_backoff_cap:
        Recovery hardening: on consecutive *failed* election rounds (the
        node contended, nobody won, nothing was heard) the contention
        window doubles up to ``w * election_backoff_cap`` slots, reducing
        repeat-collision livelock when many stations contend after a mass
        failure; the cap bounds the added election latency. The default 1
        keeps the paper's fixed ``w``-slot window.
    """

    beacon_period_us: float = 0.1 * S
    w: int = 30
    slot_time_us: float = 9.0
    l: int = 1
    m: int = 2
    t0_us: float = 0.0
    guard_fine_us: float = 500.0
    guard_coarse_us: float = 2_500.0
    coarse_min_samples: int = 3
    coarse_max_periods: int = 10
    coarse_use_gesd: bool = False
    rx_latency_us: float = SSTSP_BEACON_AIRTIME_SLOTS * 9.0 + 1.0
    k_clamp: float = 5e-3
    max_sample_age_periods: int = 3
    max_pair_gap_periods: int = 5
    reference_pace_clamp: float = REFERENCE_PACE_CLAMP
    recovery_rejection_threshold: "int | None" = None
    coarse_min_survivors: int = 1
    coarse_silence_watchdog_periods: "int | None" = None
    free_run_clamp_after: "int | None" = None
    election_backoff_cap: int = 1

    def __post_init__(self) -> None:
        if self.beacon_period_us <= 0:
            raise ValueError("beacon_period_us must be > 0")
        if self.w < 0:
            raise ValueError("w must be >= 0")
        if self.slot_time_us <= 0:
            raise ValueError("slot_time_us must be > 0")
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.guard_fine_us <= 0 or self.guard_coarse_us <= 0:
            raise ValueError("guard times must be > 0")
        if self.guard_fine_us > self.guard_coarse_us:
            raise ValueError(
                "the fine-phase guard must be tighter than the coarse one "
                "(paper section 3.3)"
            )
        if self.coarse_min_samples < 1:
            raise ValueError("coarse_min_samples must be >= 1")
        if not 0 < self.k_clamp < 1:
            raise ValueError("k_clamp must be in (0, 1)")
        if (
            self.recovery_rejection_threshold is not None
            and self.recovery_rejection_threshold < 1
        ):
            raise ValueError("recovery_rejection_threshold must be >= 1 or None")
        if not 0 < self.reference_pace_clamp <= self.k_clamp:
            raise ValueError(
                "reference_pace_clamp must be in (0, k_clamp]"
            )
        if self.coarse_min_survivors < 1:
            raise ValueError("coarse_min_survivors must be >= 1")
        if (
            self.coarse_silence_watchdog_periods is not None
            and self.coarse_silence_watchdog_periods < 1
        ):
            raise ValueError(
                "coarse_silence_watchdog_periods must be >= 1 or None"
            )
        if self.free_run_clamp_after is not None and self.free_run_clamp_after < 1:
            raise ValueError("free_run_clamp_after must be >= 1 or None")
        if self.election_backoff_cap < 1:
            raise ValueError("election_backoff_cap must be >= 1")

    @classmethod
    def hardened(cls, **overrides) -> "SstspConfig":
        """A configuration with every recovery-hardening knob enabled.

        The paper-faithful defaults discard erroneous beacons and rely on
        the operator to notice a wedged node; this profile turns on the
        liveness watchdogs and bounded backoff the chaos soak harness
        exercises: guard-rejection recovery, coarse-silence election,
        free-run pace clamping, coarse-survivor retry and capped election
        backoff. Keyword ``overrides`` replace any default or hardened
        value.
        """
        values = dict(
            recovery_rejection_threshold=8,
            coarse_silence_watchdog_periods=25,
            free_run_clamp_after=3,
            coarse_min_survivors=2,
            election_backoff_cap=4,
        )
        values.update(overrides)
        return cls(**values)

    @property
    def optimal_m(self) -> int:
        """``m = l + 3``: the value Lemma 2 identifies as optimal for
        reference changes."""
        return self.l + 3
