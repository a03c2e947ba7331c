"""SSTSP relaying as a multi-hop protocol (the reference scheme).

This is the paper's protocol extended to multi-hop, run for every
station at once as array operations that reproduce the original
per-station relay bit for bit (the refactor-parity fixtures and the
engine pins check it): one root beacons every BP; every synchronized node at
hop ``h`` relays inside the ``h``-th segment of the beacon window (small
random backoff inside the segment, so same-hop relayers decorrelate),
letting the time wave cross the whole diameter within one BP.

Receivers run the unchanged SSTSP pipeline against their best upstream
(lowest hop, then earliest): per-relayer uTESLA material (modeled backend
semantics), the guard time, and the (k, b) slewing of equations (2)-(5) —
with one generalisation: the convergence target extrapolates the
*upstream's* timestamp grid (``ts1 + (j + m - j1) * BP``) instead of the
global ``T^{j+m}`` grid, because a relay's emission instant includes its
hop segment and backoff. For the root's direct children the two coincide.

Trust model (documented limit, inherited from delegating through
relayers): uTESLA authenticates *who relayed*, not that the relayed value
is honest; a compromised relayer can therefore shift its whole subtree —
but only within the guard time per beacon, exactly the paper's insider
bound, now per subtree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Sequence

import numpy as np

from repro.clocks.oscillator import HardwareClock
from repro.core.adjustment import solve_adjustments
from repro.network.ibss import ScenarioSpec, build_network
from repro.obs.events import tracing_enabled
from repro.phy.params import (
    SSTSP_BEACON_AIRTIME_SLOTS,
    SSTSP_BEACON_BYTES,
    PhyParams,
)
from repro.protocols.multihop_base import MultiHopContext
from repro.protocols.multihop_table import GuardRejects, PeriodFrames, RelayTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.network.runner import NetworkRunner
    from repro.phy.channel import WindowDelivery


class SstspRelayTable(RelayTable):
    """The SSTSP relay state of every station: the relay-rotation phases
    and, per station, the two newest authenticated samples (slot 1 the
    newest) plus the pending observation that authenticates next period
    (µTESLA delayed authentication)."""

    protocol_name = "sstsp"
    beacon_bytes = SSTSP_BEACON_BYTES
    beacon_airtime_slots = SSTSP_BEACON_AIRTIME_SLOTS

    def __init__(self, spec: "MultiHopSpec", hws: Sequence[HardwareClock]) -> None:
        super().__init__(spec, hws)
        n = self.n
        self.samples = np.zeros(n, dtype=np.intp)
        self.sample_interval = np.zeros((n, 2), dtype=np.intp)
        self.sample_hw = np.zeros((n, 2))
        self.sample_ts = np.zeros((n, 2))
        self.pending = np.zeros(n, dtype=bool)
        self.pending_interval = np.zeros(n, dtype=np.intp)
        self.pending_hw = np.zeros(n)
        self.pending_est = np.zeros(n)
        # Relay-rotation phases keyed (station, hop, cycle), encoded as
        # ``(station * n + hop) * 5 + cycle``, so a station is re-colored
        # when its hop (and thus its conflict set) changes.
        self._phases: Dict[int, int] = {}

    def detach(self, ids: np.ndarray) -> None:
        super().detach(ids)
        self.samples[ids] = 0
        self.pending[ids] = False

    # ------------------------------------------------------------------
    # Single-hop (complete-graph) counterpart
    # ------------------------------------------------------------------

    @classmethod
    def degenerate_runner(cls, spec: "MultiHopSpec") -> "NetworkRunner":
        """The single-hop SSTSP network of a complete-graph ``spec``.

        On a complete graph every station hears every other, hop distances
        are all 1 and the relay machinery degenerates to the IBSS election;
        the returned runner has the same clocks, channel parameters and
        protocol constants (the per-hop guard collapses to ``guard_fine +
        guard_per_hop`` - one hop).
        """
        scenario = ScenarioSpec(
            n=spec.topology.n,
            seed=spec.seed,
            duration_s=spec.duration_s,
            beacon_period_us=spec.beacon_period_us,
            drift_ppm=spec.drift_ppm,
            initial_offset_us=spec.initial_offset_us,
            phy=PhyParams(
                slot_time_us=spec.slot_time_us,
                propagation_delay_us=spec.propagation_delay_us,
                timestamp_jitter_us=spec.timestamp_jitter_us,
                packet_error_rate=spec.packet_error_rate,
                loss_model=spec.loss_model,
            ),
        )
        config = scenario.sstsp_config(
            l=spec.l,
            m=spec.m,
            guard_fine_us=spec.guard_fine_us + spec.guard_per_hop_us,
            k_clamp=spec.k_clamp,
        )
        return build_network("sstsp", scenario, sstsp_config=config)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def relay_turn(
        self, period: int, relay: np.ndarray, ctx: MultiHopContext
    ) -> np.ndarray:
        """Relay scheduling with deterministic same-hop rotation (the
        shared random thinning instead while ``relay_probability < 1``).

        With every same-hop station relaying every BP, dense neighbourhoods
        collide persistently; with *random* thinning, receivers keep
        flipping upstreams (each flip resets their sample history). A
        deterministic rotation - each station relays every K-th period at
        a fixed (randomly drawn, then frozen) phase - cuts collisions while
        keeping each upstream's beacons periodic, so downstream sample
        pairs stay within the pair-gap limit.

        The rotation counts same-hop stations over the *two-hop*
        neighbourhood: hidden terminals (same-hop stations out of carrier-
        sense range but sharing a receiver) are exactly the pairs that
        carrier sensing cannot separate.
        """
        turn = relay.copy()
        if self.spec.relay_probability < 1.0:
            return turn
        ids = relay.nonzero()[0]
        if not ids.size:
            return turn
        same_hop = ctx.same_hop_counts()[ids]
        rotating = same_hop > 0
        if np.count_nonzero(rotating):
            ids = ids[rotating]
            cycle = np.minimum(4, 1 + same_hop[rotating])
            phase = self._relay_phases(ids, self.hop[ids], cycle, ctx)
            turn[ids] = period % cycle == phase
        return turn

    def _relay_phases(
        self,
        ids: np.ndarray,
        hops: np.ndarray,
        cycles: np.ndarray,
        ctx: MultiHopContext,
    ) -> np.ndarray:
        """Each relay's fixed phase, colouring the ones without one in
        ascending id order (:meth:`_color`)."""
        phases = self._phases
        keys = ((ids * self.n + hops) * 5 + cycles).tolist()
        phase = [phases.get(key, -1) for key in keys]
        for j, key in enumerate(keys):
            if phase[j] < 0:
                phase[j] = self._color(int(ids[j]), int(hops[j]), int(cycles[j]), key, ctx)
        return np.array(phase)

    def _color(
        self, node: int, hop: int, cycle: int, key: int, ctx: MultiHopContext
    ) -> int:
        """Greedy phase coloring over the same-hop/2-hop conflict graph.

        Two hidden same-hop stations with *equal* fixed phases would
        collide forever at their common receivers; purely random per-period
        draws starve dense neighbourhoods instead. Greedily picking the
        phase least used by already-colored conflicting stations keeps
        relaying periodic (downstream sample pairs stay fresh) while
        resolving the permanent-collision cases. Phases are re-colored
        when a station's hop (and thus its conflict set) changes.
        """
        phases = self._phases
        hop_of = self.hop
        used = [0] * cycle
        for other in ctx.topology.two_hop_neighbors(node):
            if hop_of[other] != hop:
                continue
            other_phase = phases.get((other * self.n + hop) * 5 + cycle)
            if other_phase is not None:
                used[other_phase] += 1
        least = min(used)
        candidates = [p for p, count in enumerate(used) if count == least]
        phase = candidates[node % len(candidates)]
        phases[key] = phase
        return phase

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def receive(
        self,
        period: int,
        frames: PeriodFrames,
        delivery: "WindowDelivery",
        ctx: MultiHopContext,
    ) -> np.ndarray:
        """The SSTSP pipeline at every receiver against its chosen
        upstream: first contact aligns; otherwise the guard time (growing
        with the sender's hop) filters, the stickiness rule keeps or
        switches the upstream, last period's pending observation becomes
        an authenticated sample, and two fresh samples re-solve the
        segment (:meth:`_adjust`)."""
        spec = self.spec
        accepted = np.zeros(self.n, dtype=bool)
        rx = self.entries(frames, delivery, ctx.root, accepted)
        rows, chosen = self.choose_upstream(rx.receiver, rx.sender, rx.hop, rx.tx_true)
        hw, est = self.observe(
            rows,
            rx.tx_true[chosen],
            rx.delay_us[chosen],
            frames.timestamp,
            self.jitter(len(rows), ctx),
            ctx.rx_latency_us,
        )
        local = self.seg_k[rows] * hw + self.seg_b[rows]
        new_hop = rx.hop[chosen] + 1
        sender = rx.sender[chosen]
        hop = self.hop[rows]

        # first contact: loose initialisation (the coarse phase of a
        # joiner, collapsed to one sample for founding nodes that are
        # loosely synchronized already)
        first = hop < 0
        if np.count_nonzero(first):
            ids = rows[first]
            self.align(ids, local[first], est[first])
            self.hop[ids] = new_hop[first]
            self.upstream[ids] = sender[first]
            self.silent[ids] = 0
            accepted[ids] = True

        # guard time: replayed/delayed/forged or far drift
        guard = spec.guard_fine_us + spec.guard_per_hop_us * new_hop
        diff = np.abs(est - local)
        rejected = ~first & (diff > guard)
        passed = ~first & ~rejected
        ids = rows[passed]
        silent_before = self.silent[ids]
        self.silent[ids] = 0
        accepted[ids] = True
        new_hop = new_hop[passed]
        sender = sender[passed]
        upstream = self.upstream[ids]
        same = sender == upstream
        switch = ~same & (
            (new_hop < hop[passed])
            | (upstream < 0)
            | (silent_before >= 2 * spec.l)
        )
        if np.count_nonzero(switch):
            moved = ids[switch]
            self.upstream[moved] = sender[switch]
            self.samples[moved] = 0
            self.pending[moved] = False
        # the rest stick with the current upstream
        follow = same | switch
        ids = ids[follow]
        self.hop[ids] = new_hop[follow]
        hw = hw[passed][follow]
        est = est[passed][follow]

        # uTESLA delayed authentication: last period's pending
        # observation from this upstream becomes a sample now
        due = ids[self.pending[ids] & (self.pending_interval[ids] < period)]
        for newest, pending in (
            (self.sample_interval, self.pending_interval),
            (self.sample_hw, self.pending_hw),
            (self.sample_ts, self.pending_est),
        ):
            newest[due, 0] = newest[due, 1]
            newest[due, 1] = pending[due]
        self.samples[due] = np.minimum(self.samples[due] + 1, 2)
        self.pending[ids] = True
        self.pending_interval[ids] = period
        self.pending_hw[ids] = hw
        self.pending_est[ids] = est
        self._adjust(period, ids, hw)

        if tracing_enabled():
            rejects = GuardRejects(
                rows[rejected], local[rejected], diff[rejected], guard[rejected]
            )
            self.trace_receptions(
                period, frames, delivery, ctx.rx_latency_us, rejects
            )
        return accepted

    def _adjust(self, period: int, ids: np.ndarray, hw_now: np.ndarray) -> None:
        """Re-solve equations (2)-(5) from each station's two newest
        samples. Freshness limits are sized to the relay rotation: an
        upstream on a cycle-4 rotation yields samples up to 4 periods
        apart. The convergence target generalises equation (5): it
        extrapolates the upstream's own timestamp grid."""
        spec = self.spec
        ready = self.samples[ids] >= 2
        ids = ids[ready]
        hw_now = hw_now[ready]
        newest = self.sample_interval[ids, 1]
        fresh = ~(
            (period - newest > 6) | (newest - self.sample_interval[ids, 0] > 9)
        )
        ids = ids[fresh]
        hw_now = hw_now[fresh]
        newest = newest[fresh]
        if not ids.size:
            return
        target = self.sample_ts[ids, 1] + (
            period + spec.m - newest
        ) * spec.beacon_period_us
        k, b, ok = solve_adjustments(
            self.seg_k[ids] * hw_now + self.seg_b[ids],
            hw_now,
            self.sample_hw[ids, 1],
            self.sample_ts[ids, 1],
            self.sample_hw[ids, 0],
            self.sample_ts[ids, 0],
            target,
            spec.k_clamp,
        )
        ids = ids[ok]
        adjusted = self.adjust(ids, k[ok], b[ok], hw_now[ok])
        self.adjustments[ids[adjusted]] += 1
