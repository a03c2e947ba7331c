"""SSTSP relaying as a :class:`MultiHopProtocol` (the reference scheme).

This is the paper's protocol extended to multi-hop, verbatim from the
original monolithic ``multihop/runner.py`` (the refactor-parity fixtures
pin bit-identity): one root beacons every BP; every synchronized node at
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

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.clocks.adjusted import MonotonicityError
from repro.clocks.chain import ClockChain
from repro.core.adjustment import (
    AdjustmentSample,
    DegenerateSamplesError,
    solve_adjustment,
)
from repro.network.ibss import ScenarioSpec, build_network
from repro.obs.events import emit
from repro.phy.params import (
    SSTSP_BEACON_AIRTIME_SLOTS,
    SSTSP_BEACON_BYTES,
    PhyParams,
)
from repro.protocols.multihop_base import (
    MultiHopContext,
    MultiHopFrame,
    MultiHopProtocol,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.network.runner import NetworkRunner


class _RotationTable:
    """Relay-rotation phase assignments, shared by a protocol family.

    Keyed ``(node, hop, cycle)`` so a station is re-colored when its hop
    (and thus its conflict set) changes.
    """

    __slots__ = ("phase",)

    def __init__(self) -> None:
        self.phase: Dict[Tuple[int, Optional[int], int], int] = {}


class SstspRelayProtocol(MultiHopProtocol):
    """One station's SSTSP relay driver."""

    protocol_name = "sstsp"
    beacon_bytes = SSTSP_BEACON_BYTES
    beacon_airtime_slots = SSTSP_BEACON_AIRTIME_SLOTS

    def __init__(
        self,
        node_id: int,
        chain: ClockChain,
        spec: "MultiHopSpec",
        rotation: Optional[_RotationTable] = None,
    ) -> None:
        super().__init__(node_id, chain, spec)
        self._rotation = rotation if rotation is not None else _RotationTable()
        self.samples: List[AdjustmentSample] = []
        self.pending: Optional[Tuple[int, float, float]] = None

    @classmethod
    def build(
        cls, spec: "MultiHopSpec", chains: Sequence[ClockChain]
    ) -> List[MultiHopProtocol]:
        rotation = _RotationTable()
        return [cls(i, chain, spec, rotation) for i, chain in enumerate(chains)]

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def _relays(self, period: int, ctx: MultiHopContext) -> bool:
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
        if self.spec.relay_probability < 1.0:
            return super()._relays(period, ctx)
        same_hop = ctx.same_hop_count(self.node_id)
        if same_hop == 0:
            return True
        cycle = min(4, 1 + same_hop)
        return period % cycle == self._relay_phase_for(cycle, ctx)

    def _relay_phase_for(self, cycle: int, ctx: MultiHopContext) -> int:
        """Greedy phase coloring over the same-hop/2-hop conflict graph.

        Two hidden same-hop stations with *equal* fixed phases would
        collide forever at their common receivers; purely random per-period
        draws starve dense neighbourhoods instead. Greedily picking the
        phase least used by already-colored conflicting stations keeps
        relaying periodic (downstream sample pairs stay fresh) while
        resolving the permanent-collision cases. Phases are re-colored
        when a station's hop (and thus its conflict set) changes.
        """
        table = self._rotation.phase
        key = (self.node_id, self.hop, cycle)
        phase = table.get(key)
        if phase is not None:
            return phase
        used = [0] * cycle
        for other in self.spec.topology.two_hop_neighbors(self.node_id):
            other_state = ctx.state_of(other)
            if other_state.hop != self.hop:
                continue
            other_phase = table.get((other, other_state.hop, cycle))
            if other_phase is not None:
                used[other_phase] += 1
        least = min(used)
        candidates = [p for p, count in enumerate(used) if count == least]
        phase = candidates[self.node_id % len(candidates)]
        table[key] = phase
        return phase

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------

    def on_receptions(
        self, period: int, decoded: List[MultiHopFrame], ctx: MultiHopContext
    ) -> bool:
        spec = self.spec
        chosen = self._choose_upstream(decoded)
        if chosen is None:
            return False  # upstream not heard this period; stay patient
        hw, est = self._observe(chosen, ctx.sample_timestamp_error(), ctx)
        local = self.clock.read_current(hw)
        if self.hop is None:
            # first contact: loose initialisation (the coarse phase of
            # a joiner, collapsed to one sample for founding nodes that
            # are loosely synchronized already)
            self._align(local, est)
            self.hop = chosen.hop + 1
            self.upstream = chosen.sender
            self.silent = 0
            return True
        guard = spec.guard_fine_us + spec.guard_per_hop_us * (chosen.hop + 1)
        if abs(est - local) > guard:
            emit(
                "guard_reject",
                t_us=local,
                node=self.node_id,
                diff_us=abs(est - local),
                threshold_us=guard,
            )
            return False  # guard time: replayed/delayed/forged or far drift
        silent_before = self.silent
        self.silent = 0
        better_hop = chosen.hop + 1 < self.hop
        if chosen.sender != self.upstream:
            if (
                better_hop
                or self.upstream is None
                or silent_before >= 2 * spec.l
            ):
                self.upstream = chosen.sender
                self.hop = chosen.hop + 1
                self.samples.clear()
                self.pending = None
            else:
                return True  # stick with the current upstream
        else:
            self.hop = chosen.hop + 1
        # uTESLA delayed authentication: last period's pending
        # observation from this upstream becomes a sample now
        if self.pending is not None and self.pending[0] < period:
            interval, p_hw, p_est = self.pending
            self.samples.append(AdjustmentSample(interval, p_hw, p_est))
            del self.samples[:-2]
        self.pending = (period, hw, est)
        self._try_adjust(period, hw)
        return True

    def _try_adjust(self, period: int, hw_now: float) -> None:
        spec = self.spec
        if len(self.samples) < 2:
            return
        newest, older = self.samples[-1], self.samples[-2]
        # freshness limits sized to the relay rotation: an upstream on a
        # cycle-4 rotation yields samples up to 4 periods apart
        if period - newest.interval > 6 or newest.interval - older.interval > 9:
            return
        # generalised equation (5): extrapolate the upstream's own grid
        target = newest.ref_timestamp + (
            period + spec.m - newest.interval
        ) * spec.beacon_period_us
        try:
            k, b = solve_adjustment(
                self.clock.k, self.clock.b, hw_now, newest, older, target
            )
        except DegenerateSamplesError:
            return
        if abs(k - 1.0) > spec.k_clamp:
            return
        try:
            self.clock.adjust(k, b, hw_now)
        except MonotonicityError:
            return
        self.adjustments += 1

    # ------------------------------------------------------------------
    # Silence
    # ------------------------------------------------------------------

    def _detach(self) -> None:
        super()._detach()
        self.samples.clear()
        self.pending = None

    # ------------------------------------------------------------------
    # Single-hop (complete-graph) counterpart
    # ------------------------------------------------------------------

    @classmethod
    def degenerate_runner(cls, spec: "MultiHopSpec") -> Optional["NetworkRunner"]:
        """The single-hop SSTSP network of a complete-graph ``spec``.

        On a complete graph every station hears every other, hop distances
        are all 1 and the relay machinery degenerates to the IBSS election;
        the returned runner has the same clocks, channel parameters and
        protocol constants (the per-hop guard collapses to ``guard_fine +
        guard_per_hop`` - one hop). The single-hop lane sends 7-slot SSTSP
        beacons, so a spec with any other airtime gets ``None`` and runs
        on the spatial path.
        """
        if spec.airtime_slots != SSTSP_BEACON_AIRTIME_SLOTS:
            return None
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
