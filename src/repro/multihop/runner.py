"""The multi-hop harness, as a client of the shared kernel.

This module is protocol-agnostic: it drives any registered
:class:`~repro.protocols.multihop_base.MultiHopProtocol` (selected by
``MultiHopSpec.protocol``) over a spatial radio topology, owning only
kernel concerns:

* **clocks** — every station is a :class:`~repro.network.node.Node`
  holding a :class:`~repro.clocks.oscillator.HardwareClock` plus the
  :class:`~repro.clocks.chain.ClockChain` conversion between true /
  hardware / adjusted time;
* **MAC** — spatial carrier sensing runs through
  :func:`repro.mac.contention.resolve_neighborhood` (partition faults
  restrict each sender's hearing set);
* **PHY** — delivery runs through
  :class:`~repro.phy.channel.SpatialBroadcastChannel`, gaining the
  shared loss models (per-receiver / per-transmission /
  Gilbert-Elliott), jam windows, loss-burst overrides and per-link
  error overrides. Beacon size and airtime come from the *protocol's*
  frame declaration, not from any hardcoded constant;
* **churn** — ``runner.churn`` (seeded from ``MultiHopSpec.churn``,
  reference markers included) applies through the
  :class:`~repro.network.lane.Lane` surface shared with the single-hop
  runner; a departing root orphans the tree;
* **faults** — a :class:`~repro.faults.injector.FaultInjector` attaches
  to that same surface (period hooks, stalls, partitions, crashes,
  clock mutations);
* **metrics** — samples are recorded with the shared
  :class:`~repro.analysis.metrics.TraceRecorder`.

Everything synchronization-specific — who transmits when, what a frame
carries, how receivers filter and apply it, who takes over as root —
lives in the protocol implementation
(:mod:`repro.protocols.multihop_sstsp` is the paper's scheme, moved
verbatim out of this file; ``multihop_beaconless`` and ``multihop_coop``
are the related-work competitors).

If the root leaves, the harness runs the orphan election through the
protocol's takeover hooks; the winner becomes the new root.

A *complete* topology is the degenerate case where the spatial model
adds nothing over the single-hop IBSS; when the protocol declares a
single-hop counterpart (:meth:`MultiHopProtocol.degenerate_runner`),
:meth:`MultiHopRunner.run` delegates to that reference
:class:`~repro.network.runner.NetworkRunner`, so complete-graph
multi-hop specs reproduce the single-hop lane's election and adjustment
decisions exactly (see ``tests/test_differential_parity.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.analysis.metrics import SyncTrace, TraceRecorder
from repro.clocks.adjusted import AdjustedClock
from repro.clocks.chain import ClockChain, adjusted_at_all
from repro.clocks.population import ClockPopulation
from repro.mac.contention import resolve_neighborhood
from repro.multihop.topology import Topology
from repro.network.churn import ChurnSchedule
from repro.network.lane import Lane
from repro.network.node import Node
from repro.network.runner import NetworkRunner
from repro.obs.counters import work_lane
from repro.obs.events import emit, tracing_enabled
from repro.obs.profile import span
from repro.phy.channel import SpatialBroadcastChannel
from repro.phy.params import PhyParams
from repro.protocols.multihop_base import (
    MultiHopContext,
    MultiHopFrame,
    MultiHopProtocol,
    resolve_multihop_protocol,
)
from repro.sim.rng import RngRegistry
from repro.sim.units import S

_LOSS_MODELS = ("per_receiver", "per_transmission", "gilbert_elliott")


@dataclass(frozen=True)
class MultiHopSpec:
    """Scenario description for one multi-hop run."""

    topology: Topology
    seed: int = 1
    duration_s: float = 60.0
    beacon_period_us: float = 0.1 * S
    drift_ppm: float = 100.0
    initial_offset_us: float = 0.0
    root: int = 0
    #: Which registered multi-hop protocol drives the stations (see
    #: :data:`repro.protocols.multihop_base.MULTIHOP_PROTOCOLS`).
    protocol: str = "sstsp"
    #: Beacon-window slots reserved per hop level. Must exceed the beacon
    #: airtime or adjacent hop segments overlap on the air and collide at
    #: every station hearing both hops.
    hop_stride_slots: int = 16
    slot_time_us: float = 9.0
    #: Airtime of one beacon in slots. ``None`` (the default) resolves to
    #: the protocol's own frame declaration (7 slots for secure SSTSP
    #: beacons, smaller for the lighter competitor schemes).
    beacon_airtime_slots: Optional[int] = None
    propagation_delay_us: float = 1.0
    timestamp_jitter_us: float = 2.0
    packet_error_rate: float = 1e-4
    #: Probability a relay-eligible node transmits in a given BP (one
    #: ``slot_rng`` draw per eligible relay, made only when below 1).
    #: Every registered protocol honours it (``MultiHopProtocol._relays``:
    #: ``beaconless`` thins its duty cycle, ``sstsp`` thins instead of
    #: rotating); dense neighbourhoods benefit from thinning (fewer
    #: same-segment collisions).
    relay_probability: float = 1.0
    #: Multi-hop default is deeper filtering than single-hop (m = 4): each
    #: hop tracks a *tracking* clock, so the estimator's noise gain
    #: compounds per hop; small m amplifies it into instability.
    m: int = 4
    l: int = 2
    #: Guard time grows with the sender's hop: per-hop error accumulates
    #: roughly linearly, so a flat guard would cut off deep hops.
    guard_fine_us: float = 500.0
    guard_per_hop_us: float = 100.0
    #: After this many silent periods a node discards its synchronization
    #: state entirely and re-acquires from the first beacon it hears (the
    #: multi-hop analogue of the recovery extension).
    resync_after_periods: int = 10
    k_clamp: float = 5e-3
    #: Shared channel loss model (see :class:`repro.phy.params.PhyParams`).
    loss_model: str = "per_receiver"
    #: Optional churn schedule; the runner's ``churn`` starts as a copy
    #: of it (reference markers resolve to the current root).
    churn: Optional[ChurnSchedule] = None

    def __post_init__(self) -> None:
        if not 0 <= self.root < self.topology.n:
            raise ValueError(
                f"root must be a topology node in [0, {self.topology.n}), "
                f"got {self.root} (topology n={self.topology.n})"
            )
        if self.beacon_period_us <= 0:
            raise ValueError(
                f"beacon_period_us must be > 0, got {self.beacon_period_us}"
            )
        if self.periods < 1:
            raise ValueError(
                f"duration_s must cover at least one beacon period, got "
                f"{self.duration_s} s ({self.periods} periods of "
                f"{self.beacon_period_us} us)"
            )
        if not 0.0 < self.relay_probability <= 1.0:
            raise ValueError(
                f"relay_probability must be in (0, 1], got {self.relay_probability}"
            )
        if self.hop_stride_slots < 1:
            raise ValueError(
                f"hop_stride_slots must be >= 1, got {self.hop_stride_slots}"
            )
        for name in ("m", "l", "resync_after_periods"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.guard_fine_us <= 0:
            raise ValueError(f"guard_fine_us must be > 0, got {self.guard_fine_us}")
        if self.guard_per_hop_us < 0:
            raise ValueError(
                f"guard_per_hop_us must be >= 0, got {self.guard_per_hop_us}"
            )
        if not 0.0 < self.k_clamp < 1.0:
            raise ValueError(f"k_clamp must be in (0, 1), got {self.k_clamp}")
        # Resolving also validates the protocol name.
        protocol_cls = resolve_multihop_protocol(self.protocol)
        if self.beacon_airtime_slots is None:
            object.__setattr__(
                self, "beacon_airtime_slots", protocol_cls.beacon_airtime_slots
            )
        if self.hop_stride_slots <= self.airtime_slots:
            raise ValueError(
                "hop_stride_slots must exceed beacon_airtime_slots: adjacent "
                f"hop segments would overlap on the air (got "
                f"hop_stride_slots={self.hop_stride_slots}, "
                f"beacon_airtime_slots={self.airtime_slots})"
            )
        if self.loss_model not in _LOSS_MODELS:
            raise ValueError(f"unknown loss model {self.loss_model!r}")

    @property
    def airtime_slots(self) -> int:
        """``beacon_airtime_slots`` after protocol-default resolution
        (``__post_init__`` guarantees it is set)."""
        value = self.beacon_airtime_slots
        assert value is not None
        return value

    @property
    def periods(self) -> int:
        return int(round(self.duration_s * S / self.beacon_period_us))


class RelayNode(Node):
    """A multi-hop station: a kernel :class:`Node` whose protocol is a
    :class:`MultiHopProtocol`, with the relay fields surfaced for
    tests/diagnostics."""

    __slots__ = ()

    @property
    def hop(self) -> Optional[int]:
        return self.protocol.hop

    @property
    def upstream(self) -> Optional[int]:
        return self.protocol.upstream

    @property
    def clock(self) -> AdjustedClock:
        return self.protocol.clock


@dataclass
class MultiHopResult:
    """Outcome of one multi-hop run."""

    trace: SyncTrace
    per_hop_error_us: Dict[int, float]
    hop_of: Dict[int, int]
    root: int
    root_changes: int
    beacons_sent: int
    collisions_at_receivers: int

    def max_hop(self) -> int:
        """Deepest hop distance present in the final tree."""
        return max(self.hop_of.values()) if self.hop_of else 0


class MultiHopRunner(Lane):
    """Drives one multi-hop network on the shared kernel."""

    channel: SpatialBroadcastChannel

    def __init__(self, spec: MultiHopSpec) -> None:
        self.spec = spec
        self.n = spec.topology.n
        self._protocol_cls = resolve_multihop_protocol(spec.protocol)
        self.protocol_name = self._protocol_cls.protocol_name
        self.rngs = RngRegistry(spec.seed)
        population = ClockPopulation.sample(
            self.n,
            self.rngs.get("clocks"),
            drift_ppm=spec.drift_ppm,
            initial_offset_us=spec.initial_offset_us,
        )
        self._slot_rng = self.rngs.get("slots")
        self.phy = PhyParams(
            slot_time_us=spec.slot_time_us,
            beacon_airtime_slots=spec.airtime_slots,
            propagation_delay_us=spec.propagation_delay_us,
            timestamp_jitter_us=spec.timestamp_jitter_us,
            packet_error_rate=spec.packet_error_rate,
            loss_model=spec.loss_model,
        )
        channel = SpatialBroadcastChannel(
            self.phy, self.rngs.get("channel"), spec.topology
        )
        chains = [
            ClockChain(population.clock(i)) for i in range(self.n)
        ]
        stations = self._protocol_cls.build(spec, chains)
        nodes: List[Node] = []
        for i in range(self.n):
            node = RelayNode(i, chains[i].hw)
            node.protocol = stations[i]
            nodes.append(node)
        super().__init__(
            nodes,
            channel,
            spec.beacon_period_us,
            spec.periods,
            ChurnSchedule(spec.churn or ()),
        )
        self.ctx = MultiHopContext(
            spec,
            self._slot_rng,
            rx_latency_us=(
                spec.airtime_slots * spec.slot_time_us
                + spec.propagation_delay_us
            ),
            channel=self.channel,
            nodes=self.nodes,
        )
        self.root = spec.root
        self._state(self.root).hop = 0
        self._last_valid_root = spec.root
        self.root_changes = 0
        self.beacons_sent = 0
        self.collisions = 0
        self.recorder = TraceRecorder()
        self._per_hop_errors: Dict[int, List[float]] = {}

    # ------------------------------------------------------------------
    # Lane hooks
    # ------------------------------------------------------------------

    def current_reference(self) -> int:
        """The current root (-1 while orphaned) - the reference role of
        this lane, consulted by churn markers and crash bookkeeping."""
        if self.root >= 0 and self._by_id[self.root].present:
            return self.root
        return -1

    def _on_left(self, node_id: int) -> None:
        if node_id == self.root:
            self.root = -1  # orphaned; first-hop children will elect

    def _state(self, node_id: int) -> MultiHopProtocol:
        return self._by_id[node_id].protocol

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> MultiHopResult:
        """Simulate all periods; returns the result bundle."""
        spec = self.spec
        if self.n >= 2 and spec.topology.is_complete():
            inner = self._protocol_cls.degenerate_runner(spec)
            if inner is not None:
                return self._run_degenerate(inner)
        with work_lane(f"multihop/{self.protocol_name}"):
            for period in range(1, spec.periods + 1):
                self._run_period(period)
        per_hop = {
            hop: float(np.median(values))
            for hop, values in sorted(self._per_hop_errors.items())
        }
        hop_of = (
            spec.topology.hop_distances(self.root) if self.root >= 0 else {}
        )
        return MultiHopResult(
            trace=self.recorder.finalize(),
            per_hop_error_us=per_hop,
            hop_of=hop_of,
            root=self.root,
            root_changes=self.root_changes,
            beacons_sent=self.beacons_sent,
            collisions_at_receivers=self.collisions,
        )

    def _run_period(self, period: int) -> None:
        with span("multihop.period"):
            with span("multihop.churn"):
                self.apply_churn(period)
            stalled, partition = self._period_faults(period)
            # A crashed root orphans the tree exactly like a departed one.
            if self.root >= 0 and not self._by_id[self.root].present:
                self.root = -1
            with span("multihop.collect"):
                transmissions = self._collect_transmissions(
                    period, stalled, partition
                )
            with span("multihop.receptions"):
                receptions = self._resolve_receptions(
                    transmissions, stalled, partition
                )
            with span("multihop.process"):
                accepted = self._process_receptions(period, receptions)
            with span("multihop.end_period"):
                self._end_period(period, accepted, stalled)
            with span("multihop.sample"):
                self._sample_metrics(period)
            if self.injector is not None:
                self.injector.on_period_end(period)

    # ------------------------------------------------------------------
    # Degenerate (complete-graph) delegation
    # ------------------------------------------------------------------

    def _run_degenerate(self, inner: NetworkRunner) -> MultiHopResult:
        """Run a complete-graph spec on the protocol's single-hop lane."""
        spec = self.spec
        # Keep the full clock matrix: per-hop errors are reconstructed
        # from it after the run.
        inner.recorder = TraceRecorder(keep_values=True)
        if len(self.churn):
            inner.churn = self.churn
        if self.injector is not None:
            inner.attach_injector(self.injector)
        result = inner.run()
        # Post-run inspection (chaos invariants, fault logs) sees the
        # network that actually ran.
        self._adopt(inner)

        trace = result.trace
        ref_ids = trace.reference_ids
        valid = ref_ids[ref_ids >= 0]
        final_root = int(valid[-1]) if valid.size else -1
        hop_of = (
            spec.topology.hop_distances(final_root) if final_root >= 0 else {}
        )
        per_hop_samples: Dict[int, List[float]] = {}
        if trace.values_us is not None and final_root >= 0:
            half = spec.periods // 2
            for idx in range(len(trace)):
                if idx + 1 <= half:  # mirror "period > periods // 2"
                    continue
                rid = int(ref_ids[idx])
                if rid < 0:
                    continue
                row = trace.values_us[idx]
                root_value = row[rid]
                if math.isnan(root_value):
                    continue
                for col in range(row.shape[0]):
                    hop = hop_of.get(col)
                    if hop is None or hop == 0:
                        continue
                    value = row[col]
                    if math.isnan(value):
                        continue
                    per_hop_samples.setdefault(hop, []).append(
                        abs(value - root_value)
                    )
        per_hop = {
            hop: float(np.median(values))
            for hop, values in sorted(per_hop_samples.items())
        }
        self.root = final_root
        self.root_changes = trace.reference_changes()
        self.beacons_sent = result.successful_beacons
        self.collisions = inner.channel.stats.collisions
        return MultiHopResult(
            trace=trace,
            per_hop_error_us=per_hop,
            hop_of=hop_of,
            root=final_root,
            root_changes=self.root_changes,
            beacons_sent=self.beacons_sent,
            collisions_at_receivers=self.collisions,
        )

    # ------------------------------------------------------------------
    # Phases of one period
    # ------------------------------------------------------------------

    def _collect_transmissions(
        self,
        period: int,
        stalled: frozenset,
        partition: Optional[Dict[int, int]],
    ) -> List[MultiHopFrame]:
        spec = self.spec
        nominal = period * spec.beacon_period_us
        out: List[MultiHopFrame] = []
        self.ctx.new_period(
            self.root, self.root < 0 or not self._by_id[self.root].present
        )
        for i in range(self.n):
            node = self._by_id[i]
            if not node.present or i in stalled:
                continue
            state = node.protocol
            delay = state.begin_period(period, self.ctx)
            if delay is None:
                continue
            # The intent's schedule lives on the station's synchronized
            # clock; map it to the true-time axis through the chain.
            tx_true = state.chain.true_at_adjusted(nominal + delay)
            out.append(state.make_frame(period, delay, tx_true, self.ctx))
        return self._carrier_sense(out, partition)

    def _carrier_sense(
        self,
        candidates: List[MultiHopFrame],
        partition: Optional[Dict[int, int]],
    ) -> List[MultiHopFrame]:
        """802.11 deferral/cancellation over the hearing graph: a relay
        whose backoff expires while an *audible* neighbour's transmission
        is on the air cancels (it just received that beacon). Mutually
        hidden transmitters still collide downstream - that is physics,
        handled at the receivers. A partition fault cuts hearing across
        groups."""
        spec = self.spec
        airtime = spec.airtime_slots * spec.slot_time_us
        by_sender = {tx.sender: tx for tx in candidates}

        def hears(sender: int):
            neighbors = spec.topology.neighbors(sender)
            if partition is None:
                return neighbors
            group = partition.get(sender)
            return [n for n in neighbors if partition.get(n) == group]

        result = resolve_neighborhood(
            [(tx.sender, tx.tx_true) for tx in candidates], airtime, hears
        )
        self.beacons_sent += len(result.kept)
        kept = [by_sender[sender] for sender, _start in result.kept]
        if tracing_enabled():
            for tx in kept:
                emit(
                    "beacon_tx",
                    t_us=tx.tx_true,
                    node=tx.sender,
                    period=tx.interval,
                    hop=tx.hop,
                    proto=self.protocol_name,
                )
        return kept

    def _resolve_receptions(
        self,
        transmissions: List[MultiHopFrame],
        stalled: frozenset,
        partition: Optional[Dict[int, int]],
    ) -> Dict[int, List[MultiHopFrame]]:
        """Per-receiver spatial reception through the shared channel."""
        spec = self.spec
        airtime = spec.airtime_slots * spec.slot_time_us
        by_sender = {tx.sender: tx for tx in transmissions}
        receivers = [
            i
            for i in range(self.n)
            if self._by_id[i].present and i not in stalled
        ]
        audible = None
        if partition is not None:
            groups = partition

            def audible(receiver: int, sender: int) -> bool:
                return groups.get(receiver) == groups.get(sender)

        delivery = self.channel.deliver_window(
            [(tx.sender, tx.tx_true) for tx in transmissions],
            receivers,
            airtime,
            size_bytes=self._protocol_cls.beacon_bytes,
            audible=audible,
        )
        self.collisions += delivery.collisions
        return {
            receiver: [by_sender[s] for s in senders]
            for receiver, senders in delivery.receptions.items()
        }

    def _process_receptions(
        self, period: int, receptions: Dict[int, List[MultiHopFrame]]
    ) -> Set[int]:
        """Returns the set of receivers that *accepted* a beacon (decoded,
        interval-fresh and plausibility-passing) - the input to silence
        tracking. The accept/reject decision itself is the protocol's."""
        accepted: Set[int] = set()
        latency = self.ctx.rx_latency_us
        tracing = tracing_enabled()
        for receiver, decoded in receptions.items():
            if tracing:
                for tx in decoded:
                    emit(
                        "beacon_rx",
                        t_us=tx.tx_true + latency,
                        node=receiver,
                        src=tx.sender,
                        period=period,
                        proto=self.protocol_name,
                    )
            if receiver == self.root:
                accepted.add(receiver)
                continue
            if self._state(receiver).on_receptions(period, decoded, self.ctx):
                accepted.add(receiver)
        return accepted

    def _end_period(
        self, period: int, accepted: Set[int], stalled: frozenset
    ) -> None:
        orphan_election = self.root < 0
        for i in range(self.n):
            node = self._by_id[i]
            if not node.present or i == self.root or i in stalled:
                continue
            node.protocol.end_period(period, i in accepted, self.ctx)
        if orphan_election:
            # a volunteer that transmitted and heard nothing becomes root
            candidates = [
                i
                for i in range(self.n)
                if self._by_id[i].present
                and i not in stalled
                and self._state(i).wants_root_takeover(i in accepted)
            ]
            # the transmission set for this period is gone; approximate the
            # single-winner rule with the earliest-slot draw equivalent:
            if candidates:
                winner = candidates[0]
                self.root = winner
                self.root_changes += 1
                emit(
                    "reference_change",
                    t_us=period * self.spec.beacon_period_us,
                    old_ref=self._last_valid_root,
                    new_ref=winner,
                    period=period,
                )
                self._last_valid_root = winner
                self._state(winner).on_elected_root(period, self.ctx)

    def _sample_metrics(self, period: int) -> None:
        spec = self.spec
        sample_time = (period + 0.9) * spec.beacon_period_us
        synced = [
            node.protocol
            for node in self.nodes
            if node.present and node.protocol.is_synchronized()
        ]
        chains = [state.chain for state in synced]
        # per-hop error vs the root (second half of the run only); the
        # root's reading rides along as one extra chain in the same pass
        per_hop = self.root >= 0 and period > spec.periods // 2
        if per_hop:
            chains.append(self._state(self.root).chain)
        values = adjusted_at_all(chains, sample_time)
        root_value = values.pop() if per_hop else 0.0
        self.recorder.record(
            sample_time, values, self.root if self.root >= 0 else -1
        )
        if per_hop:
            hops = self.spec.topology.hop_distances(self.root)
            errors = self._per_hop_errors
            for state, value in zip(synced, values):
                hop = hops.get(state.node_id)
                if hop:  # unreachable (None) and the root (0) carry no error
                    errors.setdefault(hop, []).append(abs(value - root_value))


def run_multihop(spec: MultiHopSpec) -> MultiHopResult:
    """Convenience wrapper."""
    return MultiHopRunner(spec).run()
