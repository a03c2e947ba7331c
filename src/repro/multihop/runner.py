"""The multi-hop harness, as a client of the shared kernel.

This module is protocol-agnostic: it drives any registered multi-hop
protocol, a :class:`~repro.protocols.multihop_table.RelayTable` subclass
selected by ``MultiHopSpec.protocol``, over a spatial radio topology,
owning only kernel concerns:

* **clocks** — every station is a :class:`~repro.network.node.Node`
  holding a :class:`~repro.clocks.oscillator.HardwareClock`; the run's
  relay table holds every station's relay state and adjusted-clock
  segment as arrays and converts between true, hardware and adjusted
  time with the array forms in :mod:`repro.clocks.chain`
  (:class:`~repro.clocks.chain.ClockChain` is the scalar oracle they
  are tested against);
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
(:mod:`repro.protocols.multihop_sstsp` is the paper's scheme;
``multihop_beaconless`` and ``multihop_coop`` are the related-work
competitors). Each period runs as array operations over all stations
(see "The array engine" in docs/simulation.md).

If the root leaves, the harness runs the orphan election through
:meth:`RelayTable.elect_root`; the winner becomes the new root.

A *complete* topology is the degenerate case where the spatial model
adds nothing over the single-hop IBSS; when the protocol declares a
single-hop counterpart (:meth:`RelayTable.degenerate_runner`),
:meth:`MultiHopRunner.run` delegates to that reference
:class:`~repro.network.runner.NetworkRunner`, so complete-graph
multi-hop specs reproduce the single-hop lane's election and adjustment
decisions exactly (see ``tests/test_differential_parity.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import SyncTrace, TraceRecorder
from repro.clocks.adjusted import AdjustedClock
from repro.clocks.oscillator import HardwareClock
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
from repro.phy.channel import SpatialBroadcastChannel, WindowDelivery
from repro.phy.params import PhyParams
from repro.protocols.multihop_base import (
    MultiHopContext,
    resolve_multihop_protocol,
)
from repro.protocols.multihop_table import PeriodFrames, RelayTable
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
    #: Every registered protocol honours it (``RelayTable.tx_intents``
    #: thins whatever ``relay_turn`` picks: ``beaconless`` thins its duty
    #: cycle, ``sstsp`` thins instead of rotating); dense neighbourhoods
    #: benefit from thinning (fewer same-segment collisions).
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
    """A multi-hop station: a kernel :class:`Node` whose presence and
    relay fields live in the run's
    :class:`~repro.protocols.multihop_table.RelayTable` row, surfaced
    for tests/diagnostics."""

    __slots__ = ("_table",)

    def __init__(self, node_id: int, hw: HardwareClock, table: RelayTable) -> None:
        self._table = table
        super().__init__(node_id, hw)

    @property  # type: ignore[override]
    def present(self) -> bool:
        return bool(self._table.present[self.node_id])

    @present.setter
    def present(self, value: bool) -> None:
        self._table.present[self.node_id] = value

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
        hws = [population.clock(i) for i in range(self.n)]
        #: Every station's relay state, as arrays (the state of record).
        self.table = self._protocol_cls(spec, hws)
        nodes: List[Node] = []
        for view in self.table.stations():
            node = RelayNode(view.node_id, view.hw, self.table)
            node.protocol = view
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
            table=self.table,
        )
        self.root = spec.root
        self.table.hop[self.root] = 0
        self._last_valid_root = spec.root
        self.root_changes = 0
        self.beacons_sent = 0
        self.collisions = 0
        self.recorder = TraceRecorder()
        # (hop distance, error vs the root) arrays of each sampled period
        self._hop_errors: List[Tuple[np.ndarray, np.ndarray]] = []
        self._root_hops: Dict[int, np.ndarray] = {}

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
        self.table.gather_clocks()
        with work_lane(f"multihop/{self.protocol_name}"):
            for period in range(1, spec.periods + 1):
                self._run_period(period)
        per_hop: Dict[int, float] = {}
        if self._hop_errors:
            hops = np.concatenate([hop for hop, _ in self._hop_errors])
            errors = np.concatenate([error for _, error in self._hop_errors])
            for hop in np.unique(hops).tolist():
                per_hop[hop] = float(np.median(errors[hops == hop]))
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
        table = self.table
        with span("multihop.period"):
            with span("multihop.churn"):
                self.apply_churn(period)
            stalled, partition = self._period_faults(period)
            if self.injector is not None:
                table.gather_clocks()  # clock faults mutate oscillators
            # A crashed root orphans the tree exactly like a departed one.
            if self.root >= 0 and not table.present[self.root]:
                self.root = -1
            # present and not stalled: the stations that take part
            active = table.present.copy()
            if stalled:
                active[sorted(stalled)] = False
            groups = None
            if partition is not None:
                groups = np.full(self.n, -1, dtype=np.intp)
                for node_id, group in sorted(partition.items()):
                    groups[node_id] = group
            with span("multihop.collect"):
                frames = self._collect_transmissions(period, active, groups)
            with span("multihop.receptions"):
                delivery = self._resolve_receptions(frames, active, groups)
            with span("multihop.process"):
                with span("protocols.mh_receive"):
                    accepted = table.receive(period, frames, delivery, self.ctx)
            with span("multihop.end_period"):
                self._end_period(period, accepted, active)
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
        self, period: int, active: np.ndarray, groups: Optional[np.ndarray]
    ) -> PeriodFrames:
        """The period's TX intents, mapped to the true-time axis and put
        through carrier sensing: the frames that go on air."""
        spec = self.spec
        table = self.table
        nominal = period * spec.beacon_period_us
        self.ctx.new_period(self.root, self.root < 0)
        ids, delays = table.tx_intents(period, active, self.ctx)
        # The intents' schedule lives on the stations' synchronized
        # clocks; map it to the true-time axis through the chain.
        with span("clocks.chain"):
            tx_true = table.true_at_adjusted(ids, nominal + delays)
        hops = table.frame_hops(ids, self.root)
        kept = self._carrier_sense(ids, tx_true, groups)
        frames = PeriodFrames(
            ids[kept], hops[kept], tx_true[kept], delays[kept], nominal, period
        )
        self.beacons_sent += len(kept)
        if tracing_enabled():
            for sender, hop, t_us in zip(
                frames.sender.tolist(), frames.hop.tolist(), frames.tx_true.tolist()
            ):
                emit(
                    "beacon_tx",
                    t_us=t_us,
                    node=sender,
                    period=period,
                    hop=hop,
                    proto=self.protocol_name,
                )
        return frames

    def _carrier_sense(
        self, ids: np.ndarray, tx_true: np.ndarray, groups: Optional[np.ndarray]
    ) -> np.ndarray:
        """802.11 deferral/cancellation over the hearing graph: a relay
        whose backoff expires while an *audible* neighbour's transmission
        is on the air cancels (it just received that beacon). Mutually
        hidden transmitters still collide downstream - that is physics,
        handled at the receivers. A partition fault cuts hearing across
        groups. Returns the positions of the frames that go on air, in
        start-time order."""
        spec = self.spec
        airtime = spec.airtime_slots * spec.slot_time_us
        neighbors = spec.topology.neighbors
        hears = neighbors
        if groups is not None:
            labels = groups

            def hears(sender: int):
                group = labels[sender]
                return [n for n in neighbors(sender) if labels[n] == group]

        return resolve_neighborhood(ids, tx_true, airtime, hears).kept

    def _resolve_receptions(
        self, frames: PeriodFrames, active: np.ndarray, groups: Optional[np.ndarray]
    ) -> WindowDelivery:
        """Per-receiver spatial reception through the shared channel."""
        spec = self.spec
        delivery = self.channel.deliver_window(
            frames.sender,
            frames.tx_true,
            np.flatnonzero(active),
            spec.airtime_slots * spec.slot_time_us,
            size_bytes=self._protocol_cls.beacon_bytes,
            groups=groups,
        )
        self.collisions += delivery.collisions
        return delivery

    def _end_period(
        self, period: int, accepted: np.ndarray, active: np.ndarray
    ) -> None:
        orphan_election = self.root < 0
        due = active.copy()
        if self.root >= 0:
            due[self.root] = False
        self.table.end_period(accepted, due)
        if not orphan_election:
            return
        winner = self.table.elect_root(period, accepted, active)
        if winner < 0:
            return
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

    def _sample_metrics(self, period: int) -> None:
        spec = self.spec
        table = self.table
        sample_time = (period + 0.9) * spec.beacon_period_us
        synced = np.flatnonzero(table.present & (table.hop >= 0))
        # per-hop error vs the root (second half of the run only); the
        # root's reading rides along as one extra clock in the same pass
        root = self.root
        per_hop = root >= 0 and period > spec.periods // 2
        read = np.append(synced, root) if per_hop else synced
        values = table.adjusted_at(read, sample_time)
        if per_hop:
            root_value = values[-1]
            values = values[:-1]
        self.recorder.record(sample_time, values, root if root >= 0 else -1)
        if per_hop:
            hops = self._hops_from(root)[synced]
            # unreachable (-1) and the root (0) carry no error
            counted = hops > 0
            self._hop_errors.append(
                (hops[counted], np.abs(values[counted] - root_value))
            )

    def _hops_from(self, root: int) -> np.ndarray:
        """Every station's BFS hop distance from ``root`` (-1 when
        unreachable)."""
        hops = self._root_hops.get(root)
        if hops is None:
            hops = np.full(self.n, -1, dtype=np.intp)
            for node_id, hop in self.spec.topology.hop_distances(root).items():
                hops[node_id] = hop
            self._root_hops[root] = hops
        return hops


def run_multihop(spec: MultiHopSpec) -> MultiHopResult:
    """Convenience wrapper."""
    return MultiHopRunner(spec).run()
