"""The per-BP network runner.

Each beacon period the runner:

1. applies churn events due this period (``REFERENCE_MARKER`` resolved to
   the current reference);
2. fires the attached fault injector's period-start hook (crashes,
   restarts, clock mutations, channel windows) and queries it for the
   period's stalled nodes and partition split;
3. asks every present, un-stalled node's protocol for a transmission
   intent and maps it to the true-time axis through that node's clocks;
4. resolves the beacon window with the carrier-sense contention cascade —
   per partition group when the network is split, so carrier sensing
   never leaks across a partition;
5. builds the winning beacon(s), pushes them through the lossy broadcast
   channel, and dispatches receptions with per-receiver
   timestamp-estimate jitter;
6. runs end-of-period hooks, records the metric sample, and fires the
   injector's period-end hook (expiring channel effects).

Rounds and churn are sequenced through the discrete-event kernel so that
other event sources (tests inject their own) interleave correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

from repro.analysis.metrics import TraceRecorder, SyncTrace
from repro.mac.contention import partition_domains, resolve_contention
from repro.obs.counters import work_lane
from repro.obs.events import emit, tracing_enabled
from repro.obs.profile import span
from repro.network.churn import ChurnSchedule
from repro.network.lane import Lane
from repro.network.node import Node
from repro.phy.channel import BroadcastChannel
from repro.protocols.base import RxContext, SyncProtocol
from repro.sim.engine import Simulator

#: The base class's no-op period-time hook (see ``_period_body``).
_NO_PERIOD_TIME = SyncProtocol.on_period_time
#: Where inside each period the metric sample is taken, as a fraction of
#: ``BP`` after the period's first beacon (the exchange has settled).
_SAMPLE_PHASE = 0.9


@dataclass
class RunResult:
    """Everything a finished run exposes."""

    trace: SyncTrace
    nodes: List[Node]
    channel: BroadcastChannel
    periods: int
    successful_beacons: int = 0
    contention_windows: int = 0
    events: List[str] = field(default_factory=list)


class NetworkRunner(Lane):
    """Drives one IBSS for ``periods`` beacon periods.

    PHY timing and the beacon airtime come from ``channel.phy``. Period
    indices start at 1, aligning with uTESLA interval 1 at
    ``T_0 + BP``. Swap ``recorder`` for a ``TraceRecorder(keep_values=True)``
    before :meth:`run` to retain the per-node clock matrix.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        channel: BroadcastChannel,
        beacon_period_us: float,
        periods: int,
        churn: Optional[ChurnSchedule] = None,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        super().__init__(nodes, channel, beacon_period_us, periods, churn)
        phy = channel.phy
        self._airtime_us = phy.beacon_airtime_us
        self._cca_us = phy.cca_us
        self._propagation_us = phy.propagation_delay_us
        self.recorder = TraceRecorder()
        self._beacon_successes = 0
        self._windows = 0
        self._last_beacon_true = 0.0
        self._last_valid_ref = -1
        if injector is not None:
            self.attach_injector(injector)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Simulate all periods and return the result bundle."""
        sim = Simulator()
        bp = self.beacon_period_us
        proto = self.nodes[0].protocol.protocol_name if self.nodes else "none"
        with work_lane(f"singlehop/{proto}"):
            for period in range(1, self.periods + 1):
                sim.schedule(period * bp, self._run_period, period)
            sim.run()
        return RunResult(
            trace=self.recorder.finalize(),
            nodes=self.nodes,
            channel=self.channel,
            periods=self.periods,
            successful_beacons=self._beacon_successes,
            contention_windows=self._windows,
            events=self.events,
        )

    def current_reference(self) -> int:
        """Node id of the station believing it is the reference (-1 if
        none / not an SSTSP network)."""
        for node in self.nodes:
            is_ref = getattr(node.protocol, "is_reference", None)
            if is_ref is not None and node.present and is_ref():
                return node.node_id
        return -1

    # ------------------------------------------------------------------
    # One period
    # ------------------------------------------------------------------

    def _run_period(self, period: int) -> None:
        with span("singlehop.period"):
            self._period_body(period)

    def _period_body(self, period: int) -> None:
        bp = self.beacon_period_us
        by_id = self._by_id
        tracing = tracing_enabled()
        with span("singlehop.churn"):
            self.apply_churn(period)
        stalled, partition = self._period_faults(period)
        # Stalled nodes are present (their clocks keep running and they
        # stay in the metric) but frozen: no tx, no rx, no hooks.
        active = [node for node in self.nodes if node.present]
        if stalled:
            active = [node for node in active if node.node_id not in stalled]
        now = period * bp
        for node in active:
            protocol = node.protocol
            # Skip the clock read for drivers that keep the no-op hook.
            if type(protocol).on_period_time is not _NO_PERIOD_TIME:
                protocol.on_period_time(period, node.hw.read(now))

        cand_ids = []
        cand_times = []
        for node in active:
            intent = node.protocol.begin_period(period)
            if intent is None:
                continue
            cand_ids.append(node.node_id)
            cand_times.append(node.scheduled_true_time(intent))

        # A partition splits carrier sensing as well as delivery: each
        # group resolves its own beacon window.
        domains = partition_domains(
            cand_ids, cand_times, [node.node_id for node in active], partition
        )

        transmitted_ids = set()
        received_ids = set()
        winner_ids = set()
        success_starts = []
        for group_ids, group_times, members in domains:
            if not group_ids:
                continue
            self._windows += 1
            with span("singlehop.contention"):
                result = resolve_contention(
                    group_ids, group_times, self._airtime_us, self._cca_us
                )
            for tx in result.transmissions:
                transmitted_ids.update(tx.members)
                if not tx.success:
                    self.channel.record_collision(len(tx.members))

            success = result.first_success
            if success is None:
                continue
            winner_id = success.members[0]
            winner_ids.add(winner_id)
            success_starts.append(success.start_us)
            sender = by_id[winner_id]
            hw_tx = sender.hw.read(success.start_us)
            frame = sender.protocol.make_frame(hw_tx, period)
            self._beacon_successes += 1
            proto_name = sender.protocol.protocol_name
            emit(
                "beacon_tx",
                t_us=success.start_us,
                node=winner_id,
                period=period,
                proto=proto_name,
            )
            pool = [nid for nid in members if nid != winner_id]
            with span("singlehop.broadcast"):
                delivered = self.channel.broadcast(
                    winner_id, pool, success.start_us, frame.size_bytes
                )
            if not delivered:
                continue
            arrival = success.end_us + self._propagation_us
            latency = (success.end_us - success.start_us) + self._propagation_us
            # One jitter draw per broadcast, in delivered order: the same
            # stream as one scalar draw per receiver.
            errors = self.channel.sample_timestamp_errors(len(delivered))
            base = frame.timestamp_us + latency
            for rid, err in zip(delivered, errors.tolist()):
                rnode = by_id[rid]
                rnode.protocol.on_beacon(
                    frame,
                    RxContext(arrival, rnode.hw.read(arrival), base + err, period),
                )
                if tracing:
                    emit(
                        "beacon_rx",
                        t_us=arrival,
                        node=rid,
                        src=winner_id,
                        period=period,
                        proto=proto_name,
                    )
            received_ids.update(delivered)

        for node in active:
            nid = node.node_id
            # Positional: heard_beacon, transmitted, tx_success.
            node.protocol.end_period(
                period, nid in received_ids, nid in transmitted_ids, nid in winner_ids
            )

        # Sample at a fixed phase relative to the beacon grid (see the
        # vector engine): emission instants drift against the nominal grid
        # at the timebase's pace error, and tying the sample phase to the
        # beacons keeps "0.9 BP after the last correction" true all run.
        if success_starts:
            self._last_beacon_true = min(success_starts)
        else:
            self._last_beacon_true += bp
        sample_time = self._last_beacon_true + _SAMPLE_PHASE * bp
        values = []
        full = (
            np.full(len(self.nodes), np.nan) if self.recorder.keep_values else None
        )
        for index, node in enumerate(self.nodes):
            if not (
                node.present
                and node.include_in_metrics
                and node.protocol.is_synchronized()
            ):
                continue
            value = node.protocol.synchronized_time(node.hw.read(sample_time))
            values.append(value)
            if full is not None:
                full[index] = value
        reference = self.current_reference()
        # Mirror SyncTrace.reference_changes(): only transitions between
        # two *valid* reference ids count (interregnums are not changes),
        # so `repro trace summary` matches the invariant evaluation.
        if reference >= 0:
            if 0 <= self._last_valid_ref != reference:
                emit(
                    "reference_change",
                    t_us=sample_time,
                    old_ref=self._last_valid_ref,
                    new_ref=reference,
                    period=period,
                )
            self._last_valid_ref = reference
        self.recorder.record(sample_time, values, reference, full_values=full)
        if self.injector is not None:
            self.injector.on_period_end(period)
