"""Applies a :class:`~repro.faults.spec.FaultPlan` to a live network.

The injector binds to the public :class:`~repro.network.lane.Lane`
surface both OO runners share (``nodes``, ``node(id)``, ``channel``,
``beacon_period_us``, ``events``, ``current_reference()``), and the
runner consults it at two well-defined points of every beacon period:

* :meth:`FaultInjector.on_period_start` — right after churn, before any
  protocol hook runs: crash/restart toggles, clock mutations, ramp
  increments, jam-window installation, loss-burst and partition setup;
* :meth:`FaultInjector.on_period_end` — after the metric sample: teardown
  of channel windows that expire with this period.

Between the hooks the runner queries :meth:`stalled_ids` (nodes frozen
this period) and :meth:`partition_groups` (the active channel split, used
to resolve carrier sensing and delivery per group). Because every
mutation happens at a period boundary through these hooks, injected
faults interleave deterministically with churn, contention and loss —
same plan, same seed, same trace.

Clock faults mutate the target's :class:`~repro.clocks.oscillator.
HardwareClock` in place. Frequency steps and ramps are continuous in
*value* at the fire instant (the oscillator does not teleport, its pace
changes); timestamp jumps are discontinuous by design.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Tuple

from repro.faults.spec import FaultPlan, FaultSpec
from repro.network.churn import REFERENCE_MARKER
from repro.obs.events import emit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.lane import Lane

logger = logging.getLogger(__name__)


class FaultInjector:
    """Replays one fault plan against the lane it is bound to.

    Parameters
    ----------
    plan:
        The declarative schedule to apply.

    Attributes
    ----------
    log:
        Human-readable record of every applied (or skipped) fault.
    reference_crashes:
        ``(period, node_id)`` for each crash that hit the station holding
        the reference role — the chaos re-election invariant reads this.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.log: List[str] = []
        self.reference_crashes: List[Tuple[int, int]] = []
        self._lane: Optional["Lane"] = None
        self._starts: Dict[int, List[FaultSpec]] = {}
        for spec in plan:
            self._starts.setdefault(spec.start_period, []).append(spec)
        # node -> (per-period ppm increment, first period NOT ramped)
        self._ramps: Dict[int, Tuple[float, int]] = {}
        # period -> node ids to restart at its start
        self._restarts: Dict[int, List[int]] = {}
        # stall windows with markers resolved: (node, start, end)
        self._stalls: List[Tuple[int, int, int]] = []
        # active partition: (groups, end_period)
        self._partition: Optional[Tuple[Dict[int, int], int]] = None
        # periods at whose end a channel override expires
        self._loss_burst_ends: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind(self, lane: "Lane") -> None:
        """Attach to the lane whose nodes/channel the faults mutate."""
        self._lane = lane

    def _note(self, period: int, message: str) -> None:
        line = f"p{period}: fault {message}"
        self.log.append(line)
        t_us: Optional[float] = None
        if self._lane is not None:
            self._lane.events.append(line)
            t_us = period * self._lane.beacon_period_us
        emit("fault_applied", t_us=t_us, period=period, detail=message)
        logger.info("fault injection: %s", line)

    def _resolve(self, period: int, node_id: int) -> Optional[int]:
        """Resolve :data:`REFERENCE_MARKER` to the current reference."""
        if node_id != REFERENCE_MARKER:
            return node_id
        ref = self._lane.current_reference()
        return ref if ref >= 0 else None

    # ------------------------------------------------------------------
    # Runner-facing queries
    # ------------------------------------------------------------------

    def stalled_ids(self, period: int) -> FrozenSet[int]:
        """Nodes frozen (no tx/rx/processing) during ``period``."""
        return frozenset(
            node for node, start, end in self._stalls if start <= period < end
        )

    def partition_groups(self, period: int) -> Optional[Dict[int, int]]:
        """Active ``node_id -> group`` split, or None when connected."""
        if self._partition is None:
            return None
        groups, end = self._partition
        return groups if period < end else None

    # ------------------------------------------------------------------
    # Period hooks
    # ------------------------------------------------------------------

    def on_period_start(self, period: int) -> None:
        """Apply every fault scheduled for ``period`` plus ramp increments."""
        if self._lane is None:
            raise RuntimeError("injector is not bound to a lane")
        for node_id in self._restarts.pop(period, ()):
            self._restart(period, node_id)
        for spec in self._starts.get(period, ()):
            self._fire(period, spec)
        self._apply_ramps(period)

    def on_period_end(self, period: int) -> None:
        """Tear down channel effects that expire with ``period``."""
        if self._loss_burst_ends:
            expired = [
                token
                for token, end in self._loss_burst_ends.items()
                if end - 1 == period
            ]
            for token in expired:
                del self._loss_burst_ends[token]
            if expired and not self._loss_burst_ends:
                self._lane.channel.set_per_override(None)
                self._note(period, "loss_burst cleared")
        if self._partition is not None and self._partition[1] - 1 == period:
            self._partition = None
            self._note(period, "partition healed")

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------

    def _fire(self, period: int, spec: FaultSpec) -> None:
        handler = getattr(self, f"_apply_{spec.kind}")
        handler(period, spec)

    def _target(self, period: int, spec: FaultSpec):
        resolved = self._resolve(period, spec.node_id)
        if resolved is None:
            self._note(period, f"{spec.kind} skipped (no reference to target)")
            return None, None
        node = self._lane.node(resolved)
        if node is None:
            self._note(period, f"{spec.kind} skipped (unknown node {resolved})")
            return None, None
        return resolved, node

    def _apply_freq_step(self, period: int, spec: FaultSpec) -> None:
        resolved, node = self._target(period, spec)
        if node is None:
            return
        self._step_rate(period, node, spec.magnitude)
        self._note(period, f"freq_step node {resolved} {spec.magnitude:+.1f} ppm")

    def _apply_freq_ramp(self, period: int, spec: FaultSpec) -> None:
        resolved, node = self._target(period, spec)
        if node is None:
            return
        per_period = spec.magnitude / spec.duration_periods
        self._ramps[resolved] = (per_period, spec.end_period)
        self._note(
            period,
            f"freq_ramp node {resolved} {spec.magnitude:+.1f} ppm "
            f"over {spec.duration_periods} BPs",
        )

    def _apply_clock_jump(self, period: int, spec: FaultSpec) -> None:
        resolved, node = self._target(period, spec)
        if node is None:
            return
        node.hw.initial_offset += spec.magnitude
        self._note(period, f"clock_jump node {resolved} {spec.magnitude:+.1f} us")

    def _apply_crash(self, period: int, spec: FaultSpec) -> None:
        resolved, node = self._target(period, spec)
        if node is None or not node.present:
            if node is not None:
                self._note(period, f"crash skipped (node {resolved} absent)")
            return
        was_reference = resolved == self._lane.current_reference()
        # A hard crash: presence drops with no graceful on_leave; the
        # protocol object keeps its (now stale) state until the reboot.
        node.present = False
        if was_reference:
            self.reference_crashes.append((period, resolved))
        if spec.duration_periods > 0:
            restart = spec.start_period + spec.duration_periods
            self._restarts.setdefault(restart, []).append(resolved)
        self._note(
            period,
            f"crash node {resolved}"
            + (" (reference)" if was_reference else "")
            + (
                f", restart at p{spec.start_period + spec.duration_periods}"
                if spec.duration_periods > 0
                else ", no restart"
            ),
        )

    def _restart(self, period: int, node_id: int) -> None:
        node = self._lane.node(node_id)
        if node is None or node.present:
            return
        node.present = True
        node.protocol.on_return(period)
        self._note(period, f"restart node {node_id}")

    def _apply_stall(self, period: int, spec: FaultSpec) -> None:
        resolved, node = self._target(period, spec)
        if node is None:
            return
        self._stalls.append((resolved, spec.start_period, spec.end_period))
        self._note(
            period, f"stall node {resolved} for {spec.duration_periods} BPs"
        )

    def _apply_jam(self, period: int, spec: FaultSpec) -> None:
        bp = self._lane.beacon_period_us
        start_us = spec.start_period * bp
        end_us = spec.end_period * bp
        self._lane.channel.add_jam_window(start_us, end_us)
        self._note(period, f"jam for {spec.duration_periods} BPs")

    def _apply_loss_burst(self, period: int, spec: FaultSpec) -> None:
        self._lane.channel.set_per_override(spec.magnitude)
        self._loss_burst_ends[id(spec)] = spec.end_period
        self._note(
            period,
            f"loss_burst per={spec.magnitude:.2f} "
            f"for {spec.duration_periods} BPs",
        )

    def _apply_partition(self, period: int, spec: FaultSpec) -> None:
        ids = sorted(node.node_id for node in self._lane.nodes)
        cut = max(1, min(len(ids) - 1, round(spec.magnitude * len(ids))))
        groups = {nid: (0 if i < cut else 1) for i, nid in enumerate(ids)}
        self._partition = (groups, spec.end_period)
        self._note(
            period,
            f"partition {cut}/{len(ids) - cut} "
            f"for {spec.duration_periods} BPs",
        )

    def _apply_ramps(self, period: int) -> None:
        done = []
        for node_id, (per_period, end) in self._ramps.items():
            if period >= end:
                done.append(node_id)
                continue
            node = self._lane.node(node_id)
            if node is not None:
                self._step_rate(period, node, per_period)
        for node_id in done:
            del self._ramps[node_id]

    def _step_rate(self, period: int, node, ppm: float) -> None:
        """Change ``node``'s oscillator rate by ``ppm``, continuous in
        value at the current period boundary."""
        now = period * self._lane.beacon_period_us
        hw = node.hw
        value = hw.read(now)
        hw.rate = hw.rate * (1.0 + ppm * 1e-6)
        hw.initial_offset = value - hw.rate * now

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(plan={self.plan.name or 'unnamed'}, "
            f"faults={len(self.plan)}, applied={len(self.log)})"
        )
