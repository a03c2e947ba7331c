"""Shared run scaffold of the vectorised engines."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import TraceRecorder
from repro.mac.contention import resolve_contention, settle_alone
from repro.network.churn import ChurnApplier, churn_line
from repro.network.ibss import ScenarioSpec
from repro.obs.counters import count
from repro.sim.rng import RngRegistry


#: Size of one block of draws on the ``slots`` or the ``channel`` stream.
#: Small enough that a block stays in cache and adds little to the peak
#: resident set (16 periods of slots at n = 501), large enough that the
#: per-call cost of a draw is spread over many periods.
DRAW_BLOCK_BYTES = 64 * 1024


def _no_reference() -> int:
    return -1


class VectorLane:
    """Everything around the protocol that both vector engines share.

    The clocks of stations ``0..n-1`` plus the attacker at index ``n``
    (:meth:`ScenarioSpec.sample_clocks`), the presence mask, the attack
    window and the metric mask (every station but the attacker), the
    churn applier with its event log, and the trace recorder. Each RNG
    draw kind the engines make has exactly one site here:
    :meth:`draw_slots` on the ``slots`` stream, :meth:`loss_mask` and
    :meth:`jitter` on the ``channel`` stream.

    The lane owns both streams, so it draws them in blocks of
    :data:`DRAW_BLOCK_BYTES`: one ``integers`` call yields the slot rows
    of many periods, and loss coins and jitter read one cursor over a
    block of ``random`` doubles. Each value is the one a per-call draw
    would have given (``tests/test_vector_draws.py``); what a block
    draws beyond the end of a run is never read.
    """

    def __init__(self, spec: ScenarioSpec, keep_values: bool) -> None:
        if spec.phy.loss_model == "gilbert_elliott":
            raise ValueError(
                f"phy.loss_model={spec.phy.loss_model!r} has no vector-lane "
                "model (the vector lanes flip per-receiver or "
                "per-transmission coins only); run it with lane='oo'"
            )
        self.spec = spec
        rngs = RngRegistry(spec.seed)
        self.clocks = spec.sample_clocks(rngs)
        self.n = len(self.clocks)
        self.attacker: Optional[int] = spec.n if spec.attacker is not None else None
        self.window = spec.attack_window()
        self.present = np.ones(self.n, dtype=bool)
        self.metric_mask = np.ones(self.n, dtype=bool)
        if self.attacker is not None:
            self.metric_mask[self.attacker] = False
        self._refresh_membership()
        self.events: List[str] = []
        self.recorder = TraceRecorder(keep_values=keep_values)
        self.churn = ChurnApplier(spec.churn_schedule(rngs))
        self._slots = rngs.get("slots")
        self._slot_w: Optional[int] = None
        self._slot_block = np.empty((0, self.n))
        self._slot_row = 0
        self._channel = rngs.get("channel")
        self._doubles = np.empty(0)
        self._cursor = 0
        jitter = spec.phy.timestamp_jitter_us
        # Generator.uniform(low, high) is low + (high - low) * random()
        self._jitter_low, self._jitter_span = -jitter, jitter - -jitter
        self._hw = np.empty(self.n)

    def attack_active(self, period: int) -> bool:
        """Whether the attacker attacks in ``period``."""
        return self.window is not None and self.window.active(period)

    def hw_at(
        self, true_time: float, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Hardware clock of every node at one instant, in ``out`` or else
        in one reused buffer (valid until the next call)."""
        return self.clocks.read_all(true_time, out=self._hw if out is None else out)

    def apply_churn(
        self, period: int, reference: Callable[[], int] = _no_reference
    ) -> List[Tuple[str, int]]:
        """Apply the churn due at ``period`` to the presence mask and the
        event log; returns the applied ``(action, node)`` changes.

        ``reference`` is read after each applied change, so it must
        report a reference that has just left as none (-1).
        """
        changes = []
        for action, node in self.churn.due(period, reference, self._is_present):
            self.present[node] = action == "return"
            self.events.append(churn_line(period, action, node))
            changes.append((action, node))
        if changes:
            self._refresh_membership()
        return changes

    def _refresh_membership(self) -> None:
        """Recompute what changes only on churn: :attr:`present_ids` (the
        present stations, ascending) and the metric members."""
        self.present_ids = np.flatnonzero(self.present)
        self._members = self.present & self.metric_mask
        # a beacon's winner is always present
        self._receivers = self.present_ids.size - 1

    def _is_present(self, node: int) -> Optional[bool]:
        if not 0 <= node < self.n:
            return None
        return bool(self.present[node])

    def draw_slots(self, w: int) -> np.ndarray:
        """One backoff slot in ``[0, w]`` per node (``slots`` stream), as
        a read-only row of the current block."""
        count("mac.slot_draws", self.n)
        if self._slot_w is None:
            self._slot_w = w
        elif w != self._slot_w:
            raise ValueError(f"the slot block was drawn with w={self._slot_w}, not w={w}")
        row = self._slot_row
        if row == len(self._slot_block):
            rows = max(1, min(DRAW_BLOCK_BYTES // (8 * self.n), self.spec.periods))
            block = self._slots.integers(0, w + 1, size=(rows, self.n))
            self._slot_block = block.astype(np.float64)
            self._slot_block.flags.writeable = False
            row = 0
        self._slot_row = row + 1
        return self._slot_block[row]

    def _take(self, k: int) -> np.ndarray:
        """The next ``k`` doubles of the ``channel`` stream."""
        start = self._cursor
        end = start + k
        if end > self._doubles.size:
            fresh = self._channel.random(max(k, DRAW_BLOCK_BYTES // 8))
            self._doubles = np.concatenate((self._doubles[start:], fresh))
            start, end = 0, k
        self._cursor = end
        return self._doubles[start:end]

    def loss_mask(self, winner: int) -> np.ndarray:
        """Receivers of ``winner``'s beacon: the present nodes other than
        the winner, less those the ``channel`` stream's loss coins drop."""
        receive = self.present.copy()
        receive[winner] = False
        # pre-loss receivers, as BroadcastChannel.broadcast counts them
        count("phy.delivery_attempt", self._receivers)
        per = self.spec.phy.packet_error_rate
        if per > 0.0:
            if self.spec.phy.loss_model == "per_transmission":
                count("phy.per_draw")
                if self._take(1)[0] < per:
                    receive[:] = False
            else:
                count("phy.per_draw", self.n)
                receive &= self._take(self.n) >= per
        return receive

    def jitter(self) -> np.ndarray:
        """One receive timestamping error per node (``channel`` stream)."""
        count("phy.ts_jitter_draw", self.n)
        return self._jitter_low + self._jitter_span * self._take(self.n)

    def sample(
        self,
        true_time: float,
        values: np.ndarray,
        mask: Optional[np.ndarray] = None,
        ref: int = -1,
    ) -> None:
        """Record one metric sample of the present stations (never the
        attacker), restricted to ``mask`` when given."""
        members = self._members if mask is None else self._members & mask
        full = np.where(members, values, np.nan) if self.recorder.keep_values else None
        self.recorder.record(true_time, values[members], ref, full_values=full)


def resolve_window(
    ids: np.ndarray,
    times: np.ndarray,
    airtime_us: float,
    cca_us: float,
) -> Tuple[Optional[int], Optional[float], int]:
    """Run the shared contention cascade over vectorised candidates.

    A thin adapter: the arrays go straight to
    :func:`repro.mac.contention.resolve_contention`, the one cascade both
    lanes share, and the window ends at its first success. A lone
    candidate (most SSTSP windows: the reference alone) transmits at its
    time and wins; :func:`repro.mac.contention.settle_alone` settles it
    with the cascade's counts and event.

    Parameters
    ----------
    ids, times:
        Candidate station indices and their scheduled transmission times
        (true-time axis, so clock skew is honoured - at large N this skew
        is what eventually de-quantises colliding transmissions and lets
        an election conclude).

    Returns
    -------
    (winner, tx_start, collisions):
        Winning station (or None), the actual start time of its successful
        transmission (deferrals may shift it), and the number of collided
        transmissions in the window.
    """
    if ids.size == 0:
        return None, None, 0
    if ids.size == 1 and times.size == 1:
        winner, start = int(ids[0]), float(times[0])
        settle_alone(winner, start, airtime_us, cca_us)
        return winner, start, 0
    result = resolve_contention(ids, times, airtime_us, cca_us)
    success = result.first_success
    if success is None:
        return None, None, result.collisions
    return success.members[0], success.start_us, result.collisions
