"""The state of record of a multi-hop run, held as arrays; each
registered multi-hop protocol is a subclass.

A :class:`RelayTable` holds every station's relay state in arrays
indexed by station id — presence, hop, upstream, silence streak,
adjustment count, the active adjusted-clock segment ``(start, k, b)``
and (gathered from the stations'
:class:`~repro.clocks.oscillator.HardwareClock` objects, which fault
injection mutates in place) the oscillator rates and offsets — and runs
the phases of a beacon period as array operations over all stations at
once. A protocol subclasses it with its name and frame economics, its
estimator arrays and its batched estimator (:meth:`RelayTable.receive`);
the per-station
:class:`~repro.protocols.multihop_base.StationView` objects
(:meth:`RelayTable.stations`) are views into it.

Bit-identity with one-station-at-a-time arithmetic rests on three rules:

* every element-wise expression performs the same float operations in
  the same order as the scalar expression it replaces;
* a per-receiver sum over frames or samples adds column by column over a
  left-aligned receivers-by-items matrix (:func:`column_sums`), which is
  the left-to-right order of a Python ``sum`` or ``+=`` loop; a numpy
  reduction would reorder the additions;
* random draws are made in the order the scalar code made them: one
  ``integers(0, R, size=k)`` call for a period's backoff slots in
  ascending station order, one ``uniform`` call for a period's timestamp
  jitter in receiver order (stream-identical to single draws, see
  ``tests/test_multihop_engine_pins.py``).

Every adjusted-clock change is journaled with the segment it installs,
so ``protocol.clock`` can rebuild a station's whole segment history on
read (:meth:`RelayTable.clock_of`).
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, ClassVar, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.clocks.adjusted import CONTINUITY_TOL_US, AdjustedClock, MonotonicityError
from repro.clocks.chain import adjusted_at_all, true_at_adjusted_all
from repro.clocks.oscillator import HardwareClock
from repro.core.adjustment import clamp_pace
from repro.core.config import REFERENCE_PACE_CLAMP
from repro.obs.events import emit
from repro.protocols.multihop_base import MultiHopContext, StationView

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.network.runner import NetworkRunner
    from repro.phy.channel import WindowDelivery


class PeriodFrames(NamedTuple):
    """The frames that went on air in one beacon period, in start-time
    order, as parallel arrays.

    ``timestamp`` is the sender's *normalized* time reference every
    frame carries: its synchronized-clock estimate of the period start
    ``T^j``. Its actual emission instant ``tx_true`` is the true time
    at which its adjusted clock reads ``T^j + delay_us``, where
    ``delay_us`` (hop segment plus backoff) is schedule information
    carried in the beacon. Receivers subtract ``delay_us`` from the
    reception time too (:meth:`RelayTable.observe`), so sample pairs sit
    on a clean BP grid and per-period backoff never pollutes rate
    estimation; without this normalisation the backoff jitter (~3 slots)
    compounds per hop and blows up the deep-hop error."""

    sender: np.ndarray
    hop: np.ndarray
    tx_true: np.ndarray
    delay_us: np.ndarray
    timestamp: float
    interval: int


class Entries(NamedTuple):
    """One period's decoded receptions at non-root stations, receiver
    major and in transmission-time order per receiver, with the fields
    of each reception's frame."""

    receiver: np.ndarray
    sender: np.ndarray
    hop: np.ndarray
    tx_true: np.ndarray
    delay_us: np.ndarray


class GuardRejects(NamedTuple):
    """Receivers whose chosen frame failed the guard test, ascending."""

    node: np.ndarray
    local: np.ndarray
    diff: np.ndarray
    threshold: np.ndarray


def column_sums(values: np.ndarray) -> np.ndarray:
    """Per row of a zero-padded, left-aligned rows-by-items matrix (with
    any trailing axes for several quantities at once), the sum of its
    items added left to right from ``0.0``: the order of a Python ``sum``
    over the items or of a ``total += item`` loop.

    ``np.add.accumulate`` adds strictly in sequence (every partial sum is
    an output), unlike ``np.add.reduce``, which sums in pairs. Starting
    from the first item instead of ``0.0`` can only differ in the sign
    of a zero, which the final ``+ 0.0`` settles as ``0.0 + item`` does;
    the padding adds nothing for the same reason."""
    return np.add.accumulate(values, axis=1)[:, -1] + 0.0


def left_aligned(first: np.ndarray, size: int, values: np.ndarray) -> np.ndarray:
    """``values`` (grouped by row; row ``r``'s items start at
    ``first[r]``, the rows end to end over ``size`` items) as a
    zero-padded rows-by-items matrix, each row's items from column 0
    on; trailing axes of ``values`` are kept."""
    row_of = np.zeros(size, dtype=np.intp)
    row_of[first[1:]] = 1
    row_of = row_of.cumsum()
    column = np.arange(size) - first.take(row_of)
    out = np.zeros((len(first), int(column.max()) + 1) + values.shape[1:])
    out[row_of, column] = values
    return out


def python_squares(values: np.ndarray) -> np.ndarray:
    """``x ** 2`` of every element as Python's float power computes it
    (the C library's ``pow``), which is not always the correctly rounded
    ``x * x`` that numpy's squaring returns."""
    return np.fromiter(
        map(pow, values.tolist(), repeat(2)), dtype=np.float64, count=len(values)
    )


class RelayTable:
    """Every station's relay state as arrays, and the period phases that
    act on all stations at once.

    The base class is the relay skeleton every registered scheme shares:
    TX intents, frame hops, silence with detach and resync, the orphan
    election, the upstream choice, sample normalisation, first-contact
    alignment and the clamped slew. A registered protocol subclasses it,
    sets the three class attributes below and implements
    :meth:`receive`, its batched estimator.
    """

    #: Short identifier carried in trace events (``beacon_tx`` ``proto``
    #: field) and used as the registry key / CSV tag.
    protocol_name: ClassVar[str]
    #: On-air size of one beacon; the harness feeds it to the channel's
    #: delivery model (loss probability scales with size).
    beacon_bytes: ClassVar[int]
    #: Airtime of one beacon in slots; the harness derives window
    #: segmentation and rx latency from it.
    beacon_airtime_slots: ClassVar[int]

    def __init__(self, spec: "MultiHopSpec", hws: Sequence[HardwareClock]) -> None:
        n = len(hws)
        self.spec = spec
        self.n = n
        #: The stations' oscillators (fault injection mutates them).
        self.hws: List[HardwareClock] = list(hws)
        self.present = np.ones(n, dtype=bool)
        #: -1 stands for "none" in ``hop`` and ``upstream``.
        self.hop = np.full(n, -1, dtype=np.intp)
        self.upstream = np.full(n, -1, dtype=np.intp)
        self.silent = np.zeros(n, dtype=np.intp)
        self.adjustments = np.zeros(n, dtype=np.intp)
        #: The active adjusted-clock segment ``k * hw + b`` of every
        #: station, in force from hardware time ``seg_start``.
        self.seg_start = np.full(n, -np.inf)
        self.seg_k = np.ones(n)
        self.seg_b = np.zeros(n)
        self.gather_clocks()
        # Installed segments, in order, as (ids, start, k, b) chunks; a
        # start of -inf is a fresh clock (first-contact alignment).
        self._journal: List[Tuple[np.ndarray, ...]] = []

    @classmethod
    def degenerate_runner(cls, spec: "MultiHopSpec") -> Optional["NetworkRunner"]:
        """A single-hop reference runner equivalent to ``spec`` on a
        complete graph, or ``None`` when the protocol has no single-hop
        counterpart (the harness then runs the spatial path even on
        complete topologies)."""
        return None

    def stations(self) -> List[StationView]:
        """One view per station, in id order."""
        return [StationView(i, self) for i in range(self.n)]

    def gather_clocks(self) -> None:
        """Copy every oscillator's rate and offset into ``rate`` and
        ``offset`` (the harness calls it before a run, and every period
        while faults can mutate the oscillators)."""
        self.rate = np.array([hw.rate for hw in self.hws], dtype=np.float64)
        self.offset = np.array(
            [hw.initial_offset for hw in self.hws], dtype=np.float64
        )

    # ------------------------------------------------------------------
    # Clocks
    # ------------------------------------------------------------------

    def true_at_adjusted(self, ids: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The true times at which the stations ``ids`` read the adjusted
        times ``values`` (:func:`~repro.clocks.chain.true_at_adjusted_all`)."""
        return true_at_adjusted_all(
            self.rate[ids], self.offset[ids], self.seg_k[ids], self.seg_b[ids], values
        )

    def adjusted_at(self, ids: np.ndarray, true_time: float) -> np.ndarray:
        """The adjusted clocks of the stations ``ids`` at one true time
        (:func:`~repro.clocks.chain.adjusted_at_all`)."""
        return adjusted_at_all(
            self.rate[ids], self.offset[ids], self.seg_k[ids], self.seg_b[ids], true_time
        )

    def _install(
        self, ids: np.ndarray, start: np.ndarray, k: np.ndarray, b: np.ndarray
    ) -> None:
        """Make ``(start, k, b)`` (arrays parallel to ``ids``) the active
        segment of ``ids`` and journal it."""
        self.seg_start[ids] = start
        self.seg_k[ids] = k
        self.seg_b[ids] = b
        self._journal.append((ids.copy(), start.copy(), k.copy(), b.copy()))

    def align(self, ids: np.ndarray, local: np.ndarray, est: np.ndarray) -> None:
        """First contact: give each station a fresh clock shifted by
        ``est - local`` (not a slew; the station was not synchronized)."""
        if len(ids):
            b = self.seg_b[ids] + (est - local)
            self._install(ids, np.full(len(ids), -np.inf), self.seg_k[ids], b)

    def adjust(
        self, ids: np.ndarray, k: np.ndarray, b: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """:meth:`~repro.clocks.adjusted.AdjustedClock.adjust` for each
        station (``k``, ``b``, ``t`` parallel to ``ids``): switch to
        ``(k, b)`` at hardware time ``t`` unless the slope is not finite
        and positive, ``t`` precedes the active segment's start or the
        join is discontinuous. Returns the mask of stations that
        switched."""
        gap = (k * t + b) - (self.seg_k.take(ids) * t + self.seg_b.take(ids))
        ok = (
            (0.0 < k)
            & (k < np.inf)
            & ~(t < self.seg_start.take(ids))
            & ~(np.abs(gap) > CONTINUITY_TOL_US)
        )
        if np.count_nonzero(ok) == len(ok):
            self._install(ids, t, k, b)
        elif np.count_nonzero(ok):
            self._install(ids[ok], t[ok], k[ok], b[ok])
        return ok

    def slew(self, ids: np.ndarray, slope: np.ndarray, hw_now: np.ndarray) -> None:
        """Re-slope each station's clock continuously at ``hw_now``, the
        slope clamped to ``1 +- k_clamp``; counts each successful
        adjustment."""
        k_clamp = self.spec.k_clamp
        slope = np.minimum(np.maximum(slope, 1.0 - k_clamp), 1.0 + k_clamp)
        current = self.seg_k.take(ids) * hw_now + self.seg_b.take(ids)
        ok = self.adjust(ids, slope, current - slope * hw_now, hw_now)
        self.adjustments[ids[ok]] += 1

    def clock_of(self, node_id: int) -> AdjustedClock:
        """Station ``node_id``'s adjusted clock with its whole segment
        history, replayed from the journal."""
        if len(self._journal) > 1:
            self._journal = [
                tuple(np.concatenate(column) for column in zip(*self._journal))
            ]
        clock = AdjustedClock()
        if not self._journal:
            return clock
        ids, starts, ks, bs = self._journal[0]
        mine = (ids == node_id).nonzero()[0]
        fresh = (starts[mine] == -np.inf).nonzero()[0]
        if fresh.size:
            base = mine[fresh[-1]]
            clock = AdjustedClock(float(ks[base]), float(bs[base]))
            mine = mine[fresh[-1] + 1 :]
        for start, k, b in zip(
            starts[mine].tolist(), ks[mine].tolist(), bs[mine].tolist()
        ):
            clock.adjust(k, b, start)
        return clock

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def tx_intents(
        self, period: int, active: np.ndarray, ctx: MultiHopContext
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The stations that transmit this period, ascending, and each
        one's delay (µs after the nominal period start, on its
        synchronized clock).

        The root beacons at the period start. While the network is
        orphaned, a first-hop station silent for ``l`` periods contends
        in segment 0. A synchronized relay (hop >= 1, adjusted at least
        once) whose :meth:`relay_turn` it is transmits inside its hop
        segment. Both draw one backoff slot from ``ctx.slot_rng``; below
        ``relay_probability`` 1 each relay first draws its thinning coin
        (:meth:`_thinned_intents`).
        """
        spec = self.spec
        root = ctx.root
        eligible = active & (self.hop >= 1)
        relay = eligible & (self.adjustments >= 1)
        orphan = None
        if root < 0:
            orphan = eligible & (self.hop == 1) & (self.silent >= spec.l)
            relay &= ~orphan
        turn = self.relay_turn(period, relay, ctx)
        if orphan is not None:
            turn |= orphan
        rooted = root >= 0 and bool(active[root])
        if rooted:
            turn[root] = True
        if spec.relay_probability < 1.0:
            return self._thinned_intents(turn, orphan, root, ctx)
        ids = turn.nonzero()[0]
        draws = len(ids) - rooted
        slots = np.zeros(len(ids), dtype=np.int64)
        at = int(ids.searchsorted(root)) if rooted else len(ids)
        if draws:
            drawn = ctx.slot_rng.integers(0, self._backoff_range(), size=draws)
            slots[:at] = drawn[:at]
            slots[at + 1 :] = drawn[at:]
        delays = (self.hop[ids] * spec.hop_stride_slots + slots) * spec.slot_time_us
        if orphan is not None:
            contend = orphan[ids]
            delays[contend] = slots[contend] * spec.slot_time_us
        if rooted:
            delays[at] = 0.0
        return ids, delays

    def _thinned_intents(
        self,
        candidates: np.ndarray,
        orphan: Optional[np.ndarray],
        root: int,
        ctx: MultiHopContext,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`tx_intents` under ``relay_probability < 1``: each relay
        draws its thinning coin and then, if it transmits, its slot, so
        the draws interleave per station and stay one at a time."""
        spec = self.spec
        rng = ctx.slot_rng
        p = spec.relay_probability
        backoff = self._backoff_range()
        ids: List[int] = []
        delays: List[float] = []
        for i in candidates.nonzero()[0].tolist():
            if i == root:
                delay = 0.0
            elif orphan is not None and orphan[i]:
                delay = int(rng.integers(0, backoff)) * spec.slot_time_us
            elif rng.random() < p:
                slot = int(rng.integers(0, backoff))
                delay = (int(self.hop[i]) * spec.hop_stride_slots + slot) * spec.slot_time_us
            else:
                continue
            ids.append(i)
            delays.append(delay)
        return np.array(ids, dtype=np.intp), np.array(delays, dtype=np.float64)

    def relay_turn(
        self, period: int, relay: np.ndarray, ctx: MultiHopContext
    ) -> np.ndarray:
        """Of the relay-eligible stations ``relay``, those whose turn it is
        to transmit this period, before ``relay_probability`` thinning.
        Default: every one. Returns a new mask."""
        return relay.copy()

    def _backoff_range(self) -> int:
        """Backoff slots usable inside a hop segment without bleeding the
        transmission into the next segment."""
        return max(1, self.spec.hop_stride_slots - self.beacon_airtime_slots)

    def frame_hops(self, ids: np.ndarray, root: int) -> np.ndarray:
        """The hop each transmitting station writes into its frame: 0 for
        the root, else its hop (0 while unsynchronized)."""
        hops = np.maximum(self.hop[ids], 0)
        hops[ids == root] = 0
        return hops

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
        """The protocol's batched estimator: handle every decoded
        reception of the period and return the mask of stations that
        *accepted* a beacon (the root accepts whatever it decodes and
        processes nothing, see :meth:`entries`)."""
        raise NotImplementedError(f"{type(self).__name__} defines no receive")

    def entries(
        self,
        frames: PeriodFrames,
        delivery: "WindowDelivery",
        root: int,
        accepted: np.ndarray,
    ) -> Entries:
        """The period's receptions at every station but the root, which
        accepts whatever it decodes (marked in ``accepted``)."""
        receiver = delivery.receiver
        frame = delivery.frame
        if root >= 0:
            keep = receiver != root
            if np.count_nonzero(keep) < len(keep):
                accepted[root] = True
                receiver = receiver[keep]
                frame = frame[keep]
        return Entries(
            receiver,
            frames.sender.take(frame),
            frames.hop.take(frame),
            frames.tx_true.take(frame),
            frames.delay_us.take(frame),
        )

    def rank(
        self, receiver: np.ndarray, hop: np.ndarray, tx_true: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each receiver's receptions best first: lowest hop, then
        earliest, then reception order. Returns ``(order, first, rows)``:
        the reception indices in that order, the position in ``order`` of
        each receiver's first one, and the receivers (ascending)."""
        order = np.lexsort((tx_true, hop, receiver))
        ranked = receiver.take(order)
        opens = np.empty(len(ranked), dtype=bool)
        opens[:1] = True
        np.not_equal(ranked[1:], ranked[:-1], out=opens[1:])
        first = opens.nonzero()[0]
        return order, first, ranked.take(first)

    def choose_upstream(
        self,
        receiver: np.ndarray,
        sender: np.ndarray,
        hop: np.ndarray,
        tx_true: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per receiver, the reception to synchronize from.

        Returns ``(rows, chosen)``: the receivers that take a reception,
        ascending, and the index of each one's chosen reception; the
        other receivers stay patient. A receiver sticks with its current
        upstream whenever that one's beacon decoded (switching resets the
        sample history); it switches to a strictly better hop, or to the
        best reception (lowest hop, then earliest) once the upstream went
        quiet for ``2 l`` periods (or there is none).
        """
        order, first, rows = self.rank(receiver, hop, tx_true)
        best = order.take(first)
        upstream = self.upstream.take(rows)
        from_upstream = (sender == self.upstream.take(receiver)).nonzero()[0]
        current = np.zeros(len(rows), dtype=np.intp)
        has_current = np.zeros(len(rows), dtype=bool)
        at = rows.searchsorted(receiver.take(from_upstream))
        current[at] = from_upstream
        has_current[at] = True
        stick = has_current & (hop.take(best) >= hop.take(current))
        switch = ~stick & (
            has_current | (upstream < 0) | (self.silent.take(rows) >= 2 * self.spec.l)
        )
        np.copyto(best, current, where=stick)
        take = stick | switch
        return rows[take], best[take]

    def observe(
        self,
        rows: np.ndarray,
        tx_true: np.ndarray,
        delay_us: np.ndarray,
        timestamp: float,
        jitter: np.ndarray,
        latency: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One sample ``(hw, est)`` per reception: the receiver's local
        hardware time at arrival and the sender's time estimate, both
        with the sender's schedule delay normalised out (see
        :class:`PeriodFrames`), so they sit on the BP grid."""
        hw = (self.offset[rows] + self.rate[rows] * (tx_true + latency)) - delay_us
        return hw, timestamp + latency + jitter

    def jitter(self, draws: int, ctx: MultiHopContext) -> np.ndarray:
        """``draws`` timestamp-jitter draws, in reception order."""
        if not draws:
            return np.zeros(0)
        return ctx.sample_timestamp_errors(draws)

    def trace_receptions(
        self,
        period: int,
        frames: PeriodFrames,
        delivery: "WindowDelivery",
        latency: float,
        rejects: Optional[GuardRejects] = None,
    ) -> None:
        """Emit the period's ``beacon_rx`` events receiver by receiver in
        transmission-time order, each receiver's ``guard_reject`` (from
        ``rejects``, a :class:`GuardRejects`) after its receptions."""
        senders = frames.sender.tolist()
        tx_true = frames.tx_true.tolist()
        receivers = delivery.receiver.tolist()
        pending = {}
        if rejects is not None:
            pending = {
                node: (local, diff, threshold)
                for node, local, diff, threshold in zip(
                    rejects.node.tolist(),
                    rejects.local.tolist(),
                    rejects.diff.tolist(),
                    rejects.threshold.tolist(),
                )
            }
        last = len(receivers) - 1
        for j, (receiver, f) in enumerate(zip(receivers, delivery.frame.tolist())):
            emit(
                "beacon_rx",
                t_us=tx_true[f] + latency,
                node=receiver,
                src=senders[f],
                period=period,
                proto=self.protocol_name,
            )
            if receiver in pending and (j == last or receivers[j + 1] != receiver):
                local, diff, threshold = pending[receiver]
                emit(
                    "guard_reject",
                    t_us=local,
                    node=receiver,
                    diff_us=diff,
                    threshold_us=threshold,
                )

    # ------------------------------------------------------------------
    # Silence
    # ------------------------------------------------------------------

    def end_period(self, accepted: np.ndarray, due: np.ndarray) -> None:
        """Silence bookkeeping for the stations ``due`` (present,
        non-root, not stalled) after receptions settle. Past ``4 l``
        silent periods a station detaches from its upstream
        (:meth:`detach`); past ``resync_after_periods`` its clock has
        diverged beyond any guard and it starts over
        (:meth:`reset_sync`)."""
        quiet = (due & ~accepted).nonzero()[0]
        if not len(quiet):
            return
        spec = self.spec
        silent = self.silent.take(quiet) + 1
        self.silent[quiet] = silent
        lost = quiet[(silent > 4 * spec.l) & (self.upstream.take(quiet) >= 0)]
        if len(lost):
            self.detach(lost)
        stale = quiet[(silent > spec.resync_after_periods) & (self.hop.take(quiet) >= 0)]
        if len(stale):
            self.reset_sync(stale)

    def detach(self, ids: np.ndarray) -> None:
        """Upstream lost: drop it and re-acquire from any beacon. Extend
        to drop estimator state tied to the lost upstream."""
        self.upstream[ids] = -1

    def reset_sync(self, ids: np.ndarray) -> None:
        """Discard synchronization state — the hop, the silence streak and
        (through :meth:`detach`) the upstream; re-acquire from the next
        beacon."""
        self.hop[ids] = -1
        self.silent[ids] = 0
        self.detach(ids)

    # ------------------------------------------------------------------
    # Orphan election
    # ------------------------------------------------------------------

    def elect_root(self, period: int, accepted: np.ndarray, active: np.ndarray) -> int:
        """While the network has no root, after silence bookkeeping: the
        new root, or -1 when no station volunteers.

        A volunteer is an ``active`` first-hop station that ``accepted``
        nothing (its transmission met no competing time source). The
        transmission set of the period is gone, so the single-winner rule
        is approximated by the lowest volunteering id. The winner becomes
        hop 0 with no upstream and, being the timebase now, clamps any
        transient slewing slope to ``1 +- REFERENCE_PACE_CLAMP`` (the
        single-hop ``reference_pace_clamp`` default, same rationale),
        continuously at the end of the period."""
        volunteers = np.flatnonzero(active & (self.hop == 1) & ~accepted)
        if not len(volunteers):
            return -1
        i = int(volunteers[0])
        self.hop[i] = 0
        self.upstream[i] = -1
        hw_now = self.hws[i].read((period + 1) * self.spec.beacon_period_us)
        k_old = float(self.seg_k[i])
        k, b = clamp_pace(k_old, float(self.seg_b[i]), hw_now, REFERENCE_PACE_CLAMP)
        if k != k_old and not self.adjust(
            np.array([i]), np.array([k]), np.array([b]), np.array([hw_now])
        )[0]:
            raise MonotonicityError(
                f"root pace clamp of station {i} rejected at t={hw_now}"
            )
        return i
