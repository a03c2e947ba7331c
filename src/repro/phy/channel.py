"""Broadcast channels with loss, jamming and (spatially) collisions.

For the single-hop IBSS (:class:`BroadcastChannel`) collisions are
resolved *before* delivery by the MAC contention cascade
(:mod:`repro.mac.contention`); the channel's job is the per-receiver fate
of an un-collided transmission: a packet-error draw per receiver or per
transmission (including the Gilbert-Elliott burst-loss chain), suppression
during jamming windows, and bookkeeping for the traffic-overhead model.

:class:`SpatialBroadcastChannel` extends this to a radio topology: a
receiver hears exactly its graph neighbours, and two audible frames that
overlap in time collide *at that receiver only* (hidden terminals). The
multi-hop lane delivers its whole beacon window through
:meth:`SpatialBroadcastChannel.deliver_window`, which is what gives it
the same loss models, jam windows and fault overrides as the single-hop
lane — plus per-link error overrides and receiver-scoped jamming that a
spatial network additionally supports.

Fault injection (:mod:`repro.faults`) can force a temporary
per-transmission loss probability (:meth:`BroadcastChannel.set_per_override`)
to model loss bursts independent of the configured loss model.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.obs.counters import count
from repro.phy.params import PhyParams

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.topology import Topology


@dataclass
class ChannelStats:
    """Running counters over the life of a channel."""

    transmissions: int = 0
    collisions: int = 0
    deliveries: int = 0
    per_drops: int = 0
    jammed_drops: int = 0
    bytes_on_air: int = 0

    def delivery_ratio(self) -> float:
        """Delivered / attempted receiver-deliveries (1.0 when nothing sent)."""
        attempted = self.deliveries + self.per_drops + self.jammed_drops
        return self.deliveries / attempted if attempted else 1.0


class BroadcastChannel:
    """Fully connected wireless broadcast domain (an IBSS).

    Parameters
    ----------
    phy:
        Timing/loss parameters.
    rng:
        Stream for the per-receiver packet-error draws (and the
        Gilbert-Elliott state transitions when that loss model is on).
    """

    def __init__(self, phy: PhyParams, rng: np.random.Generator) -> None:
        self.phy = phy
        self._rng = rng
        self.stats = ChannelStats()
        # Jam windows sorted by start; _jam_max_end[i] is the prefix
        # maximum of end times over windows[0..i], so a membership query
        # is one bisect instead of a scan over all windows (chaos plans
        # add many windows per run).
        self._jam_windows: List[Tuple[float, float]] = []
        self._jam_starts: List[float] = []
        self._jam_max_end: List[float] = []
        self._per_override: Optional[float] = None
        self._ge_bad = False

    def add_jam_window(self, start_us: float, end_us: float) -> None:
        """Suppress all receptions whose transmission starts in
        ``[start_us, end_us)`` (true time). Used by pulse-delay attacks
        and injected jam faults."""
        if end_us <= start_us:
            raise ValueError("jam window must have end > start")
        window = (float(start_us), float(end_us))
        idx = bisect.bisect_right(self._jam_starts, window[0])
        self._jam_windows.insert(idx, window)
        self._jam_starts.insert(idx, window[0])
        # Rebuild the prefix maximum from the insertion point on.
        del self._jam_max_end[idx:]
        running = self._jam_max_end[-1] if self._jam_max_end else -np.inf
        for _, end in self._jam_windows[idx:]:
            running = max(running, end)
            self._jam_max_end.append(running)

    def is_jammed(self, true_time: float) -> bool:
        """Whether a transmission starting at ``true_time`` is jammed."""
        idx = bisect.bisect_right(self._jam_starts, true_time) - 1
        return idx >= 0 and true_time < self._jam_max_end[idx]

    def set_per_override(self, per: Optional[float]) -> None:
        """Force a per-transmission loss probability (None restores the
        configured loss model). Fault injection uses this for loss bursts."""
        if per is not None and not 0.0 <= per <= 1.0:
            raise ValueError("per override must be in [0, 1] or None")
        self._per_override = per

    def record_collision(self, parties: int) -> None:
        """Account a collision of ``parties`` simultaneous transmitters."""
        self.stats.collisions += 1
        self.stats.transmissions += parties

    def _gilbert_elliott_per(self) -> float:
        """Advance the two-state loss chain once and return the loss
        probability for this transmission."""
        phy = self.phy
        count("phy.ge_step")
        if self._ge_bad:
            if self._rng.random() < phy.ge_p_bad_to_good:
                self._ge_bad = False
        else:
            if self._rng.random() < phy.ge_p_good_to_bad:
                self._ge_bad = True
        return phy.ge_per_bad if self._ge_bad else phy.packet_error_rate

    def broadcast(
        self,
        sender: int,
        receivers: Sequence[int],
        true_time: float,
        size_bytes: int,
    ) -> List[int]:
        """Deliver one un-collided transmission; return receivers that decode it.

        With ``loss_model="per_receiver"`` each receiver independently
        loses the frame with probability ``phy.packet_error_rate``; with
        ``"per_transmission"`` one coin decides for everyone; with
        ``"gilbert_elliott"`` the per-transmission coin's bias follows the
        two-state burst chain. If ``true_time`` falls in a jam window,
        nobody receives.
        """
        self.stats.transmissions += 1
        self.stats.bytes_on_air += size_bytes
        receivers = [r for r in receivers if r != sender]
        count("phy.broadcast")
        count("phy.delivery_attempt", len(receivers))
        if not receivers:
            return []
        if self.is_jammed(true_time):
            self.stats.jammed_drops += len(receivers)
            return []
        if self._per_override is not None:
            per = self._per_override
            whole_frame = True
        elif self.phy.loss_model == "gilbert_elliott":
            per = self._gilbert_elliott_per()
            whole_frame = True
        else:
            per = self.phy.packet_error_rate
            whole_frame = self.phy.loss_model == "per_transmission"
        if per <= 0.0:
            self.stats.deliveries += len(receivers)
            return list(receivers)
        if whole_frame:
            count("phy.per_draw")
            if self._rng.random() < per:
                self.stats.per_drops += len(receivers)
                return []
            self.stats.deliveries += len(receivers)
            return list(receivers)
        count("phy.per_draw", len(receivers))
        lost = self._rng.random(len(receivers)) < per
        delivered = [r for r, drop in zip(receivers, lost) if not drop]
        self.stats.per_drops += len(receivers) - len(delivered)
        self.stats.deliveries += len(delivered)
        return delivered

    def sample_timestamp_error(self) -> float:
        """Receive-side timestamping error for one reception.

        Uniform in ``+- timestamp_jitter_us``; this is the source of the
        paper's ``epsilon`` bound on ``|ts_ref - t_ref|``. Computed as
        numpy's ``uniform(-j, j)`` computes it (``low + (high - low) *
        next_double``) from one ``random()`` draw, which gives the same
        value and generator state without ``uniform``'s call overhead.
        """
        count("phy.ts_jitter_draw")
        j = self.phy.timestamp_jitter_us
        if j == 0.0:
            return 0.0
        return -j + (j + j) * self._rng.random()

    def sample_timestamp_errors(self, n: int) -> np.ndarray:
        """Receive-side timestamping errors for ``n`` receptions at once.

        Stream-identical to ``n`` calls of :meth:`sample_timestamp_error`:
        the same values in the same order, the generator left in the same
        state, and ``phy.ts_jitter_draw`` counted ``n`` times.
        """
        count("phy.ts_jitter_draw", n)
        j = self.phy.timestamp_jitter_us
        if j == 0.0:
            return np.zeros(n)
        return self._rng.uniform(-j, j, size=n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"BroadcastChannel(stats={self.stats})"


@dataclass
class WindowDelivery:
    """Outcome of one spatial beacon window.

    Attributes
    ----------
    receptions:
        Receiver id -> sender ids whose frames it decoded, in
        transmission-time order.
    collisions:
        Number of receiver-side collision groups (two or more audible
        frames overlapping at one receiver).
    """

    receptions: Dict[int, List[int]] = field(default_factory=dict)
    collisions: int = 0


class SpatialBroadcastChannel(BroadcastChannel):
    """Topology-aware broadcast channel for the multi-hop lane.

    A receiver hears exactly its graph neighbours; collision grouping is
    therefore *per receiver* (hidden terminals garble each other at a
    common neighbour even though the MAC let both transmit). Loss models,
    jam windows and fault overrides are inherited from
    :class:`BroadcastChannel`; two spatial-only effects are added on top:
    per-link error overrides (:meth:`set_link_per`) and receiver-scoped
    jam windows (:meth:`add_jam_window` with ``receivers``).
    """

    def __init__(
        self,
        phy: PhyParams,
        rng: np.random.Generator,
        topology: "Topology",
    ) -> None:
        super().__init__(phy, rng)
        self.topology = topology
        self._neighbors: Dict[int, Tuple[int, ...]] = {
            node: topology.neighbors(node) for node in range(topology.n)
        }
        self._link_per: Dict[Tuple[int, int], float] = {}
        self._scoped_jams: List[Tuple[float, float, FrozenSet[int]]] = []

    def set_link_per(
        self, sender: int, receiver: int, per: Optional[float]
    ) -> None:
        """Override the packet-error rate of one directed link
        (``None`` restores the channel-wide model for that link)."""
        if per is None:
            self._link_per.pop((sender, receiver), None)
            return
        if not 0.0 <= per <= 1.0:
            raise ValueError("link per must be in [0, 1] or None")
        self._link_per[(sender, receiver)] = float(per)

    def add_jam_window(
        self,
        start_us: float,
        end_us: float,
        receivers: Optional[Iterable[int]] = None,
    ) -> None:
        """Jam ``[start_us, end_us)``; with ``receivers`` given, only
        those stations are deafened (a localised jammer), otherwise the
        whole network is (matching the single-hop channel)."""
        if receivers is None:
            super().add_jam_window(start_us, end_us)
            return
        if end_us <= start_us:
            raise ValueError("jam window must have end > start")
        self._scoped_jams.append(
            (float(start_us), float(end_us), frozenset(receivers))
        )

    def _jammed_for(self, receiver: int, true_time: float) -> bool:
        if self.is_jammed(true_time):
            return True
        for start, end, targets in self._scoped_jams:
            if start <= true_time < end and receiver in targets:
                return True
        return False

    def deliver_window(
        self,
        transmissions: Sequence[Tuple[int, float]],
        receivers: Sequence[int],
        airtime_us: float,
        size_bytes: int = 0,
        audible: Optional[Callable[[int, int], bool]] = None,
    ) -> WindowDelivery:
        """Resolve one beacon window's receiver-side fates.

        Parameters
        ----------
        transmissions:
            ``(sender, start_true_time)`` of every frame that went on air
            (the MAC's :func:`repro.mac.contention.resolve_neighborhood`
            output). Whole-frame loss draws follow this order; receiver
            grouping sorts by start time (stably) itself.
        receivers:
            Distinct stations listening this window (callers pass them in
            ascending id order — the draw order contract).
        airtime_us:
            Frame airtime (defines receiver-side overlap).
        size_bytes:
            Frame size, accounted once per transmission.
        audible:
            Optional extra gate ``(receiver, sender) -> bool`` applied on
            top of the topology (partition faults cut links this way).

        Per receiver, audible frames are grouped by time overlap: a group
        of two or more is a collision (nothing decodes, no loss draw); a
        lone frame survives jamming and one loss draw. With the default
        ``per_receiver`` loss model the draw happens per (receiver,
        frame); ``per_transmission`` / Gilbert-Elliott models and the
        fault-injection override draw one whole-frame fate per
        transmission, exactly like :meth:`BroadcastChannel.broadcast`.

        Delivery runs from the sender side: the transmissions are sorted
        by start time once and each is fanned out over its sender's
        neighbours, which (the graph being undirected) yields every
        receiver's audible frames in the same stable time order as
        filtering per receiver and sorting. Every lone frame that needs a
        coin (per-receiver loss or a per-link override) is recorded in
        receiver-then-time order and all coins come from one
        ``rng.random(k)`` call, which returns the values ``k`` scalar
        draws in that order would — the stream the receiver-major loop
        consumed. ``tests/test_delivery_oracle.py`` keeps that loop as
        the reference and checks the two agree draw for draw. Each
        ``phy.*`` work-counter site is counted once per window, with the
        window's total; jam windows are only consulted when one exists.
        """
        if airtime_us <= 0:
            raise ValueError("airtime_us must be > 0")
        count("phy.window")
        stats = self.stats
        stats.transmissions += len(transmissions)
        stats.bytes_on_air += size_bytes * len(transmissions)

        # Whole-frame fates (one draw per transmission, in the given
        # order) when the loss model or a fault override calls for them.
        frame_delivered: Optional[Dict[int, bool]] = None
        frame_draws = 0
        if self._per_override is not None or self.phy.loss_model != "per_receiver":
            frame_delivered = {}
            for sender, _start in transmissions:
                if self._per_override is not None:
                    per = self._per_override
                elif self.phy.loss_model == "gilbert_elliott":
                    per = self._gilbert_elliott_per()
                else:
                    per = self.phy.packet_error_rate
                if per <= 0.0:
                    frame_delivered[sender] = True
                else:
                    frame_draws += 1
                    frame_delivered[sender] = bool(self._rng.random() >= per)

        # Sender-side fan-out into per-receiver lists, in time order.
        heard_by: Dict[int, List[Tuple[int, float]]] = {r: [] for r in receivers}
        neighbors = self._neighbors
        for frame in sorted(transmissions, key=itemgetter(1)):
            sender = frame[0]
            for receiver in neighbors.get(sender, ()):
                heard = heard_by.get(receiver)
                if heard is not None and (
                    audible is None or audible(receiver, sender)
                ):
                    heard.append(frame)

        delivery = WindowDelivery()
        receptions = delivery.receptions
        jams = bool(self._jam_starts or self._scoped_jams)
        link_per = self._link_per
        static_per = self.phy.packet_error_rate
        # A lone frame that needs a coin is decoded provisionally; its
        # loss threshold and (receiver, decoded list, position) are kept
        # in receiver-then-time order and settled after the one draw.
        thresholds: List[float] = []
        coins: List[Tuple[int, List[int], int]] = []
        attempts = 0
        collisions = 0
        jammed = 0
        frame_drops = 0
        for receiver in receivers:
            heard = heard_by[receiver]
            if not heard:
                continue
            decoded: List[int] = []
            index = 0
            while index < len(heard):
                group_end = heard[index][1] + airtime_us
                j = index + 1
                while j < len(heard) and heard[j][1] < group_end:
                    group_end = max(group_end, heard[j][1] + airtime_us)
                    j += 1
                if j - index > 1:
                    collisions += 1
                    index = j
                    continue
                sender, start = heard[index]
                index = j
                attempts += 1
                if jams and self._jammed_for(receiver, start):
                    jammed += 1
                    continue
                link = link_per.get((sender, receiver)) if link_per else None
                if link is not None:
                    per = link
                elif frame_delivered is not None:
                    if frame_delivered[sender]:
                        decoded.append(sender)
                    else:
                        frame_drops += 1
                    continue
                else:
                    per = static_per
                if per > 0.0:
                    thresholds.append(per)
                    coins.append((receiver, decoded, len(decoded)))
                decoded.append(sender)
            if decoded:
                receptions[receiver] = decoded

        if frame_draws or thresholds:
            count("phy.per_draw", frame_draws + len(thresholds))
        lost: List[int] = []
        if thresholds:
            draws = self._rng.random(len(thresholds))
            lost = np.flatnonzero(draws < np.asarray(thresholds)).tolist()
            # Undo the provisional decodes that lost their coin, last
            # first so earlier positions in the same list stay valid.
            for k in reversed(lost):
                receiver, decoded, position = coins[k]
                del decoded[position]
                if not decoded:
                    del receptions[receiver]
        if collisions:
            count("phy.collision_group", collisions)
            delivery.collisions = collisions
            stats.collisions += collisions
        if attempts:
            count("phy.delivery_attempt", attempts)
        stats.jammed_drops += jammed
        stats.per_drops += frame_drops + len(lost)
        stats.deliveries += attempts - jammed - frame_drops - len(lost)
        return delivery


def merge_stats(stats: Iterable[ChannelStats]) -> ChannelStats:
    """Aggregate several channels' counters (multi-replica experiments)."""
    total = ChannelStats()
    for s in stats:
        total.transmissions += s.transmissions
        total.collisions += s.collisions
        total.deliveries += s.deliveries
        total.per_drops += s.per_drops
        total.jammed_drops += s.jammed_drops
        total.bytes_on_air += s.bytes_on_air
    return total
