"""The multi-hop protocol interface.

:class:`~repro.multihop.runner.MultiHopRunner` is a *harness*: it owns
the kernel concerns only — clocks, spatial carrier sensing, the lossy
broadcast channel, churn, fault injection, tracing and metric sampling.
Everything synchronization-specific (who transmits when, what a frame
carries, how a receiver filters and applies it, when a node volunteers
as the new time source) lives behind :class:`MultiHopProtocol`, the
multi-hop analogue of the single-hop
:class:`~repro.protocols.base.SyncProtocol`: period hooks, a TX intent,
frame construction, reception handling, a synchronized-time query — plus
the hooks single-hop has no need for (hop tracking, upstream selection,
root takeover).

One instance drives one station. The harness calls the hooks in a fixed
order each beacon period, for nodes in ascending id order:

1. :meth:`MultiHopProtocol.begin_period` — return the transmission
   delay inside the beacon window, or ``None`` to stay quiet. All
   randomness must come from :attr:`MultiHopContext.slot_rng` (the
   harness's contention stream), keeping runs bit-reproducible across
   refactors of either side.
2. :meth:`MultiHopProtocol.make_frame` — build the
   :class:`MultiHopFrame` for a station that transmitted.
3. :meth:`MultiHopProtocol.on_receptions` — handle every frame that
   decoded at this station this period; return whether one was
   *accepted* (the input to silence tracking). Timestamp-estimate
   jitter is drawn via :attr:`MultiHopContext.sample_timestamp_error`,
   or for a whole reception set at once via
   :attr:`MultiHopContext.sample_timestamp_errors`.
4. :meth:`MultiHopProtocol.end_period` — silence bookkeeping.
5. :meth:`MultiHopProtocol.wants_root_takeover` /
   :meth:`MultiHopProtocol.on_elected_root` — the orphan-election
   hooks, consulted only while the network has no root.

Every registered scheme is a relay on the same skeleton, so the base
class implements it: hooks 1, 2, 4 and 5 are concrete (root /
orphan-election / hop-segment scheduling, the normalized frame, silence
with detach and resync, root takeover), and so are the estimator helpers
(upstream choice, sample normalisation, first-contact alignment, the
clamped slew). A protocol defines :meth:`MultiHopProtocol.on_receptions`
— its estimator — and optionally overrides
:meth:`MultiHopProtocol._relays` (which periods a synchronized relay
transmits in) and :meth:`MultiHopProtocol._detach` /
:meth:`MultiHopProtocol.reset_sync` (to drop estimator state).

Synchronized time must be expressed through the station's
:class:`~repro.clocks.chain.ClockChain` (mutating or replacing
``chain.adjusted``): the harness samples every station through the
chain, and the chaos/property audits (``audit_no_leaps``) read
``protocol.clock.is_monotonic`` — a protocol that stepped some private
variable instead would dodge both.

Protocols register under a short name in :data:`MULTIHOP_PROTOCOLS`
(lazy dotted paths, resolved on demand — mirroring the sweep job
registry) and declare their frame economics as class attributes
(:attr:`MultiHopProtocol.beacon_bytes`,
:attr:`MultiHopProtocol.beacon_airtime_slots`), which the harness uses
for channel delivery and airtime accounting instead of hardcoding any
one protocol's constants.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import import_module
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.clocks.adjusted import AdjustedClock, MonotonicityError
from repro.clocks.chain import ClockChain
from repro.core.config import REFERENCE_PACE_CLAMP
from repro.phy.params import SSTSP_BEACON_AIRTIME_SLOTS, SSTSP_BEACON_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.multihop.topology import Topology
    from repro.network.node import Node
    from repro.network.runner import NetworkRunner
    from repro.phy.channel import BroadcastChannel


@dataclass
class MultiHopFrame:
    """One on-air multi-hop beacon.

    ``timestamp`` is the sender's *normalized* time reference: its
    synchronized-clock estimate of the period start ``T^j`` (its actual
    emission instant is ``T^j + delay_us`` on its own clock, where
    ``delay_us`` — hop segment plus backoff — is deterministic schedule
    information carried in the beacon). Receivers subtract ``delay_us``
    from the reception time too, so sample pairs sit on a clean BP grid
    and per-period backoff never pollutes rate estimation — without this
    normalisation the backoff jitter (~3 slots) compounds per hop and
    blows up the deep-hop error.

    ``tx_true`` is filled by the harness (the true-time instant the
    sender's adjusted clock reads ``T^j + delay_us``).
    """

    sender: int
    hop: int
    interval: int
    tx_true: float
    timestamp: float
    delay_us: float


#: Best-first order of a reception set: lowest hop, then earliest.
_HOP_THEN_TIME = attrgetter("hop", "tx_true")


class MultiHopContext:
    """The harness services a protocol hook may touch.

    One instance per run. The harness calls :meth:`new_period` at the
    top of every period, which refreshes :attr:`root` and
    :attr:`orphan_election` and drops the same-hop snapshot.

    Timestamp jitter comes from the channel's stream, shared with every
    other lane: :attr:`sample_timestamp_error` (one draw) and
    :attr:`sample_timestamp_errors` (``n`` draws at once, stream-identical
    to ``n`` single draws) are the channel's own bound methods.

    Neighbour introspection reads the runner's node list (indexed by
    station id) directly: :meth:`state_of` for one station's protocol
    state, :meth:`same_hop_count` for the relay-rotation count, which is
    computed for every station at once on its first call in a period.
    """

    __slots__ = (
        "spec",
        "topology",
        "slot_rng",
        "rx_latency_us",
        "root",
        "orphan_election",
        "sample_timestamp_error",
        "sample_timestamp_errors",
        "_nodes",
        "_same_hop",
    )

    def __init__(
        self,
        spec: "MultiHopSpec",
        slot_rng: np.random.Generator,
        rx_latency_us: float,
        channel: "BroadcastChannel",
        nodes: Sequence["Node"],
    ) -> None:
        self.spec = spec
        self.topology: "Topology" = spec.topology
        #: The shared contention RNG; every backoff/thinning draw comes
        #: from here so the draw sequence is a property of the run, not
        #: of which module hosts the drawing code.
        self.slot_rng = slot_rng
        #: Beacon airtime plus propagation: the lag between a frame's
        #: ``tx_true`` and its decode instant at any receiver.
        self.rx_latency_us = rx_latency_us
        #: Current root id (-1 while orphaned). Refreshed per period.
        self.root = spec.root
        #: True while the network has no live root. Refreshed per period.
        self.orphan_election = False
        #: One draw of per-reception timestamp-estimate jitter (µs).
        self.sample_timestamp_error: Callable[[], float] = (
            channel.sample_timestamp_error
        )
        #: ``n`` jitter draws at once, as an array (µs).
        self.sample_timestamp_errors: Callable[[int], np.ndarray] = (
            channel.sample_timestamp_errors
        )
        self._nodes = nodes
        self._same_hop: Optional[List[int]] = None

    def new_period(self, root: int, orphan_election: bool) -> None:
        """Start a period: set the root view, drop the same-hop snapshot."""
        self.root = root
        self.orphan_election = orphan_election
        self._same_hop = None

    def state_of(self, node_id: int) -> "MultiHopProtocol":
        """Another station's protocol state (neighbour introspection —
        e.g. relay-phase coloring). Read-only by convention."""
        return self._nodes[node_id].protocol

    def same_hop_count(self, node_id: int) -> int:
        """Present stations within two hops of ``node_id`` that share its
        hop distance (0 while ``node_id`` is absent or unsynchronized).

        The first call in a period snapshots every station's hop (absent
        or unsynchronized stations read -1) and counts matches for all
        stations at once over :meth:`Topology.two_hop_csr`. The snapshot
        holds for the rest of the period: no hop moves while TX intents
        are drawn, which is when relay rotation asks.
        """
        counts = self._same_hop
        if counts is None:
            counts = self._same_hop = self._count_same_hop()
        return counts[node_id]

    def _count_same_hop(self) -> List[int]:
        hops = np.fromiter(
            (
                -1 if not node.present or node.protocol.hop is None
                else node.protocol.hop
                for node in self._nodes
            ),
            dtype=np.intp,
            count=len(self._nodes),
        )
        indptr, indices = self.topology.two_hop_csr()
        owner = np.repeat(hops, np.diff(indptr))
        matches = (hops[indices] == owner).astype(np.intp)
        # Station i's count is the sum over its CSR segment (a cumulative
        # sum differenced at the segment bounds: empty segments give 0).
        totals = np.zeros(len(indices) + 1, dtype=np.intp)
        np.cumsum(matches, out=totals[1:])
        counts = totals[indptr[1:]] - totals[indptr[:-1]]
        counts[hops < 0] = 0
        return counts.tolist()


class MultiHopProtocol(ABC):
    """Per-station multi-hop synchronization driver: the relay skeleton
    every registered scheme shares (see the module docstring for what a
    subclass defines). The common state every scheme needs (hop
    distance, upstream, silence streak, the clock chain) lives here so
    the harness, tests and chaos audits can treat any protocol uniformly.
    """

    #: Short identifier carried in trace events (``beacon_tx`` ``proto``
    #: field) and used as the registry key / CSV tag.
    protocol_name: str = "multihop"
    #: On-air size of one beacon; the harness feeds it to the channel's
    #: delivery model (loss probability scales with size).
    beacon_bytes: int = SSTSP_BEACON_BYTES
    #: Airtime of one beacon in slots; the harness derives window
    #: segmentation and rx latency from it.
    beacon_airtime_slots: int = SSTSP_BEACON_AIRTIME_SLOTS

    def __init__(self, node_id: int, chain: ClockChain, spec: "MultiHopSpec") -> None:
        self.node_id = node_id
        self.chain = chain
        self.spec = spec
        self.hop: Optional[int] = None  # None = not yet synchronized; 0 = root
        self.upstream: Optional[int] = None
        self.silent = 0
        self.adjustments = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, spec: "MultiHopSpec", chains: Sequence[ClockChain]
    ) -> List["MultiHopProtocol"]:
        """One station per chain. Override to wire protocol-family shared
        state (e.g. the SSTSP relay-rotation phase table)."""
        return [cls(i, chain, spec) for i, chain in enumerate(chains)]

    @classmethod
    def degenerate_runner(cls, spec: "MultiHopSpec") -> Optional["NetworkRunner"]:
        """A single-hop reference runner equivalent to ``spec`` on a
        complete graph, or ``None`` when the protocol has no single-hop
        counterpart (the harness then runs the spatial path even on
        complete topologies)."""
        return None

    # ------------------------------------------------------------------
    # Kernel surface (metrics, churn, chaos audits)
    # ------------------------------------------------------------------

    @property
    def clock(self) -> AdjustedClock:
        """The station's adjusted clock (chaos monotonicity audits read it)."""
        return self.chain.adjusted

    def reset_sync(self) -> None:
        """Discard synchronization state — the hop, the silence streak and
        (through :meth:`_detach`) the upstream; re-acquire from the next
        beacon."""
        self.hop = None
        self.silent = 0
        self._detach()

    def synchronized_time(self, hw_time: float) -> float:
        """This station's synchronized-time estimate at ``hw_time``."""
        return self.chain.adjusted.read_current(hw_time)

    def is_synchronized(self) -> bool:
        """Whether the station is attached to the time-distribution tree."""
        return self.hop is not None

    def is_reference(self) -> bool:
        """Whether this station is the current root time source."""
        return self.hop == 0

    def on_leave(self, period: int) -> None:
        """Graceful departure keeps state (the station may return in sync)."""

    def on_return(self, period: int) -> None:
        """A returning/restarted station re-acquires from scratch."""
        self.reset_sync()

    # ------------------------------------------------------------------
    # Period hooks
    # ------------------------------------------------------------------

    def begin_period(self, period: int, ctx: MultiHopContext) -> Optional[float]:
        """TX intent: the delay (µs after the nominal period start, on
        this station's synchronized clock) at which it transmits this
        period, or ``None`` to stay quiet.

        The root beacons at the period start. While the network is
        orphaned, a first-hop station silent for ``l`` periods contends
        in segment 0. A synchronized relay (hop >= 1, adjusted at least
        once) whose :meth:`_relays` turn it is transmits inside its hop
        segment. Both draw one backoff slot from ``ctx.slot_rng``.
        """
        spec = self.spec
        if self.node_id == ctx.root:
            return 0.0
        if ctx.orphan_election and self.hop == 1 and self.silent >= spec.l:
            # orphaned children of a departed root: contend in segment 0
            slot = int(ctx.slot_rng.integers(0, self._backoff_range()))
            return slot * spec.slot_time_us
        hop = self.hop
        if (
            hop is not None
            and hop >= 1
            and self.adjustments >= 1
            and self._relays(period, ctx)
        ):
            slot = int(ctx.slot_rng.integers(0, self._backoff_range()))
            return (hop * spec.hop_stride_slots + slot) * spec.slot_time_us
        return None

    def _relays(self, period: int, ctx: MultiHopContext) -> bool:
        """Whether a synchronized relay transmits this period. Default:
        the shared ``relay_probability`` thinning — one ``ctx.slot_rng``
        draw, made only when the probability is below 1."""
        p = self.spec.relay_probability
        return p >= 1.0 or ctx.slot_rng.random() < p

    def _backoff_range(self) -> int:
        """Backoff slots usable inside a hop segment without bleeding the
        transmission into the next segment."""
        return max(1, self.spec.hop_stride_slots - self.spec.airtime_slots)

    def make_frame(
        self, period: int, delay_us: float, tx_true: float, ctx: MultiHopContext
    ) -> MultiHopFrame:
        """The frame for a transmission :meth:`begin_period` scheduled.

        The timestamp is the normalized reference: the sender's clock
        reads exactly ``nominal + delay`` at tx, so its ``T^j`` estimate
        is ``nominal``."""
        hop = (
            0
            if self.node_id == ctx.root
            else (self.hop if self.hop is not None else 0)
        )
        return MultiHopFrame(
            sender=self.node_id,
            hop=hop,
            interval=period,
            tx_true=tx_true,
            timestamp=period * self.spec.beacon_period_us,
            delay_us=delay_us,
        )

    @abstractmethod
    def on_receptions(
        self, period: int, decoded: List[MultiHopFrame], ctx: MultiHopContext
    ) -> bool:
        """Handle the frames that decoded at this station this period
        (``decoded`` is non-empty, in transmission-time order). Returns
        whether a frame was *accepted* — decoded, fresh and
        plausibility-passing — which feeds silence tracking."""

    def end_period(self, period: int, accepted: bool, ctx: MultiHopContext) -> None:
        """Silence bookkeeping; runs for every present non-root station
        after receptions settle. Past ``4 l`` silent periods the station
        detaches from its upstream (:meth:`_detach`); past
        ``resync_after_periods`` its clock has diverged beyond any guard
        and it starts over (:meth:`reset_sync`)."""
        if accepted:
            return
        spec = self.spec
        self.silent += 1
        if self.silent > 4 * spec.l and self.upstream is not None:
            self._detach()
        if self.silent > spec.resync_after_periods and self.hop is not None:
            self.reset_sync()

    def _detach(self) -> None:
        """Upstream lost: drop it and re-acquire from any beacon. Extend
        to drop estimator state tied to the lost upstream."""
        self.upstream = None

    # ------------------------------------------------------------------
    # Estimator helpers
    # ------------------------------------------------------------------

    def _choose_upstream(
        self, decoded: List[MultiHopFrame]
    ) -> Optional[MultiHopFrame]:
        """The frame to synchronize from, or ``None`` to stay patient.

        Sorts ``decoded`` best first (lowest hop, then earliest). Sticks
        with the current upstream whenever its beacon decoded (switching
        resets the sample history); switches to a strictly better hop, or
        to the best frame once the upstream went quiet for ``2 l``
        periods (or there is none)."""
        decoded.sort(key=_HOP_THEN_TIME)
        best = decoded[0]
        upstream = self.upstream
        current = next((tx for tx in decoded if tx.sender == upstream), None)
        if current is not None and best.hop >= current.hop:
            return current
        if (
            current is not None  # strictly better hop: re-hang
            or upstream is None
            or self.silent >= 2 * self.spec.l
        ):
            return best
        return None

    def _observe(
        self, tx: MultiHopFrame, jitter: float, ctx: MultiHopContext
    ) -> Tuple[float, float]:
        """One sample ``(hw, est)`` from ``tx``: the local hardware time
        of its arrival and the sender's time estimate, both with the
        sender's schedule delay normalised out (see
        :class:`MultiHopFrame`), so they sit on the BP grid."""
        latency = ctx.rx_latency_us
        hw = self.chain.hw.read(tx.tx_true + latency) - tx.delay_us
        return hw, tx.timestamp + latency + jitter

    def _align(self, local: float, est: float) -> None:
        """First contact: shift the adjusted clock by ``est - local``
        (a fresh clock, not a slew; the station was not yet synchronized)."""
        clock = self.clock
        self.chain.adjusted = AdjustedClock(clock.k, clock.b + (est - local))

    def _slew(self, slope: float, hw_now: float) -> None:
        """Re-slope the adjusted clock continuously at ``hw_now``, the
        slope clamped to ``1 +- k_clamp``; counts a successful adjustment."""
        k_clamp = self.spec.k_clamp
        slope = min(max(slope, 1.0 - k_clamp), 1.0 + k_clamp)
        clock = self.clock
        current = clock.read_current(hw_now)
        try:
            clock.adjust(slope, current - slope * hw_now, hw_now)
        except MonotonicityError:
            return
        self.adjustments += 1

    # ------------------------------------------------------------------
    # Orphan election
    # ------------------------------------------------------------------

    def wants_root_takeover(self, accepted: bool) -> bool:
        """While the network is orphaned: does this station volunteer as
        the new root? Default: a first-hop station that heard nothing
        acceptable (its transmission met no competing time source)."""
        return self.hop == 1 and not accepted

    def on_elected_root(self, period: int, ctx: MultiHopContext) -> None:
        """Promotion to root. The new root is the timebase: clamp away
        any transient slewing slope to ``1 +- REFERENCE_PACE_CLAMP`` (the
        single-hop ``reference_pace_clamp`` default, same rationale),
        continuously at the current time."""
        self.hop = 0
        self.upstream = None
        hw_now = self.chain.hw.read((period + 1) * self.spec.beacon_period_us)
        k_old = self.clock.k
        k_new = min(
            max(k_old, 1.0 - REFERENCE_PACE_CLAMP), 1.0 + REFERENCE_PACE_CLAMP
        )
        if k_new != k_old:
            self.clock.slew_to(0.0, k_new, at_local_time=hw_now)


#: Registered multi-hop protocols: short name -> "module:Class". Lazy
#: dotted paths (resolved on first use) keep this table import-cheap and
#: cycle-free, exactly like the sweep job registry.
MULTIHOP_PROTOCOLS: Dict[str, str] = {
    "sstsp": "repro.protocols.multihop_sstsp:SstspRelayProtocol",
    "beaconless": "repro.protocols.multihop_beaconless:BeaconlessProtocol",
    "coop": "repro.protocols.multihop_coop:CoopAverageProtocol",
}

_RESOLVED: Dict[str, Type[MultiHopProtocol]] = {}


def available_multihop_protocols() -> Tuple[str, ...]:
    """Registered protocol names, in registry (insertion) order."""
    return tuple(MULTIHOP_PROTOCOLS)


def check_multihop_protocols(names: Sequence[str]) -> None:
    """Raise ``ValueError``, listing the registered names, when
    ``names`` is empty or holds a name that is not registered."""
    known = ", ".join(sorted(MULTIHOP_PROTOCOLS))
    if not names:
        raise ValueError(f"no multi-hop protocol given (known: {known})")
    for name in names:
        if name not in MULTIHOP_PROTOCOLS:
            raise ValueError(f"unknown multi-hop protocol {name!r} (known: {known})")


def resolve_multihop_protocol(name: str) -> Type[MultiHopProtocol]:
    """The protocol class registered under ``name``."""
    cached = _RESOLVED.get(name)
    if cached is not None:
        return cached
    check_multihop_protocols((name,))
    target = MULTIHOP_PROTOCOLS[name]
    module_name, _, attr = target.partition(":")
    cls = getattr(import_module(module_name), attr)
    if not (isinstance(cls, type) and issubclass(cls, MultiHopProtocol)):
        raise TypeError(f"{target} is not a MultiHopProtocol subclass")
    _RESOLVED[name] = cls
    return cls
