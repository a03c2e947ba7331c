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

from repro.clocks.adjusted import AdjustedClock
from repro.clocks.chain import ClockChain
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
    """Per-station multi-hop synchronization driver.

    Subclasses implement the four period hooks; the common state every
    scheme needs (hop distance, upstream, silence streak, the clock
    chain) lives here so the harness, tests and chaos audits can treat
    any protocol uniformly.
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
        """Discard synchronization state; re-acquire from the next beacon."""
        self.hop = None
        self.upstream = None
        self.silent = 0

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

    @abstractmethod
    def begin_period(self, period: int, ctx: MultiHopContext) -> Optional[float]:
        """TX intent: the delay (µs after the nominal period start, on
        this station's synchronized clock) at which it transmits this
        period, or ``None`` to stay quiet."""

    @abstractmethod
    def make_frame(
        self, period: int, delay_us: float, tx_true: float, ctx: MultiHopContext
    ) -> MultiHopFrame:
        """The frame for a transmission :meth:`begin_period` scheduled."""

    @abstractmethod
    def on_receptions(
        self, period: int, decoded: List[MultiHopFrame], ctx: MultiHopContext
    ) -> bool:
        """Handle the frames that decoded at this station this period
        (``decoded`` is non-empty, in transmission-time order). Returns
        whether a frame was *accepted* — decoded, fresh and
        plausibility-passing — which feeds silence tracking."""

    @abstractmethod
    def end_period(self, period: int, accepted: bool, ctx: MultiHopContext) -> None:
        """Silence bookkeeping; runs for every present non-root station
        after receptions settle."""

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
        any transient slewing slope (same rationale as the single-hop
        reference_pace_clamp), continuously at the current time."""
        self.hop = 0
        self.upstream = None
        hw_now = self.chain.hw.read((period + 1) * self.spec.beacon_period_us)
        k_old = self.clock.k
        k_new = min(max(k_old, 1.0 - 3e-4), 1.0 + 3e-4)
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


def resolve_multihop_protocol(name: str) -> Type[MultiHopProtocol]:
    """The protocol class registered under ``name``."""
    cached = _RESOLVED.get(name)
    if cached is not None:
        return cached
    try:
        target = MULTIHOP_PROTOCOLS[name]
    except KeyError:
        known = ", ".join(sorted(MULTIHOP_PROTOCOLS))
        raise ValueError(
            f"unknown multi-hop protocol {name!r} (known: {known})"
        ) from None
    module_name, _, attr = target.partition(":")
    cls = getattr(import_module(module_name), attr)
    if not (isinstance(cls, type) and issubclass(cls, MultiHopProtocol)):
        raise TypeError(f"{target} is not a MultiHopProtocol subclass")
    _RESOLVED[name] = cls
    return cls
