"""The multi-hop protocol interface.

:class:`~repro.multihop.runner.MultiHopRunner` is a *harness*: it owns
the kernel concerns only — clocks, spatial carrier sensing, the lossy
broadcast channel, churn, fault injection, tracing and metric sampling.
Everything synchronization-specific (who transmits when, what a frame
carries, how a receiver filters and applies it, when a node volunteers
as the new time source) lives behind the protocol.

A protocol has two faces:

* a :class:`~repro.protocols.multihop_table.RelayTable` subclass (the
  protocol's :attr:`MultiHopProtocol.table_cls`) holds the state of
  record of *every* station of a run as arrays indexed by station id and
  runs each phase of a beacon period as array operations over all
  stations at once: TX intents, frame hops, the batched estimator over
  every receiver, silence bookkeeping;
* a :class:`MultiHopProtocol` instance per station is a view into that
  table (``runner.nodes[i].protocol``): ``hop``, ``upstream``,
  ``silent``, ``adjustments`` and ``clock`` read (and the first four
  write) the table's arrays, and the per-station hooks — churn, the
  orphan election, re-synchronization — act on the table's row.

The harness runs each period in a fixed order of phases: TX intents
(:meth:`RelayTable.tx_intents`: root, orphan-election contenders and
relays, one backoff slot each from :attr:`MultiHopContext.slot_rng`),
carrier sensing, delivery, the receive phase (:meth:`RelayTable.receive`,
which returns which stations *accepted* a beacon — the input to silence
tracking), silence (:meth:`RelayTable.end_period`), then the orphan
election through :meth:`MultiHopProtocol.wants_root_takeover` /
:meth:`MultiHopProtocol.on_elected_root` while the network has no root.

Every registered scheme is a relay on the same skeleton, so the table
base class implements it, together with the estimator helpers (upstream
choice, sample normalisation, first-contact alignment, the clamped slew)
in array form. A registered protocol subclasses the table with its
estimator arrays and overrides :meth:`RelayTable.receive` with its
batched estimator, and optionally :meth:`RelayTable.relay_turn` (which
periods a synchronized relay transmits in) and
:meth:`RelayTable.detach` / :meth:`RelayTable.reset_sync` (to drop
estimator state). A driver with no batched form defines the per-station
:meth:`MultiHopProtocol.on_receptions` instead; the table's default
:meth:`RelayTable.receive` calls it once per receiver.

Synchronized time lives in the table's adjusted-clock segments, and only
its align/adjust/slew operations change them: the harness samples every
station from those arrays, and the chaos/property audits
(``audit_no_leaps``) read ``protocol.clock``, an
:class:`~repro.clocks.adjusted.AdjustedClock` rebuilt from the table's
segment history on each read.

Protocols register under a short name in :data:`MULTIHOP_PROTOCOLS`
(lazy dotted paths, resolved on demand — mirroring the sweep job
registry) and declare their frame economics as class attributes
(:attr:`MultiHopProtocol.beacon_bytes`,
:attr:`MultiHopProtocol.beacon_airtime_slots`), which the harness uses
for channel delivery and airtime accounting instead of hardcoding any
one protocol's constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import (
    TYPE_CHECKING,
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.clocks.adjusted import AdjustedClock, MonotonicityError
from repro.clocks.oscillator import HardwareClock
from repro.core.config import REFERENCE_PACE_CLAMP
from repro.phy.params import SSTSP_BEACON_AIRTIME_SLOTS, SSTSP_BEACON_BYTES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.multihop.topology import Topology
    from repro.network.runner import NetworkRunner
    from repro.phy.channel import BroadcastChannel
    from repro.protocols.multihop_table import RelayTable


@dataclass
class MultiHopFrame:
    """One on-air multi-hop beacon, as a per-station driver sees it.

    ``timestamp`` is the sender's *normalized* time reference: its
    synchronized-clock estimate of the period start ``T^j`` (its actual
    emission instant is ``T^j + delay_us`` on its own clock, where
    ``delay_us`` — hop segment plus backoff — is deterministic schedule
    information carried in the beacon). Receivers subtract ``delay_us``
    from the reception time too, so sample pairs sit on a clean BP grid
    and per-period backoff never pollutes rate estimation — without this
    normalisation the backoff jitter (~3 slots) compounds per hop and
    blows up the deep-hop error.

    ``tx_true`` is the true-time instant the sender's adjusted clock
    reads ``T^j + delay_us``.
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

    Neighbour introspection reads the run's station views and their relay
    table: :meth:`state_of` for one station's protocol view, :meth:`same_hop_counts` for the
    relay-rotation counts of every station, computed on the first call in
    a period.
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
        "_stations",
        "_table",
        "_same_hop",
    )

    def __init__(
        self,
        spec: "MultiHopSpec",
        slot_rng: np.random.Generator,
        rx_latency_us: float,
        channel: "BroadcastChannel",
        stations: Sequence["MultiHopProtocol"],
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
        self._stations = stations
        self._table = stations[0].table
        self._same_hop: Optional[np.ndarray] = None

    def new_period(self, root: int, orphan_election: bool) -> None:
        """Start a period: set the root view, drop the same-hop snapshot."""
        self.root = root
        self.orphan_election = orphan_election
        self._same_hop = None

    def state_of(self, node_id: int) -> "MultiHopProtocol":
        """Another station's protocol view (neighbour introspection).
        Read-only by convention."""
        return self._stations[node_id]

    def same_hop_count(self, node_id: int) -> int:
        """:meth:`same_hop_counts` of one station."""
        return int(self.same_hop_counts()[node_id])

    def same_hop_counts(self) -> np.ndarray:
        """Per station, the present stations within two hops that share
        its hop distance (0 while the station is absent or
        unsynchronized).

        The first call in a period snapshots every station's hop (absent
        or unsynchronized stations read -1) and counts matches for all
        stations at once over :meth:`Topology.two_hop_csr`. The snapshot
        holds for the rest of the period: no hop moves while TX intents
        are drawn, which is when relay rotation asks. Treat the array as
        read-only.
        """
        counts = self._same_hop
        if counts is None:
            counts = self._same_hop = self._count_same_hop()
        return counts

    def _count_same_hop(self) -> np.ndarray:
        table = self._table
        hops = table.hop.copy()
        hops[~table.present] = -1
        indptr, indices = self.topology.two_hop_csr()
        owner = hops.repeat(indptr[1:] - indptr[:-1])
        matches = (hops[indices] == owner).astype(np.intp)
        # Station i's count is the sum over its CSR segment (a cumulative
        # sum differenced at the segment bounds: empty segments give 0).
        totals = np.zeros(len(indices) + 1, dtype=np.intp)
        np.cumsum(matches, out=totals[1:])
        counts = totals[indptr[1:]] - totals[indptr[:-1]]
        counts[hops < 0] = 0
        return counts


class MultiHopProtocol:
    """One station's view of its protocol state in the run's
    :class:`~repro.protocols.multihop_table.RelayTable` (see the module
    docstring for what a subclass defines). The common state every
    scheme needs (hop distance, upstream, silence streak, adjustment
    count, the adjusted clock) is readable here so the harness, tests and
    chaos audits can treat any protocol uniformly; the table holds it.
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
    #: The array state and batched phases of this protocol (resolved
    #: lazily to the base table, which runs :meth:`on_receptions` per
    #: receiver, when a subclass names none).
    table_cls: ClassVar[Optional[Type["RelayTable"]]] = None

    def __init__(self, node_id: int, table: "RelayTable") -> None:
        self.node_id = node_id
        self.table = table
        self.spec = table.spec

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, spec: "MultiHopSpec", hws: Sequence[HardwareClock]
    ) -> List["MultiHopProtocol"]:
        """One station view per hardware clock, over one new relay table
        (a row per clock)."""
        table_cls = cls.table_cls
        if table_cls is None:
            from repro.protocols.multihop_table import RelayTable

            table_cls = RelayTable
        table = table_cls(spec, hws, cls)
        return [cls(i, table) for i in range(len(hws))]

    @classmethod
    def degenerate_runner(cls, spec: "MultiHopSpec") -> Optional["NetworkRunner"]:
        """A single-hop reference runner equivalent to ``spec`` on a
        complete graph, or ``None`` when the protocol has no single-hop
        counterpart (the harness then runs the spatial path even on
        complete topologies)."""
        return None

    # ------------------------------------------------------------------
    # The station's row of the table
    # ------------------------------------------------------------------

    @property
    def hop(self) -> Optional[int]:
        """Hop distance from the root (None = not synchronized; 0 = root)."""
        hop = int(self.table.hop[self.node_id])
        return None if hop < 0 else hop

    @hop.setter
    def hop(self, value: Optional[int]) -> None:
        self.table.hop[self.node_id] = -1 if value is None else value

    @property
    def upstream(self) -> Optional[int]:
        """The station this one synchronizes from (None = none)."""
        upstream = int(self.table.upstream[self.node_id])
        return None if upstream < 0 else upstream

    @upstream.setter
    def upstream(self, value: Optional[int]) -> None:
        self.table.upstream[self.node_id] = -1 if value is None else value

    @property
    def silent(self) -> int:
        """Consecutive periods without an accepted beacon."""
        return int(self.table.silent[self.node_id])

    @silent.setter
    def silent(self, value: int) -> None:
        self.table.silent[self.node_id] = value

    @property
    def adjustments(self) -> int:
        """Successful clock adjustments so far."""
        return int(self.table.adjustments[self.node_id])

    @property
    def clock(self) -> AdjustedClock:
        """The station's adjusted clock with its whole segment history,
        rebuilt from the table on each read (chaos monotonicity audits
        read it). Changing the returned object changes nothing."""
        return self.table.clock_of(self.node_id)

    @property
    def hw(self) -> HardwareClock:
        """The station's hardware oscillator."""
        return self.table.hws[self.node_id]

    # ------------------------------------------------------------------
    # Kernel surface (metrics, churn, chaos audits)
    # ------------------------------------------------------------------

    def reset_sync(self) -> None:
        """Discard synchronization state (see :meth:`RelayTable.reset_sync`)."""
        self.table.reset_sync(np.array([self.node_id]))

    def synchronized_time(self, hw_time: float) -> float:
        """This station's synchronized-time estimate at ``hw_time``."""
        table = self.table
        i = self.node_id
        return float(table.seg_k[i] * hw_time + table.seg_b[i])

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
    # Reception, for a driver with no batched estimator
    # ------------------------------------------------------------------

    def on_receptions(
        self, period: int, decoded: List[MultiHopFrame], ctx: MultiHopContext
    ) -> bool:
        """Handle the frames that decoded at this station this period
        (``decoded`` is non-empty, in transmission-time order). Returns
        whether a frame was *accepted* — decoded, fresh and
        plausibility-passing — which feeds silence tracking.

        The base table calls this once per receiver; a protocol whose
        table overrides :meth:`RelayTable.receive` never reaches it."""
        raise NotImplementedError(
            f"{type(self).__name__} defines neither on_receptions nor a "
            "batched RelayTable.receive"
        )

    def _choose_upstream(
        self, decoded: List[MultiHopFrame]
    ) -> Optional[MultiHopFrame]:
        """The frame to synchronize from, or ``None`` to stay patient
        (the rule of :meth:`RelayTable.choose_upstream`)."""
        chosen = self.table.choose_upstream(
            np.zeros(len(decoded), dtype=np.intp) + self.node_id,
            np.array([tx.sender for tx in decoded]),
            np.array([tx.hop for tx in decoded]),
            np.array([tx.tx_true for tx in decoded]),
        )[1]
        return decoded[int(chosen[0])] if len(chosen) else None

    def _observe(
        self, tx: MultiHopFrame, jitter: float, ctx: MultiHopContext
    ) -> Tuple[float, float]:
        """One sample ``(hw, est)`` from ``tx`` (see
        :meth:`RelayTable.observe`)."""
        hw, est = self.table.observe(
            np.array([self.node_id]),
            np.array([tx.tx_true]),
            np.array([tx.delay_us]),
            tx.timestamp,
            np.array([jitter]),
            ctx.rx_latency_us,
        )
        return float(hw[0]), float(est[0])

    def _align(self, local: float, est: float) -> None:
        """First contact (see :meth:`RelayTable.align`)."""
        self.table.align(np.array([self.node_id]), np.array([local]), np.array([est]))

    def _slew(self, slope: float, hw_now: float) -> None:
        """The clamped slew (see :meth:`RelayTable.slew`)."""
        self.table.slew(np.array([self.node_id]), np.array([slope]), np.array([hw_now]))

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
        table = self.table
        i = self.node_id
        self.hop = 0
        self.upstream = None
        hw_now = self.hw.read((period + 1) * self.spec.beacon_period_us)
        k_old = float(table.seg_k[i])
        k_new = min(
            max(k_old, 1.0 - REFERENCE_PACE_CLAMP), 1.0 + REFERENCE_PACE_CLAMP
        )
        if k_new != k_old:
            current = k_old * hw_now + float(table.seg_b[i])
            if not table.adjust(
                np.array([i]),
                np.array([k_new]),
                np.array([current - k_new * hw_now]),
                np.array([hw_now]),
            )[0]:
                raise MonotonicityError(
                    f"root pace clamp of station {i} rejected at t={hw_now}"
                )


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
