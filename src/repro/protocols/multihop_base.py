"""The multi-hop protocol interface.

:class:`~repro.multihop.runner.MultiHopRunner` is a *harness*: it owns
the kernel concerns only — clocks, spatial carrier sensing, the lossy
broadcast channel, churn, fault injection, tracing and metric sampling.
Everything synchronization-specific (who transmits when, what a frame
carries, how a receiver filters and applies it, when a node volunteers
as the new time source) lives behind the protocol.

A registered protocol is one class, a
:class:`~repro.protocols.multihop_table.RelayTable` subclass. The table
holds the state of record of *every* station of a run as arrays indexed
by station id and runs each phase of a beacon period as array
operations over all stations at once: TX intents, frame hops, the
batched estimator over every receiver, silence bookkeeping and the
orphan election. Its class attributes ``protocol_name``,
``beacon_bytes`` and ``beacon_airtime_slots`` declare the protocol's
name and frame economics, which the harness uses for channel delivery
and airtime accounting instead of hardcoding any one protocol's
constants.

One :class:`StationView` per station (``runner.nodes[i].protocol``,
built by :meth:`RelayTable.stations`) reads one row of the table for the
shared :class:`~repro.network.lane.Lane`, the fault injector, the chaos
audits and the tests: ``hop``, ``upstream`` and ``silent`` read and
write the table's arrays, ``adjustments`` and ``clock`` read them, and
``on_return`` / ``reset_sync`` act on the row.

The harness runs each period in a fixed order of phases: TX intents
(:meth:`RelayTable.tx_intents`: root, orphan-election contenders and
relays, one backoff slot each from :attr:`MultiHopContext.slot_rng`),
carrier sensing, delivery, the receive phase (:meth:`RelayTable.receive`,
which returns which stations *accepted* a beacon — the input to silence
tracking), silence (:meth:`RelayTable.end_period`), then, while the
network has no root, the orphan election (:meth:`RelayTable.elect_root`).

Synchronized time lives in the table's adjusted-clock segments, and only
its align/adjust/slew operations change them: the harness samples every
station from those arrays, and the chaos/property audits
(``audit_no_leaps``) read ``protocol.clock``, an
:class:`~repro.clocks.adjusted.AdjustedClock` rebuilt from the table's
segment history on each read.

Protocols register under a short name in :data:`MULTIHOP_PROTOCOLS`
(lazy dotted paths, resolved on demand — mirroring the sweep job
registry).
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple, Type

import numpy as np

from repro.clocks.adjusted import AdjustedClock
from repro.clocks.oscillator import HardwareClock

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.multihop.runner import MultiHopSpec
    from repro.multihop.topology import Topology
    from repro.phy.channel import BroadcastChannel
    from repro.protocols.multihop_table import RelayTable


class MultiHopContext:
    """The harness services a protocol phase may touch.

    One instance per run. The harness calls :meth:`new_period` at the
    top of every period, which refreshes :attr:`root` (-1 while the
    network has no live root) and drops the same-hop snapshot.

    Timestamp jitter comes from the channel's stream, shared with every
    other lane: :attr:`sample_timestamp_errors` (``n`` draws at once,
    stream-identical to ``n`` single draws) is the channel's own bound
    method.

    :meth:`same_hop_counts` reads the run's relay table: the
    relay-rotation counts of every station, computed on the first call
    in a period.
    """

    __slots__ = (
        "spec",
        "topology",
        "slot_rng",
        "rx_latency_us",
        "root",
        "sample_timestamp_errors",
        "_table",
        "_same_hop",
    )

    def __init__(
        self,
        spec: "MultiHopSpec",
        slot_rng: np.random.Generator,
        rx_latency_us: float,
        channel: "BroadcastChannel",
        table: "RelayTable",
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
        #: ``n`` jitter draws of per-reception timestamp-estimate error
        #: at once, as an array (µs).
        self.sample_timestamp_errors: Callable[[int], np.ndarray] = (
            channel.sample_timestamp_errors
        )
        self._table = table
        self._same_hop: Optional[np.ndarray] = None

    def new_period(self, root: int) -> None:
        """Start a period: set the root view, drop the same-hop snapshot."""
        self.root = root
        self._same_hop = None

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


class StationView:
    """One station's row of the run's
    :class:`~repro.protocols.multihop_table.RelayTable`, the same for
    every protocol. The common state every scheme has (hop distance,
    upstream, silence streak, adjustment count, the adjusted clock) is
    readable here so the harness, tests and chaos audits can treat any
    protocol uniformly; the table holds it.
    """

    def __init__(self, node_id: int, table: "RelayTable") -> None:
        self.node_id = node_id
        self.table = table

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

    def is_synchronized(self) -> bool:
        """Whether the station is attached to the time-distribution tree."""
        return self.hop is not None

    def reset_sync(self) -> None:
        """Discard synchronization state (see :meth:`RelayTable.reset_sync`)."""
        self.table.reset_sync(np.array([self.node_id]))

    def on_leave(self, period: int) -> None:
        """Graceful departure keeps state (the station may return in sync)."""

    def on_return(self, period: int) -> None:
        """A returning/restarted station re-acquires from scratch."""
        self.reset_sync()


#: Registered multi-hop protocols: short name -> "module:Class" of the
#: protocol's :class:`~repro.protocols.multihop_table.RelayTable`
#: subclass. Lazy dotted paths (resolved on first use) keep this table
#: import-cheap and cycle-free, exactly like the sweep job registry.
MULTIHOP_PROTOCOLS: Dict[str, str] = {
    "sstsp": "repro.protocols.multihop_sstsp:SstspRelayTable",
    "beaconless": "repro.protocols.multihop_beaconless:BeaconlessTable",
    "coop": "repro.protocols.multihop_coop:CoopAverageTable",
}

_RESOLVED: Dict[str, Type["RelayTable"]] = {}


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


def resolve_multihop_protocol(name: str) -> Type["RelayTable"]:
    """The protocol class (its relay table) registered under ``name``."""
    cached = _RESOLVED.get(name)
    if cached is not None:
        return cached
    check_multihop_protocols((name,))
    from repro.protocols.multihop_table import RelayTable

    target = MULTIHOP_PROTOCOLS[name]
    module_name, _, attr = target.partition(":")
    cls = getattr(import_module(module_name), attr)
    if not (isinstance(cls, type) and issubclass(cls, RelayTable)):
        raise TypeError(f"{target} is not a RelayTable subclass")
    _RESOLVED[name] = cls
    return cls
