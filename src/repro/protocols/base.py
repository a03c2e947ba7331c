"""Per-node protocol driver interface.

The network harness (:mod:`repro.network.runner`) runs beacon periods as
rounds. Each round it asks every awake node's protocol driver whether and
when it wants to transmit (:meth:`SyncProtocol.begin_period`), resolves
the contention cascade on the true-time axis, asks the successful
transmitter for its beacon (:meth:`SyncProtocol.make_frame`), delivers it
through the lossy channel, and feeds each receiver
(:meth:`SyncProtocol.on_beacon`). End-of-round bookkeeping goes through
:meth:`SyncProtocol.end_period`.

Scheduling times are expressed on the node's own clock - the TSF timer for
TSF-family protocols, the adjusted clock for SSTSP - declared by
:class:`TxIntent.clock`; the harness converts them to true time through
the node's clock chain, so clock skew shifts real transmission instants
exactly as it would on hardware.

Attackers implement this same interface (see
:mod:`repro.security.attacks`): a malicious station is just a node running
different software.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mac.beacon import BeaconFrame, SecureBeaconFrame


class ClockKind(enum.Enum):
    """Which local clock a :class:`TxIntent` time refers to."""

    TSF = "tsf"
    ADJUSTED = "adjusted"
    HARDWARE = "hardware"


@dataclass(frozen=True)
class TxIntent:
    """A protocol's wish to transmit a beacon this period.

    Attributes
    ----------
    local_time:
        Scheduled transmission start on the clock named by :attr:`clock`
        (already including any random backoff the protocol drew).
    clock:
        Clock the time refers to.
    """

    local_time: float
    clock: ClockKind = ClockKind.TSF


class RxContext(NamedTuple):
    """What a receiver knows about one received beacon.

    An immutable named tuple rather than a frozen dataclass: the harness
    builds one per reception, and a tuple is several times cheaper to
    construct. Fields are read by name; construction takes positional or
    keyword arguments.

    Attributes
    ----------
    true_time:
        Reception instant in true time (harness bookkeeping only; protocols
        must not read it - nodes cannot observe true time).
    hw_time:
        The receiving node's hardware clock at the reception instant.
    est_timestamp:
        The receiver's estimate of the sender's clock *now*: beacon
        timestamp + nominal propagation delay + receive-side timestamping
        error. The paper's ``ts_ref`` with ``|ts_ref - t_ref| < epsilon``.
    period:
        Beacon-period index of the round the beacon was sent in.
    """

    true_time: float
    hw_time: float
    est_timestamp: float
    period: int


class SyncProtocol(ABC):
    """Driver for one node's synchronization behaviour.

    Subclasses hold all per-node protocol state; the harness owns clocks,
    channel and randomness and interacts only through this interface.
    """

    #: Short protocol identifier carried in trace events (``beacon_tx``
    #: ``proto`` field), so a mixed-protocol trace attributes every frame.
    protocol_name: str = "sync"

    def on_period_time(self, period: int, hw_time: float) -> None:
        """Period-start observation of this node's own hardware clock.

        The harness calls this before :meth:`begin_period` so drivers
        that need a hardware timestamp outside of beacon receptions (for
        example SSTSP's free-run slew hardening, which re-anchors the
        adjusted clock while *no* beacons arrive) have a current one.
        Default: no-op, and the harness skips the call for a driver class
        that does not override it."""

    @abstractmethod
    def begin_period(self, period: int) -> Optional[TxIntent]:
        """Called at the start of beacon period ``period``; return a
        transmission intent or None to stay silent."""

    @abstractmethod
    def make_frame(
        self, hw_time: float, period: int
    ) -> Union["BeaconFrame", "SecureBeaconFrame"]:
        """Build the beacon frame for a transmission the MAC let through.

        ``hw_time`` is the node's hardware clock at the actual transmission
        start. Returns a :class:`~repro.mac.beacon.BeaconFrame` or
        :class:`~repro.mac.beacon.SecureBeaconFrame`.
        """

    @abstractmethod
    def on_beacon(
        self, frame: Union["BeaconFrame", "SecureBeaconFrame"], rx: RxContext
    ) -> None:
        """Process one received beacon."""

    def end_period(
        self,
        period: int,
        heard_beacon: bool,
        transmitted: bool,
        tx_success: bool,
    ) -> None:
        """End-of-round hook: whether this node heard any beacon this
        period, whether it transmitted, and whether its transmission was
        the period's successful beacon. Default: no-op."""

    @abstractmethod
    def synchronized_time(self, hw_time: float) -> float:
        """The clock value this protocol synchronizes, at hardware time
        ``hw_time`` - the quantity the paper's "maximum clock difference"
        metric compares across nodes."""

    def is_synchronized(self) -> bool:
        """Whether this node is a synchronized member of the network.

        Nodes still acquiring (SSTSP's coarse phase) are not part of the
        synchronized set the "maximum clock difference" metric compares -
        the paper's joining rule keeps them out of the protocol too.
        Default: True (TSF-family nodes are always members)."""
        return True

    def on_leave(self, period: int) -> None:
        """Node left the network (churn). Default: no-op."""

    def on_return(self, period: int) -> None:
        """Node returned to the network (churn). Default: no-op."""
