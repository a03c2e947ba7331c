"""uTESLA broadcast authentication (Perrig et al. [2], as used by SSTSP).

uTESLA authenticates broadcasts with *delayed key disclosure*: time is
divided into intervals; the packet of interval ``j`` is MACed under a key
``K_j`` drawn from a one-way chain and still secret during interval ``j``;
the packet of interval ``j + 1`` discloses ``K_j``, at which point
receivers (a) verify ``K_j`` against the sender's published anchor and
(b) authenticate the *buffered* packet of interval ``j``. Security rests
on the receiver being loosely synchronized: it must be able to reject a
packet claiming interval ``j`` when ``K_j`` might already be disclosed -
SSTSP's coarse phase provides exactly that loose synchronization.

The SSTSP instantiation (paper section 3.3): intervals are beacon periods;
the beacon expected at ``T_0 + j * BP`` is secured with the chain element
``h^{n-j}(s)``, valid over ``[T_0 + j*BP - BP/2, T_0 + j*BP + BP/2]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.crypto.hashchain import HashChain, verify_element
from repro.crypto.primitives import constant_time_eq, hash128_iter, hmac128
from repro.obs.counters import count
from repro.obs.events import emit, tracing_enabled


@dataclass(frozen=True)
class IntervalSchedule:
    """Maps times to uTESLA interval indices.

    Attributes
    ----------
    t0_us:
        Chain start time ``T_0`` (synchronized-time axis).
    interval_us:
        Interval length; the beacon period in SSTSP.
    length:
        Chain length ``n``; intervals run ``1..n``.
    """

    t0_us: float
    interval_us: float
    length: int

    def __post_init__(self) -> None:
        if self.interval_us <= 0:
            raise ValueError("interval_us must be > 0")
        if self.length < 1:
            raise ValueError("length must be >= 1")

    def interval_of(self, time_us: float) -> int:
        """Interval whose validity window contains ``time_us``.

        Interval ``j`` covers ``[T0 + j*BP - BP/2, T0 + j*BP + BP/2)``,
        i.e. nearest-integer rounding of ``(t - T0) / BP``.
        """
        return int(round((time_us - self.t0_us) / self.interval_us))

    def nominal_time(self, interval: int) -> float:
        """Expected beacon emission time ``T^j = T_0 + j * BP``."""
        return self.t0_us + interval * self.interval_us

    def contains(self, interval: int) -> bool:
        """Whether ``interval`` is a usable chain interval."""
        return 1 <= interval <= self.length


class SecuredPacket(NamedTuple):
    """``<payload, j, MAC_{K_j}(payload, j), K_{j-1}>`` on the wire."""

    payload: bytes
    interval: int
    mac_tag: bytes
    disclosed_key: bytes


class AuthenticatedMessage(NamedTuple):
    """A payload whose MAC verified after its key was disclosed."""

    payload: bytes
    interval: int
    sender: int


def authenticate(disclosed_key: bytes, steps: int, packet: SecuredPacket) -> bool:
    """Whether ``packet``'s tag verifies under the key ``steps`` hashes
    forward of ``disclosed_key`` (``key_i = h^{(j-1)-i}(K_{j-1})``)."""
    key = hash128_iter(disclosed_key, steps)
    expected = hmac128(key, packet.payload + b"|" + str(packet.interval).encode())
    return constant_time_eq(expected, packet.mac_tag)


class CheckMemo:
    """Per-network memo of the two uTESLA checks.

    All receivers of one broadcast verify the same disclosed key and
    authenticate the same buffered packet, so a network shares one memo
    among its receivers and runs each check once per broadcast. Each
    check is keyed on *every* input it reads:

    * :meth:`verify_key` on ``(disclosed key, claimed position, anchor,
      length, verified element)``, giving ``(ok, hash cost)``;
    * :meth:`authenticate` on ``(disclosed key, steps, buffered packet)``,
      giving accept or reject.

    A forged key or tag, or a receiver whose verified element differs, is
    therefore a different entry and is computed afresh: an entry can only
    ever be read back for the exact inputs that produced it. Receivers
    still run their own interval-safety check, update their own
    verified element and pending buffer, and count their own work.

    Each table is cleared when it reaches :attr:`MAX_ENTRIES`; the
    results are pure functions of the keys, so clearing never changes
    one. One broadcast needs a handful of entries.
    """

    #: Entries per table before it is cleared.
    MAX_ENTRIES: int = 256

    __slots__ = ("_keys", "_tags")

    def __init__(self) -> None:
        self._keys: Dict[tuple, Tuple[bool, int]] = {}
        self._tags: Dict[tuple, bool] = {}

    def verify_key(
        self,
        candidate: bytes,
        claimed_index: int,
        anchor: bytes,
        length: int,
        cache: Optional[Tuple[int, bytes]] = None,
    ) -> Tuple[bool, int]:
        """:func:`~repro.crypto.hashchain.verify_element`, once per
        distinct input."""
        memo = self._keys
        entry = (candidate, claimed_index, anchor, length, cache)
        result = memo.get(entry)
        if result is None:
            result = verify_element(candidate, claimed_index, anchor, length, cache)
            if len(memo) >= self.MAX_ENTRIES:
                memo.clear()
            memo[entry] = result
        return result

    def authenticate(self, disclosed_key: bytes, steps: int, packet: SecuredPacket) -> bool:
        """:func:`authenticate`, once per distinct input."""
        memo = self._tags
        entry = (disclosed_key, steps, packet)
        ok = memo.get(entry)
        if ok is None:
            ok = authenticate(disclosed_key, steps, packet)
            if len(memo) >= self.MAX_ENTRIES:
                memo.clear()
            memo[entry] = ok
        return ok

    def __len__(self) -> int:
        return len(self._keys) + len(self._tags)


class MuTeslaSender:
    """Sender side: secure one packet per interval with the chain key."""

    def __init__(self, node_id: int, chain: HashChain, schedule: IntervalSchedule) -> None:
        if chain.length != schedule.length:
            raise ValueError(
                f"chain length {chain.length} != schedule length {schedule.length}"
            )
        self.node_id = node_id
        self.chain = chain
        self.schedule = schedule

    def secure(self, payload: bytes, interval: int) -> SecuredPacket:
        """Build the on-wire packet for ``interval``."""
        if not self.schedule.contains(interval):
            raise ValueError(f"interval {interval} outside chain schedule")
        key = self.chain.key_for_interval(interval)
        tag = hmac128(key, payload + b"|" + str(interval).encode())
        disclosed = self.chain.disclosed_key_for_interval(interval)
        return SecuredPacket(payload, interval, tag, disclosed)


@dataclass
class _SenderState:
    """Receiver-side per-sender verification state."""

    anchor: bytes
    length: int
    #: ``(chain position, value)`` of the newest verified element; lets key
    #: verification hash only the gap instead of all the way to the anchor.
    verified: Optional[Tuple[int, bytes]] = None
    #: Packets awaiting key disclosure, by interval.
    pending: Dict[int, SecuredPacket] = field(default_factory=dict)
    hash_operations: int = 0
    rejected_unsafe_interval: int = 0
    rejected_bad_key: int = 0
    rejected_bad_mac: int = 0
    authenticated: int = 0


class MuTeslaReceiver:
    """Receiver side: safety check, key verification, delayed authentication.

    One receiver instance handles any number of senders, keyed by their
    published anchors (looked up once and pinned).

    Receivers of one network may share a :class:`CheckMemo` so each
    broadcast's key verification and delayed authentication run once.
    Each receiver still checks the interval itself, keeps its own
    verified element and pending buffer, and counts the hash operations
    it would have done on its own.
    """

    #: How many unauthenticated packets to buffer per sender. SSTSP needs
    #: the previous interval only; the paper's section 3.4 budgets buffering
    #: "the synchronization beacons received during last 2 BPs".
    MAX_PENDING: int = 2

    def __init__(
        self,
        schedule: IntervalSchedule,
        owner: Optional[int] = None,
        memo: Optional[CheckMemo] = None,
    ) -> None:
        self.schedule = schedule
        self.owner = owner
        self._senders: Dict[int, _SenderState] = {}
        self._verify_key = verify_element if memo is None else memo.verify_key
        self._authenticate = authenticate if memo is None else memo.authenticate

    def register_sender(self, sender: int, anchor: bytes, length: int) -> None:
        """Pin a sender's published anchor (from the trusted registry)."""
        state = self._senders.get(sender)
        if state is not None:
            if state.anchor != anchor or state.length != length:
                raise ValueError(f"conflicting anchor for sender {sender}")
            return
        self._senders[sender] = _SenderState(anchor=bytes(anchor), length=length)

    def sender_stats(self, sender: int) -> Optional[_SenderState]:
        """Verification counters for ``sender`` (None if unknown)."""
        return self._senders.get(sender)

    def receive(
        self,
        sender: int,
        packet: SecuredPacket,
        local_time_us: float,
    ) -> List[AuthenticatedMessage]:
        """Process one packet received at synchronized local time
        ``local_time_us``; return any packets that became authenticated.

        Implements the paper's check sequence:

        1. *Safety / freshness*: the packet's claimed interval must be the
           receiver's current interval (otherwise its key may already be
           public and the MAC proves nothing).
        2. *Key verification*: the disclosed key must hash to the pinned
           anchor (or to a previously verified element).
        3. *Delayed authentication*: the disclosed key authenticates the
           buffered packet of the previous interval.

        The packet itself is buffered and only ever released by a *later*
        packet's disclosure - beacon ``j`` "cannot be used for clock
        adjustment until its integrity is verified".
        """
        state = self._senders.get(sender)
        if state is None:
            return []
        j = packet.interval
        schedule = self.schedule
        # 1. Safety condition (IntervalSchedule.interval_of and .contains).
        if (
            j != int(round((local_time_us - schedule.t0_us) / schedule.interval_us))
            or not 1 <= j <= schedule.length
        ):
            state.rejected_unsafe_interval += 1
            emit(
                "mutesla_reject",
                t_us=local_time_us,
                node=self.owner,
                sender=sender,
                interval=j,
                reason="unsafe_interval",
            )
            return []
        # 2. Disclosed key is h^{n-j+1}(s), i.e. chain position n - j + 1.
        disclosed = packet.disclosed_key
        position = state.length - j + 1
        verified = state.verified
        ok, cost = self._verify_key(
            disclosed, position, state.anchor, state.length, verified
        )
        state.hash_operations += cost
        count("crypto.verify")
        count("crypto.hash_ops", cost)
        if not ok:
            state.rejected_bad_key += 1
            emit(
                "mutesla_reject",
                t_us=local_time_us,
                node=self.owner,
                sender=sender,
                interval=j,
                reason="bad_key",
            )
            return []
        if verified is None or position < verified[0]:
            state.verified = (position, disclosed)
        # 3. Authenticate every buffered packet of an interval before j with
        # the now-disclosed key. The key of interval i < j - 1 derives from
        # the disclosed key of interval j - 1 by hashing forward
        # (key_i = h^{(j-1)-i}(K_{j-1})), so a lost beacon does not strand
        # older buffered packets.
        released: List[AuthenticatedMessage] = []
        # Every accepted packet emits auth/defer events: build them only
        # when a run is traced.
        tracing = tracing_enabled()
        pending = state.pending
        ready = []
        for interval in pending:
            if interval < j:
                ready.append(interval)
        if len(ready) > 1:
            ready.sort()
        for interval in ready:
            buffered = pending.pop(interval)
            steps = (j - 1) - interval
            state.hash_operations += steps
            count("crypto.hash_ops", steps)
            count("crypto.auth_check")
            if self._authenticate(disclosed, steps, buffered):
                state.authenticated += 1
                released.append(
                    AuthenticatedMessage(buffered.payload, buffered.interval, sender)
                )
                if tracing:
                    emit(
                        "mutesla_auth",
                        t_us=local_time_us,
                        node=self.owner,
                        sender=sender,
                        interval=interval,
                    )
            else:
                state.rejected_bad_mac += 1
                emit(
                    "mutesla_reject",
                    t_us=local_time_us,
                    node=self.owner,
                    sender=sender,
                    interval=interval,
                    reason="bad_mac",
                )
        # Buffer this packet until its own key is disclosed.
        pending[j] = packet
        count("crypto.defer")
        if tracing:
            emit(
                "mutesla_defer",
                t_us=local_time_us,
                node=self.owner,
                sender=sender,
                interval=j,
            )
        while len(pending) > self.MAX_PENDING:
            pending.pop(min(pending))
        return released
