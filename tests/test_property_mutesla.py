"""Stateful property test: uTESLA's security invariant.

Whatever mix of honest deliveries, drops, replays, tamperings and
forgeries a receiver sees, two invariants must hold:

1. *Authenticity*: every payload the receiver releases as authenticated
   was produced, unmodified, by the legitimate sender for that interval.
2. *Freshness*: a packet is only ever accepted for buffering during its
   own interval.

The full-crypto backend shares one memo of the two uTESLA checks among
its receivers; the last four tests check that sharing changes no
decision, no receiver state and no work count, and that a forged key or
tag, or a receiver with a different verified element, never rides on a
cached entry.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend import FullCryptoBackend, _beacon_payload
from repro.crypto.hashchain import DenseHashChain
from repro.crypto.mutesla import (
    CheckMemo,
    IntervalSchedule,
    MuTeslaReceiver,
    MuTeslaSender,
    SecuredPacket,
)
from repro.mac.beacon import SecureBeaconFrame
from repro.obs.counters import count_work
from repro.obs.events import observe_run

BP = 100_000.0
N = 64

actions = st.lists(
    st.sampled_from(["deliver", "drop", "replay", "tamper", "forge", "stale"]),
    min_size=4,
    max_size=40,
)


@given(actions=actions, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_only_genuine_fresh_payloads_authenticate(actions, seed):
    rng = np.random.default_rng(seed)
    chain = DenseHashChain(seed.to_bytes(4, "big") + b"\x00" * 12, N)
    schedule = IntervalSchedule(0.0, BP, N)
    sender = MuTeslaSender(1, chain, schedule)
    receiver = MuTeslaReceiver(schedule)
    receiver.register_sender(1, chain.anchor, N)

    genuine = {}  # interval -> payload bytes
    history = []  # packets an attacker could have captured
    released = []

    for j, action in enumerate(actions, start=1):
        if j > N:
            break
        local = j * BP + float(rng.uniform(-1_000, 1_000))
        payload = b"m%d" % j
        packet = sender.secure(payload, j)
        genuine[j] = payload
        history.append(packet)
        if action == "deliver":
            released += receiver.receive(1, packet, local)
        elif action == "drop":
            pass
        elif action == "replay" and len(history) > 1:
            old = history[int(rng.integers(0, len(history) - 1))]
            released += receiver.receive(1, old, local)
        elif action == "tamper":
            evil = SecuredPacket(
                b"EVIL" + payload, packet.interval, packet.mac_tag,
                packet.disclosed_key,
            )
            released += receiver.receive(1, evil, local)
        elif action == "forge":
            evil = SecuredPacket(
                payload, packet.interval,
                bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
                bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
            )
            released += receiver.receive(1, evil, local)
        elif action == "stale":
            # honest packet delivered two intervals late
            released += receiver.receive(1, packet, local + 2 * BP)

    for message in released:
        assert message.sender == 1
        # authenticity: the released payload is exactly what the honest
        # sender produced for that interval
        assert genuine.get(message.interval) == message.payload


@given(
    drops=st.sets(st.integers(2, 30), max_size=15),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_all_delivered_intervals_eventually_authenticate(drops, seed):
    """Liveness: with only losses (no attacks), every delivered interval
    whose successor window sees another delivery is eventually released."""
    chain = DenseHashChain(seed.to_bytes(4, "big") + b"\x01" * 12, N)
    schedule = IntervalSchedule(0.0, BP, N)
    sender = MuTeslaSender(1, chain, schedule)
    receiver = MuTeslaReceiver(schedule)
    receiver.register_sender(1, chain.anchor, N)

    delivered = []
    released = []
    for j in range(1, 32):
        packet = sender.secure(b"p%d" % j, j)
        if j in drops:
            continue
        released += receiver.receive(1, packet, j * BP)
        delivered.append(j)
    # every delivered interval except possibly the most recent buffered
    # ones (MAX_PENDING) must have been released
    released_intervals = {m.interval for m in released}
    for j in delivered[: -receiver.MAX_PENDING]:
        assert j in released_intervals


def _flip(data: bytes, index: int) -> bytes:
    """``data`` with one bit of byte ``index`` flipped."""
    out = bytearray(data)
    out[index % len(out)] ^= 0x01
    return bytes(out)


def _reference_verdict(receiver, sender, frame, local):
    """What the backend's verdict must be, from a memo-less receiver."""
    state = receiver.sender_stats(sender)
    before = (state.rejected_unsafe_interval, state.rejected_bad_key)
    packet = SecuredPacket(
        _beacon_payload(sender, frame.timestamp_us),
        frame.interval, frame.mac_tag, frame.disclosed_key,
    )
    released = receiver.receive(sender, packet, local)
    if state.rejected_unsafe_interval > before[0]:
        return (False, "unsafe_interval", ())
    if state.rejected_bad_key > before[1]:
        return (False, "bad_key", ())
    return (True, "ok", tuple(m.interval for m in released))


RECEIVERS = (10, 11, 12, 13)

frame_actions = st.lists(
    st.tuples(
        st.sampled_from(["honest", "tamper_tag", "flip_key", "stale", "replay"]),
        # which sender, modulo the number of senders
        st.integers(0, 2),
        # intervals advanced since the previous frame: > 1 skips intervals,
        # so a later disclosure releases its buffer several steps back
        st.integers(1, 3),
        # which receivers hear it (lost beacons per receiver)
        st.lists(st.booleans(), min_size=len(RECEIVERS), max_size=len(RECEIVERS)),
        st.integers(0, 15),
    ),
    min_size=4,
    max_size=30,
)


def _crypto_counts(work):
    return {k: v for k, v in work.snapshot().items() if k.startswith("crypto.")}


@given(
    actions=frame_actions,
    senders=st.integers(1, 3),
    # small caps clear the memo mid-sequence
    cap=st.sampled_from([1, 2, 3, 5, 8, CheckMemo.MAX_ENTRIES]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_memoized_backend_matches_memo_less_receivers(actions, senders, cap, seed):
    schedule = IntervalSchedule(0.0, BP, N)
    backend = FullCryptoBackend(schedule, np.random.default_rng(seed))
    nodes = tuple(range(1, senders + 1))
    for node in nodes:
        backend.register_node(node)
    reference = {}
    for r in RECEIVERS:
        reference[r] = MuTeslaReceiver(schedule, owner=r)
        for node in nodes:
            reference[r].register_sender(node, *backend.registry.lookup(node))

    # Who hears which frame when; both sides replay the same list.
    deliveries = []
    sent = []
    j = 0
    for action, pick, advance, hears, byte in actions:
        j += advance
        if j > N:
            break
        sender = nodes[pick % senders]
        honest = backend.make_frame(sender, j, j * BP + 17.0)
        frame, local = honest, j * BP
        if action == "tamper_tag":
            frame = SecureBeaconFrame(
                sender, honest.timestamp_us, j,
                _flip(honest.mac_tag, byte), honest.disclosed_key,
            )
        elif action == "flip_key":
            frame = SecureBeaconFrame(
                sender, honest.timestamp_us, j,
                honest.mac_tag, _flip(honest.disclosed_key, byte),
            )
        elif action == "stale":
            local = (j + 2) * BP
        elif action == "replay" and sent:
            frame = sent[byte % len(sent)]
        sent.append(honest)
        deliveries += [(r, frame, local) for r, heard in zip(RECEIVERS, hears) if heard]

    with patch.object(CheckMemo, "MAX_ENTRIES", cap), count_work() as shared:
        verdicts = [tuple(backend.process(r, f, t)) for r, f, t in deliveries]
    with count_work() as alone:
        expected = [
            _reference_verdict(reference[r], f.sender, f, t) for r, f, t in deliveries
        ]
    assert verdicts == expected
    assert _crypto_counts(shared) == _crypto_counts(alone)

    for r in RECEIVERS:
        for node in nodes:
            want = reference[r].sender_stats(node)
            mine = backend._receivers.get(r)
            got = None if mine is None else mine.sender_stats(node)
            if got is None:
                assert want.hash_operations == 0 and not want.pending
                continue
            assert got.hash_operations == want.hash_operations
            assert got.verified == want.verified
            assert sorted(got.pending) == sorted(want.pending)
            assert got.pending == want.pending


def test_forged_tag_under_a_cached_genuine_disclosure_is_rejected():
    """A genuine packet and a forged copy are released by the same
    ``(disclosed key, steps)``; the genuine entry is cached first."""
    schedule = IntervalSchedule(0.0, BP, N)
    backend = FullCryptoBackend(schedule, np.random.default_rng(5))
    backend.register_node(1)
    genuine = backend.make_frame(1, 2, 2 * BP)
    forged = SecureBeaconFrame(
        1, genuine.timestamp_us, 2, _flip(genuine.mac_tag, 3), genuine.disclosed_key
    )
    reference = {r: MuTeslaReceiver(schedule, owner=r) for r in (10, 11)}
    for receiver in reference.values():
        receiver.register_sender(1, *backend.registry.lookup(1))
    # Interval 3 is lost: interval 4's key releases interval 2 one step on.
    disclosure = backend.make_frame(1, 4, 4 * BP)
    for r, buffered in ((10, genuine), (11, forged)):
        for frame, local in ((buffered, 2 * BP), (disclosure, 4 * BP)):
            want = _reference_verdict(reference[r], 1, frame, local)
            assert tuple(backend.process(r, frame, local)) == want
        assert (
            backend._receivers[r].sender_stats(1).hash_operations
            == reference[r].sender_stats(1).hash_operations
        )
    genuine_state = backend._receivers[10].sender_stats(1)
    forged_state = backend._receivers[11].sender_stats(1)
    assert (genuine_state.authenticated, genuine_state.rejected_bad_mac) == (1, 0)
    assert (forged_state.authenticated, forged_state.rejected_bad_mac) == (0, 1)


def test_receivers_with_different_verified_elements_share_a_frame():
    """Receiver 10 heard every interval, receiver 11 only the first: one
    frame checks against two verified elements, at different costs."""
    schedule = IntervalSchedule(0.0, BP, N)
    backend = FullCryptoBackend(schedule, np.random.default_rng(7))
    backend.register_node(1)
    reference = {r: MuTeslaReceiver(schedule, owner=r) for r in (10, 11)}
    for receiver in reference.values():
        receiver.register_sender(1, *backend.registry.lookup(1))

    def deliver(r, frame, j):
        want = _reference_verdict(reference[r], 1, frame, j * BP)
        assert tuple(backend.process(r, frame, j * BP)) == want
        return want

    for j in (1, 2, 3):
        frame = backend.make_frame(1, j, j * BP)
        deliver(10, frame, j)
        if j == 1:
            deliver(11, frame, j)
    last = backend.make_frame(1, 4, 4 * BP)
    flipped = SecureBeaconFrame(
        1, last.timestamp_us, 4, last.mac_tag, _flip(last.disclosed_key, 2)
    )
    # A flipped key fails against either verified element ...
    for r in (10, 11):
        assert deliver(r, flipped, 4) == (False, "bad_key", ())
    # ... and the genuine key verifies against both, at different costs:
    costs = {}
    for r in (10, 11):
        state = backend._receivers[r].sender_stats(1)
        before = state.hash_operations
        costs[r] = (deliver(r, last, 4), state.hash_operations - before)
    # 10 checks one hash back to interval 3's key and releases it;
    # 11 hashes three back and releases interval 1 two steps on.
    assert costs == {10: ((True, "ok", (3,)), 1), 11: ((True, "ok", (1,)), 3 + 2)}
    for r in (10, 11):
        mine = backend._receivers[r].sender_stats(1)
        want = reference[r].sender_stats(1)
        assert (mine.verified, mine.hash_operations) == (want.verified, want.hash_operations)


def test_warm_memo_never_admits_a_forged_key_or_tag():
    """An honest frame warms the memo first; forgeries for the same
    ``(sender, interval)`` must still fail at every receiver."""
    schedule = IntervalSchedule(0.0, BP, N)
    backend = FullCryptoBackend(schedule, np.random.default_rng(3))
    backend.register_node(1)
    warm, cold = (10, 11), (12, 13, 14)
    everyone = warm + cold

    def frame(j, tag_flip=None, key_flip=None):
        honest = backend.make_frame(1, j, j * BP)
        tag, key = honest.mac_tag, honest.disclosed_key
        if tag_flip is not None:
            tag = _flip(tag, tag_flip)
        if key_flip is not None:
            key = _flip(key, key_flip)
        return SecureBeaconFrame(1, honest.timestamp_us, j, tag, key)

    for r in everyone:
        assert backend.process(r, frame(1), 1 * BP).accepted
    # Interval 2: the honest frame warms the key-chain hash and the HMAC
    # of buffered interval 1; a flipped disclosed key then fails everywhere.
    for r in warm:
        assert backend.process(r, frame(2), 2 * BP) == (True, "ok", (1,))
    for r in everyone:
        verdict = backend.process(r, frame(2, key_flip=5), 2 * BP)
        assert tuple(verdict) == (False, "bad_key", ())
    for r in cold:
        assert backend.process(r, frame(2), 2 * BP) == (True, "ok", (1,))

    # Interval 3: warm receivers buffer the honest frame, cold ones a copy
    # with one flipped tag byte; the key is genuine, so both are buffered.
    for r in warm:
        assert backend.process(r, frame(3), 3 * BP).accepted
    for r in cold:
        assert backend.process(r, frame(3, tag_flip=9), 3 * BP).accepted
    with observe_run() as observer:
        # A flipped disclosure for the buffered tag: bad key everywhere.
        for r in everyone:
            verdict = backend.process(r, frame(4, key_flip=0), 4 * BP)
            assert tuple(verdict) == (False, "bad_key", ())
        # The genuine disclosure releases only the genuine tags.
        for r in everyone:
            verdict = backend.process(r, frame(4), 4 * BP)
            released = (3,) if r in warm else ()
            assert tuple(verdict) == (True, "ok", released)
    bad_mac = sorted(
        e["node"] for e in observer.events
        if e["event"] == "mutesla_reject" and e["reason"] == "bad_mac"
    )
    assert bad_mac == list(cold)
