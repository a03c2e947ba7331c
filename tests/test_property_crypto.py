"""Property-based tests on hash chains, uTESLA and contention (hypothesis)."""

from unittest.mock import patch

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.crypto.fractal import FractalTraversal
from repro.crypto.hashchain import DenseHashChain, verify_element
from repro.crypto.mutesla import CheckMemo, SecuredPacket, authenticate
from repro.crypto.primitives import HASH_BYTES, hash128_iter, hmac128
from repro.mac.contention import resolve_contention

seeds = st.binary(min_size=1, max_size=32)
lengths = st.integers(min_value=1, max_value=256)


def _flip_byte(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index] ^= 0x01
    return bytes(out)


class TestCheckMemo:
    """The memo is keyed on every input of each check: any differing
    byte, position, step count or verified element is a different entry,
    and clearing never changes a result."""

    LENGTH = 12
    CHAIN = DenseHashChain(b"check-memo-seed", LENGTH)

    @classmethod
    def packet(cls, key_position: int, steps: int, payload: bytes, interval: int):
        """A packet MACed under the key ``steps`` hashes forward of the
        chain element at ``key_position``."""
        key = hash128_iter(cls.CHAIN.element(key_position), steps)
        tag = hmac128(key, payload + b"|" + str(interval).encode())
        return SecuredPacket(payload, interval, tag, cls.CHAIN.element(key_position + 1))

    positions = st.integers(min_value=0, max_value=LENGTH)
    key_calls = st.tuples(
        positions,  # candidate: the chain element at this position ...
        st.booleans(),  # ... or a copy with one flipped byte
        positions,  # claimed position
        st.one_of(st.none(), positions),  # verified element's position
        st.booleans(),  # a verified element with a flipped byte
    )
    tag_calls = st.tuples(
        st.integers(min_value=0, max_value=LENGTH - 1),
        st.integers(min_value=0, max_value=3),  # steps
        st.sampled_from([b"m0", b"m1", b"m0|1"]),
        st.integers(min_value=1, max_value=3),  # interval
        st.booleans(),  # a forged (flipped) tag
        st.integers(min_value=0, max_value=3),  # steps the receiver claims
    )

    @given(
        keys=st.lists(key_calls, min_size=1, max_size=30),
        tags=st.lists(tag_calls, min_size=1, max_size=30),
    )
    @settings(max_examples=60)
    def test_results_equal_the_pure_checks(self, keys, tags):
        memo = CheckMemo()
        chain, length = self.CHAIN, self.LENGTH
        for pos, flip, claimed, verified_pos, flip_verified in keys:
            candidate = chain.element(pos)
            if flip:
                candidate = _flip_byte(candidate, pos % HASH_BYTES)
            cache = None
            if verified_pos is not None:
                value = chain.element(verified_pos)
                if flip_verified:
                    value = _flip_byte(value, 0)
                cache = (verified_pos, value)
            args = (candidate, claimed, chain.anchor, length, cache)
            assert memo.verify_key(*args) == verify_element(*args)
        for pos, steps, payload, interval, forged, claimed_steps in tags:
            packet = self.packet(pos, steps, payload, interval)
            if forged:
                packet = packet._replace(mac_tag=_flip_byte(packet.mac_tag, steps))
            disclosed = chain.element(pos)
            assert memo.authenticate(disclosed, claimed_steps, packet) == authenticate(
                disclosed, claimed_steps, packet
            )

    def test_flipping_any_byte_of_any_key_field_is_a_miss(self):
        chain, length = self.CHAIN, self.LENGTH
        key_args = (chain.element(5), 5, chain.anchor, length, (6, chain.element(6)))
        packet = self.packet(4, 1, b"B|1|2.000000", 2)
        tag_args = (chain.element(4), 1, packet)
        memo = CheckMemo()
        assert memo.verify_key(*key_args) == (True, 1)
        assert memo.authenticate(*tag_args) is True

        def variants(value):
            """``value`` with one field changed, every way there is."""
            if isinstance(value, bytes):
                return [_flip_byte(value, i) for i in range(len(value))]
            if isinstance(value, int):
                return [value - 1, value + 1]
            if value is None:
                return []
            out = []  # a tuple or a packet: change one of its fields
            for i, field in enumerate(value):
                for changed in variants(field):
                    fields = value[:i] + (changed,) + value[i + 1:]
                    out.append(value._make(fields) if hasattr(value, "_make") else fields)
            return out

        key_variants = [
            key_args[:i] + (changed,) + key_args[i + 1:]
            for i, field in enumerate(key_args)
            for changed in variants(field)
        ] + [key_args[:4] + (None,)]
        tag_variants = [
            tag_args[:i] + (changed,) + tag_args[i + 1:]
            for i, field in enumerate(tag_args)
            for changed in variants(field)
        ]
        with patch.object(CheckMemo, "MAX_ENTRIES", 10**6):
            for args in key_variants:
                before = len(memo)
                assert memo.verify_key(*args) == verify_element(*args)
                assert len(memo) == before + 1, args  # computed afresh
            for args in tag_variants:
                before = len(memo)
                assert memo.authenticate(*args) == authenticate(*args)
                assert len(memo) == before + 1, args
        # The untouched inputs still hit their entries.
        before = len(memo)
        assert memo.verify_key(*key_args) == (True, 1)
        assert memo.authenticate(*tag_args) is True
        assert len(memo) == before

    def test_clearing_at_the_cap_keeps_results(self):
        memo = CheckMemo()
        cap = CheckMemo.MAX_ENTRIES
        chain, length = self.CHAIN, self.LENGTH
        for i in range(3 * cap):
            # revisit an older input after every new one
            for n in (i, i // 2):
                key_args = (n.to_bytes(HASH_BYTES, "big"), 3, chain.anchor, length, None)
                assert memo.verify_key(*key_args) == verify_element(*key_args)
                packet = SecuredPacket(b"m%d" % n, 1, bytes(HASH_BYTES), b"")
                tag_args = (chain.element(1), n % 3, packet)
                assert memo.authenticate(*tag_args) == authenticate(*tag_args)
            assert len(memo) <= 2 * cap


class TestChainProperties:
    @given(seed=seeds, length=lengths)
    @settings(max_examples=30)
    def test_every_element_verifies_against_anchor(self, seed, length):
        chain = DenseHashChain(seed, length)
        for j in range(0, length + 1, max(1, length // 7)):
            ok, _ = verify_element(chain.element(j), j, chain.anchor, length)
            assert ok

    @given(seed=seeds, length=lengths, data=st.data())
    @settings(max_examples=30)
    def test_shifted_claims_never_verify(self, seed, length, data):
        assume(length >= 2)
        chain = DenseHashChain(seed, length)
        j = data.draw(st.integers(min_value=0, max_value=length - 1))
        wrong = data.draw(
            st.integers(min_value=0, max_value=length).filter(lambda x: x != j)
        )
        ok, _ = verify_element(chain.element(j), wrong, chain.anchor, length)
        assert not ok

    @given(seed=seeds, length=lengths)
    @settings(max_examples=30)
    def test_fractal_equals_dense(self, seed, length):
        dense = DenseHashChain(seed, length)
        traversal = FractalTraversal(seed, length)
        assert traversal.anchor == dense.anchor
        for expected in range(length - 1, -1, -1):
            pos, value = traversal.next()
            assert pos == expected
            assert value == dense.element(pos)

    @given(seed=seeds, a=st.integers(0, 64), b=st.integers(0, 64))
    @settings(max_examples=50)
    def test_iterated_hash_composes(self, seed, a, b):
        assert hash128_iter(hash128_iter(seed, a), b) == hash128_iter(seed, a + b)


class TestContentionProperties:
    times = st.lists(
        st.floats(min_value=0.0, max_value=500.0),
        min_size=1,
        max_size=25,
        unique=True,
    )

    @staticmethod
    def resolve(times, airtime=36.0):
        return resolve_contention(
            list(range(len(times))), times, airtime_us=airtime, cca_us=9.0
        )

    @given(times=times)
    @settings(max_examples=100)
    def test_at_most_one_success(self, times):
        result = self.resolve(times)
        successes = [tx for tx in result.transmissions if tx.success]
        assert len(successes) <= 1

    @given(times=times)
    @settings(max_examples=100)
    def test_every_candidate_accounted_once(self, times):
        result = self.resolve(times)
        transmitted = [m for tx in result.transmissions for m in tx.members]
        # transmitted members are distinct candidates
        assert len(transmitted) == len(set(transmitted))
        assert set(transmitted) <= set(range(len(times)))
        # with no success, every candidate transmitted
        if result.first_success is None:
            assert sorted(transmitted) == list(range(len(times)))

    @given(times=times)
    @settings(max_examples=100)
    def test_nobody_cancelled_before_first_success(self, times):
        result = self.resolve(times)
        success = result.first_success
        transmitted = {m for tx in result.transmissions for m in tx.members}
        untransmitted = [i for i in range(len(times)) if i not in transmitted]
        if success is None:
            assert untransmitted == []
        else:
            for station in untransmitted:
                assert times[station] >= success.start_us

    @given(times=times, airtime=st.floats(min_value=1.0, max_value=100.0))
    @settings(max_examples=100)
    def test_transmissions_never_overlap(self, times, airtime):
        result = self.resolve(times, airtime)
        spans = sorted(
            (tx.start_us, tx.end_us) for tx in result.transmissions
        )
        for (_s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert s2 >= e1 - 1e-9

    @given(
        lone=st.floats(min_value=0.0, max_value=1000.0),
    )
    def test_single_candidate_always_wins(self, lone):
        result = resolve_contention([7], [lone], 36.0, 9.0)
        assert result.first_success.members == (7,)
