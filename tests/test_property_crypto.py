"""Property-based tests on hash chains, uTESLA and contention (hypothesis)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.crypto.fractal import FractalTraversal
from repro.crypto.hashchain import DenseHashChain, verify_element
from repro.crypto.primitives import PrimitiveMemo, hash128_iter, hmac128
from repro.mac.contention import resolve_contention

seeds = st.binary(min_size=1, max_size=32)
lengths = st.integers(min_value=1, max_value=256)


class TestPrimitiveMemo:
    """The memo is keyed on the full inputs: any differing byte, key or
    step count is a different entry, and clearing never changes a result."""

    calls = st.lists(
        st.tuples(
            st.sampled_from([b"k0" * 8, b"k1" * 8, b"k0" * 7 + b"k2"]),
            st.sampled_from([b"m0", b"m1", b"m0|1"]),
            st.integers(min_value=0, max_value=3),
        ),
        min_size=1,
        max_size=40,
    )

    @given(calls=calls)
    @settings(max_examples=60)
    def test_results_equal_the_pure_functions(self, calls):
        memo = PrimitiveMemo()
        for key, message, steps in calls:
            assert memo.hash128_iter(key, steps) == hash128_iter(key, steps)
            assert memo.hmac128(key, message) == hmac128(key, message)

    def test_clearing_at_the_cap_keeps_results(self):
        memo = PrimitiveMemo()
        cap = PrimitiveMemo.MAX_ENTRIES
        for i in range(3 * cap):
            data = i.to_bytes(4, "big")
            # revisit an older input after every new one
            for d in (data, (i // 2).to_bytes(4, "big")):
                assert memo.hash128_iter(d, 2) == hash128_iter(d, 2)
                assert memo.hmac128(d, b"m") == hmac128(d, b"m")
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
