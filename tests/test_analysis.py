"""Unit tests for metrics, traces and the overhead models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.analysis.metrics import (
    INDUSTRY_THRESHOLD_US,
    SyncTrace,
    TraceRecorder,
    audit_no_leaps,
    max_pairwise_difference,
    sync_latency_us,
)
from repro.analysis.overhead import (
    beacon_overhead,
    chain_storage_report,
    fractal_storage_bound,
    receiver_buffer_bytes,
    traffic_overhead,
    traffic_overhead_ratio,
)
from repro.clocks.adjusted import AdjustedClock, ClockSegment
from repro.phy.params import OFDM_54MBPS
from repro.sim.units import S


def make_trace(max_diffs, bp_us=100_000.0):
    recorder = TraceRecorder()
    for i, d in enumerate(max_diffs):
        recorder.record((i + 1) * bp_us, [0.0, d], reference_id=3)
    return recorder.finalize()


class TestMetrics:
    def test_max_pairwise(self):
        assert max_pairwise_difference([5.0, 1.0, 3.0]) == 4.0
        assert max_pairwise_difference([7.0]) == 0.0
        assert max_pairwise_difference([]) == 0.0

    def test_recorder_round_trip(self):
        recorder = TraceRecorder()
        recorder.record(100.0, [10.0, 30.0, 20.0], reference_id=2)
        trace = recorder.finalize()
        assert trace.max_diff_us[0] == 20.0
        assert trace.present_counts[0] == 3
        assert trace.reference_ids[0] == 2
        assert trace.mean_vs_true_us[0] == pytest.approx(20.0 - 100.0)

    def test_trace_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SyncTrace(
                np.zeros(3), np.zeros(2), np.zeros(3), np.zeros(3, int), np.zeros(3, int)
            )

    def test_window(self):
        trace = make_trace([1, 2, 3, 4, 5])
        sub = trace.window(150_000.0, 350_000.0)
        assert list(sub.max_diff_us) == [2, 3]

    def test_window_rejects_inverted_interval(self):
        trace = make_trace([1, 2, 3])
        with pytest.raises(ValueError, match="end_us > start_us"):
            trace.window(300_000.0, 100_000.0)
        with pytest.raises(ValueError, match="end_us > start_us"):
            trace.window(100_000.0, 100_000.0)

    def test_window_valid_but_sparse_interval_is_empty_not_error(self):
        trace = make_trace([1, 2, 3])
        sub = trace.window(900_000.0, 950_000.0)
        assert len(sub) == 0

    def test_steady_state_skips_transient(self):
        trace = make_trace([100.0] * 25 + [5.0] * 75)
        assert trace.steady_state_error_us() == 5.0

    def test_steady_state_short_trace_keeps_a_sample(self):
        # skip_fraction on a 1-sample trace must not round to an empty
        # tail (used to yield a numpy empty-slice warning and NaN)
        trace = make_trace([7.0])
        with np.errstate(all="raise"):
            assert trace.steady_state_error_us(skip_fraction=0.9) == 7.0

    def test_steady_state_validation(self):
        trace = make_trace([1.0, 2.0])
        with pytest.raises(ValueError, match="skip_fraction"):
            trace.steady_state_error_us(skip_fraction=1.0)
        with pytest.raises(ValueError, match="skip_fraction"):
            trace.steady_state_error_us(skip_fraction=-0.1)
        with pytest.raises(ValueError, match="empty trace"):
            make_trace([]).steady_state_error_us()

    def test_peak(self):
        assert make_trace([1, 9, 2]).peak_error_us() == 9.0

    def test_reference_changes(self):
        recorder = TraceRecorder()
        for i, ref in enumerate([1, 1, -1, 2, 2, 1]):
            recorder.record(float(i + 1), [0.0, 0.0], reference_id=ref)
        assert recorder.finalize().reference_changes() == 2

    def test_save_csv(self, tmp_path):
        trace = make_trace([1.0, 2.0])
        path = tmp_path / "trace.csv"
        trace.save_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("time_s,max_diff_us")
        assert len(lines) == 3

    def test_to_rows(self):
        rows = list(make_trace([4.0]).to_rows())
        assert rows == [(0.1, 4.0)]


class TestQuarantineGaps:
    """Summary helpers must tolerate None/NaN holes, not raise.

    A quarantined sweep cell (PR 6) leaves ``None`` in value lists and
    NaN samples in assembled traces; analysis over the surviving cells
    has to keep working.
    """

    @staticmethod
    def gap_trace(max_diffs):
        # Build the trace directly: the recorder derives max_diff via
        # max_pairwise_difference, which (correctly) maps a gapped
        # sample to 0.0 rather than propagating the NaN.
        n = len(max_diffs)
        return SyncTrace(
            np.arange(1, n + 1, dtype=np.float64) * 100_000.0,
            np.asarray(max_diffs, dtype=np.float64),
            np.zeros(n),
            np.full(n, 2, dtype=int),
            np.full(n, 3, dtype=int),
        )

    #: float64 values that stress the ndarray fast path: gaps, infinities,
    #: signed zeros and magnitudes whose spread overflows
    EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308,
                   1.7976931348623157e308, -1.7976931348623157e308]

    @given(
        arr=hnp.arrays(
            np.float64,
            st.integers(0, 50),
            elements=st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from(EDGE_VALUES),
            ),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_max_pairwise_ndarray_matches_list_path(self, arr):
        with np.errstate(over="ignore"):  # +-1e308 spreads overflow to inf
            fast = max_pairwise_difference(arr)
            listed = max_pairwise_difference(list(arr))
        assert type(fast) is float
        assert np.float64(fast).tobytes() == np.float64(listed).tobytes()

    @given(
        arr=st.one_of(
            hnp.arrays(np.float32, st.integers(0, 50)),
            hnp.arrays(np.int64, st.integers(0, 50)),
            hnp.arrays(np.int32, st.integers(0, 50)),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_max_pairwise_other_dtypes_take_list_path(self, arr):
        # float32 and integer inputs are widened to float64 per element
        # before the spread: int64 extremes must not wrap, float32 must
        # not round in single precision
        listed = max_pairwise_difference([float(v) for v in arr])
        assert max_pairwise_difference(arr) == listed

    def test_max_pairwise_ignores_none_and_nan(self):
        assert max_pairwise_difference([5.0, None, 1.0, float("nan")]) == 4.0
        assert max_pairwise_difference([None, float("nan")]) == 0.0
        assert max_pairwise_difference([3.0, None]) == 0.0

    def test_steady_state_skips_nan_gaps(self):
        trace = self.gap_trace([100.0] * 25 + [5.0, float("nan")] * 38)
        with np.errstate(all="raise"):
            assert trace.steady_state_error_us() == 5.0

    def test_steady_state_all_gaps_raises_not_nan(self):
        trace = self.gap_trace([float("nan")] * 4)
        with pytest.raises(ValueError, match="NaN gap"):
            trace.steady_state_error_us()

    def test_peak_ignores_nan_gaps(self):
        assert self.gap_trace([1.0, float("nan"), 9.0]).peak_error_us() == 9.0
        assert np.isnan(self.gap_trace([float("nan")] * 3).peak_error_us())


class TestSyncLatency:
    def test_basic(self):
        trace = make_trace([50, 40, 30, 20, 10, 5, 5, 5, 5, 5])
        latency = sync_latency_us(trace, sustain_samples=3)
        # first below-threshold sample is index 3 (20 us) -> t = 0.4 s
        assert latency == pytest.approx(0.4 * S)

    def test_requires_sustained(self):
        trace = make_trace([10, 90, 10, 90, 10, 10, 10])
        latency = sync_latency_us(trace, sustain_samples=3)
        assert latency == pytest.approx(0.5 * S)

    def test_never_synchronized(self):
        trace = make_trace([100.0] * 10)
        assert sync_latency_us(trace) is None

    def test_start_offset(self):
        trace = make_trace([5.0] * 10)
        latency = sync_latency_us(trace, sustain_samples=1, start_us=0.35 * S)
        assert latency == pytest.approx(0.05 * S)

    def test_validation(self):
        with pytest.raises(ValueError):
            sync_latency_us(make_trace([1.0]), sustain_samples=0)

    def test_threshold_constant(self):
        assert INDUSTRY_THRESHOLD_US == 25.0


class TestNoLeapAudit:
    def test_clean_clock_passes(self):
        clock = AdjustedClock()
        clock.slew_to(0.0, 1.0001, 100.0)
        clock.slew_to(0.0, 0.9999, 200.0)
        assert audit_no_leaps(clock, 0.0, 1_000.0)

    @staticmethod
    def leaped_clock():
        """An identity clock that jumps +500 us at hw 1000: ``adjust``
        refuses that, so the segment is appended as a corrupted history
        would hold it."""
        clock = AdjustedClock()
        clock._segments.append(ClockSegment(1_000.0, 1.0, 500.0))
        clock._starts.append(1_000.0)
        return clock

    def test_forward_leap_fails(self):
        clock = self.leaped_clock()
        # a forward leap still never runs backward
        assert clock.is_monotonic(0.0, 2_000.0)
        assert not audit_no_leaps(clock, 0.0, 2_000.0)
        assert not audit_no_leaps(clock, 1_000.0, 1_000.0)

    def test_leap_outside_window_is_not_audited(self):
        clock = self.leaped_clock()
        assert audit_no_leaps(clock, 0.0, 999.0)
        assert audit_no_leaps(clock, 1_001.0, 2_000.0)


class TestOverheadModels:
    def test_beacon_overhead_matches_paper(self):
        tsf = beacon_overhead(secure=False, phy=OFDM_54MBPS)
        sstsp = beacon_overhead(secure=True, phy=OFDM_54MBPS)
        assert (tsf.beacon_bytes, sstsp.beacon_bytes) == (56, 92)
        assert tsf.beacons_per_second == sstsp.beacons_per_second == 10.0
        assert sstsp.airtime_us_per_beacon / tsf.airtime_us_per_beacon == 7 / 4

    def test_traffic_ratio(self):
        assert traffic_overhead_ratio() == pytest.approx(92 / 56)
        t = traffic_overhead(10.0)
        assert t["beacons"] == 100
        assert t["sstsp_bytes"] == 9_200

    def test_buffer_in_paper_band(self):
        # two buffered secure beacons with bookkeeping: the paper's
        # "300-500 bytes" estimate covers 2-4 buffered beacons
        assert 150 <= receiver_buffer_bytes(2) <= 500
        with pytest.raises(ValueError):
            receiver_buffer_bytes(-1)

    def test_chain_storage_report(self):
        rows = chain_storage_report(128, samples=32)
        by_name = {r.strategy: r for r in rows}
        assert by_name["dense"].resident_elements == 129
        assert by_name["seed-only"].hash_ops_for_traversal > 0
        assert by_name["fractal"].resident_elements <= fractal_storage_bound(128) + 7
        with pytest.raises(ValueError):
            chain_storage_report(16, samples=64)

    def test_fractal_bound(self):
        assert fractal_storage_bound(1024) == 10
