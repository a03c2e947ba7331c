"""Tests for replica roll-ups (``repro.analysis.stats``) and trace
serialization."""

import math

import numpy as np
import pytest

from repro.analysis.metrics import TraceRecorder, SyncTrace
from repro.analysis.stats import paired_stats, summarize_values

#: Seeds of the replicated end-to-end claims: independent replicas
#: spaced far apart in seed space.
_SEEDS = [1, 1001, 2001, 3001]


class TestSummarize:
    def test_basic(self):
        summary = summarize_values([10.0, 12.0, 8.0, 11.0, 9.0])
        assert summary.mean == pytest.approx(10.0)
        assert summary.n == 5
        assert summary.t_ci.low < 10.0 < summary.t_ci.high

    def test_single_value_infinite_ci(self):
        summary = summarize_values([5.0])
        assert summary.mean == 5.0
        assert math.isinf(summary.t_ci.half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_values([])

    def test_none_and_nan_gaps_dropped(self):
        # Quarantined sweep cells leave None/NaN holes in value lists;
        # the summary covers the replicas that reported.
        summary = summarize_values([10.0, None, 12.0, float("nan"), 8.0])
        assert summary.n == 3
        assert summary.missing == 2
        assert summary.mean == pytest.approx(10.0)

    def test_all_gaps_rejected(self):
        with pytest.raises(ValueError):
            summarize_values([None, float("nan")])

    def test_ci_shrinks_with_replicas(self):
        rng = np.random.default_rng(0)
        small = summarize_values(rng.normal(0, 1, 5))
        large = summarize_values(rng.normal(0, 1, 30))
        assert large.t_ci.half_width < small.t_ci.half_width


class TestReplicate:
    def test_end_to_end_sync_metric(self):
        from repro.experiments.scenarios import quick_spec
        from repro.fastlane import run_sstsp_vectorized

        summary = summarize_values(
            run_sstsp_vectorized(
                quick_spec(15, seed=seed, duration_s=8.0)
            ).trace.steady_state_error_us()
            for seed in _SEEDS[:3]
        )
        assert summary.n == 3
        assert 3.0 < summary.mean < 15.0
        assert summary.t_ci.half_width < summary.mean


class TestCompare:
    def test_paired_and_significant(self):
        comparison = paired_stats(
            [1.0 + 0.01 * (seed % 7) for seed in range(5)],
            [5.0 + 0.02 * (seed % 3) for seed in range(5)],
        )
        assert comparison.a_smaller_significant
        assert comparison.mean_b / comparison.mean_a == pytest.approx(5.0, rel=0.1)

    def test_sstsp_beats_tsf_significantly(self):
        from repro.experiments.scenarios import quick_spec
        from repro.fastlane import run_sstsp_vectorized, run_tsf_vectorized

        sstsp, tsf = (
            [
                run(quick_spec(20, seed=seed, duration_s=8.0))
                .trace.steady_state_error_us()
                for seed in _SEEDS
            ]
            for run in (run_sstsp_vectorized, run_tsf_vectorized)
        )
        comparison = paired_stats(sstsp, tsf)
        assert comparison.n == 4
        assert comparison.a_smaller_significant
        assert comparison.mean_b / comparison.mean_a > 2.0


class TestTraceSerialization:
    def make_trace(self, keep_values):
        recorder = TraceRecorder(keep_values=keep_values)
        for i in range(5):
            values = np.array([float(i), i + 2.0])
            recorder.record(
                (i + 1) * 100.0, values, 1,
                full_values=values if keep_values else None,
            )
        return recorder.finalize()

    def test_npz_round_trip(self, tmp_path):
        trace = self.make_trace(keep_values=False)
        path = str(tmp_path / "trace.npz")
        trace.save_npz(path)
        loaded = SyncTrace.load_npz(path)
        assert np.array_equal(loaded.times_us, trace.times_us)
        assert np.array_equal(loaded.max_diff_us, trace.max_diff_us)
        assert loaded.values_us is None

    def test_npz_round_trip_with_values(self, tmp_path):
        trace = self.make_trace(keep_values=True)
        path = str(tmp_path / "trace.npz")
        trace.save_npz(path)
        loaded = SyncTrace.load_npz(path)
        assert np.array_equal(loaded.values_us, trace.values_us)
