"""Property tests for the CI math behind ``repro analyze``.

The contracts, per ISSUE 7:

* bootstrap and Student-t intervals recover (approximately) their
  nominal 95% coverage on seeded normal and lognormal samples;
* a paired comparison's sign matches a known injected shift;
* degenerate cases (n = 1, zero variance, None/NaN gaps) return
  well-defined values instead of NaN;
* the bootstrap is a pure function of its inputs (seeded), so analysis
  output can be byte-stable.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    BOOTSTRAP_SEED,
    bootstrap_ci_mean,
    clean_values,
    group_cells,
    paired_stats,
    summarize_values,
    t975,
    t_interval,
)

# ---------------------------------------------------------------------
# coverage of the nominal 95% level (seeded replications)
# ---------------------------------------------------------------------


def _coverage(sampler, interval_fn, trials=300, n=15):
    hits = 0
    for _ in range(trials):
        sample = sampler(n)
        if interval_fn(sample).contains(sampler.true_mean):
            hits += 1
    return hits / trials


class _NormalSampler:
    true_mean = 10.0

    def __init__(self, seed=101):
        self.rng = np.random.default_rng(seed)

    def __call__(self, n):
        return self.rng.normal(self.true_mean, 3.0, size=n)


class _LognormalSampler:
    #: mean of lognormal(mu=0, sigma=0.75) is exp(sigma^2 / 2)
    true_mean = math.exp(0.75**2 / 2.0)

    def __init__(self, seed=202):
        self.rng = np.random.default_rng(seed)

    def __call__(self, n):
        return self.rng.lognormal(0.0, 0.75, size=n)


class TestCoverage:
    def test_t_interval_covers_normal_mean(self):
        coverage = _coverage(_NormalSampler(), t_interval)
        assert 0.90 <= coverage <= 0.99, coverage

    def test_bootstrap_covers_normal_mean(self):
        # Percentile bootstrap under-covers slightly at n=15; the band
        # reflects its known small-sample bias, not a loose test.
        coverage = _coverage(_NormalSampler(seed=303), bootstrap_ci_mean)
        assert 0.82 <= coverage <= 0.99, coverage

    def test_t_interval_covers_lognormal_mean(self):
        # Skew costs coverage; the t interval should still be near
        # nominal, not collapse.
        coverage = _coverage(_LognormalSampler(), t_interval, n=25)
        assert 0.82 <= coverage <= 0.99, coverage

    def test_bootstrap_covers_lognormal_mean(self):
        coverage = _coverage(
            _LognormalSampler(seed=404), bootstrap_ci_mean, n=25
        )
        assert 0.78 <= coverage <= 0.99, coverage

    def test_wider_spread_widens_the_t_interval(self):
        rng = np.random.default_rng(7)
        base = rng.normal(0.0, 1.0, size=20)
        narrow = t_interval(base)
        wide = t_interval(base * 10.0)
        assert wide.half_width > narrow.half_width


# ---------------------------------------------------------------------
# paired comparison: sign follows the injected shift
# ---------------------------------------------------------------------


class TestPairedShift:
    def test_positive_shift_makes_b_larger(self):
        rng = np.random.default_rng(11)
        a = list(rng.normal(50.0, 5.0, size=12))
        b = [value + 4.0 + rng.normal(0.0, 0.5) for value in a]
        result = paired_stats(a, b)
        assert result.diff.mean < 0.0  # diff = a - b
        assert result.a_smaller_significant
        assert not result.b_smaller_significant
        assert result.effect_size < 0.0

    def test_negative_shift_flips_the_sign(self):
        rng = np.random.default_rng(12)
        a = list(rng.normal(50.0, 5.0, size=12))
        b = [value - 4.0 + rng.normal(0.0, 0.5) for value in a]
        result = paired_stats(a, b)
        assert result.diff.mean > 0.0
        assert result.b_smaller_significant
        assert result.effect_size > 0.0

    def test_no_shift_is_not_significant(self):
        rng = np.random.default_rng(13)
        a = list(rng.normal(50.0, 5.0, size=12))
        b = [value + rng.normal(0.0, 3.0) for value in a]
        result = paired_stats(a, b)
        assert not result.a_smaller_significant
        assert not result.b_smaller_significant

    def test_missing_pairs_dropped_as_pairs(self):
        a = [1.0, None, 3.0, 4.0]
        b = [2.0, 2.5, float("nan"), 5.0]
        result = paired_stats(a, b)
        assert result.n == 2  # (1,2) and (4,5) survive
        assert result.missing == 2
        assert result.diff.mean == pytest.approx(-1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            paired_stats([1.0], [1.0, 2.0])

    def test_all_missing_rejected(self):
        with pytest.raises(ValueError, match="no complete pairs"):
            paired_stats([None, 1.0], [2.0, None])


# ---------------------------------------------------------------------
# degenerate cases: defined values, never NaN
# ---------------------------------------------------------------------


class TestDegenerate:
    def test_single_value_summary_has_no_nan(self):
        stats = summarize_values([42.0])
        assert stats.n == 1
        assert stats.mean == stats.median == stats.min == stats.max == 42.0
        assert stats.std == 0.0
        assert stats.t_ci.low == -math.inf and stats.t_ci.high == math.inf
        assert stats.bootstrap_ci.low == stats.bootstrap_ci.high == 42.0

    def test_zero_variance_collapses_both_intervals(self):
        stats = summarize_values([5.0] * 6)
        assert stats.std == 0.0
        assert stats.t_ci.low == stats.t_ci.high == 5.0
        assert stats.bootstrap_ci.low == stats.bootstrap_ci.high == 5.0

    def test_zero_variance_paired_effect_size_is_defined(self):
        shifted = paired_stats([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert shifted.effect_size == -math.inf
        identical = paired_stats([1.0, 2.0], [1.0, 2.0])
        assert identical.effect_size == 0.0

    def test_gaps_are_dropped_and_counted(self):
        stats = summarize_values([1.0, None, 3.0, float("nan"), float("inf")])
        assert stats.n == 2
        assert stats.missing == 3
        assert stats.mean == pytest.approx(2.0)

    def test_empty_after_cleaning_raises(self):
        with pytest.raises(ValueError, match="no finite values"):
            summarize_values([None, float("nan")])

    def test_clean_values(self):
        kept, dropped = clean_values([1, None, 2.5, float("-inf")])
        assert kept == [1.0, 2.5]
        assert dropped == 2

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            t_interval([])
        with pytest.raises(ValueError):
            bootstrap_ci_mean([])
        with pytest.raises(ValueError, match="resamples"):
            bootstrap_ci_mean([1.0, 2.0], resamples=0)


# ---------------------------------------------------------------------
# determinism and structural invariants (hypothesis)
# ---------------------------------------------------------------------

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestInvariants:
    @given(st.lists(finite_floats, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_bootstrap_is_deterministic_and_bounded(self, values):
        first = bootstrap_ci_mean(values)
        second = bootstrap_ci_mean(values)
        assert first == second  # pure function of (values, resamples, seed)
        assert first.low <= first.high
        # Resample means can miss the data range by a few ulps at large
        # magnitudes; the slack must scale with the values.
        slack = 1e-9 * max(1.0, max(abs(v) for v in values))
        assert first.low >= min(values) - slack
        assert first.high <= max(values) + slack

    @given(st.lists(finite_floats, min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_t_interval_brackets_the_mean(self, values):
        interval = t_interval(values)
        mean = float(np.mean(np.asarray(values, dtype=np.float64)))
        assert interval.low <= mean <= interval.high

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_bootstrap_seed_changes_resamples_not_bounds_ordering(self, seed):
        values = [1.0, 4.0, 2.0, 8.0, 5.0]
        interval = bootstrap_ci_mean(values, seed=seed)
        assert interval.low <= interval.high
        assert interval.low >= 1.0 and interval.high <= 8.0

    def test_default_seed_is_the_documented_constant(self):
        # The CLI's byte-stability leans on this: changing the default
        # seed silently would change every committed golden table.
        assert BOOTSTRAP_SEED == 20060815

    def test_t_quantiles(self):
        assert t975(1) == pytest.approx(12.706)
        assert t975(10) == pytest.approx(2.228)
        assert t975(1000) == pytest.approx(1.96)
        with pytest.raises(ValueError):
            t975(0)


class TestGroupCells:
    def test_first_seen_order_gaps_and_quarantine(self):
        cells = [{"x": 1.0}, None, {"x": None}, {"x": 3.0}, None]
        groups = group_cells(["b", "a", "b", "b", "a"], cells, ["x"])
        assert list(groups) == ["b", "a"]
        b, a = groups["b"], groups["a"]
        assert (b.cells, b.quarantined, b.values["x"]) == (3, 0, [1.0, None, 3.0])
        assert b.gaps("x") == 1 and b.summary("x").mean == 2.0
        # a fully quarantined key keeps its group, with no values
        assert (a.cells, a.quarantined, a.values["x"]) == (2, 2, [])
        assert a.summary("x") is None

    def test_keys_must_match_cells(self):
        with pytest.raises(ValueError, match="2 keys for 1 cells"):
            group_cells(["a", "b"], [{"x": 1.0}], ["x"])
