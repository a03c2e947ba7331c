"""Unit tests for the (k, b) adjustment math and the lemma calculators."""


import pytest

from repro.clocks.adjusted import CONTINUITY_TOL_US
from repro.core.adjustment import (
    AdjustmentSample,
    DegenerateSamplesError,
    clamp_pace,
    error_bound_after_change,
    optimal_m,
    paper_closed_form,
    periods_to_converge,
    predicted_error_ratio,
    reference_change_ratio,
    solve_adjustment,
)

BP = 100_000.0


def make_samples(t0=1_000_000.0, rate=1.0001, offset=30.0):
    """Two consecutive samples of a reference seen through a skewed clock."""
    ts1, ts2 = t0 + BP, t0
    older = AdjustmentSample(1, rate * ts2 + offset, ts2)
    newest = AdjustmentSample(2, rate * ts1 + offset, ts1)
    return newest, older


class TestSolveAdjustment:
    def test_matches_paper_closed_form(self):
        newest, older = make_samples()
        t_now = newest.local_hw_time + BP * 1.0001
        target = older.ref_timestamp + 5 * BP
        k, b = solve_adjustment(1.0, 0.0, t_now, newest, older, target)
        kp, bp_ = paper_closed_form(
            1.0,
            0.0,
            t_now,
            newest.local_hw_time,
            newest.ref_timestamp,
            older.local_hw_time,
            older.ref_timestamp,
            target,
        )
        assert k == pytest.approx(kp, rel=1e-12)
        assert b == pytest.approx(bp_, rel=1e-9)

    def test_convergence_point_is_hit(self):
        newest, older = make_samples(rate=0.99995, offset=-12.0)
        t_now = newest.local_hw_time + BP * 0.99995
        target = older.ref_timestamp + 4 * BP
        k, b = solve_adjustment(1.0, 50.0, t_now, newest, older, target)
        # at the extrapolated hardware time of the target, c == target
        rate = (newest.local_hw_time - older.local_hw_time) / (
            newest.ref_timestamp - older.ref_timestamp
        )
        t_target = newest.local_hw_time + rate * (target - newest.ref_timestamp)
        assert k * t_target + b == pytest.approx(target, abs=1e-6)

    def test_continuity_at_t_now(self):
        newest, older = make_samples()
        t_now = newest.local_hw_time + BP
        prev_k, prev_b = 1.00002, -7.5
        k, b = solve_adjustment(prev_k, prev_b, t_now, newest, older, older.ref_timestamp + 400_000.0)
        assert k * t_now + b == pytest.approx(prev_k * t_now + prev_b, abs=1e-6)

    def test_perfectly_synced_clock_keeps_slope(self):
        # if the local clock already equals the reference, k stays ~rate
        newest, older = make_samples(rate=1.0, offset=0.0)
        t_now = newest.local_hw_time + BP
        k, b = solve_adjustment(1.0, 0.0, t_now, newest, older, older.ref_timestamp + 400_000.0)
        assert k == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(0.0, abs=1e-3)

    def test_error_shrinks_geometrically(self):
        # iterate the update against an ideal reference and check Lemma 1
        rate, offset = 1.00008, 40.0
        k, b = 1.0, 80.0  # initial adjusted clock is 80 us off
        m = 2
        samples = []
        errors = []
        for j in range(1, 25):
            ts = j * BP + 1_000_000.0
            hw = rate * ts + offset
            samples.append(AdjustmentSample(j, hw, ts))
            if len(samples) >= 3:
                newest, older = samples[-2], samples[-3]
                t_now = hw
                target = (j + m) * BP + 1_000_000.0
                k, b = solve_adjustment(k, b, t_now, newest, older, target)
            errors.append(abs(k * hw + b - ts))
        assert errors[-1] < 0.01
        assert errors[-1] < errors[4] / 100

    def test_degenerate_equal_timestamps(self):
        s = AdjustmentSample(1, 100.0, 50.0)
        with pytest.raises(DegenerateSamplesError):
            solve_adjustment(1.0, 0.0, 300.0, s, AdjustmentSample(0, 90.0, 50.0), 1000.0)

    def test_degenerate_non_monotone_hw(self):
        newest = AdjustmentSample(2, 100.0, 200.0)
        older = AdjustmentSample(1, 150.0, 100.0)
        with pytest.raises(DegenerateSamplesError):
            solve_adjustment(1.0, 0.0, 300.0, newest, older, 1000.0)

    def test_degenerate_target_in_past(self):
        newest, older = make_samples()
        t_now = newest.local_hw_time + BP
        with pytest.raises(DegenerateSamplesError):
            solve_adjustment(1.0, 0.0, t_now, newest, older, older.ref_timestamp - 10 * BP)

    def test_paper_closed_form_zero_denominator(self):
        with pytest.raises(DegenerateSamplesError):
            paper_closed_form(1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)


class TestClampPace:
    CLAMP = 3e-4
    T = 5e8  # hardware time of the clamp, us

    def test_in_band_slope_returns_its_inputs(self):
        for k in (1.0, 1.0 - self.CLAMP, 1.0 + self.CLAMP, 1.0001):
            assert clamp_pace(k, -42.5, self.T, self.CLAMP) == (k, -42.5)

    @pytest.mark.parametrize("k, expected", [(1.004, 1.0 + CLAMP), (0.996, 1.0 - CLAMP)])
    def test_out_of_band_slope_clamps_and_joins(self, k, expected):
        b = -1234.5
        k_new, b_new = clamp_pace(k, b, self.T, self.CLAMP)
        assert k_new == expected
        gap = (k_new * self.T + b_new) - (k * self.T + b)
        assert abs(gap) <= CONTINUITY_TOL_US


class TestLemma1:
    def test_ratio_below_one_for_m_greater_1(self):
        for m in [2, 3, 4, 5]:
            assert predicted_error_ratio(m, BP, d_us=500.0) < 1.0

    def test_m1_requires_small_delay(self):
        assert predicted_error_ratio(1, BP, d_us=100.0) == pytest.approx(100.0 / (BP - 100.0))

    def test_larger_m_converges_slower(self):
        ratios = [predicted_error_ratio(m, BP, 0.0) for m in range(2, 6)]
        assert ratios == sorted(ratios)

    def test_periods_to_converge(self):
        n = periods_to_converge(112.0, 25.0, m=2, beacon_period_us=BP)
        assert 1 <= n <= 10
        assert periods_to_converge(10.0, 25.0, m=2, beacon_period_us=BP) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            predicted_error_ratio(0, BP, 0.0)
        with pytest.raises(ValueError):
            predicted_error_ratio(2, BP, -1.0)


class TestLemma2:
    def test_optimal_m_is_l_plus_3(self):
        assert optimal_m(1) == 4
        assert reference_change_ratio(m=4, l=1) == pytest.approx(0.0)

    def test_bounded_by_l_plus_2_at_m_1(self):
        l = 1
        assert abs(reference_change_ratio(m=1, l=l)) == pytest.approx(l + 2)

    def test_error_bound_after_change(self):
        bound = error_bound_after_change(10.0, m=4, l=1, epsilon_us=5.0)
        assert bound == pytest.approx(10.0)  # ratio 0 => only 2 * epsilon
        bound = error_bound_after_change(10.0, m=1, l=1, epsilon_us=5.0)
        assert bound == pytest.approx(3 * 10.0 + 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            reference_change_ratio(0, 1)
        with pytest.raises(ValueError):
            optimal_m(0)
