"""Property-based tests of the SSTSP (k, b) solution (hypothesis)."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.adjustment import (
    AdjustmentSample,
    DegenerateSamplesError,
    paper_closed_form,
    solve_adjustment,
    solve_adjustments,
)

BP = 100_000.0

ref_rates = st.floats(min_value=0.9995, max_value=1.0005)
offsets = st.floats(min_value=-500.0, max_value=500.0)
prev_ks = st.floats(min_value=0.999, max_value=1.001)
prev_bs = st.floats(min_value=-1_000.0, max_value=1_000.0)
m_values = st.integers(min_value=1, max_value=8)
jitters = st.floats(min_value=-5.0, max_value=5.0)


def observation(rate, offset, ts):
    """Hardware time at which the reference clock reads ``ts``."""
    return rate * ts + offset


@given(
    rate=ref_rates,
    offset=offsets,
    prev_k=prev_ks,
    prev_b=prev_bs,
    m=m_values,
    base=st.floats(min_value=1e5, max_value=1e8),
)
@settings(max_examples=200)
def test_matches_paper_closed_form(rate, offset, prev_k, prev_b, m, base):
    ts2, ts1 = base, base + BP
    older = AdjustmentSample(1, observation(rate, offset, ts2), ts2)
    newest = AdjustmentSample(2, observation(rate, offset, ts1), ts1)
    t_now = observation(rate, offset, ts1 + BP)
    target = ts1 + (m + 1) * BP
    try:
        k, b = solve_adjustment(prev_k, prev_b, t_now, newest, older, target)
    except DegenerateSamplesError:
        assume(False)
    kp, bp_ = paper_closed_form(
        prev_k, prev_b, t_now,
        newest.local_hw_time, newest.ref_timestamp,
        older.local_hw_time, older.ref_timestamp,
        target,
    )
    assert math.isclose(k, kp, rel_tol=1e-9)
    assert math.isclose(b, bp_, rel_tol=1e-6, abs_tol=1e-3)


@given(
    rate=ref_rates,
    offset=offsets,
    prev_k=prev_ks,
    prev_b=prev_bs,
    m=m_values,
)
@settings(max_examples=200)
def test_continuity_and_target_hit(rate, offset, prev_k, prev_b, m):
    ts2, ts1 = 1e6, 1e6 + BP
    older = AdjustmentSample(1, observation(rate, offset, ts2), ts2)
    newest = AdjustmentSample(2, observation(rate, offset, ts1), ts1)
    t_now = observation(rate, offset, ts1 + BP)
    target = ts1 + (m + 1) * BP
    k, b = solve_adjustment(prev_k, prev_b, t_now, newest, older, target)
    # equation (2): continuity at t_now
    assert math.isclose(k * t_now + b, prev_k * t_now + prev_b, abs_tol=1e-3)
    # equations (3)+(5): the new segment meets the reference at the target
    t_target = observation(rate, offset, target)
    assert math.isclose(k * t_target + b, target, abs_tol=1e-3)


@given(
    rate=ref_rates,
    offset=offsets,
    initial_error=st.floats(min_value=-200.0, max_value=200.0),
    m=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=100)
def test_iterated_updates_contract_error(rate, offset, initial_error, m):
    """Lemma 1 as a property: whatever the initial error (offset *and*
    rate mismatch), iterating the update against a clean reference drives
    the error below 0.5 us within 60 BPs - consistent with the lemma's
    contraction ratio of (m-1)/m per BP."""
    assume(abs(initial_error) > 0.5)
    k, b = 1.0, initial_error  # offset error + implicit rate error (k=1)
    samples = []
    error = None
    for j in range(1, 61):
        ts = 1e6 + j * BP
        hw = observation(rate, offset, ts)
        samples.append(AdjustmentSample(j, hw, ts))
        if len(samples) >= 3:
            newest, older = samples[-2], samples[-3]
            try:
                k, b = solve_adjustment(
                    k, b, hw, newest, older, ts + m * BP
                )
            except DegenerateSamplesError:
                assume(False)
        error = abs(k * hw + b - ts)
    assert error is not None and error < 0.5


@given(
    rate=ref_rates,
    offset=offsets,
    jitter1=jitters,
    jitter2=jitters,
    m=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=200)
def test_slope_stays_hardware_plausible_under_jitter(
    rate, offset, jitter1, jitter2, m
):
    """Starting from a *converged* clock, estimate noise within epsilon
    perturbs the solved slope by at most a few eps/BP (the noise is
    amplified by the gap-closing term, bounded by (m+2)/m here)."""
    ts2, ts1 = 1e6, 1e6 + BP
    older = AdjustmentSample(1, observation(rate, offset, ts2), ts2 + jitter2)
    newest = AdjustmentSample(2, observation(rate, offset, ts1), ts1 + jitter1)
    t_now = observation(rate, offset, ts1 + BP)
    # converged previous segment: c(hw) == ts exactly
    prev_k = 1.0 / rate
    prev_b = -offset / rate
    try:
        k, _ = solve_adjustment(
            prev_k, prev_b, t_now, newest, older, ts1 + (m + 1) * BP
        )
    except DegenerateSamplesError:
        assume(False)
    noise = abs(jitter1) + abs(jitter2)
    assert abs(k - prev_k) <= 1e-9 + 6 * noise / BP


#: How a generated row departs from a clean sample pair: none, a zero or
#: reversed sample gap, a convergence target behind ``t_now``, or a
#: continuity value that makes the slope NaN or +-inf.
DEFECTS = (
    None, "zero_ts_gap", "zero_hw_gap", "reversed_ts", "target_behind",
    "nan_slope", "inf_slope", "neg_inf_slope",
)


@st.composite
def adjustment_rows(draw):
    """One station's solve inputs: ``(prev_k, prev_b, t_now, newest_hw,
    newest_ts, older_hw, older_ts, target)``."""
    rate, offset = draw(ref_rates), draw(offsets)
    m = draw(m_values)
    base = draw(st.floats(min_value=1e5, max_value=1e8))
    ts2, ts1 = base, base + BP + draw(jitters)
    hw2, hw1 = observation(rate, offset, ts2), observation(rate, offset, ts1)
    t_now = observation(rate, offset, ts1 + BP)
    target = ts1 + (m + 1) * BP
    prev_k, prev_b = draw(prev_ks), draw(prev_bs)
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "zero_ts_gap":
        ts2 = ts1
    elif defect == "zero_hw_gap":
        hw2 = hw1
    elif defect == "reversed_ts":
        ts2 = ts1 + BP
    elif defect == "target_behind":
        target = ts1 - draw(st.floats(min_value=0.0, max_value=BP))
    elif defect == "nan_slope":
        prev_b = math.nan
    elif defect == "inf_slope":
        prev_b = -math.inf
    elif defect == "neg_inf_slope":
        prev_b = math.inf
    return prev_k, prev_b, t_now, hw1, ts1, hw2, ts2, target


@given(
    rows=st.lists(adjustment_rows(), min_size=1, max_size=8),
    k_clamp=st.sampled_from([5e-4, 5e-3, 5e-2]),
)
@settings(max_examples=300)
def test_array_solve_matches_scalar_bit_for_bit(rows, k_clamp):
    """Every ``ok`` row of :func:`solve_adjustments` carries the bits of
    :func:`solve_adjustment`, and ``ok`` is False exactly where the
    scalar raises or its slope is not within ``1 +- k_clamp`` (a NaN
    slope is not)."""
    prev_k, prev_b, t_now, hw1, ts1, hw2, ts2, target = map(np.array, zip(*rows))
    k, b, ok = solve_adjustments(
        prev_k * t_now + prev_b, t_now, hw1, ts1, hw2, ts2, target, k_clamp
    )
    for i, row in enumerate(rows):
        pk, pb, tn, h1, s1, h2, s2, tgt = row
        try:
            k_s, b_s = solve_adjustment(
                pk, pb, tn, AdjustmentSample(2, h1, s1), AdjustmentSample(1, h2, s2), tgt
            )
        except DegenerateSamplesError:
            assert not ok[i]
            continue
        assert ok[i] == (abs(k_s - 1.0) <= k_clamp)
        if ok[i]:
            assert (float(k[i]).hex(), float(b[i]).hex()) == (k_s.hex(), b_s.hex())
