"""The SSTSP clock-adjustment solution (paper equations (2)-(5)).

On receiving the reference beacon of interval ``j`` (at local hardware
time ``t_i^j``), a node computes a new adjusted-clock segment ``(k^j,
b^j)`` from its two most recent *authenticated* reference samples
``(t_i^{j-1}, ts_ref^{j-1})`` and ``(t_i^{j-2}, ts_ref^{j-2})``, subject
to four constraints:

* (2) continuity at ``t_i^j``: the old and new segments agree there;
* (3) convergence: the new segment meets the reference clock at the
  *expected* reception of beacon ``j + m``;
* (4) linearity: local hardware time and reference time are related
  linearly, with slope estimated from the sample pair;
* (5) the expected emission time of beacon ``j + m`` is ``T^{j+m}``.

Solving gives the closed form printed in the paper. This module provides
both that verbatim closed form (:func:`paper_closed_form`) and an
algebraically equivalent two-step derivation (:func:`solve_adjustment`)
that is easier to audit: first estimate the hardware-per-reference rate
``R`` from the sample pair, then draw the line through the continuity
point and the convergence target. Property tests assert the two agree to
float precision.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple


class AdjustmentSample(NamedTuple):
    """One authenticated reference observation.

    Attributes
    ----------
    interval:
        uTESLA/beacon interval index ``j`` the sample came from.
    local_hw_time:
        ``t_i^j``: the node's hardware clock at reception.
    ref_timestamp:
        ``ts_ref^j``: the estimated reference time at the same instant
        (timestamp + known latency + receive jitter).
    """

    interval: int
    local_hw_time: float
    ref_timestamp: float


class DegenerateSamplesError(ValueError):
    """Raised when the sample pair cannot support a rate estimate."""


def solve_adjustment(
    prev_k: float,
    prev_b: float,
    t_now: float,
    newest: AdjustmentSample,
    older: AdjustmentSample,
    target_ref_time: float,
) -> Tuple[float, float]:
    """Solve equations (2)-(5) for ``(k^j, b^j)``.

    Parameters
    ----------
    prev_k, prev_b:
        The active segment ``(k^{j-1}, b^{j-1})``.
    t_now:
        ``t_i^j``: local hardware time of the current (just received,
        not yet authenticated) reference beacon.
    newest, older:
        The two most recent authenticated samples (``j-1`` and ``j-2`` in
        the paper; any two distinct recent samples work - the equations
        never require adjacency, only linearity over the spanned window).
    target_ref_time:
        ``(ts_ref^{j+m})^*``: the reference-time value the adjusted clock
        must meet, i.e. ``T^{j+m}`` plus the known reception latency.

    Returns
    -------
    (k, b):
        The new segment. Raises :class:`DegenerateSamplesError` if the
        samples are unusable (coincident, non-monotone, or the implied
        meeting point is not in the future).
    """
    d_ts = newest.ref_timestamp - older.ref_timestamp
    d_hw = newest.local_hw_time - older.local_hw_time
    if d_ts <= 0.0 or d_hw <= 0.0:
        raise DegenerateSamplesError(
            f"non-increasing sample pair: d_hw={d_hw}, d_ts={d_ts}"
        )
    # (4): hardware microseconds per reference microsecond.
    rate = d_hw / d_ts
    # Expected local hardware time of beacon j+m, by extrapolating the
    # reference timeline through the newest sample: (t_i^{j+m})^*.
    t_target = newest.local_hw_time + rate * (target_ref_time - newest.ref_timestamp)
    if t_target <= t_now:
        raise DegenerateSamplesError(
            f"target hardware time {t_target} not after t_now {t_now}"
        )
    # (2): continuity - the new segment passes through the current point.
    c_now = prev_k * t_now + prev_b
    # (3) + (5): the new segment passes through the convergence target.
    k = (target_ref_time - c_now) / (t_target - t_now)
    b = c_now - k * t_now
    return k, b


def paper_closed_form(
    prev_k: float,
    prev_b: float,
    t_now: float,
    t_1: float,
    ts_1: float,
    t_2: float,
    ts_2: float,
    big_t: float,
) -> Tuple[float, float]:
    """The closed form exactly as printed in the paper (section 3.3).

    ``t_1, ts_1`` are ``t_i^{j-1}, ts_ref^{j-1}``; ``t_2, ts_2`` are the
    ``j-2`` pair; ``big_t`` is ``T^{j+m}`` (with any latency constant the
    caller folds in). Kept verbatim - including its less numerically
    transparent grouping - as a cross-check oracle for
    :func:`solve_adjustment`.
    """
    c_now = prev_k * t_now + prev_b
    numerator = (big_t - c_now) * (ts_1 - ts_2)
    denominator = (t_1 - t_2) * (big_t - ts_1) + (t_1 - t_now) * (ts_1 - ts_2)
    if denominator == 0.0:
        raise DegenerateSamplesError("paper closed form denominator is zero")
    k = numerator / denominator
    b = -numerator * t_now / denominator + c_now
    return k, b


def predicted_error_ratio(m: int, beacon_period_us: float, d_us: float) -> float:
    """Lemma 1's per-BP contraction factor of the synchronization error.

    ``D_i^{n+1} / D_i^n < d / (m*BP - d)`` for ``m = 1`` and
    ``< (m-1)*BP / (m*BP - d)`` for ``m > 1``, where ``d`` bounds the
    emission delay ``d_n``. The factor is < 1 (geometric convergence)
    whenever ``d < BP / 2`` for ``m = 1`` and always for ``m > 1``.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= d_us < m * beacon_period_us:
        raise ValueError("d must be in [0, m*BP)")
    if m == 1:
        return d_us / (m * beacon_period_us - d_us)
    return (m - 1) * beacon_period_us / (m * beacon_period_us - d_us)


def periods_to_converge(
    initial_error_us: float,
    threshold_us: float,
    m: int,
    beacon_period_us: float,
    d_us: float = 0.0,
) -> int:
    """Lemma 1's bound on BPs until the error drops below ``threshold_us``.

    ``ceil(log_ratio(threshold / initial))`` with the contraction ratio of
    :func:`predicted_error_ratio`; 0 if already below the threshold.
    """
    import math

    if initial_error_us <= threshold_us:
        return 0
    ratio = predicted_error_ratio(m, beacon_period_us, d_us)
    if ratio <= 0.0:
        return 1
    if ratio >= 1.0:
        raise ValueError("no convergence: contraction ratio >= 1")
    return math.ceil(math.log(threshold_us / initial_error_us) / math.log(ratio))


def reference_change_ratio(m: int, l: int) -> float:
    """Lemma 2's error amplification across a reference change.

    ``D_i^+ / D_i^- = (m - l - 3) / m + o(1)``; the magnitude is minimised
    (0) at ``m = l + 3`` and bounded by ``l + 2`` even at ``m = 1``.
    """
    if m < 1 or l < 1:
        raise ValueError("m and l must be >= 1")
    return (m - l - 3) / m


def optimal_m(l: int) -> int:
    """The ``m`` minimising Lemma 2's amplification: ``l + 3``."""
    if l < 1:
        raise ValueError("l must be >= 1")
    return l + 3


def error_bound_after_change(
    sync_error_us: float, m: int, l: int, epsilon_us: float
) -> float:
    """Paper section 3.4: error bound right after a reference change:
    ``|((m - l - 3) / m)| * syn_err + 2 * epsilon``."""
    return abs(reference_change_ratio(m, l)) * sync_error_us + 2.0 * epsilon_us
