"""Synchronization metrics.

The paper's figures all plot one quantity: the **maximum clock
difference** between any two (present) nodes, sampled every beacon period.
:class:`TraceRecorder` collects it during a run; :class:`SyncTrace` is the
resulting series with summary helpers; :func:`sync_latency_us` extracts
the Table 1 latency (first time the maximum difference falls - and stays -
under the industry threshold of 25 us).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocks.adjusted import CONTINUITY_TOL_US, AdjustedClock
from repro.sim.units import S

#: "The industrial expectation that the maximum clock drift should be
#: under 25 us for an IBSS of any size" (paper section 5).
INDUSTRY_THRESHOLD_US: float = 25.0


def max_pairwise_difference(values: Sequence[Optional[float]]) -> float:
    """``max_i x_i - min_i x_i``: the maximum difference between any two
    clocks read at the same instant (0.0 for fewer than two values).

    ``None`` entries and NaN gaps are ignored: a quarantined sweep cell
    (PR 6) or an absent node leaves a hole in the value vector, and a
    hole carries no clock reading to compare — it must not poison the
    spread of the nodes that *are* present.

    A 1-D float64 ndarray (what :meth:`TraceRecorder.record` passes)
    takes ``max - min`` directly when both are finite: a NaN propagates
    into both and an infinity is one of them, so only arrays that hold
    a gap reach the filtering path below, and the result is the same
    bits either way.
    """
    if type(values) is np.ndarray and values.dtype == np.float64 and values.ndim == 1:
        if values.size < 2:
            return 0.0
        high = np.maximum.reduce(values)
        low = np.minimum.reduce(values)
        if math.isfinite(high) and math.isfinite(low):
            return float(high - low)
    arr = np.asarray(
        [v for v in values if v is not None], dtype=np.float64
    )
    arr = arr[np.isfinite(arr)]
    if arr.size < 2:
        return 0.0
    return float(arr.max() - arr.min())


@dataclass
class SyncTrace:
    """A per-BP synchronization trace.

    Attributes
    ----------
    times_us:
        Sample instants (true time).
    max_diff_us:
        Maximum pairwise clock difference at each sample.
    mean_vs_true_us:
        Mean of (synchronized clock - true time); shows an attacker
        dragging the shared virtual clock even while the network stays
        internally synchronized (extra diagnostic beyond the paper).
    present_counts:
        Number of present nodes at each sample (churn visibility).
    reference_ids:
        Station believed to be the reference at each sample (-1 if none).
    values_us:
        Optional full per-node clock matrix (samples x nodes, NaN for
        absent nodes) kept when the recorder was built with
        ``keep_values=True`` - application-layer evaluations (power save,
        FHSS, TDMA) consume this.
    """

    times_us: np.ndarray
    max_diff_us: np.ndarray
    mean_vs_true_us: np.ndarray
    present_counts: np.ndarray
    reference_ids: np.ndarray
    values_us: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        lengths = {
            len(self.times_us),
            len(self.max_diff_us),
            len(self.mean_vs_true_us),
            len(self.present_counts),
            len(self.reference_ids),
        }
        if self.values_us is not None:
            lengths.add(len(self.values_us))
        if len(lengths) != 1:
            raise ValueError("trace arrays must have equal length")

    def __len__(self) -> int:
        return len(self.times_us)

    def window(self, start_us: float, end_us: float) -> "SyncTrace":
        """The sub-trace with ``start_us <= t < end_us``.

        Raises ValueError on an inverted/empty interval
        (``end_us <= start_us``) — that is always a caller bug, and the
        silently empty trace it used to yield turns into opaque numpy
        warnings several calls later. A *valid* interval that happens to
        contain no samples still returns an empty trace (callers probing
        sparse regions rely on that).
        """
        if end_us <= start_us:
            raise ValueError(
                f"window requires end_us > start_us, got "
                f"[{start_us!r}, {end_us!r})"
            )
        mask = (self.times_us >= start_us) & (self.times_us < end_us)
        return SyncTrace(
            self.times_us[mask],
            self.max_diff_us[mask],
            self.mean_vs_true_us[mask],
            self.present_counts[mask],
            self.reference_ids[mask],
            None if self.values_us is None else self.values_us[mask],
        )

    def steady_state_error_us(self, skip_fraction: float = 0.25) -> float:
        """Median max-difference after discarding the initial transient.

        ``skip_fraction`` must lie in ``[0, 1)``. On short traces the
        skip is capped so at least one sample always remains (a fraction
        that rounded up to the whole trace used to produce a numpy
        empty-slice warning and a silent NaN). An empty trace raises —
        there is no steady state to report.
        """
        if not 0.0 <= skip_fraction < 1.0:
            raise ValueError(
                f"skip_fraction must be in [0, 1), got {skip_fraction!r}"
            )
        if not len(self):
            raise ValueError("steady_state_error_us on an empty trace")
        skip = min(int(len(self) * skip_fraction), len(self) - 1)
        tail = self.max_diff_us[skip:]
        finite = tail[np.isfinite(tail)]
        if not finite.size:
            raise ValueError(
                "steady_state_error_us: every post-transient sample is a "
                "NaN gap (all contributing cells missing/quarantined)"
            )
        return float(np.median(finite))

    def peak_error_us(self) -> float:
        """Worst max-difference over the whole trace (NaN gaps ignored)."""
        if not len(self):
            return math.nan
        finite = self.max_diff_us[np.isfinite(self.max_diff_us)]
        return float(finite.max()) if finite.size else math.nan

    def reference_changes(self) -> int:
        """Number of times the believed reference station changed."""
        ids = self.reference_ids
        if ids.size < 2:
            return 0
        valid = ids >= 0
        changes = 0
        last = None
        for rid, ok in zip(ids, valid):
            if not ok:
                continue
            if last is not None and rid != last:
                changes += 1
            last = rid
        return changes

    def to_rows(self) -> Iterator[Tuple[float, float]]:
        """Iterate ``(time_s, max_diff_us)`` rows (for CSV / table output)."""
        for t, d in zip(self.times_us, self.max_diff_us):
            yield t / S, float(d)

    def save_csv(self, path: str) -> None:
        """Write the full trace as CSV."""
        header = "time_s,max_diff_us,mean_vs_true_us,present,reference_id"
        data = np.column_stack(
            [
                self.times_us / S,
                self.max_diff_us,
                self.mean_vs_true_us,
                self.present_counts,
                self.reference_ids,
            ]
        )
        np.savetxt(path, data, delimiter=",", header=header, comments="")

    def save_npz(self, path: str) -> None:
        """Write the trace (including the per-node matrix if kept) as a
        compressed npz archive loadable with :meth:`load_npz`."""
        payload = {
            "times_us": self.times_us,
            "max_diff_us": self.max_diff_us,
            "mean_vs_true_us": self.mean_vs_true_us,
            "present_counts": self.present_counts,
            "reference_ids": self.reference_ids,
        }
        if self.values_us is not None:
            payload["values_us"] = self.values_us
        np.savez_compressed(path, **payload)

    @classmethod
    def load_npz(cls, path: str) -> "SyncTrace":
        """Load a trace previously written with :meth:`save_npz`."""
        with np.load(path) as data:
            return cls(
                times_us=data["times_us"],
                max_diff_us=data["max_diff_us"],
                mean_vs_true_us=data["mean_vs_true_us"],
                present_counts=data["present_counts"],
                reference_ids=data["reference_ids"],
                values_us=data["values_us"] if "values_us" in data else None,
            )


class TraceRecorder:
    """Accumulates per-BP samples during a run; finalises to a trace.

    Parameters
    ----------
    keep_values:
        Also retain the full per-node clock matrix (``full_values`` must
        then be passed to every :meth:`record` call). Costs
        ``8 * samples * nodes`` bytes; application-layer evaluations need
        it, the paper metrics do not.
    """

    def __init__(self, keep_values: bool = False) -> None:
        self._times: List[float] = []
        self._max_diff: List[float] = []
        self._mean_vs_true: List[float] = []
        self._present: List[int] = []
        self._refs: List[int] = []
        self.keep_values = keep_values
        self._values: List[np.ndarray] = []

    def record(
        self,
        true_time_us: float,
        clock_values: Sequence[float],
        reference_id: int = -1,
        full_values: Optional[np.ndarray] = None,
    ) -> None:
        """Record one sample of all present nodes' synchronized clocks.

        ``clock_values`` holds the synchronized members only (drives the
        metrics); ``full_values`` is the fixed-width per-node vector (NaN
        for absent/unsynchronized nodes), required iff ``keep_values``.
        """
        arr = np.asarray(clock_values, dtype=np.float64)
        self._times.append(true_time_us)
        self._max_diff.append(max_pairwise_difference(arr))
        # ``arr.mean()`` without its generic wrapper: the same sum over
        # every axis, divided by the same count
        self._mean_vs_true.append(
            float(np.add.reduce(arr, axis=None) / arr.size - true_time_us)
            if arr.size
            else 0.0
        )
        self._present.append(arr.size)
        self._refs.append(reference_id)
        if self.keep_values:
            if full_values is None:
                raise ValueError("keep_values recorder needs full_values")
            self._values.append(np.asarray(full_values, dtype=np.float64).copy())

    def finalize(self) -> SyncTrace:
        """Build the immutable trace."""
        return SyncTrace(
            np.asarray(self._times),
            np.asarray(self._max_diff),
            np.asarray(self._mean_vs_true),
            np.asarray(self._present, dtype=np.int64),
            np.asarray(self._refs, dtype=np.int64),
            np.vstack(self._values) if self.keep_values and self._values else None,
        )


def sync_latency_us(
    trace: SyncTrace,
    threshold_us: float = INDUSTRY_THRESHOLD_US,
    sustain_samples: int = 5,
    start_us: float = 0.0,
) -> Optional[float]:
    """Time (from ``start_us``) until the max difference first drops below
    ``threshold_us`` and stays there for ``sustain_samples`` samples.

    Returns None if the network never synchronizes. Used for the Table 1
    "synchronization latency" column ("we consider the network to be
    synchronized when the maximum clock difference between any two nodes
    is under 25 us").
    """
    if sustain_samples < 1:
        raise ValueError("sustain_samples must be >= 1")
    below = trace.max_diff_us < threshold_us
    eligible = trace.times_us >= start_us
    run = 0
    for i in range(len(trace)):
        if not eligible[i]:
            continue
        run = run + 1 if below[i] else 0
        if run >= sustain_samples:
            first = i - sustain_samples + 1
            return float(trace.times_us[first] - start_us)
    return None


def audit_no_leaps(
    clock: AdjustedClock,
    t_start_hw: float,
    t_end_hw: float,
    samples: int = 512,
) -> bool:
    """Verify the paper's no-leap guarantee on a node's adjusted clock:
    continuous (the old and new segments agree within
    ``CONTINUITY_TOL_US`` at every join inside the hardware-time window)
    and never decreasing over that window."""
    segments = clock.segments
    for old, new in zip(segments, segments[1:]):
        join = new.start
        if t_start_hw <= join <= t_end_hw and (
            abs(new.value(join) - old.value(join)) > CONTINUITY_TOL_US
        ):
            return False
    return clock.is_monotonic(t_start_hw, t_end_hw, samples=samples)
