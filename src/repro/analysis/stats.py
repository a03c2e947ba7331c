"""Deterministic summary statistics for sweep roll-ups.

``repro analyze`` (``repro.analysis.cli``) quotes every headline number
with a spread and a confidence interval; this module is the numeric core
it leans on. Three constraints shape the API:

* **determinism** — the bootstrap resamples from an explicitly seeded
  ``np.random.default_rng`` (:data:`BOOTSTRAP_SEED` by default), so the
  same values always yield the same interval, byte for byte, at any
  worker count and on any machine;
* **missing-cell tolerance** — quarantined sweep jobs (PR 6) leave
  ``None`` gaps in value lists and NaN gaps in trace matrices; every
  entry point drops them (and reports how many were dropped) instead of
  raising or propagating NaN;
* **well-defined degenerate cases** — ``n == 1`` and zero-variance
  samples return defined values (infinite t half-width, collapsed
  bootstrap interval) rather than NaN, so downstream tables never carry
  a NaN cell.

Intervals are two-sided 95%; the Student-t quantiles come from a small
table (:func:`t975`), so the runtime path needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Fixed seed of the percentile bootstrap. A constant — not an option
#: threaded from the CLI — because two analyses of the same sweep must
#: agree to the byte regardless of who runs them.
BOOTSTRAP_SEED: int = 20060815

#: Default resample count; 2000 keeps the 2.5/97.5 percentiles stable to
#: well under the noise of the replica counts we feed in (3-30).
BOOTSTRAP_RESAMPLES: int = 2000

#: Two-sided 97.5% Student-t quantiles by degrees of freedom (1..30);
#: beyond 30 the normal 1.96 is close enough.
_T975 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t975(df: int) -> float:
    """97.5% t quantile for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    return _T975[df - 1] if df <= len(_T975) else 1.96


def clean_values(values: Iterable[Optional[float]]) -> Tuple[List[float], int]:
    """Split ``values`` into (finite floats, dropped count).

    ``None`` entries (quarantined sweep cells) and non-finite floats
    (NaN gaps from absent nodes, infinities from degenerate metrics) are
    dropped and counted; everything else is coerced to ``float``.
    """
    kept: List[float] = []
    dropped = 0
    for value in values:
        if value is None:
            dropped += 1
            continue
        number = float(value)
        if not math.isfinite(number):
            dropped += 1
            continue
        kept.append(number)
    return kept, dropped


@dataclass(frozen=True)
class Interval:
    """A closed confidence interval ``[low, high]``."""

    low: float
    high: float

    @property
    def half_width(self) -> float:
        """Half the interval width (inf for an unbounded interval)."""
        if math.isinf(self.low) or math.isinf(self.high):
            return math.inf
        return (self.high - self.low) / 2.0

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def t_interval(values: Sequence[float]) -> Interval:
    """Two-sided 95% Student-t interval for the mean of ``values``.

    Degenerate cases are defined, not NaN: one value yields the honest
    ``(-inf, inf)`` (a single replica bounds nothing), zero variance
    collapses to ``(mean, mean)``.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("t_interval needs at least one value")
    mean = float(arr.mean())
    if arr.size == 1:
        return Interval(-math.inf, math.inf)
    std = float(arr.std(ddof=1))
    if std == 0.0:
        return Interval(mean, mean)
    half = t975(int(arr.size) - 1) * std / math.sqrt(arr.size)
    return Interval(mean - half, mean + half)


def bootstrap_ci_mean(
    values: Sequence[float],
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = BOOTSTRAP_SEED,
) -> Interval:
    """Seeded percentile-bootstrap 95% interval for the mean.

    Resampling indices come from ``np.random.default_rng(seed)``, so the
    interval is a pure function of ``(values, resamples, seed)``. With
    one value (or zero spread) the interval collapses to that value.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("bootstrap_ci_mean needs at least one value")
    if resamples < 1:
        raise ValueError("resamples must be >= 1")
    if arr.size == 1 or float(arr.std()) == 0.0:
        mean = float(arr.mean())
        return Interval(mean, mean)
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, arr.size, size=(resamples, arr.size))
    means = arr[indices].mean(axis=1)
    low, high = np.quantile(means, [0.025, 0.975])
    return Interval(float(low), float(high))


@dataclass(frozen=True)
class SummaryStats:
    """One metric's roll-up over replicas (missing cells dropped)."""

    n: int
    missing: int
    mean: float
    median: float
    std: float
    min: float
    max: float
    t_ci: Interval
    bootstrap_ci: Interval


def summarize_values(
    values: Iterable[Optional[float]],
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = BOOTSTRAP_SEED,
) -> SummaryStats:
    """Summarize ``values`` (None/NaN gaps tolerated and counted).

    Raises ``ValueError`` only when *nothing* survives cleaning — a
    fully-quarantined row has no statistics to report and callers are
    expected to skip it (mirroring ``table1.run``).
    """
    kept, dropped = clean_values(values)
    if not kept:
        raise ValueError("summarize_values: no finite values to summarize")
    arr = np.asarray(kept, dtype=np.float64)
    return SummaryStats(
        n=int(arr.size),
        missing=dropped,
        mean=float(arr.mean()),
        median=float(np.median(arr)),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        min=float(arr.min()),
        max=float(arr.max()),
        t_ci=t_interval(kept),
        bootstrap_ci=bootstrap_ci_mean(kept, resamples=resamples, seed=seed),
    )


@dataclass
class CellGroup:
    """The sweep cells that share one roll-up key.

    ``values`` maps each grouped field to its value in every live cell,
    in cell order, ``None`` included; a quarantined cell counts in
    ``cells`` and ``quarantined`` and adds no values.
    """

    cells: int
    quarantined: int
    values: Dict[str, List[Any]]

    def gaps(self, name: str) -> int:
        """Live cells whose ``name`` value is ``None``."""
        return sum(1 for value in self.values[name] if value is None)

    def summary(self, name: str) -> Optional[SummaryStats]:
        """:func:`summarize_values` over the non-``None`` ``name``
        values; ``None`` when there are none."""
        present = [value for value in self.values[name] if value is not None]
        return summarize_values(present) if present else None


def group_cells(
    keys: Sequence[Hashable],
    cells: Sequence[Optional[Mapping[str, Any]]],
    fields: Sequence[str],
) -> Dict[Hashable, CellGroup]:
    """Group sweep cells by key, keeping each of ``fields`` per cell.

    ``keys[i]`` is the key of ``cells[i]``; groups keep first-seen key
    order. A ``None`` cell (a quarantined job) counts against its own
    key, so a fully quarantined key keeps its group with no values.
    """
    if len(keys) != len(cells):
        raise ValueError(f"{len(keys)} keys for {len(cells)} cells")
    groups: Dict[Hashable, CellGroup] = {}
    for key, cell in zip(keys, cells):
        group = groups.get(key)
        if group is None:
            group = groups[key] = CellGroup(0, 0, {name: [] for name in fields})
        group.cells += 1
        if cell is None:
            group.quarantined += 1
            continue
        for name in fields:
            group.values[name].append(cell[name])
    return groups


@dataclass(frozen=True)
class PairedStats:
    """Seed-matched A-vs-B comparison with an effect size.

    ``diff`` summarizes the per-pair ``a - b`` values; ``effect_size``
    is Cohen's d_z (mean difference over the difference spread), the
    standard paired-design effect size. Zero-spread differences give a
    signed infinite d_z (or 0.0 for identical samples) — defined, never
    NaN.
    """

    n: int
    missing: int
    mean_a: float
    mean_b: float
    diff: SummaryStats
    effect_size: float

    @property
    def a_smaller_significant(self) -> bool:
        """True when A < B with the paired 95% t interval excluding 0."""
        return self.diff.t_ci.high < 0.0

    @property
    def b_smaller_significant(self) -> bool:
        """True when B < A with the paired 95% t interval excluding 0."""
        return self.diff.t_ci.low > 0.0


def paired_stats(
    a: Sequence[Optional[float]],
    b: Sequence[Optional[float]],
    resamples: int = BOOTSTRAP_RESAMPLES,
    seed: int = BOOTSTRAP_SEED,
) -> PairedStats:
    """Paired comparison of two equal-length, seed-aligned value lists.

    Pairs with a missing side (``None``/NaN — e.g. one arm's cell was
    quarantined) are dropped *as pairs*, preserving the seed matching of
    the survivors.
    """
    if len(a) != len(b):
        raise ValueError(
            f"paired_stats needs equal-length samples, got {len(a)} vs {len(b)}"
        )
    pairs: List[Tuple[float, float]] = []
    dropped = 0
    for va, vb in zip(a, b):
        kept_a, miss_a = clean_values([va])
        kept_b, miss_b = clean_values([vb])
        if miss_a or miss_b:
            dropped += 1
            continue
        pairs.append((kept_a[0], kept_b[0]))
    if not pairs:
        raise ValueError("paired_stats: no complete pairs to compare")
    values_a = [pa for pa, _ in pairs]
    values_b = [pb for _, pb in pairs]
    diffs = [pa - pb for pa, pb in pairs]
    diff = summarize_values(diffs, resamples=resamples, seed=seed)
    if diff.std == 0.0:
        effect = 0.0 if diff.mean == 0.0 else math.copysign(math.inf, diff.mean)
    else:
        effect = diff.mean / diff.std
    return PairedStats(
        n=len(pairs),
        missing=dropped,
        mean_a=float(np.mean(values_a)),
        mean_b=float(np.mean(values_b)),
        diff=diff,
        effect_size=effect,
    )
