"""Analysis: metrics, statistics, convergence bounds, overhead models.

* :mod:`repro.analysis.metrics` - the paper's headline metric (maximum
  clock difference between any two nodes, per BP), trace containers,
  synchronization-latency extraction and the no-leap audit.
* :mod:`repro.analysis.stats` - deterministic summary statistics for
  sweep roll-ups: seeded-bootstrap and Student-t confidence intervals,
  paired seed-matched comparisons with effect sizes, missing-cell
  (quarantine) tolerance.
* :mod:`repro.analysis.cli` - the ``repro analyze`` command turning
  sweep output into byte-stable summary tables (CSV + markdown).
* :mod:`repro.analysis.benchgate` - the benchmark-trajectory gate:
  ``BENCH_*.json`` serialization and the ``repro bench-gate`` compare.
* :mod:`repro.analysis.overhead` - traffic and storage overhead models of
  section 3.4 (56 vs 92-byte beacons, hash-chain storage strategies,
  receiver buffering).
* Convergence bounds (Lemmas 1 and 2) live with the adjustment math in
  :mod:`repro.core.adjustment`.
"""

from repro.analysis.metrics import (
    SyncTrace,
    TraceRecorder,
    audit_no_leaps,
    max_pairwise_difference,
    sync_latency_us,
)
from repro.analysis.overhead import (
    OverheadReport,
    beacon_overhead,
    chain_storage_report,
    traffic_overhead,
)
from repro.analysis.stats import (
    Interval,
    PairedStats,
    SummaryStats,
    bootstrap_ci_mean,
    clean_values,
    paired_stats,
    summarize_values,
    t_interval,
)

__all__ = [
    "Interval",
    "PairedStats",
    "SummaryStats",
    "bootstrap_ci_mean",
    "clean_values",
    "paired_stats",
    "summarize_values",
    "t_interval",
    "SyncTrace",
    "TraceRecorder",
    "max_pairwise_difference",
    "sync_latency_us",
    "audit_no_leaps",
    "OverheadReport",
    "beacon_overhead",
    "traffic_overhead",
    "chain_storage_report",
]
