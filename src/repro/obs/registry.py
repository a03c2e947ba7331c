"""The metrics registry: counters and histogram summaries.

One :class:`MetricsRegistry` accumulates the quantitative side of a run
— how many beacons aired, how many receptions the guard rejected, how
far the guard margin sat from the threshold — keyed by metric name plus
an optional node label. Events flowing through the tracing bus
(:mod:`repro.obs.events`) increment their event counters automatically;
instrumented code can additionally record histogram observations with
:func:`repro.obs.events.observe_value`. Snapshots keep an empty
``gauges`` section so their bytes match logs written when the registry
still had gauges; merging and ``repro analyze`` read gauges from those
older logs.

Design constraints, in order:

* **determinism** — snapshots serialise with sorted keys and contain
  only values derived from simulation state, never host state, so two
  runs of the same seed produce byte-identical snapshots;
* **mergeability** — the sweep orchestrator rolls per-job snapshots up
  into one per-sweep aggregate (counters and histogram summaries add,
  gauges of older logs keep the last write), so ``repro sweep`` artifacts carry
  beacon/rejection/re-election totals alongside the CSVs;
* **cheapness** — a histogram is a running summary (count/sum/min/max),
  not a bucketed distribution: O(1) memory per metric.

Naming convention (see ``docs/observability.md``): dotted
``<subsystem>.<quantity>`` with an explicit unit suffix where one
applies, e.g. ``guard.reject_margin_us``. Auto-derived event counters
are ``events.<event_name>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple


def _key(name: str, node: Optional[int]) -> str:
    """Flat string key: ``name`` or ``name|node=<id>``."""
    return name if node is None else f"{name}|node={node}"


@dataclass
class HistogramSummary:
    """Running summary statistics of one observed quantity."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def to_dict(self) -> Dict[str, float]:
        """JSON-able summary (``sum`` rounded so merges stay stable)."""
        return {
            "count": self.count,
            "sum": round(self.total, 9),
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Per-run metric accumulation (counters / histograms)."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, HistogramSummary] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def inc(self, name: str, node: Optional[int] = None, by: int = 1) -> None:
        """Increment counter ``name`` (optionally per-node) by ``by``."""
        key = _key(name, node)
        self._counters[key] = self._counters.get(key, 0) + by

    def observe(self, name: str, value: float, node: Optional[int] = None) -> None:
        """Add one observation to histogram ``name``."""
        key = _key(name, node)
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = HistogramSummary()
        hist.observe(float(value))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._counters) + len(self._histograms)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able, deterministically ordered state of the registry."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {},
            "histograms": {
                k: self._histograms[k].to_dict()
                for k in sorted(self._histograms)
            },
        }


def snapshot_rows(snapshot: Dict[str, Any]) -> List[Tuple[str, str, str, float]]:
    """Flatten a snapshot into deterministic ``(section, metric, field,
    value)`` rows — counters, then gauges, then histograms, each sorted
    by metric key. ``repro analyze`` renders sweep metrics roll-ups from
    these rows, so their order (and therefore the emitted table bytes)
    is a pure function of the snapshot's contents."""
    rows: List[Tuple[str, str, str, float]] = []
    for key in sorted(snapshot.get("counters", {})):
        rows.append(("counter", key, "count", float(snapshot["counters"][key])))
    for key in sorted(snapshot.get("gauges", {})):
        rows.append(("gauge", key, "value", float(snapshot["gauges"][key])))
    for key in sorted(snapshot.get("histograms", {})):
        summary = snapshot["histograms"][key]
        for stat_field in ("count", "sum", "min", "max"):
            rows.append(("histogram", key, stat_field, float(summary[stat_field])))
    return rows


def merge_snapshots(total: Dict[str, Any], part: Dict[str, Any]) -> Dict[str, Any]:
    """Fold ``part`` into ``total`` (both :meth:`MetricsRegistry.snapshot`
    shaped); returns ``total``. Counters and histogram summaries add;
    gauges keep the later write. The sweep orchestrator uses this for the
    per-sweep roll-up."""
    counters = total.setdefault("counters", {})
    for key in sorted(part.get("counters", {})):
        counters[key] = counters.get(key, 0) + part["counters"][key]
    gauges = total.setdefault("gauges", {})
    for key in sorted(part.get("gauges", {})):
        gauges[key] = part["gauges"][key]
    histograms = total.setdefault("histograms", {})
    for key in sorted(part.get("histograms", {})):
        summary = part["histograms"][key]
        merged = histograms.get(key)
        if merged is None:
            histograms[key] = dict(summary)
        else:
            merged["count"] += summary["count"]
            merged["sum"] = round(merged["sum"] + summary["sum"], 9)
            merged["min"] = min(merged["min"], summary["min"])
            merged["max"] = max(merged["max"], summary["max"])
    return total
