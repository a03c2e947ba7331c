"""Deterministic work counters: machine-independent cost accounting.

Wall-clock profiles answer "where did the seconds go" but move with
machine load, turbo states and shared CI runners — the PR 7 bench gate
needs a 2-3x noise band just to survive them. *Work* counters answer the
complementary question — "how many heap operations / PER draws /
hash-chain steps did this run perform" — and, because every counted
quantity is a pure function of the spec and seed, a seeded run counts to
**byte-identical totals on every machine and at every worker count**.
That exactness is what lets the bench gate check work drift with zero
tolerance (:mod:`repro.analysis.benchgate`) while wall time keeps its
noise band.

Kernel code calls :func:`count`, one of the hooks on the observability
slot (:mod:`repro.obs.events`, re-exported here): it costs one
module-global load and a ``None`` check when counting is off — no clock
reads, no randomness, no state mutation — so a counted run is
bit-identical to an uncounted one (pinned by
``tests/test_obs_counters.py`` in the ``TestTracingParity`` style).

Counters are keyed ``<lane>/<name>`` where the *lane* is pushed by the
enclosing engine (``singlehop/sstsp``, ``multihop/coop``,
``fastlane/tsf``) via :func:`work_lane`, and the *name* identifies the
instrumented site (``engine.heap_push``, ``phy.per_draw``,
``crypto.hash_ops`` …). Lanes nest; the innermost lane owns the work, so
the degenerate complete-graph delegation (multi-hop → single-hop lane)
attributes its counts to the engine that actually ran.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Tuple

from repro.obs.events import count as count, observe, work_lane as work_lane


class WorkCounters:
    """One run's deterministic work tally.

    Plain integer counters keyed by ``<lane>/<name>`` (or bare ``name``
    outside any lane). Not thread-safe — one tally per run, like the
    event trace.
    """

    __slots__ = ("_counts", "_lanes")

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._lanes: List[str] = []

    # -- recording -----------------------------------------------------

    def add(self, name: str, by: int = 1) -> None:
        """Add ``by`` to counter ``name`` under the current lane."""
        if self._lanes:
            key = f"{self._lanes[-1]}/{name}"
        else:
            key = name
        self._counts[key] = self._counts.get(key, 0) + by

    def push_lane(self, lane: str) -> None:
        """Enter ``lane``; subsequent counts are attributed to it."""
        self._lanes.append(lane)

    def pop_lane(self) -> None:
        """Leave the innermost lane."""
        self._lanes.pop()

    # -- reading -------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """All counters, key-sorted (byte-stable when serialized)."""
        return {key: self._counts[key] for key in sorted(self._counts)}

    def total(self, name: str) -> int:
        """Sum of ``name`` across all lanes."""
        total = 0
        for key in sorted(self._counts):
            if key == name or key.endswith(f"/{name}"):
                total += self._counts[key]
        return total


@contextmanager
def count_work() -> Iterator[WorkCounters]:
    """Install fresh :class:`WorkCounters` on the observability slot.

    ::

        with count_work() as work:
            runner.run()
        work.snapshot()  # {"singlehop/sstsp/engine.heap_push": 1234, ...}

    The enclosing trace and spans stay installed; the previous slot is
    restored on exit, exceptions included.
    """
    work = WorkCounters()
    with observe(work=work):
        yield work


# ---------------------------------------------------------------------------
# Snapshot utilities (merging, diffing, serialization)
# ---------------------------------------------------------------------------


def merge_counts(total: Dict[str, int], part: Mapping[str, int]) -> Dict[str, int]:
    """Fold ``part`` into ``total`` in place (counters add); returns it."""
    for key in sorted(part):
        total[key] = total.get(key, 0) + part[key]
    return total


def diff_counts(
    a: Mapping[str, int], b: Mapping[str, int]
) -> List[Tuple[str, int, int]]:
    """Sorted ``(key, a_value, b_value)`` rows where the tallies differ.

    Absent keys compare as 0, so a counter that only exists on one side
    still shows up as drift.
    """
    rows: List[Tuple[str, int, int]] = []
    for key in sorted(set(a) | set(b)):
        left = a.get(key, 0)
        right = b.get(key, 0)
        if left != right:
            rows.append((key, left, right))
    return rows


def format_report(counts: Mapping[str, int], title: str = "work counters") -> str:
    """Byte-stable human-readable report: sorted ``key  value`` lines."""
    lines = [f"# {title}"]
    if not counts:
        lines.append("(no work counted)")
        return "\n".join(lines) + "\n"
    width = max(len(key) for key in counts)
    for key in sorted(counts):
        lines.append(f"{key.ljust(width)}  {counts[key]}")
    return "\n".join(lines) + "\n"


def write_counts_json(path: str, counts: Mapping[str, int]) -> str:
    """Write a sorted, indented counters JSON (byte-stable); returns path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(counts), fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def load_counts_json(path: str) -> Dict[str, int]:
    """Read a counters JSON written by :func:`write_counts_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"counters json is not an object: {path}")
    return {key: int(payload[key]) for key in sorted(payload)}
