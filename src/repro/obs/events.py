"""The structured event-tracing bus and the one observability slot.

Protocol-level *events* — who won beacon contention, which beacons the
guard rejected, when uTESLA deferred vs. authenticated, when the
reference role changed hands — are what SSTSP's claims are about, yet
the traces the kernel records are aggregate error curves. This module
is the bus those events flow over: instrumented kernel code calls
:func:`emit`, and when a :class:`RunObserver` is installed the event is
recorded (in memory, to JSONL, or both) and its counter incremented in
the observer's :class:`~repro.obs.registry.MetricsRegistry`.

Tracing, work counting (:mod:`repro.obs.counters`) and spans
(:mod:`repro.obs.profile`) share one module-global slot, :data:`_SINK`,
holding a :class:`Sink` of the three facets. Every kernel hook reads it:
:func:`emit`, :func:`observe_value`, :func:`tracing_enabled`,
:func:`count`, :func:`work_lane` and :func:`span` (the last three are
re-exported by the modules named above, where call sites import them).
:func:`observe` is the one install path; :func:`observe_run`,
``count_work`` and ``profile_spans`` each install one facet through it
and inherit the other two.

Every hook is a **strict no-op when disabled**: with nothing installed
it costs one module-global load and a ``None`` check, draws no
randomness, reads no clock and mutates no simulation state, so enabling
an instrument cannot change any result — the tier-1 parity suites
assert exactly that (``tests/test_differential_parity.py``,
``tests/test_obs_counters.py``). This is the property that lets every
lane stay instrumented permanently.

Event records are JSON objects with a stable schema
(:data:`TRACE_SCHEMA_VERSION`); see ``docs/observability.md`` for the
catalog, per-event timebase notes, and the version policy. Records
carry no wall-clock timestamps — only simulation time — so a seeded run
traces to byte-identical JSONL on every machine (the golden-fixture
test pins this).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, nullcontext
from typing import (
    TYPE_CHECKING, Any, ContextManager, Dict, IO, Iterator, List, NamedTuple, Optional,
)

from repro.obs.events_schema import (
    EVENT_SCHEMAS,
    TRACE_SCHEMA_VERSION,
    validate_record,
)
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.counters import WorkCounters
    from repro.obs.profile import SpanProfiler

#: The event catalog: event name -> owning subsystem. *Derived* from
#: :data:`repro.obs.events_schema.EVENT_SCHEMAS` — the machine-readable
#: per-event field spec that the reprolint E-series checks call sites
#: against and :func:`read_events` validates records against — so the
#: runtime bus, the validator and the linter share one event inventory.
EVENT_CATALOG: Dict[str, str] = {
    name: spec.subsystem for name, spec in EVENT_SCHEMAS.items()
}


class RunObserver:
    """Collects one run's events and metrics.

    Parameters
    ----------
    path:
        JSONL destination, or None for in-memory only. The file is
        opened immediately and receives a ``trace_header`` record.
    keep_events:
        Retain events in :attr:`events` (default: True when no path is
        given, else False — long runs stream to disk without holding
        the whole trace in memory).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        keep_events: Optional[bool] = None,
    ) -> None:
        self.path = path
        self.keep_events = keep_events if keep_events is not None else path is None
        self.events: List[Dict[str, Any]] = []
        self.registry = MetricsRegistry()
        self._seq = 0
        self._fh: Optional[IO[str]] = None
        if path is not None:
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")
            self._write({"event": "trace_header", "schema": TRACE_SCHEMA_VERSION, "seq": 0})

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(
        self,
        event: str,
        t_us: Optional[float],
        node: Optional[int],
        fields: Dict[str, Any],
    ) -> None:
        """Record one event (the bus calls this; prefer :func:`emit`)."""
        self._seq += 1
        record: Dict[str, Any] = {"event": event, "seq": self._seq}
        if t_us is not None:
            record["t_us"] = float(t_us)
        if node is not None:
            record["node"] = node
        record.update(fields)
        if self.keep_events:
            self.events.append(record)
        self._write(record)
        self.registry.inc(f"events.{event}", node=node)

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Events recorded so far (header excluded)."""
        return self._seq

    def close(self) -> None:
        """Flush and close the JSONL file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


class Sink(NamedTuple):
    """What the observability slot holds: one scope's event trace, work
    counts and spans. Each facet is optional; a hook whose facet is None
    does nothing."""

    trace: Optional[RunObserver] = None
    work: Optional[WorkCounters] = None
    spans: Optional[SpanProfiler] = None

    def metrics(self) -> Dict[str, Any]:
        """The traced run's metrics snapshot: the trace's ``events.*``
        counters and histograms, plus every work count as a
        ``work.<lane>/<site>`` counter (the payload of a sweep's
        ``job_obs`` record)."""
        snapshot = self.trace.registry.snapshot()
        if self.work is not None:
            for key, value in self.work.snapshot().items():
                snapshot["counters"][f"work.{key}"] = value
        return snapshot


#: The one observability slot; None turns every hook into a no-op.
_SINK: Optional[Sink] = None

#: What :func:`span` returns when no span profiler is installed.
_NO_SPAN = nullcontext()


def emit(
    event: str,
    t_us: Optional[float] = None,
    node: Optional[int] = None,
    **fields: Any,
) -> None:
    """Emit one protocol event onto the bus (no-op when tracing is off).

    ``t_us`` is the event's *simulation*-time stamp; which clock it is
    read from (true / adjusted / hardware) is fixed per event kind and
    documented in the catalog. ``node`` is the acting station, if any.
    """
    sink = _SINK
    if sink is not None and sink.trace is not None:
        sink.trace.record(event, t_us, node, fields)


def observe_value(name: str, value: float, node: Optional[int] = None) -> None:
    """Record a histogram observation (no-op when tracing is off)."""
    sink = _SINK
    if sink is not None and sink.trace is not None:
        sink.trace.registry.observe(name, value, node=node)


def tracing_enabled() -> bool:
    """Whether a trace is installed (hot loops may check once)."""
    sink = _SINK
    return sink is not None and sink.trace is not None


def count(name: str, by: int = 1) -> None:
    """Count ``by`` units of work at site ``name`` (no-op when off)."""
    sink = _SINK
    if sink is not None and sink.work is not None:
        sink.work.add(name, by)


def span(name: str) -> ContextManager[Any]:
    """A ``name`` span on the installed span profiler (a free no-op
    context when none is installed). Callers hold the span, never a
    clock: only :mod:`repro.obs.profile` reads ``time.perf_counter``."""
    sink = _SINK
    if sink is not None and sink.spans is not None:
        return sink.spans.span(name)
    return _NO_SPAN


class work_lane:
    """Context manager attributing enclosed work to ``lane``.

    A strict no-op when counting is off. The work counters are captured
    on entry so an exit always pops the lane it pushed, even if the slot
    changes mid-scope.
    """

    __slots__ = ("_lane", "_work")

    def __init__(self, lane: str) -> None:
        self._lane = lane
        self._work: Optional[WorkCounters] = None

    def __enter__(self) -> "work_lane":
        sink = _SINK
        self._work = sink.work if sink is not None else None
        if self._work is not None:
            self._work.push_lane(self._lane)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._work is not None:
            self._work.pop_lane()
            self._work = None


@contextmanager
def observe(
    trace: Optional[RunObserver] = None,
    work: Optional[WorkCounters] = None,
    spans: Optional[SpanProfiler] = None,
) -> Iterator[Sink]:
    """Install facets on the slot for the enclosed block.

    A facet left None is inherited from the enclosing scope, so scopes
    nest: spans outside counts or counts outside spans. On exit the
    previous slot is restored and a trace installed here is closed,
    exceptions included. :func:`observe_run`,
    :func:`~repro.obs.counters.count_work` and
    :func:`~repro.obs.profile.profile_spans` are this with one facet.
    """
    global _SINK
    previous = _SINK
    outer = previous if previous is not None else Sink()
    installed = Sink(
        trace if trace is not None else outer.trace,
        work if work is not None else outer.work,
        spans if spans is not None else outer.spans,
    )
    _SINK = installed
    try:
        yield installed
    finally:
        _SINK = previous
        if trace is not None:
            trace.close()


@contextmanager
def observe_run(
    path: Optional[str] = None, keep_events: Optional[bool] = None
) -> Iterator[RunObserver]:
    """Install a :class:`RunObserver` as the event trace.

    ::

        with observe_run("run.jsonl") as obs:
            runner.run()
        print(obs.event_count, obs.registry.snapshot()["counters"])

    Work counts and spans of the enclosing scope stay installed.
    """
    observer = RunObserver(path=path, keep_events=keep_events)
    with observe(trace=observer):
        yield observer


def read_events(path: str, validate: bool = False) -> Iterator[Dict[str, Any]]:
    """Iterate the records of one trace JSONL file (header included).

    Raises ValueError when the file's schema version is newer than this
    reader understands; blank lines are skipped. With ``validate=True``
    every record is additionally checked against
    :data:`repro.obs.events_schema.EVENT_SCHEMAS` (unknown events,
    missing required fields, undeclared extras all raise) — the strict
    mode for traces this very tree produced; leave it off when reading
    traces from a newer producer, whose unknown events must be skipped,
    not rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("event") == "trace_header":
                schema = record.get("schema")
                if schema is not None and schema > TRACE_SCHEMA_VERSION:
                    raise ValueError(
                        f"trace schema {schema} is newer than supported "
                        f"{TRACE_SCHEMA_VERSION}: {path}"
                    )
            if validate:
                problem = validate_record(record)
                if problem is not None:
                    raise ValueError(f"{path}:{lineno}: {problem}")
            yield record
