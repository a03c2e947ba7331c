"""The traced run: spans and counts at the program's layer boundaries.

Nothing here edits the program. :class:`LayerTracer` reuses the
program's own instruments — ``profile_spans`` with one
:class:`~repro.obs.profile.SpanProfiler` for the ``singlehop.*`` and
``multihop.*`` spans the runners already open, and ``count_work`` for
the deterministic work counters — and, for the layers that have no span
yet, installs timing wrappers on the same profiler around each layer's
entry point. A function imported by name into a caller module is
wrapped where the caller looks it up (every ``repro`` module attribute
bound to it), a method on every class that defines it.

Each job runs under a root ``job`` span. A layer's time is the self
time of its spans (span duration minus the child spans inside it), so
the layer times plus ``unattributed_s`` add up to the traced job time.
"""

from __future__ import annotations

import bisect
import functools
import sys
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs import count_work
from repro.obs.profile import SpanProfiler, profile_spans

#: Root span opened around each job.
JOB_SPAN = "job"
#: Events kept in the written span timeline (the first ones in time).
CHROME_EVENTS = 20_000

#: span name -> the per-layer self-time metric it feeds. Spans not listed
#: (the job root, the job-function glue under ``sweep.job``) are
#: unattributed.
SPAN_METRIC: Dict[str, str] = {
    "sim.run": "sim.self_s",
    "network.build": "network.build_s",
    "singlehop.period": "network.period_self_s",
    "singlehop.churn": "network.period_self_s",
    "singlehop.contention": "mac.contention_s",
    "mac.contention": "mac.contention_s",
    "mac.neighborhood": "mac.neighborhood_s",
    "singlehop.broadcast": "phy.broadcast_s",
    "phy.broadcast": "phy.broadcast_s",
    "phy.deliver_window": "phy.deliver_window_s",
    "core.on_beacon": "core.on_beacon_s",
    "core.backend": "core.backend_s",
    "core.guard": "core.guard_s",
    "crypto.receive": "crypto.receive_s",
    "crypto.key": "crypto.key_s",
    "crypto.register": "crypto.register_s",
    "protocols.on_beacon": "protocols.on_beacon_s",
    "protocols.mh_receive": "protocols.mh_receive_s",
    "clocks.chain": "clocks.chain_s",
    "clocks.read_all": "clocks.read_all_s",
    "analysis.record": "analysis.record_s",
    "analysis.reduce": "analysis.reduce_s",
    "fastlane.run": "fastlane.run_s",
    "fastlane.window": "fastlane.window_s",
    "multihop.setup": "multihop.setup_s",
    "multihop.period": "multihop.period_self_s",
    "multihop.churn": "multihop.period_self_s",
    "multihop.collect": "multihop.collect_s",
    "multihop.receptions": "multihop.receptions_s",
    "multihop.process": "multihop.process_s",
    "multihop.end_period": "multihop.end_period_s",
    "multihop.sample": "multihop.sample_s",
    "sweep.run_sweep": "sweep.overhead_s",
}

#: Every per-layer metric, in report order: (name, unit, the end-to-end
#: metric it should move, workloads on which the layer is active).
_OO = ("ibss_related", "ibss_secure")
_ALL = ("ibss_related", "ibss_secure", "paper_fastlane", "multihop_spatial")
PER_LAYER: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("sim.events", "count", "station_periods_per_s", _OO),
    ("sim.self_s", "s", "station_periods_per_s", _OO),
    ("network.build_s", "s", "station_periods_per_s, job_p50_s", _OO),
    ("network.period_self_s", "s", "station_periods_per_s, job_p50_s", _OO),
    # the fastlane's resolve_window runs the same contention cascade
    ("mac.contention_s", "s", "station_periods_per_s", _OO + ("paper_fastlane",)),
    ("mac.candidates", "count", "station_periods_per_s", _OO + ("paper_fastlane",)),
    ("mac.success_ratio", "1", "station_periods_per_s", _OO),
    ("mac.neighborhood_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("phy.broadcast_s", "s", "station_periods_per_s", _OO),
    ("phy.deliver_window_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("phy.delivery_attempts", "count", "station_periods_per_s", _OO + ("multihop_spatial",)),
    ("phy.delivery_ratio", "1", "station_periods_per_s", _OO + ("multihop_spatial",)),
    ("core.on_beacon_s", "s", "station_periods_per_s, job_tail_s", _OO),
    ("core.backend_s", "s", "station_periods_per_s, job_tail_s", _OO),
    ("core.guard_s", "s", "station_periods_per_s, job_tail_s", _OO),
    ("core.reject_ratio", "1", "station_periods_per_s, job_tail_s", _OO),
    ("crypto.receive_s", "s", "station_periods_per_s", ("ibss_secure",)),
    ("crypto.key_s", "s", "station_periods_per_s", ("ibss_secure",)),
    ("crypto.register_s", "s", "job_p50_s (build)", ("ibss_secure",)),
    ("crypto.hash_ops", "count", "station_periods_per_s", ("ibss_secure",)),
    ("crypto.auth_ratio", "1", "station_periods_per_s", ("ibss_secure",)),
    ("protocols.on_beacon_s", "s", "station_periods_per_s", ("ibss_related",)),
    ("protocols.mh_receive_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("clocks.conversions", "count", "station_periods_per_s", ("multihop_spatial",)),
    ("clocks.chain_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("clocks.read_all_s", "s", "station_periods_per_s", ("paper_fastlane",)),
    ("analysis.record_s", "s", "job_p50_s", _ALL),
    ("analysis.reduce_s", "s", "job_p50_s", _ALL),
    ("fastlane.run_s", "s", "station_periods_per_s", ("paper_fastlane",)),
    ("fastlane.window_s", "s", "station_periods_per_s", ("paper_fastlane",)),
    ("fastlane.slot_draws", "count", "station_periods_per_s", ("paper_fastlane",)),
    ("multihop.setup_s", "s", "job_p50_s", ("multihop_spatial",)),
    ("multihop.period_self_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("multihop.collect_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("multihop.receptions_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("multihop.process_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("multihop.end_period_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("multihop.sample_s", "s", "station_periods_per_s", ("multihop_spatial",)),
    ("sweep.overhead_s", "s", "job_p50_s", ("paper_fastlane", "multihop_spatial")),
    ("unattributed_s", "s", "(gap to close)", _ALL),
    ("trace.overhead", "1", "(traced / untraced host time)", _ALL),
]


def _timed(fn: Callable[..., Any], name: str, profiler: SpanProfiler) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        profiler.enter_span(name)
        try:
            return fn(*args, **kwargs)
        finally:
            profiler.exit_span()

    return wrapper


def _observed(fn: Callable[..., Any], observe: Callable[[Any, Any], None]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = fn(self, *args, **kwargs)
        observe(self, result)
        return result

    return wrapper


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class LayerTracer:
    """Context manager: layer spans + work counters for the enclosed jobs."""

    def __init__(self) -> None:
        self.profiler = SpanProfiler()
        self.work = None
        self._patches: List[Tuple[Any, str, Any]] = []
        self._contexts: List[Any] = []
        #: Outcome tallies read from run results (for the ratios).
        self.tally: Dict[str, int] = {}

    # -- patching --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_function(self, fn: Callable[..., Any], name: str) -> None:
        """Wrap ``fn`` in every module that binds it (repro and workloads.py)."""
        wrapped = _timed(fn, name, self.profiler)
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name.startswith("repro") or mod_name == "workloads"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapped)

    def _wrap_methods(self, classes: Any, method: str, name: str) -> None:
        for cls in classes:
            if method in cls.__dict__:
                self._patch(cls, method, _timed(cls.__dict__[method], name, self.profiler))

    def _install(self) -> None:
        from repro.analysis import metrics
        from repro.clocks.chain import ClockChain
        from repro.clocks.population import ClockPopulation
        from repro.core.backend import CryptoBackend, FullCryptoBackend
        from repro.core.guard import GuardPolicy
        from repro.core.sstsp import SstspProtocol
        from repro.crypto.hashchain import HashChain
        from repro.crypto.mutesla import MuTeslaReceiver
        from repro.fastlane import common, run_sstsp_vectorized, run_tsf_vectorized
        from repro.mac.contention import resolve_contention, resolve_neighborhood
        from repro.multihop.runner import MultiHopRunner
        from repro.network.ibss import _TSF_FAMILY, build_network
        from repro.network.runner import NetworkRunner
        from repro.phy.channel import BroadcastChannel, SpatialBroadcastChannel
        from repro.protocols.multihop_base import (
            available_multihop_protocols,
            resolve_multihop_protocol,
        )
        from repro.protocols.tsf import TsfProtocol
        from repro.security import attacks  # noqa: F401  (attacker subclasses)
        from repro.sim.engine import Simulator
        from repro.sweep import orchestrator

        functions = [
            (build_network, "network.build"),
            (resolve_contention, "mac.contention"),
            (resolve_neighborhood, "mac.neighborhood"),
            (metrics.sync_latency_us, "analysis.reduce"),
            (run_sstsp_vectorized, "fastlane.run"),
            (run_tsf_vectorized, "fastlane.run"),
            (common.resolve_window, "fastlane.window"),
            (orchestrator.run_sweep, "sweep.run_sweep"),
            (orchestrator.execute_job, "sweep.job"),
        ]
        for fn, name in functions:
            self._wrap_function(fn, name)

        tsf_family = set()
        for _, protocol_cls in _TSF_FAMILY.values():
            tsf_family.update(_subclasses(protocol_cls))
        tsf_family.update(_subclasses(TsfProtocol))
        mh_protocols = [resolve_multihop_protocol(p) for p in available_multihop_protocols()]
        methods = [
            ([Simulator], "run", "sim.run"),
            ([BroadcastChannel], "broadcast", "phy.broadcast"),
            ([SpatialBroadcastChannel], "deliver_window", "phy.deliver_window"),
            (list(_subclasses(SstspProtocol)), "on_beacon", "core.on_beacon"),
            (list(_subclasses(CryptoBackend)), "process", "core.backend"),
            ([GuardPolicy], "check", "core.guard"),
            ([MuTeslaReceiver], "receive", "crypto.receive"),
            (list(_subclasses(HashChain)), "element", "crypto.key"),
            (list(_subclasses(HashChain)), "key_for_interval", "crypto.key"),
            ([FullCryptoBackend], "register_node", "crypto.register"),
            (sorted(tsf_family, key=lambda c: c.__qualname__), "on_beacon",
             "protocols.on_beacon"),
            (mh_protocols, "on_receptions", "protocols.mh_receive"),
            ([ClockChain], "hw_at", "clocks.chain"),
            ([ClockChain], "adjusted_at", "clocks.chain"),
            ([ClockChain], "true_at_hw", "clocks.chain"),
            ([ClockChain], "true_at_adjusted", "clocks.chain"),
            ([ClockPopulation], "read_all", "clocks.read_all"),
            ([metrics.TraceRecorder], "record", "analysis.record"),
            ([metrics.TraceRecorder], "finalize", "analysis.record"),
            ([metrics.SyncTrace], "steady_state_error_us", "analysis.reduce"),
            ([metrics.SyncTrace], "peak_error_us", "analysis.reduce"),
            ([metrics.SyncTrace], "reference_changes", "analysis.reduce"),
            ([metrics.SyncTrace], "window", "analysis.reduce"),
            ([MultiHopRunner], "__init__", "multihop.setup"),
        ]
        for classes, method, name in methods:
            self._wrap_methods(classes, method, name)

        # Outcome tallies for the ratios, read from every finished run.
        self._patch(NetworkRunner, "run", _observed(NetworkRunner.run, self._observe_single))
        self._patch(MultiHopRunner, "run", _observed(MultiHopRunner.run, self._observe_multi))

    def _add(self, key: str, value: int) -> None:
        self.tally[key] = self.tally.get(key, 0) + int(value)

    def _observe_channel(self, stats: Any) -> None:
        self._add("phy.deliveries", stats.deliveries)
        self._add("phy.attempted", stats.deliveries + stats.per_drops + stats.jammed_drops)

    def _observe_single(self, runner: Any, result: Any) -> None:
        self._add("mac.successes", result.successful_beacons)
        self._add("mac.windows", result.contention_windows)
        self._observe_channel(result.channel.stats)
        for node in result.nodes:
            stats = getattr(node.protocol, "stats", None)
            if hasattr(stats, "rejected_guard"):
                self._add("core.rejected", stats.rejected_pipeline + stats.rejected_guard)
                self._add("core.received", stats.beacons_received)

    def _observe_multi(self, runner: Any, result: Any) -> None:
        # A complete-graph run delegates to NetworkRunner, observed there.
        if not runner.spec.topology.is_complete():
            self._observe_channel(runner.channel.stats)

    # -- context ---------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self._install()
        spans = profile_spans(self.profiler)
        counts = count_work()
        spans.__enter__()
        self.work = counts.__enter__()
        self._contexts = [counts, spans]
        return self

    def __exit__(self, *exc_info: object) -> None:
        for context in self._contexts:
            context.__exit__(*exc_info)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def job(self) -> Any:
        """The root span of one job."""
        return self.profiler.span(JOB_SPAN)

    # -- reduction -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Self seconds per span name, summed over every path."""
        totals: Dict[str, float] = {}

        def walk(node: Mapping[str, Any]) -> None:
            totals[node["name"]] = totals.get(node["name"], 0.0) + node["self_s"]
            for child in node["children"]:
                walk(child)

        for root in self.profiler.span_tree():
            walk(root)
        return totals

    def job_seconds(self) -> float:
        return sum(
            root["total_s"] for root in self.profiler.span_tree() if root["name"] == JOB_SPAN
        )

    def metrics(self, overhead: float) -> Dict[str, float]:
        """Every per-layer metric of :data:`PER_LAYER`."""
        values: Dict[str, float] = {name: 0.0 for name, *_ in PER_LAYER}
        for span_name, seconds in self.self_times().items():
            metric = SPAN_METRIC.get(span_name, "unattributed_s")
            values[metric] += seconds
        counts = self.work.snapshot() if self.work is not None else {}

        def total(site: str, lanes: Optional[Callable[[str], bool]] = None) -> int:
            out = 0
            for key, value in counts.items():
                lane, _, name = key.rpartition("/")
                if (name == site or (site.endswith(".") and name.startswith(site))) and (
                    lanes is None or lanes(lane)
                ):
                    out += value
            return out

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def oo_lane(lane: str) -> bool:
            return not lane.startswith("fastlane")

        values["sim.events"] = total("engine.dispatch")
        values["mac.candidates"] = total("mac.contention_candidates")
        values["phy.delivery_attempts"] = total("phy.delivery_attempt", oo_lane)
        values["crypto.hash_ops"] = total("crypto.hash_ops")
        values["crypto.auth_ratio"] = ratio(total("crypto.auth_check"), total("crypto.verify"))
        values["clocks.conversions"] = total("clock.")
        values["fastlane.slot_draws"] = total(
            "mac.slot_draws", lambda lane: lane.startswith("fastlane")
        )
        tally = self.tally
        values["mac.success_ratio"] = ratio(tally.get("mac.successes", 0), tally.get("mac.windows", 0))
        values["phy.delivery_ratio"] = ratio(tally.get("phy.deliveries", 0), tally.get("phy.attempted", 0))
        values["core.reject_ratio"] = ratio(tally.get("core.rejected", 0), tally.get("core.received", 0))
        values["trace.overhead"] = overhead
        return values

    def chrome_trace(self, job_keys: List[str]) -> Dict[str, Any]:
        """The span timeline, each event tagged with its job.

        Spans of one job share a ``job_id`` (the index of the enclosing
        root span), which is found by time containment: the run is
        single-threaded, so every span lies inside its job's root span.
        Long runs keep the first :data:`CHROME_EVENTS` events.
        """
        trace = self.profiler.chrome_trace()
        events = trace["traceEvents"]
        starts = sorted(e["ts"] for e in events if e["name"] == JOB_SPAN)
        for event in events:
            index = bisect.bisect_right(starts, event["ts"]) - 1
            if 0 <= index < len(job_keys):
                event["args"]["job_id"] = index
                event["args"]["job"] = job_keys[index]
        events.sort(key=lambda e: e["ts"])
        trace["truncated"] = len(events) > CHROME_EVENTS
        trace["traceEvents"] = events[:CHROME_EVENTS]
        return trace

