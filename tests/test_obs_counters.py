"""Deterministic work counters + hierarchical span profiler.

The counters' load-bearing contract (the ``TestTracingParity`` style,
see ``tests/test_differential_parity.py``): ``count()`` draws no
randomness, reads no clock and mutates no simulation state, so a counted
run is *bit-identical* to an uncounted one on every lane — and the tally
itself is a pure function of the spec and seed, byte-identical across
repeats, tracing states and worker counts. That exactness is what lets
``repro bench-gate`` compare work with zero tolerance and ``repro
profile diff`` act as a determinism check.

The span profiler's contract: only ``obs/profile.py`` reads the host
clock (the D002 carve-out), attribution is exact under an injected fake
clock, and the Chrome trace-event export is schema-valid.
"""

from __future__ import annotations

import itertools
import json
import os
from contextlib import ExitStack

import numpy as np
import pytest

from repro.fastlane import run_sstsp_vectorized
from repro.multihop.runner import MultiHopSpec, run_multihop
from repro.multihop.topology import Topology
from repro.network.ibss import ScenarioSpec, build_network
from repro.obs import emit, events, observe_run
from repro.obs.counters import (
    WorkCounters,
    count,
    count_work,
    diff_counts,
    format_report,
    load_counts_json,
    merge_counts,
    work_lane,
    write_counts_json,
)
from repro.obs.profile import SpanProfiler, profile_spans, span
from repro.obs.profilecli import main as profile_main
from repro.sweep import JobSpec, SweepOptions, run_sweep

SPEC = ScenarioSpec(n=10, seed=4, duration_s=10.0)
MH_SPEC = MultiHopSpec(topology=Topology.chain(6), seed=3, duration_s=8.0)


def _trace_arrays(trace):
    arrays = [
        trace.times_us,
        trace.max_diff_us,
        trace.mean_vs_true_us,
        trace.present_counts,
        trace.reference_ids,
    ]
    if trace.values_us is not None:
        arrays.append(trace.values_us)
    return arrays


def _assert_bit_identical(a, b):
    for left, right in zip(_trace_arrays(a), _trace_arrays(b)):
        assert np.array_equal(left, right, equal_nan=True)


class TestWorkCountersApi:
    def test_disabled_count_is_a_noop(self):
        assert events._SINK is None
        count("engine.heap_push")  # must not raise, must not record
        count("engine.heap_push", 100)
        assert events._SINK is None

    def test_count_work_installs_and_restores_the_sink(self):
        with count_work() as work:
            assert events._SINK.work is work
            count("a")
            count("a", 2)
            count("b", 5)
        assert events._SINK is None
        count("a")
        assert work.snapshot() == {"a": 3, "b": 5}

    def test_lanes_nest_and_the_innermost_owns_the_work(self):
        with count_work() as work:
            count("outside")
            with work_lane("multihop/coop"):
                count("phy.per_draw")
                with work_lane("singlehop/sstsp"):
                    count("phy.per_draw", 2)
                count("phy.per_draw")
        assert work.snapshot() == {
            "multihop/coop/phy.per_draw": 2,
            "outside": 1,
            "singlehop/sstsp/phy.per_draw": 2,
        }
        assert work.total("phy.per_draw") == 4
        assert work.total("outside") == 1

    def test_work_lane_without_a_sink_is_a_noop(self):
        with work_lane("fastlane/sstsp"):
            count("phy.per_draw")
        assert events._SINK is None

    def test_merge_diff_metrics_and_report(self):
        total = merge_counts({"a": 1}, {"a": 2, "b": 3})
        assert total == {"a": 3, "b": 3}
        # absent keys diff as zero, identical tallies diff as empty
        assert diff_counts({"a": 1}, {"a": 1}) == []
        assert diff_counts({"a": 1, "b": 2}, {"a": 3}) == [
            ("a", 1, 3), ("b", 2, 0),
        ]
        report = format_report({"a": 1, "bb": 2})
        assert report == "# work counters\na   1\nbb  2\n"
        assert format_report({}) == "# work counters\n(no work counted)\n"

    def test_counts_json_roundtrip_is_byte_stable(self, tmp_path):
        counts = WorkCounters()
        counts.add("b", 2)
        counts.add("a")
        one = str(tmp_path / "one.json")
        two = str(tmp_path / "two.json")
        write_counts_json(one, counts.snapshot())
        write_counts_json(two, {"b": 2, "a": 1})
        with open(one, "rb") as fh_one, open(two, "rb") as fh_two:
            assert fh_one.read() == fh_two.read()
        assert load_counts_json(one) == {"a": 1, "b": 2}


#: lane -> zero-argument run of that lane's pinned spec.
LANES = {
    "oo": lambda: build_network("sstsp", SPEC).run(),
    "vec": lambda: run_sstsp_vectorized(SPEC),
    "multihop": lambda: run_multihop(MH_SPEC),
}


@pytest.fixture(scope="module")
def lane_baselines():
    """Per lane: the bare run and the counting-only tally."""
    baselines = {}
    for lane, run in LANES.items():
        with count_work() as work:
            run()
        baselines[lane] = (run(), work.snapshot())
    return baselines


class TestCountingParity:
    """Counted runs are bit-identical to uncounted ones on every lane,
    and the tally itself is deterministic. The matrix case extends this
    to every on/off combination of tracing, counting and spans: each
    leaves every lane bit-identical, and the tally does not depend on
    which other instruments are on."""

    def test_oo_lane_bit_identical_with_counting(self):
        plain = build_network("sstsp", SPEC).run()
        with count_work() as work:
            counted = build_network("sstsp", SPEC).run()
        _assert_bit_identical(plain.trace, counted.trace)
        assert plain.successful_beacons == counted.successful_beacons
        snapshot = work.snapshot()
        assert snapshot, "instrumented run counted no work"
        assert all(key.startswith("singlehop/sstsp/") for key in snapshot)
        assert work.total("engine.dispatch") > 0
        assert work.total("phy.per_draw") > 0

    def test_vec_lane_bit_identical_with_counting(self):
        plain = run_sstsp_vectorized(SPEC)
        with count_work() as work:
            counted = run_sstsp_vectorized(SPEC)
        _assert_bit_identical(plain.trace, counted.trace)
        snapshot = work.snapshot()
        assert snapshot
        assert all(key.startswith("fastlane/sstsp/") for key in snapshot)
        assert work.total("mac.slot_draws") > 0

    def test_multihop_lane_bit_identical_with_counting(self):
        plain = run_multihop(MH_SPEC)
        with count_work() as work:
            counted = run_multihop(MH_SPEC)
        _assert_bit_identical(plain.trace, counted.trace)
        assert plain.per_hop_error_us == counted.per_hop_error_us
        assert plain.beacons_sent == counted.beacons_sent
        snapshot = work.snapshot()
        assert snapshot
        assert all(key.startswith("multihop/sstsp/") for key in snapshot)

    def test_tally_identical_with_tracing_on_and_off(self):
        with count_work() as bare:
            run_multihop(MH_SPEC)
        with count_work() as traced, observe_run() as obs:
            run_multihop(MH_SPEC)
        assert obs.event_count > 0
        assert bare.snapshot() == traced.snapshot()

    def test_repeated_tallies_are_byte_identical(self):
        snapshots = []
        for _ in range(2):
            with count_work() as work:
                run_sstsp_vectorized(SPEC)
            snapshots.append(
                json.dumps(work.snapshot(), sort_keys=True)
            )
        assert snapshots[0] == snapshots[1]

    @pytest.mark.parametrize("lane", sorted(LANES))
    @pytest.mark.parametrize(
        "tracing, counting, spans",
        list(itertools.product((False, True), repeat=3)),
        ids=lambda on: "on" if on else "off",
    )
    def test_every_instrument_combination_is_bit_identical(
        self, lane, tracing, counting, spans, lane_baselines
    ):
        plain, tally = lane_baselines[lane]
        with ExitStack() as stack:
            obs = stack.enter_context(observe_run()) if tracing else None
            work = stack.enter_context(count_work()) if counting else None
            profiler = stack.enter_context(profile_spans()) if spans else None
            result = LANES[lane]()
        assert events._SINK is None
        _assert_bit_identical(plain.trace, result.trace)
        if lane == "multihop":
            assert plain.per_hop_error_us == result.per_hop_error_us
        if obs is not None:
            assert obs.event_count > 0
        if work is not None:
            assert work.snapshot() == tally
        if profiler is not None and lane != "vec":
            assert profiler.counts(), "runner opened no spans"


class TestSlotNesting:
    """Scopes swap only their own facet, inherit the others, and restore
    the previous slot in either nesting order, exceptions included."""

    ORDERS = {"spans_outside": (profile_spans, count_work),
              "counts_outside": (count_work, profile_spans)}

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_nesting_restores_the_previous_slot(self, order):
        outer_cm, inner_cm = self.ORDERS[order]
        with observe_run() as obs:
            top = events._SINK
            with outer_cm():
                middle = events._SINK
                with inner_cm():
                    inner = events._SINK
                    assert inner.trace is obs
                    assert inner.work is not None and inner.spans is not None
                    with span("phase"):
                        count("site")
                        emit("coarse_retry", node=0, samples=1, survivors=0)
                assert events._SINK is middle
            assert events._SINK is top
        assert events._SINK is None
        assert obs.event_count == 1
        assert inner.work.snapshot() == {"site": 1}
        assert inner.spans.counts() == {"phase": 1}

    @pytest.mark.parametrize("order", sorted(ORDERS))
    def test_exception_restores_the_previous_slot(self, order):
        outer_cm, inner_cm = self.ORDERS[order]
        with pytest.raises(RuntimeError):
            with outer_cm(), inner_cm():
                raise RuntimeError("boom")
        assert events._SINK is None

    def test_manual_enter_exit_with_an_exception(self):
        """The entry points driven by hand, spans then counts, exited in
        reverse with the exception's info."""
        spans, counts = profile_spans(), count_work()
        spans.__enter__()
        work = counts.__enter__()
        count("site")
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            exc_info = (type(exc), exc, exc.__traceback__)
        for context in (counts, spans):
            assert not context.__exit__(*exc_info)
        assert events._SINK is None
        assert work.snapshot() == {"site": 1}


class TestSweepWorkMetrics:
    """The orchestrator folds per-job work counters into the observed
    metrics; the roll-up is identical at any worker count."""

    @staticmethod
    def _specs():
        return [
            JobSpec.make(
                "scenario_trace",
                {"protocol": "sstsp", "lane": "vec", "scenario": "quick",
                 "n": 5, "m": 4, "seed": seed},
                root_seed=seed,
            )
            for seed in (1, 2)
        ]

    @staticmethod
    def _sweep_end_work(log_path):
        with open(log_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        end = records[-1]
        assert end["event"] == "sweep_end"
        return {
            key: value
            for key, value in end["metrics"]["counters"].items()
            if key.startswith("work.")
        }

    def test_work_rolls_up_identically_across_worker_counts(self, tmp_path):
        tallies = {}
        for workers in (1, 4):
            log_path = tmp_path / f"w{workers}.jsonl"
            run_sweep(
                "quick",
                self._specs(),
                SweepOptions(
                    workers=workers,
                    trace_dir=str(tmp_path / f"t{workers}"),
                    log_path=str(log_path),
                ),
            )
            tallies[workers] = self._sweep_end_work(log_path)
        assert tallies[1], "sweep_end carries no work counters"
        assert any(
            key.startswith("work.fastlane/sstsp/")
            for key in tallies[1]
        )
        assert tallies[1] == tallies[4]


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpanProfiler:
    def test_nested_attribution_with_a_fake_clock(self):
        clock = _FakeClock()
        profiler = SpanProfiler(clock=clock)
        with profiler.span("outer"):
            clock.now = 1.0
            with profiler.span("inner"):
                clock.now = 3.0
            clock.now = 4.0
        with profiler.span("outer"):
            clock.now = 5.0
        tree = profiler.span_tree()
        assert len(tree) == 1
        outer = tree[0]
        assert outer["name"] == "outer"
        assert outer["count"] == 2
        assert outer["total_s"] == 5.0  # 4.0 + 1.0
        assert outer["self_s"] == 3.0  # children took 2.0
        (inner,) = outer["children"]
        assert inner == {
            "name": "inner", "count": 1, "total_s": 2.0, "self_s": 2.0,
            "children": [],
        }
        # the per-name views sum the span nodes
        assert profiler.totals() == {"inner": 2.0, "outer": 5.0}
        assert profiler.counts() == {"inner": 1, "outer": 2}
        assert "outer" in profiler.format_tree()

    def test_chrome_trace_schema(self):
        clock = _FakeClock()
        profiler = SpanProfiler(clock=clock)
        with profiler.span("outer"):
            clock.now = 1.0
            with profiler.span("inner"):
                clock.now = 3.0
            clock.now = 4.0
        trace = profiler.chrome_trace()
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert [event["name"] for event in events] == ["inner", "outer"]
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == 0 and event["tid"] == 0
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        inner, outer = events
        assert inner["ts"] == 1e6 and inner["dur"] == 2e6
        assert inner["cat"] == "outer"
        assert inner["args"]["path"] == "outer/inner"
        assert outer["ts"] == 0.0 and outer["dur"] == 4e6
        assert outer["cat"] == "root"

    def test_no_path_work_between_a_childs_end_and_its_parents(self):
        # Everything charged to a span's self time lies between clock
        # reads; a node lookup logged between the inner span's end and
        # the outer span's end would land in the outer span's self time.
        log = []

        def clock():
            log.append("clock")
            return float(len(log))

        class LoggedNodes(dict):
            def get(self, key, default=None):
                log.append("lookup")
                return super().get(key, default)

            def __getitem__(self, key):
                log.append("lookup")
                return super().__getitem__(key)

        profiler = SpanProfiler(clock=clock)
        profiler._nodes = LoggedNodes()
        with profiler.span("outer"):
            with profiler.span("inner"):
                pass
        clocks = [i for i, entry in enumerate(log) if entry == "clock"]
        assert len(clocks) == 4  # outer start, inner start, inner end, outer end
        assert "lookup" not in log[clocks[2]:clocks[3]], log
        assert log.count("lookup") == 2, log  # one per span
        (outer,) = profiler.span_tree()
        (inner,) = outer["children"]
        assert outer["self_s"] + inner["total_s"] == outer["total_s"]

    def test_open_spans_are_not_reported(self):
        clock = _FakeClock()
        profiler = SpanProfiler(clock=clock)
        profiler.enter_span("outer")
        with profiler.span("inner"):
            clock.now = 1.0
        assert profiler.counts() == {"inner": 1}
        assert [node["name"] for node in profiler.span_tree()] == ["inner"]
        profiler.exit_span()
        assert profiler.counts() == {"inner": 1, "outer": 1}

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        clock = _FakeClock()
        profiler = SpanProfiler(clock=clock)
        with profiler.span("a"):
            clock.now = 1.0
        path = profiler.write_chrome_trace(str(tmp_path / "trace.json"))
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["traceEvents"][0]["name"] == "a"

    def test_free_span_is_a_noop_until_installed(self):
        assert events._SINK is None
        with span("anything"):
            pass  # no profiler installed: must not record or raise
        with profile_spans() as profiler:
            assert events._SINK.spans is profiler
            with span("phase"):
                pass
        assert events._SINK is None
        assert profiler.counts() == {"phase": 1}

    def test_runner_spans_reach_the_installed_profiler(self):
        with profile_spans() as profiler:
            run_multihop(MH_SPEC)
        counts = profiler.counts()
        assert counts["multihop.period"] > 0
        assert counts["multihop.receptions"] > 0
        paths = {
            "/".join(path) for path, _, _ in profiler._spans
        }
        assert "multihop.period/multihop.receptions" in sorted(paths)

    def test_format_summary_handles_zero_and_absent_wall(self):
        clock = _FakeClock()
        profiler = SpanProfiler(clock=clock)
        assert profiler.format_summary() == "no profiled sections"
        with profiler.span("engine"):
            clock.now = 1.5
        assert profiler.format_summary() == "engine 1.50s"
        # wall_s=0.0 is a real value (a sub-resolution sweep), not
        # "absent": it must neither divide by zero nor show percentages
        assert profiler.format_summary(0.0) == "engine 1.50s"
        assert profiler.format_summary(3.0) == "engine 1.50s (50%)"


class TestProfileCli:
    ARGS = [
        "run", "multihop_run",
        "--param", "topology=chain",
        "--param", "n=5",
        "--param", "duration_s=4.0",
        "--seed", "3",
    ]

    @staticmethod
    def _artifacts(out_dir, suffix=""):
        names = sorted(os.listdir(out_dir))
        counters = [n for n in names if n.endswith(f"{suffix}.counters.json")]
        chrome = [n for n in names if n.endswith(f"{suffix}.chrome.json")]
        return counters, chrome

    def test_run_twice_and_diff_is_clean(self, tmp_path, capsys):
        out_dir = str(tmp_path / "profile")
        assert profile_main(self.ARGS + ["--out-dir", out_dir]) == 0
        assert profile_main(
            self.ARGS + ["--out-dir", out_dir, "--suffix", ".run2"]
        ) == 0
        capsys.readouterr()
        counters2, chrome2 = self._artifacts(out_dir, ".run2")
        assert len(counters2) == 1 and len(chrome2) == 1
        first = [
            name for name in sorted(os.listdir(out_dir))
            if name.endswith(".counters.json") and ".run2" not in name
        ]
        assert len(first) == 1
        a = os.path.join(out_dir, first[0])
        b = os.path.join(out_dir, counters2[0])
        with open(a, "rb") as fh_a, open(b, "rb") as fh_b:
            assert fh_a.read() == fh_b.read(), "counters not deterministic"
        assert profile_main(["diff", a, b]) == 0
        assert "identical" in capsys.readouterr().out
        # the chrome trace is schema-valid (wall times, so not byte-stable)
        with open(os.path.join(out_dir, chrome2[0]), encoding="utf-8") as fh:
            trace = json.load(fh)
        assert trace["displayTimeUnit"] == "ms"
        assert trace["traceEvents"], "profile run recorded no spans"
        assert {"multihop.period", "job"} <= {
            event["name"] for event in trace["traceEvents"]
        }
        assert all(event["ph"] == "X" for event in trace["traceEvents"])

    def test_diff_flags_drift_and_exits_nonzero(self, tmp_path, capsys):
        a = str(tmp_path / "a.counters.json")
        b = str(tmp_path / "b.counters.json")
        write_counts_json(a, {"multihop/sstsp/engine.dispatch": 10})
        write_counts_json(b, {"multihop/sstsp/engine.dispatch": 11})
        assert profile_main(["diff", a, b]) == 1
        assert "DRIFT" in capsys.readouterr().out
