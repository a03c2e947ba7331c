"""Differential parity: event-driven Simulator lane vs vectorised lane.

The OO lane (:mod:`repro.network`, driven by the discrete-event
``Simulator``) is the readable reference; ``repro.fastlane.sstsp_vec`` is
the production engine every experiment sweeps with. The two lanes consume
their RNG streams differently, so traces are not bit-equal — but on the
same scenario they must tell the same story: the stabilised (tail) sync
error agrees within a tight tolerance and the number of observed
reference changes matches exactly. Three shared scenarios pin this down:
a plain IBSS, one bootstrapping from Table 1's ±112 us initial offsets,
and one with the paper churn pattern whose reference departs at 300 s
(both lanes must re-elect exactly once).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.metrics import TraceRecorder
from repro.fastlane import run_sstsp_vectorized
from repro.multihop.runner import MultiHopSpec, run_multihop
from repro.multihop.topology import Topology
from repro.network.churn import REFERENCE_MARKER, ChurnEvent, ChurnSchedule
from repro.network.ibss import ScenarioSpec, build_network
from repro.obs import observe_run, tracing_enabled
from repro.protocols.multihop_sstsp import SstspRelayTable

#: The shared scenarios: (id, spec, relative tail tolerance).
SCENARIOS = [
    (
        "plain-n30",
        ScenarioSpec(n=30, seed=3, duration_s=30.0),
        0.10,
    ),
    (
        "offsets-n40",
        ScenarioSpec(n=40, seed=2, duration_s=30.0, initial_offset_us=112.0),
        0.10,
    ),
    (
        "churn-ref-departure-n16",
        ScenarioSpec(n=16, seed=5, duration_s=320.0, churn="paper"),
        0.15,
    ),
]


def _run_both(spec: ScenarioSpec):
    oo = build_network("sstsp", spec).run()
    vec = run_sstsp_vectorized(spec)
    return oo, vec


@pytest.mark.parametrize(
    "spec,rel_tol",
    [s[1:] for s in SCENARIOS],
    ids=[s[0] for s in SCENARIOS],
)
class TestDifferentialParity:
    def test_tail_error_agrees(self, spec, rel_tol):
        oo, vec = _run_both(spec)
        oo_tail = oo.trace.steady_state_error_us()
        vec_tail = vec.trace.steady_state_error_us()
        assert vec_tail == pytest.approx(oo_tail, rel=rel_tol)
        # both lanes land inside the paper's accuracy claim
        assert oo_tail < 10.0 and vec_tail < 10.0

    def test_reference_change_count_matches(self, spec, rel_tol):
        oo, vec = _run_both(spec)
        assert (
            oo.trace.reference_changes() == vec.trace.reference_changes()
        ), "lanes disagree on how many reference hand-offs happened"


def test_churn_scenario_actually_reelects():
    """Guard the third scenario's purpose: its reference really departs,
    so a parity pass there covers the re-election path, not just steady
    state."""
    spec = SCENARIOS[2][1]
    vec = run_sstsp_vectorized(spec)
    assert vec.trace.reference_changes() >= 1
    assert any("left" in event for event in vec.events)


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


class TestTracingParity:
    """The event bus must be a strict no-op for results: ``emit`` draws
    no randomness, reads no clock and mutates no simulation state, so a
    traced run is *bit-identical* to an untraced one — not merely close.
    This is the property that lets every lane stay instrumented."""

    SPEC = ScenarioSpec(n=10, seed=4, duration_s=10.0)

    def test_oo_lane_bit_identical_with_tracing(self, tmp_path):
        plain = build_network("sstsp", self.SPEC).run()
        assert not tracing_enabled()
        with observe_run(str(tmp_path / "oo.jsonl")) as obs:
            traced = build_network("sstsp", self.SPEC).run()
        assert not tracing_enabled()
        _assert_bit_identical(plain.trace, traced.trace)
        assert plain.successful_beacons == traced.successful_beacons
        assert obs.event_count > 0, "instrumented run produced no events"

    def test_vec_lane_bit_identical_with_tracing(self):
        plain = run_sstsp_vectorized(self.SPEC)
        with observe_run() as obs:
            traced = run_sstsp_vectorized(self.SPEC)
        _assert_bit_identical(plain.trace, traced.trace)
        assert obs.event_count > 0

    def test_multihop_lane_bit_identical_with_tracing(self):
        spec = MultiHopSpec(
            topology=Topology.chain(6), seed=3, duration_s=8.0
        )
        plain = run_multihop(spec)
        with observe_run() as obs:
            traced = run_multihop(spec)
        _assert_bit_identical(plain.trace, traced.trace)
        assert plain.per_hop_error_us == traced.per_hop_error_us
        assert plain.beacons_sent == traced.beacons_sent
        assert obs.event_count > 0

    def test_traced_rerun_is_trace_stable(self, tmp_path):
        """Two traced runs of the same seed produce byte-identical
        JSONL — the per-run guarantee behind the golden fixture."""
        paths = [str(tmp_path / f"run{i}.jsonl") for i in (1, 2)]
        for path in paths:
            with observe_run(path):
                build_network("sstsp", self.SPEC).run()
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


def _run_reference_lane(spec: MultiHopSpec):
    """The single-hop lane built exactly as the multi-hop delegation does."""
    runner = SstspRelayTable.degenerate_runner(spec)
    runner.recorder = TraceRecorder(keep_values=True)
    if spec.churn is not None and len(spec.churn):
        runner.churn = spec.churn
    return runner.run()


class TestMultiHopDegenerateParity:
    """A complete-graph multi-hop spec must reproduce the single-hop
    lane's decisions *exactly*: same reference elections, same per-period
    adjustment trace. The multi-hop runner delegates through
    :meth:`SstspRelayTable.degenerate_runner`, so any drift between the lanes (RNG
    stream names, protocol constants, churn plumbing) breaks bit-parity
    here."""

    def test_complete_graph_matches_reference_lane(self):
        spec = MultiHopSpec(
            topology=Topology.full_mesh(14), seed=3, duration_s=20.0
        )
        mh = run_multihop(spec)
        ref = _run_reference_lane(spec)
        # Election decisions: identical winner per period.
        assert np.array_equal(
            mh.trace.reference_ids, ref.trace.reference_ids
        ), "lanes disagree on reference election"
        # Adjustment decisions: the per-period max-offset trace is the
        # same runner under the hood, so it must match to the float.
        assert np.allclose(
            mh.trace.max_diff_us, ref.trace.max_diff_us, rtol=0.0, atol=1e-9
        )
        assert mh.root_changes == ref.trace.reference_changes()
        assert mh.beacons_sent == ref.successful_beacons
        # All stations sit at hop 1 from the elected root.
        assert mh.max_hop() == 1
        assert mh.trace.steady_state_error_us() < 10.0

    def test_complete_graph_with_churn_matches_reference_lane(self):
        churn = ChurnSchedule(
            (
                ChurnEvent(60, "leave", (REFERENCE_MARKER,)),
                ChurnEvent(120, "return", (REFERENCE_MARKER,)),
            )
        )
        spec = MultiHopSpec(
            topology=Topology.full_mesh(10),
            seed=5,
            duration_s=30.0,
            churn=churn,
        )
        mh = run_multihop(spec)
        ref = _run_reference_lane(spec)
        assert np.array_equal(mh.trace.reference_ids, ref.trace.reference_ids)
        assert np.allclose(
            mh.trace.max_diff_us, ref.trace.max_diff_us, rtol=0.0, atol=1e-9
        )
        # The marker departure really forces a re-election in both lanes.
        assert mh.root_changes == ref.trace.reference_changes() >= 1
        assert mh.root == int(
            ref.trace.reference_ids[ref.trace.reference_ids >= 0][-1]
        )
