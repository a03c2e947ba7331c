"""Cross-validation of the vectorised engines against the reference lane.

The lanes share RNG stream *names* but consume draws differently, so
equality is statistical: steady-state errors must agree within a factor,
and every qualitative claim (attack outcomes, churn survival, Fig. 1/2
shapes) must hold on both lanes.
"""

import numpy as np
import pytest

from repro.fastlane import run_sstsp_vectorized, run_tsf_vectorized
from repro.network.ibss import AttackerSpec, ScenarioSpec, build_network
from repro.phy.params import PhyParams
from repro.sim.units import S


def wmax(trace, a_s, b_s):
    return float(trace.window(a_s * S, b_s * S).max_diff_us.max())


class TestTsfAgreement:
    def test_steady_state_matches_reference_lane(self):
        spec = ScenarioSpec(n=40, seed=3, duration_s=40.0)
        oo = build_network("tsf", spec).run().trace.steady_state_error_us()
        vec = run_tsf_vectorized(spec).trace.steady_state_error_us()
        assert vec == pytest.approx(oo, rel=0.5)

    def test_error_grows_with_n(self):
        small = run_tsf_vectorized(ScenarioSpec(n=20, seed=1, duration_s=40.0))
        large = run_tsf_vectorized(ScenarioSpec(n=120, seed=1, duration_s=40.0))
        assert (
            large.trace.steady_state_error_us()
            > small.trace.steady_state_error_us()
        )
        assert large.collisions > small.collisions * 2

    def test_success_rate_drops_with_n(self):
        small = run_tsf_vectorized(ScenarioSpec(n=20, seed=1, duration_s=40.0))
        large = run_tsf_vectorized(ScenarioSpec(n=120, seed=1, duration_s=40.0))
        assert large.successful_beacons < small.successful_beacons

    def test_attack_desynchronizes(self):
        spec = ScenarioSpec(
            n=30, seed=5, duration_s=30.0,
            attacker=AttackerSpec(start_s=10.0, end_s=20.0),
        )
        trace = run_tsf_vectorized(spec).trace
        assert wmax(trace, 12, 20) > 5 * wmax(trace, 5, 10)

    def test_trace_has_every_period(self):
        spec = ScenarioSpec(n=10, seed=2, duration_s=5.0)
        result = run_tsf_vectorized(spec)
        assert len(result.trace) == spec.periods


class TestSstspAgreement:
    def test_steady_state_matches_reference_lane(self):
        spec = ScenarioSpec(n=40, seed=3, duration_s=40.0)
        oo = build_network("sstsp", spec).run().trace.steady_state_error_us()
        vec = run_sstsp_vectorized(spec).trace.steady_state_error_us()
        assert vec == pytest.approx(oo, rel=0.35)

    def test_paper_accuracy_at_scale(self):
        spec = ScenarioSpec(n=200, seed=1, duration_s=60.0)
        trace = run_sstsp_vectorized(spec).trace
        assert trace.steady_state_error_us() < 15.0

    def test_large_network_election_concludes(self):
        # the 500-node bootstrap: error grows while clocks de-quantise,
        # then a reference emerges and the network converges (Fig. 2 shape)
        spec = ScenarioSpec(n=500, seed=1, duration_s=30.0)
        result = run_sstsp_vectorized(spec)
        assert result.reference_changes >= 1
        assert wmax(result.trace, 25, 30) < 20.0

    def test_insider_attack_bounded(self):
        spec = ScenarioSpec(
            n=50, seed=3, duration_s=30.0,
            attacker=AttackerSpec(start_s=10.0, end_s=20.0, shave_per_period_us=40.0),
        )
        trace = run_sstsp_vectorized(spec).trace
        assert wmax(trace, 11, 20) < 60.0
        assert trace.mean_vs_true_us[-1] < -1_000.0  # dragged virtual clock
        assert wmax(trace, 25, 30) < 15.0

    def test_churn_survived(self):
        spec = ScenarioSpec(n=40, seed=4, duration_s=260.0, churn="paper")
        result = run_sstsp_vectorized(spec)
        assert len(result.events) >= 2
        assert wmax(result.trace, 160.0, 200.0) < 15.0

    def test_deterministic(self):
        spec = ScenarioSpec(n=30, seed=9, duration_s=10.0)
        a = run_sstsp_vectorized(spec).trace.max_diff_us
        b = run_sstsp_vectorized(spec).trace.max_diff_us
        assert np.array_equal(a, b)


class TestLaneDivergenceBounds:
    """The lanes must agree on *who wins by how much*, the repro contract."""

    def test_protocol_ordering_preserved(self):
        spec = ScenarioSpec(n=40, seed=6, duration_s=30.0)
        tsf_vec = run_tsf_vectorized(spec).trace.steady_state_error_us()
        sstsp_vec = run_sstsp_vectorized(spec).trace.steady_state_error_us()
        tsf_oo = build_network("tsf", spec).run().trace.steady_state_error_us()
        sstsp_oo = build_network("sstsp", spec).run().trace.steady_state_error_us()
        assert sstsp_vec < tsf_vec / 3
        assert sstsp_oo < tsf_oo / 3


_LANES = {"tsf": run_tsf_vectorized, "sstsp": run_sstsp_vectorized}


class TestChurnPreset:
    """Both vector lanes take the churn preset from the spec the way
    ``build_network`` does: an unknown name is an error, and ``"paper"``
    draws the same schedule from the same ``churn`` stream."""

    @pytest.mark.parametrize("protocol", sorted(_LANES))
    def test_unknown_preset_rejected(self, protocol):
        with pytest.raises(ValueError, match="churn.*'papr'"):
            _LANES[protocol](ScenarioSpec(n=10, duration_s=1.0, churn="papr"))

    @pytest.mark.parametrize("protocol", sorted(_LANES))
    def test_paper_preset_matches_reference_lane(self, protocol):
        # 260 s: one group departure (200 s) and its return (250 s), no
        # reference departure yet (300 s), so the log is lane-independent.
        spec = ScenarioSpec(n=10, seed=5, duration_s=260.0, churn="paper")
        vec = _LANES[protocol](spec).events
        assert vec == build_network(protocol, spec).run().events
        assert vec == ["p2000: node 6 left", "p2500: node 6 returned"]


class TestLossModel:
    """The vector lanes flip per-receiver or per-transmission loss coins
    only; a Gilbert-Elliott spec must not run as per-receiver loss."""

    @pytest.mark.parametrize("protocol", sorted(_LANES))
    def test_gilbert_elliott_rejected(self, protocol):
        spec = ScenarioSpec(
            n=20,
            seed=3,
            duration_s=5.0,
            phy=PhyParams(loss_model="gilbert_elliott", packet_error_rate=1e-3),
        )
        with pytest.raises(ValueError, match="phy.loss_model.*lane='oo'"):
            _LANES[protocol](spec)
