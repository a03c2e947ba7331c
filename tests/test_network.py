"""Unit tests for nodes, churn schedules and the network runner."""

import numpy as np
import pytest

from repro.clocks.oscillator import HardwareClock
from repro.network.churn import REFERENCE_MARKER, ChurnEvent, ChurnSchedule
from repro.network.ibss import AttackerSpec, ScenarioSpec, build_network
from repro.network.node import Node
from repro.protocols.base import ClockKind, TxIntent
from repro.protocols.tsf import TsfConfig, TsfProtocol


class TestNode:
    def test_tsf_intent_inversion(self):
        node = Node(1, HardwareClock(rate=1.0001, initial_offset=25.0))
        node.protocol = TsfProtocol(1, node.timer, TsfConfig(), np.random.default_rng(0))
        node.timer.set_forward(1_000.0, true_time=500.0)
        intent = TxIntent(local_time=50_000.0, clock=ClockKind.TSF)
        t = node.scheduled_true_time(intent)
        assert node.timer.raw(t) == pytest.approx(50_000.0, abs=1e-6)

    def test_hardware_intent_inversion(self):
        node = Node(1, HardwareClock(rate=0.9999, initial_offset=-10.0))
        intent = TxIntent(local_time=77_777.0, clock=ClockKind.HARDWARE)
        t = node.scheduled_true_time(intent)
        assert node.hw.read(t) == pytest.approx(77_777.0, abs=1e-6)

    def test_adjusted_intent_inversion_fixed_point(self):
        from repro.core.backend import ModeledCryptoBackend
        from repro.core.config import SstspConfig
        from repro.core.sstsp import SstspProtocol
        from repro.crypto.mutesla import IntervalSchedule

        config = SstspConfig()
        backend = ModeledCryptoBackend(
            IntervalSchedule(0.0, config.beacon_period_us, 64)
        )
        backend.register_node(1)
        node = Node(1, HardwareClock(rate=1.00008, initial_offset=40.0))
        node.protocol = SstspProtocol(1, config, backend, np.random.default_rng(0))
        # give the adjusted clock a non-trivial segment
        node.protocol.clock.slew_to(0.0, 1.0004, at_local_time=1_000.0)
        intent = TxIntent(local_time=300_000.0, clock=ClockKind.ADJUSTED)
        t = node.scheduled_true_time(intent)
        assert node.protocol.synchronized_time(node.hw.read(t)) == pytest.approx(
            300_000.0, abs=1e-3
        )

    def test_duplicate_ids_rejected(self):
        from repro.network.runner import NetworkRunner
        from repro.phy.channel import BroadcastChannel
        from repro.phy.params import PhyParams

        nodes = [Node(1, HardwareClock()), Node(1, HardwareClock())]
        channel = BroadcastChannel(PhyParams(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            NetworkRunner(nodes, channel, 100_000.0, 1)


class TestChurnSchedule:
    def test_paper_default_shape(self, rng):
        schedule = ChurnSchedule.paper_default(
            node_ids=list(range(100)), total_periods=10_000, rng=rng
        )
        periods = schedule.periods()
        # group leaves at 200/400/600/800 s -> periods 2000/4000/6000/8000
        for expected in (2000, 4000, 6000, 8000):
            assert expected in periods
        # reference leaves at 300/500/800 s
        for expected in (3000, 5000, 8000):
            assert expected in periods
        # returns 50 s after each leave
        assert 2500 in periods and 3500 in periods

    def test_group_size_is_five_percent(self, rng):
        schedule = ChurnSchedule.paper_default(
            node_ids=list(range(100)), total_periods=3_000, rng=rng
        )
        leaves = [e for e in schedule.events_for(2000) if e.action == "leave"]
        assert len(leaves) == 1
        assert len(leaves[0].node_ids) == 5

    def test_short_horizon_has_no_events(self, rng):
        schedule = ChurnSchedule.paper_default(
            node_ids=list(range(10)), total_periods=100, rng=rng
        )
        assert len(schedule) == 0

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            ChurnEvent(1, "explode", (1,))

    def test_long_absence_never_double_books_a_station(self, rng):
        # away_s > leave_every_s: stations from group k are still away when
        # group k+1 is sampled and must not be drawn again (a second leave
        # would be a no-op and its paired return would fire while the first
        # absence is still active, silently shortening it).
        schedule = ChurnSchedule.paper_default(
            node_ids=list(range(40)),
            total_periods=20_000,
            rng=rng,
            leave_every_s=200.0,
            away_s=450.0,
        )
        away_until = {}
        for period in schedule.periods():
            for event in schedule.events_for(period):
                if event.action != "leave" or REFERENCE_MARKER in event.node_ids:
                    continue
                for node in event.node_ids:
                    assert away_until.get(node, 0) <= period, (
                        f"node {node} re-sampled at p{period} while away"
                    )
                    away_until[node] = period + 4500  # 450 s in periods

    def test_overlap_guard_preserves_rng_stream_when_disjoint(self):
        # With away_s < leave_every_s nobody is still away at the next
        # sampling, so the eligibility filter must not change the draws:
        # the schedule must match a plain unfiltered choice() sequence.
        node_ids = list(range(100))
        schedule = ChurnSchedule.paper_default(
            node_ids=node_ids,
            total_periods=10_000,
            rng=np.random.default_rng(7),
        )
        reference = np.random.default_rng(7)
        for k in (1, 2, 3, 4):
            period = k * 2000
            expected = tuple(
                int(i)
                for i in reference.choice(
                    np.asarray(node_ids), size=5, replace=False
                )
            )
            leaves = [
                e for e in schedule.events_for(period) if e.action == "leave"
            ]
            assert leaves and leaves[0].node_ids == expected


class TestRunner:
    def test_tsf_run_produces_full_trace(self):
        spec = ScenarioSpec(n=10, seed=1, duration_s=5.0)
        result = build_network("tsf", spec).run()
        assert len(result.trace) == spec.periods
        assert result.successful_beacons > 0
        assert result.trace.present_counts.max() == 10

    def test_sstsp_run_elects_single_reference(self):
        spec = ScenarioSpec(n=10, seed=1, duration_s=5.0)
        runner = build_network("sstsp", spec)
        result = runner.run()
        refs = [n for n in result.nodes if n.protocol.is_reference()]
        assert len(refs) == 1
        assert result.trace.reference_ids[-1] == refs[0].node_id

    def test_reference_marker_resolution(self):
        spec = ScenarioSpec(n=10, seed=2, duration_s=8.0)
        runner = build_network("sstsp", spec)
        runner.churn.add(ChurnEvent(30, "leave", (REFERENCE_MARKER,)))
        runner.churn.add(ChurnEvent(50, "return", (REFERENCE_MARKER,)))
        result = runner.run()
        assert any("left" in e for e in result.events)
        assert any("returned" in e for e in result.events)
        # a replacement reference exists at the end
        assert result.trace.reference_ids[-1] >= 0

    def test_leave_reduces_present_count(self):
        spec = ScenarioSpec(n=10, seed=3, duration_s=4.0)
        runner = build_network("sstsp", spec)
        runner.churn.add(ChurnEvent(10, "leave", (0, 1)))
        result = runner.run()
        assert result.trace.present_counts.min() == 8

    def test_reference_marker_with_no_reference_is_noop(self):
        spec = ScenarioSpec(n=5, seed=3, duration_s=1.0)
        runner = build_network("tsf", spec)  # TSF has no reference concept
        runner.churn.add(ChurnEvent(3, "leave", (REFERENCE_MARKER,)))
        result = runner.run()
        assert result.trace.present_counts.min() == 5

    def test_marker_leave_skips_attacker_held_reference(self):
        # When an attacker squats on the reference role, a marker leave
        # must not remove it (churn models legitimate stations only) and
        # must not enqueue a pairing for the later marker return.
        spec = ScenarioSpec(
            n=5, seed=3, duration_s=1.0,
            attacker=AttackerSpec(start_s=0.2, end_s=0.5),
        )
        runner = build_network("sstsp", spec)
        attacker = runner.nodes[-1]
        assert not attacker.include_in_metrics
        _crown(runner, attacker.node_id)
        assert runner.current_reference() == attacker.node_id
        for period, action in enumerate(("leave", "return", "leave", "return"), 1):
            runner.churn.add(ChurnEvent(period, action, (REFERENCE_MARKER,)))
        runner.apply_churn(1)
        assert attacker.present and runner.events == []
        # the unpaired marker return is likewise a no-op
        runner.apply_churn(2)
        assert runner.events == []
        _crown(runner, 2)
        runner.apply_churn(3)
        # the attacker was never enqueued: the next return pairs with 2
        runner.apply_churn(4)
        assert runner.events == ["p3: node 2 left", "p4: node 2 returned"]

    def test_marker_return_without_prior_leave_is_noop(self):
        spec = ScenarioSpec(n=5, seed=3, duration_s=1.0)
        runner = build_network("sstsp", spec)
        runner.churn.add(ChurnEvent(1, "leave", (1,)))
        runner.churn.add(ChurnEvent(2, "return", (REFERENCE_MARKER,)))
        runner.apply_churn(1)
        runner.apply_churn(2)
        assert not runner.node(1).present
        assert runner.events == ["p1: node 1 left"]

    def test_overlapping_marker_departures_pair_fifo(self):
        # Two reference departures before any return: the first return
        # must bring back the *first* departed reference, the second the
        # second (FIFO pairing keeps each station's absence contiguous).
        spec = ScenarioSpec(n=5, seed=3, duration_s=1.0)
        runner = build_network("sstsp", spec)
        runner.churn.add(ChurnEvent(1, "leave", (REFERENCE_MARKER,)))
        runner.churn.add(ChurnEvent(2, "leave", (REFERENCE_MARKER,)))
        runner.churn.add(
            ChurnEvent(3, "return", (REFERENCE_MARKER, REFERENCE_MARKER))
        )
        runner.churn.add(ChurnEvent(4, "return", (REFERENCE_MARKER,)))
        _crown(runner, 2)
        runner.apply_churn(1)
        _crown(runner, 4)
        runner.apply_churn(2)
        runner.apply_churn(3)
        runner.apply_churn(4)
        assert runner.events == [
            "p1: node 2 left",
            "p2: node 4 left",
            "p3: node 2 returned",
            "p3: node 4 returned",
        ]

    def test_deterministic_given_seed(self):
        spec = ScenarioSpec(n=8, seed=11, duration_s=3.0)
        a = build_network("sstsp", spec).run()
        b = build_network("sstsp", spec).run()
        assert np.array_equal(a.trace.max_diff_us, b.trace.max_diff_us)

    def test_different_seeds_differ(self):
        a = build_network("tsf", ScenarioSpec(n=8, seed=1, duration_s=3.0)).run()
        b = build_network("tsf", ScenarioSpec(n=8, seed=2, duration_s=3.0)).run()
        assert not np.array_equal(a.trace.max_diff_us, b.trace.max_diff_us)


class TestBuilders:
    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            build_network("ntp", ScenarioSpec(n=5, duration_s=1.0))

    def test_unknown_crypto_rejected(self):
        with pytest.raises(ValueError):
            build_network(
                "sstsp", ScenarioSpec(n=5, duration_s=1.0), crypto="quantum"
            )

    def test_attacker_adds_extra_node(self):
        spec = ScenarioSpec(
            n=5, duration_s=1.0, attacker=AttackerSpec(start_s=0.2, end_s=0.5)
        )
        runner = build_network("sstsp", spec)
        assert len(runner.nodes) == 6

    def test_runner_keeps_no_clock_matrix_by_default(self):
        runner = build_network("tsf", ScenarioSpec(n=5, duration_s=1.0))
        assert runner.recorder.keep_values is False

    def test_rentel_rejects_attacker(self, monkeypatch):
        from repro.network import ibss

        built = []
        monkeypatch.setattr(ibss, "Node", lambda *args: built.append(args))
        spec = ScenarioSpec(
            n=5, duration_s=1.0, attacker=AttackerSpec(start_s=0.2, end_s=0.5)
        )
        with pytest.raises(ValueError, match="controlled-clock"):
            build_network("rentel", spec)
        assert built == []  # rejected before any station is built

    def test_all_baseline_protocols_run(self):
        for name in ("tsf", "atsp", "tatsp", "satsf", "rentel"):
            spec = ScenarioSpec(n=6, seed=4, duration_s=2.0)
            result = build_network(name, spec).run()
            assert len(result.trace) == spec.periods

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(n=1)
        with pytest.raises(ValueError):
            ScenarioSpec(duration_s=0)


def _crown(runner, node_id):
    """Make ``node_id`` the only station in the SSTSP reference state."""
    from repro.core.sstsp import SstspState

    for node in runner.nodes:
        node.protocol.state = (
            SstspState.REFERENCE if node.node_id == node_id else SstspState.SYNCED
        )
