"""Tests for the fault-injection subsystem and the chaos soak harness."""

import numpy as np
import pytest

from repro.core.config import SstspConfig
from repro.experiments.chaos import (
    ChaosLimits,
    lemma2_loss_bound,
    outcome_fingerprint,
    run_chaos,
    run_plan,
)
from repro.experiments.chaos import PlanOutcome, _check_invariants
from repro.faults import FaultInjector, FaultPlan, FaultSpec, random_plan
from repro.multihop.runner import MultiHopRunner, MultiHopSpec
from repro.multihop.topology import Topology
from repro.clocks.oscillator import HardwareClock
from repro.network.churn import REFERENCE_MARKER, ChurnSchedule
from repro.network.ibss import ScenarioSpec, build_network
from repro.network.node import Node
from repro.phy.channel import BroadcastChannel
from repro.phy.params import PhyParams
from repro.protocols.tsf import TsfConfig, TsfProtocol
from repro.sim.units import S


def make_runner(n=8, seed=3, duration_s=10.0, plan=None, config=None):
    spec = ScenarioSpec(n=n, seed=seed, duration_s=duration_s)
    runner = build_network("sstsp", spec, sstsp_config=config)
    if plan is not None:
        runner.attach_injector(FaultInjector(plan))
    return runner


class TestFaultSpec:
    def test_node_kinds_require_node_id(self):
        for kind in ("freq_step", "clock_jump", "crash"):
            with pytest.raises(ValueError):
                FaultSpec(kind, 10)

    def test_channel_kinds_reject_node_id(self):
        with pytest.raises(ValueError):
            FaultSpec("jam", 10, 5, node_id=3)

    def test_windowed_kinds_need_duration(self):
        with pytest.raises(ValueError):
            FaultSpec("stall", 10, 0, node_id=1)
        with pytest.raises(ValueError):
            FaultSpec("partition", 10, 0, magnitude=0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor", 10, node_id=1)

    def test_magnitude_ranges(self):
        with pytest.raises(ValueError):
            FaultSpec("loss_burst", 10, 5, magnitude=1.5)
        with pytest.raises(ValueError):
            FaultSpec("partition", 10, 5, magnitude=1.0)
        with pytest.raises(ValueError):
            FaultSpec("clock_jump", 10, node_id=1, magnitude=float("nan"))

    def test_covers_and_end_period(self):
        spec = FaultSpec("stall", 10, 5, node_id=1)
        assert spec.end_period == 15
        assert spec.covers(10) and spec.covers(14)
        assert not spec.covers(9) and not spec.covers(15)
        instant = FaultSpec("clock_jump", 7, node_id=1, magnitude=10.0)
        assert instant.end_period == 7

    def test_dict_round_trip(self):
        spec = FaultSpec("crash", 20, 15, node_id=REFERENCE_MARKER)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlan:
    def test_faults_sorted_by_start(self):
        plan = FaultPlan(
            faults=(
                FaultSpec("jam", 30, 3),
                FaultSpec("crash", 10, 5, node_id=1),
            )
        )
        assert [f.start_period for f in plan] == [10, 30]

    def test_len_and_kinds(self):
        plan = FaultPlan(
            faults=(
                FaultSpec("crash", 10, 5, node_id=1),
                FaultSpec("jam", 30, 3),
            )
        )
        assert len(plan) == 2
        assert plan.kinds() == ["crash", "jam"]

    def test_last_affected_period(self):
        plan = FaultPlan(
            faults=(
                FaultSpec("crash", 10, 50, node_id=1),
                FaultSpec("jam", 30, 3),
            )
        )
        assert plan.last_affected_period() == 60
        assert FaultPlan().last_affected_period() == 0

    def test_dict_round_trip(self):
        plan = FaultPlan(
            faults=(
                FaultSpec("loss_burst", 12, 6, magnitude=0.5),
                FaultSpec("freq_step", 9, node_id=2, magnitude=-80.0),
            ),
            name="round-trip",
            seed=99,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan


class TestRandomPlan:
    def test_faults_respect_bounds(self):
        rng = np.random.default_rng(5)
        plan = random_plan(rng, periods=300, node_ids=list(range(10)),
                           first_period=40, last_period=200)
        assert len(plan) >= 1
        for fault in plan:
            assert fault.start_period >= 40
            assert fault.end_period <= 200

    def test_reference_crash_included(self):
        rng = np.random.default_rng(5)
        plan = random_plan(rng, periods=300, node_ids=[0, 1, 2])
        crashes = [
            f for f in plan
            if f.kind == "crash" and f.node_id == REFERENCE_MARKER
        ]
        assert len(crashes) >= 1

    def test_deterministic_given_rng(self):
        a = random_plan(np.random.default_rng(8), 300, list(range(6)))
        b = random_plan(np.random.default_rng(8), 300, list(range(6)))
        assert a == b

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            random_plan(np.random.default_rng(1), 300, [0, 1],
                        first_period=250, last_period=200)
        with pytest.raises(ValueError):
            random_plan(np.random.default_rng(1), 300, [])


class TestInjectorClockFaults:
    def test_freq_step_is_value_continuous(self):
        runner = make_runner(plan=FaultPlan())
        node = runner.nodes[0]
        bp = runner.beacon_period_us
        before = node.hw.read(5 * bp)
        old_rate = node.hw.rate
        runner.injector._step_rate(5, node, 150.0)
        assert node.hw.read(5 * bp) == pytest.approx(before, abs=1e-6)
        assert node.hw.rate == pytest.approx(old_rate * (1 + 150e-6))

    def test_freq_step_applied_during_run(self):
        plan = FaultPlan(
            faults=(FaultSpec("freq_step", 5, node_id=0, magnitude=100.0),)
        )
        runner = make_runner(duration_s=1.0, plan=plan)
        base_rate = runner.nodes[0].hw.rate
        runner.run()
        assert runner.nodes[0].hw.rate == pytest.approx(base_rate * (1 + 100e-6))

    def test_freq_ramp_accumulates_over_window(self):
        plan = FaultPlan(
            faults=(FaultSpec("freq_ramp", 3, 4, node_id=1, magnitude=200.0),)
        )
        runner = make_runner(duration_s=1.0, plan=plan)
        base_rate = runner.nodes[1].hw.rate
        runner.run()
        # four per-period increments of 50 ppm each
        expected = base_rate * (1 + 50e-6) ** 4
        assert runner.nodes[1].hw.rate == pytest.approx(expected, rel=1e-9)

    def test_clock_jump_shifts_hardware_time(self):
        plan = FaultPlan(
            faults=(FaultSpec("clock_jump", 4, node_id=2, magnitude=250.0),)
        )
        runner = make_runner(duration_s=1.0, plan=plan)
        node = runner.nodes[2]
        bp = runner.beacon_period_us
        before = node.hw.read(10 * bp)
        runner.run()
        assert node.hw.read(10 * bp) == pytest.approx(before + 250.0, abs=1e-6)


class TestInjectorNodeFaults:
    def test_crash_and_restart(self):
        plan = FaultPlan(
            faults=(FaultSpec("crash", 10, 20, node_id=3),)
        )
        runner = make_runner(duration_s=5.0, plan=plan)
        result = runner.run()
        # absent for exactly the crash window, present again afterwards
        assert result.trace.present_counts.min() == 7
        assert runner.nodes[3].present
        assert any("crash node 3" in line for line in runner.injector.log)
        assert any("restart node 3" in line for line in runner.injector.log)

    def test_crash_without_restart_is_permanent(self):
        plan = FaultPlan(faults=(FaultSpec("crash", 10, 0, node_id=3),))
        runner = make_runner(duration_s=3.0, plan=plan)
        runner.run()
        assert not runner.nodes[3].present

    def test_reference_crash_recorded(self):
        plan = FaultPlan(
            faults=(FaultSpec("crash", 30, 20, node_id=REFERENCE_MARKER),)
        )
        runner = make_runner(duration_s=8.0, plan=plan)
        result = runner.run()
        assert len(runner.injector.reference_crashes) == 1
        period, crashed = runner.injector.reference_crashes[0]
        assert period == 30
        # a (possibly different) reference exists again at the end
        assert result.trace.reference_ids[-1] >= 0

    def test_reference_marker_with_no_reference_skips(self):
        plan = FaultPlan(
            faults=(FaultSpec("crash", 1, 5, node_id=REFERENCE_MARKER),)
        )
        runner = make_runner(duration_s=1.0, plan=plan)
        runner.run()
        assert runner.injector.reference_crashes == []
        assert any("skipped" in line for line in runner.injector.log)

    def test_stall_keeps_node_present_but_frozen(self):
        plan = FaultPlan(faults=(FaultSpec("stall", 10, 8, node_id=4),))
        runner = make_runner(duration_s=3.0, plan=plan)
        result = runner.run()
        assert result.trace.present_counts.min() == 8  # never absent
        assert runner.injector.stalled_ids(10) == frozenset({4})
        assert runner.injector.stalled_ids(17) == frozenset({4})
        assert runner.injector.stalled_ids(18) == frozenset()


class TestInjectorChannelFaults:
    def test_jam_window_installed_and_drops_frames(self):
        plan = FaultPlan(faults=(FaultSpec("jam", 5, 4),))
        runner = make_runner(duration_s=2.0, plan=plan)
        runner.run()
        bp = runner.beacon_period_us
        assert runner.channel.is_jammed(6 * bp)
        assert not runner.channel.is_jammed(9.5 * bp)
        assert runner.channel.stats.jammed_drops > 0

    def test_loss_burst_blocks_and_clears(self):
        plan = FaultPlan(faults=(FaultSpec("loss_burst", 5, 6, magnitude=1.0),))
        runner = make_runner(duration_s=2.0, plan=plan)
        runner.run()
        assert runner.channel.stats.per_drops > 0
        assert any("loss_burst cleared" in line for line in runner.injector.log)
        # override removed: a fresh broadcast at per=0 base rate delivers
        runner.channel.phy = runner.channel.phy.__class__(packet_error_rate=0.0)
        assert runner.channel.broadcast(0, [1, 2], 1e9, 10) == [1, 2]

    def test_partition_groups_and_heal(self):
        plan = FaultPlan(faults=(FaultSpec("partition", 6, 5, magnitude=0.5),))
        runner = make_runner(n=8, duration_s=0.1, plan=plan)
        injector = runner.injector
        injector.on_period_start(6)
        groups = injector.partition_groups(6)
        assert groups is not None
        sizes = [list(groups.values()).count(g) for g in (0, 1)]
        assert sorted(sizes) == [4, 4]
        assert injector.partition_groups(10) is not None
        assert injector.partition_groups(11) is None

    def test_partition_heals_during_run(self):
        plan = FaultPlan(faults=(FaultSpec("partition", 6, 5, magnitude=0.4),))
        runner = make_runner(duration_s=3.0, plan=plan)
        result = runner.run()
        assert any("partition healed" in line for line in runner.injector.log)
        # one network again at the end: exactly one reference
        refs = [n for n in result.nodes if n.protocol.is_reference()]
        assert len(refs) == 1

    def test_unbound_injector_raises(self):
        injector = FaultInjector(FaultPlan())
        with pytest.raises(RuntimeError):
            injector.on_period_start(1)


class _SurfaceOnlyLane:
    """A lane with the public surface and nothing else: no runner, no
    private attributes for the injector to reach into."""

    def __init__(self, n: int = 4) -> None:
        rng = np.random.default_rng(0)
        self.nodes = []
        for i in range(n):
            node = Node(i, HardwareClock(rate=1.0, initial_offset=0.0))
            node.protocol = TsfProtocol(i, node.timer, TsfConfig(), rng)
            self.nodes.append(node)
        self.channel = BroadcastChannel(PhyParams(packet_error_rate=0.0), rng)
        self.beacon_period_us = 0.1 * S
        self.periods = 12
        self.churn = ChurnSchedule()
        self.events = []
        self.injector = None
        self.reference = 0

    def node(self, node_id):
        return next((n for n in self.nodes if n.node_id == node_id), None)

    def attach_injector(self, injector):
        injector.bind(self)
        self.injector = injector

    def current_reference(self):
        return self.reference if self.node(self.reference).present else -1


class TestInjectorLaneSurface:
    def test_every_fault_kind_against_the_bare_surface(self):
        plan = FaultPlan(
            faults=(
                FaultSpec("crash", 2, 3, node_id=REFERENCE_MARKER),
                FaultSpec("stall", 3, 2, node_id=1),
                FaultSpec("jam", 4, 2),
                FaultSpec("loss_burst", 6, 2, magnitude=1.0),
                FaultSpec("partition", 8, 2, magnitude=0.5),
            )
        )
        lane = _SurfaceOnlyLane()
        lane.attach_injector(FaultInjector(plan))
        injector = lane.injector
        bp = lane.beacon_period_us
        stalled, split, present0, burst_delivered = {}, {}, {}, {}
        for period in range(1, lane.periods + 1):
            injector.on_period_start(period)
            stalled[period] = injector.stalled_ids(period)
            split[period] = injector.partition_groups(period)
            present0[period] = lane.node(0).present
            burst_delivered[period] = lane.channel.broadcast(
                2, [3], (period + 0.5) * bp, 10
            )
            injector.on_period_end(period)
        # crash of the reference at p2, restart at p5
        assert injector.reference_crashes == [(2, 0)]
        assert [present0[p] for p in range(1, 7)] == [
            True, False, False, False, True, True
        ]
        assert stalled[3] == stalled[4] == frozenset({1})
        assert stalled[5] == frozenset()
        assert lane.channel.is_jammed(4.5 * bp) and lane.channel.is_jammed(5.5 * bp)
        assert not lane.channel.is_jammed(6.5 * bp)
        # loss burst at p6-p7 drops everything; cleared at the end of p7
        assert burst_delivered[6] == burst_delivered[7] == []
        assert burst_delivered[8] == [3]
        assert sorted(split[8].values()) == [0, 0, 1, 1]
        assert split[9] is not None and split[10] is None
        # every applied fault is noted onto the lane's event log
        assert lane.events == injector.log
        assert any("restart node 0" in line for line in lane.events)
        assert any("loss_burst cleared" in line for line in lane.events)
        assert any("partition healed" in line for line in lane.events)

    def test_injector_source_uses_no_private_lane_attributes(self):
        import inspect

        import repro.faults.injector as module

        source = inspect.getsource(module)
        assert "_runner._" not in source
        assert "_lane._" not in source


class TestChaosHarness:
    def test_limits_validation(self):
        with pytest.raises(ValueError):
            ChaosLimits(eval_periods=200, tail_periods=100)
        with pytest.raises(ValueError):
            ChaosLimits(converged_bound_us=500.0, tail_bound_us=100.0)

    def test_lemma2_loss_bound_value(self):
        # 2 * 100 ppm * (4 + 2) * 0.1 s = 120 us
        assert lemma2_loss_bound() == pytest.approx(120.0)

    def test_chaos_soak_reelects_after_reference_crash(self):
        # Regression: every injected reference crash is followed by a
        # re-election within the bounded period count, across >= 5
        # randomized plans, and every other invariant holds too.
        limits = ChaosLimits()
        outcomes = run_chaos(5, seed=3, limits=limits)
        assert len(outcomes) == 5
        assert all(o.ok for o in outcomes), [o.failures for o in outcomes]
        total_crashes = sum(o.reference_crashes for o in outcomes)
        assert total_crashes >= 5
        for o in outcomes:
            assert len(o.reelect_delays) == o.reference_crashes
            assert all(1 <= d <= limits.reelect_within for d in o.reelect_delays)

    def test_chaos_is_deterministic(self):
        a = outcome_fingerprint(run_plan(1, 11))
        b = outcome_fingerprint(run_plan(1, 11))
        assert a == b

    def test_different_seeds_differ(self):
        a = outcome_fingerprint(run_plan(0, 11))
        b = outcome_fingerprint(run_plan(0, 12))
        assert a["plan"] != b["plan"] or a["tail_max_us"] != b["tail_max_us"]

    def test_hardened_config_profile(self):
        cfg = SstspConfig.hardened()
        assert cfg.recovery_rejection_threshold is not None
        assert cfg.coarse_silence_watchdog_periods is not None
        assert cfg.free_run_clamp_after is not None
        assert cfg.coarse_min_survivors >= 2
        assert cfg.election_backoff_cap > 1
        assert SstspConfig.hardened(election_backoff_cap=2).election_backoff_cap == 2


def make_multihop_runner(topology, duration_s, plan=None, seed=3, **overrides):
    spec = MultiHopSpec(
        topology=topology, seed=seed, duration_s=duration_s, **overrides
    )
    runner = MultiHopRunner(spec)
    if plan is not None:
        runner.attach_injector(FaultInjector(plan))
    return runner


class TestMultiHopFaults:
    """The injector drives the multi-hop lane through the same period
    hooks as the single-hop runner — no separate code path."""

    def test_relay_crash_and_restart_on_chain(self):
        # Crash a mid-chain relay for fewer periods than the downstream
        # resync threshold: its subtree free-runs, then rejoins cleanly.
        plan = FaultPlan(faults=(FaultSpec("crash", 20, 8, node_id=2),))
        runner = make_multihop_runner(Topology.chain(6), 15.0, plan)
        result = runner.run()
        log = runner.injector.log
        assert any("crash node 2" in line for line in log)
        assert any("restart node 2" in line for line in log)
        assert runner.nodes[2].present
        pc = result.trace.present_counts
        # absent (and only it) for exactly the crash window...
        assert list(pc[19:27]) == [5] * 8
        # ...and the whole chain synchronized again well before the end
        assert pc[-40:].min() == 6
        assert all(n.protocol.is_synchronized() for n in runner.nodes)
        assert result.trace.max_diff_us[-40:].max() < 100.0

    def test_jam_window_respects_lemma2_loss_bound(self):
        # A global jam blacks out `lost` consecutive beacon periods; every
        # station free-runs, so the spread may open — but no further than
        # Lemma 2's loss-aware bound — and must collapse again afterwards.
        lost = 5
        plan = FaultPlan(faults=(FaultSpec("jam", 60, lost),))
        runner = make_multihop_runner(Topology.chain(4), 12.0, plan)
        result = runner.run()
        assert runner.channel.stats.jammed_drops > 0
        bp = runner.spec.beacon_period_us
        bound = lemma2_loss_bound(runner.spec.drift_ppm, bp, lost)
        md = result.trace.max_diff_us
        # spread across the jam window and its recovery obeys the bound
        assert md[59:70].max() < bound
        # and the network re-converges to its pre-jam error level
        assert md[-30:].max() < 2.0 * md[40:59].max()

    def test_scoped_jam_hits_only_target_neighborhood(self):
        # A receiver-scoped jam (one neighbourhood of the chain) is not a
        # global outage: untouched stations never miss a beat, jammed ones
        # drop frames but stay inside the resync window and recover.
        spec = MultiHopSpec(topology=Topology.chain(6), seed=3, duration_s=10.0)
        runner = MultiHopRunner(spec)
        bp = spec.beacon_period_us
        runner.channel.add_jam_window(
            40 * bp, 46 * bp, receivers=frozenset({4, 5})
        )
        result = runner.run()
        assert not runner.channel.is_jammed(42 * bp)  # not global
        assert runner.channel.stats.jammed_drops > 0
        # nobody fell out of sync: the outage stayed under the resync
        # threshold, so present+synced count never dips mid-run
        assert result.trace.present_counts[30:60].min() == 6
        assert all(n.protocol.is_synchronized() for n in runner.nodes)

    def test_chaos_invariants_evaluate_on_multihop(self):
        # The chaos harness's invariant checker runs against a multi-hop
        # runner unchanged: reference-crash bookkeeping, re-election
        # delay, trace monotonicity and per-node clock audits all resolve
        # through the shared kernel surface.
        plan = FaultPlan(
            faults=(FaultSpec("crash", 30, 0, node_id=REFERENCE_MARKER),)
        )
        runner = make_multihop_runner(Topology.chain(5), 15.0, plan)
        result = runner.run()
        outcome = PlanOutcome(index=0, scenario_seed=3, plan=plan)
        limits = ChaosLimits()
        _check_invariants(outcome, runner, result.trace, limits)
        assert outcome.ok, outcome.failures
        assert outcome.reference_crashes == 1
        assert outcome.reelect_delays == (1,)
        assert runner.root != 0 and runner.root >= 0
        assert result.root_changes == 1
