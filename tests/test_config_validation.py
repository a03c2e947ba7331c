"""Exhaustive validation tests on every public config dataclass."""

import numpy as np
import pytest

from repro.clocks.oscillator import HardwareClock
from repro.core.config import SstspConfig
from repro.network.ibss import AttackerSpec, ScenarioSpec
from repro.network.lane import Lane
from repro.network.node import Node
from repro.network.runner import NetworkRunner
from repro.phy.channel import BroadcastChannel
from repro.phy.params import PhyParams


class TestSstspConfig:
    def test_defaults_paper_values(self):
        config = SstspConfig()
        assert config.beacon_period_us == 100_000.0
        assert config.w == 30
        assert config.l == 1
        assert config.m == 2
        assert config.optimal_m == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beacon_period_us": 0},
            {"w": -1},
            {"slot_time_us": 0},
            {"l": 0},
            {"m": 0},
            {"guard_fine_us": 0},
            {"guard_coarse_us": 0},
            {"guard_fine_us": 5_000.0},  # looser than coarse: inverted
            {"coarse_min_samples": 0},
            {"k_clamp": 0.0},
            {"k_clamp": 1.5},
            {"recovery_rejection_threshold": 0},
            {"reference_pace_clamp": 0.0},
            {"reference_pace_clamp": 0.5},  # above k_clamp
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SstspConfig(**kwargs)

    def test_recovery_threshold_none_allowed(self):
        assert SstspConfig(recovery_rejection_threshold=None).recovery_rejection_threshold is None
        assert SstspConfig(recovery_rejection_threshold=5).recovery_rejection_threshold == 5

    def test_frozen(self):
        config = SstspConfig()
        with pytest.raises(AttributeError):
            config.m = 3


class TestPhyParams:
    def test_loss_model_validated(self):
        PhyParams(loss_model="per_receiver")
        PhyParams(loss_model="per_transmission")
        with pytest.raises(ValueError):
            PhyParams(loss_model="quantum")

    def test_timestamp_jitter_nonnegative(self):
        with pytest.raises(ValueError):
            PhyParams(timestamp_jitter_us=-1.0)


class TestScenarioSpec:
    def test_periods_property(self):
        assert ScenarioSpec(n=5, duration_s=2.5).periods == 25

    def test_attacker_spec_defaults(self):
        spec = AttackerSpec()
        assert spec.start_s == 400.0 and spec.end_s == 600.0
        assert spec.lead_slots == 5.0
        assert spec.error_offset_us == 50_000.0
        assert spec.shave_per_period_us == 40.0

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"n": 1}, "n must be >= 2 (a network needs two stations), got 1"),
            ({"duration_s": 0.0}, "duration_s must be > 0, got 0.0"),
            ({"duration_s": -2.5}, "duration_s must be > 0, got -2.5"),
            ({"churn": "papr"}, "churn must be None or 'paper', got 'papr'"),
            ({"beacon_period_us": 0.0}, "beacon_period_us must be > 0, got 0.0"),
            ({"beacon_period_us": -1e5}, "beacon_period_us must be > 0, got -100000.0"),
            (
                {"beacon_period_us": 1e9},
                "duration_s must cover at least one beacon period, got 100.0 s "
                "(0 periods of 1000000000.0 us)",
            ),
        ],
    )
    def test_invalid_field_named_with_value(self, kwargs, named):
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec(**kwargs)
        assert str(excinfo.value) == named

    def test_churn_preset_validated_at_build(self):
        from repro.network.ibss import build_network

        with pytest.raises(ValueError):
            build_network(
                "tsf", ScenarioSpec(n=5, duration_s=1.0, churn="weird")
            )


class TestLaneRunShape:
    """A lane built directly (not from a validated spec) still rejects a
    bad run shape, on every OO lane class."""

    @pytest.mark.parametrize("lane_cls", [Lane, NetworkRunner], ids=["lane", "singlehop"])
    @pytest.mark.parametrize(
        "shape, named",
        [
            ((0.0, 10), "beacon_period_us must be > 0, got 0.0"),
            ((100_000.0, 0), "periods must be >= 1, got 0"),
        ],
        ids=["beacon_period", "periods"],
    )
    def test_invalid_rejected(self, lane_cls, shape, named):
        nodes = [Node(i, HardwareClock()) for i in range(2)]
        channel = BroadcastChannel(PhyParams(), np.random.default_rng(0))
        with pytest.raises(ValueError) as excinfo:
            lane_cls(nodes, channel, *shape)
        assert str(excinfo.value) == named
