"""Unit tests for beacon frames, units, and the fastlane plumbing."""

import numpy as np
import pytest

from repro.fastlane.common import VectorLane, resolve_window
from repro.mac.beacon import BeaconFrame, SecureBeaconFrame
from repro.network.ibss import AttackerSpec, ScenarioSpec
from repro.sim.units import MS, S, US, s_to_us, us_to_s


class TestUnits:
    def test_constants(self):
        assert US == 1.0
        assert MS == 1_000.0
        assert S == 1_000_000.0

    def test_conversions_roundtrip(self):
        assert us_to_s(s_to_us(12.5)) == 12.5
        assert s_to_us(0.1) == 100_000.0


class TestBeaconFrames:
    def test_tsf_beacon_defaults(self):
        frame = BeaconFrame(sender=3, timestamp_us=123.0)
        assert frame.size_bytes == 56
        assert b"B|3|" in frame.payload_for_mac()

    def test_secure_beacon_wraps_inner(self):
        frame = SecureBeaconFrame(
            sender=3, timestamp_us=123.0, interval=7,
            mac_tag=b"t" * 16, disclosed_key=b"k" * 16,
        )
        assert frame.size_bytes == 92
        inner = frame.inner()
        assert inner.sender == 3 and inner.timestamp_us == 123.0
        assert frame.payload_for_mac().endswith(b"|7")

    def test_payload_binds_timestamp(self):
        a = SecureBeaconFrame(1, 100.0, 2, b"t" * 16, b"k" * 16)
        b = SecureBeaconFrame(1, 100.5, 2, b"t" * 16, b"k" * 16)
        assert a.payload_for_mac() != b.payload_for_mac()

    def test_frames_are_immutable(self):
        frame = BeaconFrame(sender=1, timestamp_us=1.0)
        with pytest.raises(AttributeError):
            frame.timestamp_us = 2.0


class TestVectorLane:
    def test_shapes(self):
        spec = ScenarioSpec(n=10, seed=1, duration_s=1.0)
        lane = VectorLane(spec, keep_values=False)
        assert lane.n == 10
        assert lane.present.all()
        assert lane.attacker is None and lane.window is None
        assert lane.metric_mask.all()

    def test_attacker_slot(self):
        spec = ScenarioSpec(
            n=10, seed=1, duration_s=1.0, attacker=AttackerSpec(0.2, 0.5)
        )
        lane = VectorLane(spec, keep_values=False)
        assert lane.n == 11
        assert lane.attacker == 10
        assert lane.window == spec.attack_window()
        assert not lane.metric_mask[10] and lane.metric_mask[:10].all()

    def test_hw_at_matches_linear_model(self):
        spec = ScenarioSpec(n=5, seed=1, duration_s=1.0)
        lane = VectorLane(spec, keep_values=False)
        t = 123_456.0
        expected = lane.clocks.rates * t + lane.clocks.offsets
        assert np.allclose(lane.hw_at(t), expected)

    def test_reproducible(self):
        spec = ScenarioSpec(n=5, seed=9, duration_s=1.0)
        a = VectorLane(spec, keep_values=False)
        b = VectorLane(spec, keep_values=False)
        assert np.array_equal(a.clocks.rates, b.clocks.rates)


class TestResolveWindow:
    def test_single_candidate(self):
        winner, start, collisions = resolve_window(
            np.array([4]), np.array([100.0]), 63.0, 9.0
        )
        assert winner == 4 and start == 100.0 and collisions == 0

    def test_empty(self):
        winner, start, collisions = resolve_window(
            np.array([], dtype=int), np.array([]), 63.0, 9.0
        )
        assert winner is None and start is None

    def test_collision_counted(self):
        winner, _, collisions = resolve_window(
            np.array([1, 2]), np.array([0.0, 4.0]), 63.0, 9.0
        )
        assert winner is None and collisions == 1

    def test_deferred_start_reported(self):
        # 1 and 2 collide; 3 deferred to the busy end wins there
        winner, start, _ = resolve_window(
            np.array([1, 2, 3]), np.array([0.0, 4.0, 20.0]), 63.0, 9.0
        )
        assert winner == 3
        assert start == pytest.approx(63.0)
