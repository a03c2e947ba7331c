"""The multi-hop protocol interface: registry, spec resolution, and the
per-protocol behavioural invariants of the shootout competitors."""

import statistics

import numpy as np
import pytest

from repro.analysis.metrics import audit_no_leaps
from repro.clocks.oscillator import HardwareClock
from repro.core.config import REFERENCE_PACE_CLAMP
from repro.multihop import MultiHopRunner, MultiHopSpec, Topology
from repro.multihop.runner import run_multihop
from repro.obs.profile import profile_spans
from repro.phy.params import (
    BEACONLESS_BEACON_AIRTIME_SLOTS,
    BEACONLESS_BEACON_BYTES,
    COOP_BEACON_AIRTIME_SLOTS,
    SSTSP_BEACON_AIRTIME_SLOTS,
    SSTSP_BEACON_BYTES,
)
from repro.protocols.multihop_base import (
    MULTIHOP_PROTOCOLS,
    available_multihop_protocols,
    resolve_multihop_protocol,
)
from repro.protocols.multihop_table import RelayTable


class TestRegistry:
    def test_registered_names(self):
        assert available_multihop_protocols() == ("sstsp", "beaconless", "coop")

    def test_resolve_returns_protocol_subclasses(self):
        # a registered protocol is one class: its relay table
        for name in available_multihop_protocols():
            cls = resolve_multihop_protocol(name)
            assert issubclass(cls, RelayTable)
            assert "receive" in vars(cls)
            assert cls.protocol_name == name

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="sstsp"):
            resolve_multihop_protocol("ntp")

    def test_frame_economics_are_per_protocol(self):
        sizes = {
            resolve_multihop_protocol(name).beacon_bytes
            for name in MULTIHOP_PROTOCOLS
        }
        assert len(sizes) == len(MULTIHOP_PROTOCOLS)  # all distinct
        assert resolve_multihop_protocol("sstsp").beacon_bytes == SSTSP_BEACON_BYTES
        assert (
            resolve_multihop_protocol("beaconless").beacon_bytes
            == BEACONLESS_BEACON_BYTES
        )

    def test_every_class_defines_its_own_batched_estimator(self):
        # each registered protocol is one class, its relay table, which
        # keeps its estimator once: the batched receive
        for name in available_multihop_protocols():
            cls = resolve_multihop_protocol(name)
            assert issubclass(cls, RelayTable)
            assert "receive" in vars(cls)

    @pytest.mark.parametrize("protocol", available_multihop_protocols())
    def test_receive_phase_opens_the_mh_receive_span(self, protocol):
        # the protocols.mh_receive layer of the span profile times the
        # batched estimators
        with profile_spans() as profiler:
            run_multihop(
                MultiHopSpec(
                    topology=Topology.chain(4), duration_s=1.0, protocol=protocol
                )
            )
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node["children"]:
                walk(child)

        for root in profiler.span_tree():
            walk(root)
        assert {"protocols.mh_receive", "clocks.chain"} <= names


class TestSpecResolution:
    def test_airtime_defaults_to_protocol_declaration(self):
        chain = Topology.chain(4)
        assert (
            MultiHopSpec(topology=chain).airtime_slots
            == SSTSP_BEACON_AIRTIME_SLOTS
        )
        assert (
            MultiHopSpec(topology=chain, protocol="beaconless").airtime_slots
            == BEACONLESS_BEACON_AIRTIME_SLOTS
        )
        assert (
            MultiHopSpec(topology=chain, protocol="coop").airtime_slots
            == COOP_BEACON_AIRTIME_SLOTS
        )

    def test_explicit_airtime_override_wins(self):
        spec = MultiHopSpec(
            topology=Topology.chain(4), protocol="beaconless",
            beacon_airtime_slots=5,
        )
        assert spec.airtime_slots == 5

    def test_unknown_protocol_rejected_at_spec_construction(self):
        with pytest.raises(ValueError, match="ntp"):
            MultiHopSpec(topology=Topology.chain(4), protocol="ntp")

    def test_only_sstsp_declares_a_degenerate_lane(self):
        assert (
            resolve_multihop_protocol("sstsp").degenerate_runner(
                MultiHopSpec(topology=Topology.full_mesh(4))
            )
            is not None
        )
        for name in ("beaconless", "coop"):
            spec = MultiHopSpec(topology=Topology.full_mesh(4), protocol=name)
            assert resolve_multihop_protocol(name).degenerate_runner(spec) is None


def _run(protocol, topology, seed=3, duration_s=15.0, **kw):
    spec = MultiHopSpec(
        topology=topology, seed=seed, duration_s=duration_s,
        protocol=protocol, **kw,
    )
    return spec, run_multihop(spec)


class TestCompetitorConvergence:
    def test_beaconless_chain_converges_all_hops(self):
        spec, result = _run("beaconless", Topology.chain(6))
        assert set(result.hop_of) == set(range(6))
        assert result.trace.steady_state_error_us() < 25.0
        # regression windows keep deep hops tight too
        assert max(result.per_hop_error_us.values()) < 25.0

    @pytest.mark.parametrize("p, bound_us", [(0.5, 500.0), (0.75, 15.0)])
    def test_beaconless_slew_horizon_follows_thinning(self, p, bound_us):
        """Thinned relays update about ``_DUTY_CYCLE / p`` periods apart,
        and the slew spans that gap; a fixed two-period horizon overshoots
        (median 1695 us at p = 0.5)."""
        errors = [
            _run(
                "beaconless", Topology.chain(8), seed=seed, duration_s=20.0,
                relay_probability=p,
            )[1].trace.steady_state_error_us()
            for seed in range(1, 7)
        ]
        assert statistics.median(errors) < bound_us

    def test_beaconless_duty_cycle_halves_traffic(self):
        _, sparse = _run("beaconless", Topology.chain(6))
        _, dense = _run("sstsp", Topology.chain(6))
        assert sparse.beacons_sent < dense.beacons_sent
        # ... and the smaller unauthenticated frame compounds the saving
        assert (
            sparse.beacons_sent * BEACONLESS_BEACON_BYTES
            < dense.beacons_sent * SSTSP_BEACON_BYTES
        )

    def test_coop_grid_converges_all_nodes(self):
        spec, result = _run("coop", Topology.grid(3, 3))
        assert set(result.hop_of) == set(range(9))
        assert result.trace.steady_state_error_us() < 25.0

    def test_coop_relays_every_period(self):
        _, coop = _run("coop", Topology.grid(3, 3))
        _, sstsp = _run("sstsp", Topology.grid(3, 3))
        assert coop.beacons_sent > sstsp.beacons_sent

    def test_beaconless_full_mesh_runs_spatially(self):
        # no degenerate lane: the complete graph still runs on the
        # spatial harness and synchronizes everyone at hop 1
        spec, result = _run("beaconless", Topology.full_mesh(5), duration_s=8.0)
        assert set(result.hop_of) == set(range(5))
        assert result.max_hop() == 1


class TestMonotonicityProperty:
    @pytest.mark.parametrize("protocol", available_multihop_protocols())
    def test_synchronized_time_never_leaps(self, protocol):
        """Any registered protocol must express corrections through the
        clock chain: adjusted time stays continuous and non-decreasing
        (the paper's no-leap guarantee, audited per node)."""
        spec = MultiHopSpec(
            topology=Topology.chain(5), seed=2, duration_s=8.0,
            protocol=protocol,
        )
        runner = MultiHopRunner(spec)
        runner.run()
        for state in runner.nodes:
            assert audit_no_leaps(state.clock, 0.0, spec.duration_s * 1e6)

    @pytest.mark.parametrize("protocol", available_multihop_protocols())
    def test_deterministic(self, protocol):
        spec = MultiHopSpec(
            topology=Topology.grid(2, 3), seed=4, duration_s=6.0,
            protocol=protocol,
        )
        a = run_multihop(spec)
        b = run_multihop(spec)
        assert a.beacons_sent == b.beacons_sent
        assert a.hop_of == b.hop_of
        assert list(a.trace.max_diff_us) == list(b.trace.max_diff_us)


class TestRelaySkeleton:
    @pytest.mark.parametrize("protocol", available_multihop_protocols())
    def test_relay_probability_thins_every_protocol(self, protocol):
        _, full = _run(protocol, Topology.chain(8), duration_s=10.0)
        _, thinned = _run(
            protocol, Topology.chain(8), duration_s=10.0, relay_probability=0.5
        )
        assert thinned.beacons_sent < full.beacons_sent


def _table(hops, upstreams=None):
    """A base relay table over ideal oscillators, one per entry of
    ``hops``, with the given hops and upstreams (-1 for none)."""
    n = len(hops)
    spec = MultiHopSpec(topology=Topology.chain(n))
    table = RelayTable(spec, [HardwareClock() for _ in range(n)])
    table.hop[:] = hops
    if upstreams is not None:
        table.upstream[:] = upstreams
    return table


def _set_slope(table, node, k, hw):
    """Re-slope ``node``'s clock to ``k`` continuously at ``hw``."""
    ids = np.array([node])
    current = table.seg_k[node] * hw + table.seg_b[node]
    assert table.adjust(ids, np.array([k]), np.array([current - k * hw]), np.array([hw]))[0]


class TestElectRoot:
    PERIOD = 40

    def test_lowest_qualifying_id_wins_and_becomes_root(self):
        # 0 is at hop 2, 1 accepted a beacon, 2 is inactive: 3 wins over 4
        table = _table(hops=[2, 1, 1, 1, 1, -1], upstreams=[1, 5, 5, 5, 5, -1])
        accepted = np.array([False, True, False, False, False, False])
        active = np.array([True, True, False, True, True, True])
        assert table.elect_root(self.PERIOD, accepted, active) == 3
        assert table.hop.tolist() == [2, 1, 1, 0, 1, -1]
        assert table.upstream.tolist() == [1, 5, 5, -1, 5, -1]

    def test_no_volunteer_returns_minus_one_and_changes_nothing(self):
        table = _table(hops=[2, 1, 1, -1, 3, 1], upstreams=[1, 0, 0, -1, 2, 0])
        _set_slope(table, 1, 1.002, 1000.0)
        accepted = np.array([False, True, False, False, False, False])
        active = np.array([True, True, False, True, True, False])
        before = [
            array.copy()
            for array in (table.hop, table.upstream, table.seg_start, table.seg_k, table.seg_b)
        ]
        segments = [len(table.clock_of(i).segments) for i in range(table.n)]
        assert table.elect_root(self.PERIOD, accepted, active) == -1
        after = (table.hop, table.upstream, table.seg_start, table.seg_k, table.seg_b)
        for old, new in zip(before, after):
            assert np.array_equal(old, new)
        assert [len(table.clock_of(i).segments) for i in range(table.n)] == segments

    @pytest.mark.parametrize(
        "slope, clamped",
        [(1.002, 1.0 + REFERENCE_PACE_CLAMP), (0.997, 1.0 - REFERENCE_PACE_CLAMP)],
    )
    def test_out_of_band_slope_is_clamped_continuously(self, slope, clamped):
        table = _table(hops=[0, 1, 2, 2, 2, 2])
        _set_slope(table, 1, slope, 1000.0)
        none = np.zeros(table.n, dtype=bool)
        assert table.elect_root(self.PERIOD, none, ~none) == 1
        bp = table.spec.beacon_period_us
        hw_now = table.hws[1].read((self.PERIOD + 1) * bp)
        assert table.seg_k[1] == clamped
        assert table.seg_start[1] == hw_now
        clock = table.clock_of(1)
        assert len(clock.segments) == 3  # fresh, the slew, the clamp
        assert audit_no_leaps(clock, 0.0, (self.PERIOD + 10) * bp)

    def test_in_band_slope_installs_no_segment(self):
        table = _table(hops=[0, 1, 2, 2, 2, 2])
        _set_slope(table, 1, 1.0 + REFERENCE_PACE_CLAMP / 2, 1000.0)
        k, b = table.seg_k[1], table.seg_b[1]
        none = np.zeros(table.n, dtype=bool)
        assert table.elect_root(self.PERIOD, none, ~none) == 1
        assert (table.seg_k[1], table.seg_b[1]) == (k, b)
        assert table.seg_start[1] == 1000.0
        assert len(table.clock_of(1).segments) == 2
