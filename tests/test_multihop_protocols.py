"""The multi-hop protocol interface: registry, spec resolution, and the
per-protocol behavioural invariants of the shootout competitors."""

import statistics

import pytest

from repro.analysis.metrics import audit_no_leaps
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
from repro.protocols import multihop_base
from repro.protocols.multihop_base import (
    MULTIHOP_PROTOCOLS,
    MultiHopProtocol,
    available_multihop_protocols,
    resolve_multihop_protocol,
)


class TestRegistry:
    def test_registered_names(self):
        assert available_multihop_protocols() == ("sstsp", "beaconless", "coop")

    def test_resolve_returns_protocol_subclasses(self):
        for name in available_multihop_protocols():
            cls = resolve_multihop_protocol(name)
            assert issubclass(cls, MultiHopProtocol)
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
        # each registered protocol keeps its estimator once: batched on
        # its own table, with no per-station copy
        for name in available_multihop_protocols():
            cls = resolve_multihop_protocol(name)
            assert "receive" in vars(cls.table_cls)
            assert "on_receptions" not in vars(cls)

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


class _SnapRelay(MultiHopProtocol):
    """The smallest driver the relay skeleton admits: follow the chosen
    upstream, aligning on first contact and slewing onto it after."""

    protocol_name = "snap"

    def on_receptions(self, period, decoded, ctx):
        chosen = self._choose_upstream(decoded)
        if chosen is None:
            return False
        hw, est = self._observe(chosen, ctx.sample_timestamp_error(), ctx)
        local = self.clock.read_current(hw)
        if self.hop is None:
            self._align(local, est)
        else:
            self._slew(1.0 + (est - local) / self.spec.beacon_period_us, hw)
        self.hop = chosen.hop + 1
        self.upstream = chosen.sender
        self.silent = 0
        return True


class TestRelaySkeleton:
    def test_driver_with_only_on_receptions_runs_a_chain(self, monkeypatch):
        monkeypatch.setitem(MULTIHOP_PROTOCOLS, "snap", f"{__name__}:_SnapRelay")
        monkeypatch.setitem(multihop_base._RESOLVED, "snap", _SnapRelay)
        spec = MultiHopSpec(
            topology=Topology.chain(5), seed=2, duration_s=8.0, protocol="snap"
        )
        runner = MultiHopRunner(spec)
        result = runner.run()
        assert result.hop_of == {i: i for i in range(5)}
        assert result.beacons_sent > spec.periods  # the relays relay
        for state in runner.nodes:
            assert audit_no_leaps(state.clock, 0.0, spec.duration_s * 1e6)

    @pytest.mark.parametrize("protocol", available_multihop_protocols())
    def test_relay_probability_thins_every_protocol(self, protocol):
        _, full = _run(protocol, Topology.chain(8), duration_s=10.0)
        _, thinned = _run(
            protocol, Topology.chain(8), duration_s=10.0, relay_probability=0.5
        )
        assert thinned.beacons_sent < full.beacons_sent
