"""Tests for the multi-hop extension (topology + runner)."""

import re

import numpy as np
import pytest

from repro.multihop import MultiHopRunner, MultiHopSpec, Topology
from repro.multihop.runner import run_multihop
from repro.network.churn import REFERENCE_MARKER, ChurnEvent, ChurnSchedule
from repro.phy.params import SSTSP_BEACON_AIRTIME_SLOTS, PhyParams
from repro.sim.units import S


class TestTopology:
    def test_chain(self):
        topo = Topology.chain(5)
        assert topo.n == 5
        assert topo.neighbors(0) == (1,)
        assert topo.neighbors(2) == (1, 3)
        assert topo.diameter() == 4

    def test_grid(self):
        topo = Topology.grid(3, 4)
        assert topo.n == 12
        assert topo.degree(0) == 2  # corner
        assert topo.degree(5) == 4  # interior
        assert topo.is_connected()

    def test_grid_diagonal(self):
        plain = Topology.grid(3, 3)
        diag = Topology.grid(3, 3, diagonal=True)
        assert diag.degree(4) > plain.degree(4)

    def test_full_mesh(self):
        topo = Topology.full_mesh(6)
        assert topo.degree(0) == 5
        assert topo.diameter() == 1

    def test_unit_disk_connected(self, rng):
        topo = Topology.unit_disk(30, rng, area_m=800.0, radius_m=300.0)
        assert topo.is_connected()
        assert topo.n == 30

    def test_unit_disk_gives_up(self, rng):
        with pytest.raises(RuntimeError):
            Topology.unit_disk(
                50, rng, area_m=100_000.0, radius_m=10.0, max_attempts=3
            )

    def test_hop_distances(self):
        topo = Topology.chain(5)
        hops = topo.hop_distances(0)
        assert hops == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_node_labels_validated(self):
        with pytest.raises(ValueError, match="'a'"):
            Topology(2, [("a", "b")])

    def test_endpoint_out_of_range_named(self):
        with pytest.raises(ValueError, match=r"endpoint 3 is not a station id in 0\.\.2"):
            Topology(3, [(0, 1), (1, 3)])

    def test_self_loop_named(self):
        with pytest.raises(ValueError, match="self-loop on station 1"):
            Topology(3, [(0, 1), (1, 1)])

    @pytest.mark.parametrize("n", [0, -2])
    def test_size_must_be_positive(self, n):
        with pytest.raises(ValueError, match=f"got {n}"):
            Topology(n, [])

    @pytest.mark.parametrize("root", [-1, 5, 2.0])
    def test_hop_distances_root_named(self, root):
        with pytest.raises(ValueError, match=f"root {root} is not a station id"):
            Topology.chain(5).hop_distances(root)

    def test_diameter_of_disconnected_topology_named(self):
        topo = Topology(4, [(0, 1), (2, 3)])
        assert not topo.is_connected()
        with pytest.raises(ValueError, match="reaches 2 of 4 stations"):
            topo.diameter()


class TestSpecValidation:
    def test_root_in_topology(self):
        with pytest.raises(ValueError):
            MultiHopSpec(topology=Topology.chain(3), root=5)

    def test_stride_must_exceed_airtime(self):
        with pytest.raises(ValueError):
            MultiHopSpec(topology=Topology.chain(3), hop_stride_slots=7)

    def test_relay_probability_bounds(self):
        with pytest.raises(ValueError):
            MultiHopSpec(topology=Topology.chain(3), relay_probability=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("beacon_period_us", 0.0, "beacon_period_us must be > 0, got 0.0"),
            ("beacon_period_us", -5.0, "beacon_period_us must be > 0, got -5.0"),
            ("duration_s", 0.01, "duration_s must cover at least one beacon"),
            ("m", 0, "m must be >= 1, got 0"),
            ("l", 0, "l must be >= 1, got 0"),
            ("guard_fine_us", 0.0, "guard_fine_us must be > 0, got 0.0"),
            ("guard_per_hop_us", -1.0, "guard_per_hop_us must be >= 0, got -1.0"),
            ("k_clamp", 0.0, "k_clamp must be in (0, 1), got 0.0"),
            ("k_clamp", 1.0, "k_clamp must be in (0, 1), got 1.0"),
            ("resync_after_periods", 0, "resync_after_periods must be >= 1, got 0"),
            ("root", 3, "got 3 (topology n=3)"),
            ("relay_probability", 1.5, "relay_probability must be in (0, 1], got 1.5"),
        ],
    )
    def test_bad_field_is_named(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            MultiHopSpec(topology=Topology.chain(3), **{field: value})

    @pytest.mark.parametrize(
        "field, value", [("propagation_delay_us", -1.0), ("timestamp_jitter_us", -0.5)]
    )
    def test_negative_delay_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got {value}"):
            PhyParams(**{field: value})
        spec = MultiHopSpec(topology=Topology.chain(3), **{field: value})
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got {value}"):
            MultiHopRunner(spec)

    def test_boundary_values_still_accepted(self):
        spec = MultiHopSpec(
            topology=Topology.chain(3),
            duration_s=0.1,
            m=1,
            l=1,
            guard_per_hop_us=0.0,
            resync_after_periods=1,
            propagation_delay_us=0.0,
            timestamp_jitter_us=0.0,
        )
        assert spec.periods == 1


class TestMultiHopSync:
    def test_chain_synchronizes_all_hops(self):
        spec = MultiHopSpec(topology=Topology.chain(8), seed=3, duration_s=25.0)
        result = run_multihop(spec)
        assert set(result.per_hop_error_us) == set(range(1, 8))
        # every hop well inside a beacon period; near hops at paper accuracy
        assert result.per_hop_error_us[1] < 10.0
        assert all(v < 1_000.0 for v in result.per_hop_error_us.values())

    def test_error_grows_with_hop_distance(self):
        spec = MultiHopSpec(topology=Topology.chain(10), seed=4, duration_s=30.0)
        result = run_multihop(spec)
        errors = [result.per_hop_error_us[h] for h in sorted(result.per_hop_error_us)]
        # monotone-ish growth: far hops strictly worse than near hops
        assert errors[-1] > errors[0]
        assert np.median(errors[5:]) > np.median(errors[:3])

    def test_grid_synchronizes(self):
        spec = MultiHopSpec(topology=Topology.grid(5, 5), seed=3, duration_s=30.0)
        result = run_multihop(spec)
        # near hops at single-hop accuracy; deep hops amplified but bounded
        # well inside a beacon period
        assert all(result.per_hop_error_us[h] < 100.0 for h in range(1, 6))
        assert max(result.per_hop_error_us.values()) < 10_000.0
        assert result.trace.present_counts[-1] == 25

    def test_unit_disk_synchronizes(self, rng):
        topo = Topology.unit_disk(30, rng, area_m=900.0, radius_m=320.0)
        spec = MultiHopSpec(topology=topo, seed=5, duration_s=30.0)
        result = run_multihop(spec)
        assert result.per_hop_error_us[1] < 10.0

    def test_full_mesh_degenerates_to_single_hop(self):
        spec = MultiHopSpec(topology=Topology.full_mesh(12), seed=3, duration_s=20.0)
        result = run_multihop(spec)
        assert set(result.per_hop_error_us) == {1}
        assert result.per_hop_error_us[1] < 10.0

    def test_full_mesh_per_hop_error_matches_cell_reduction(self):
        """The delegated run's per-hop median, against a cell-by-cell
        reduction of its clock matrix: the second half of the run, each
        row against that period's reference, every present station but
        the final root at hop 1. The reference departs and a station
        leaves in the second half, so rows carry absent (NaN) stations
        and another reference than the final root."""
        churn = ChurnSchedule(
            (
                ChurnEvent(200, "leave", (REFERENCE_MARKER,)),
                ChurnEvent(240, "leave", (0,)),
            )
        )
        spec = MultiHopSpec(
            topology=Topology.full_mesh(10), seed=5, duration_s=30.0, churn=churn
        )
        result = run_multihop(spec)
        half = spec.periods // 2
        rows = result.trace.values_us[half:]
        refs = result.trace.reference_ids[half:].tolist()
        assert np.isnan(rows).any() and result.root in refs and len(set(refs)) > 1
        samples = []
        for row, ref in zip(rows, refs):
            if ref < 0 or np.isnan(row[ref]):
                continue
            samples += [
                abs(value - row[ref])
                for col, value in enumerate(row)
                if col != result.root and not np.isnan(value)
            ]
        assert result.per_hop_error_us == {1: float(np.median(samples))}

    @pytest.mark.parametrize("airtime_slots", [SSTSP_BEACON_AIRTIME_SLOTS])
    def test_full_mesh_airtime_matches_spec(self, airtime_slots):
        """A complete graph delegates to the single-hop lane, whose
        channel and every receiver's latency estimate use SSTSP's 7-slot
        airtime, as the spatial path would."""
        spec = MultiHopSpec(topology=Topology.full_mesh(6), seed=3, duration_s=2.0)
        runner = MultiHopRunner(spec)
        runner.run()
        assert runner.channel.phy.beacon_airtime_slots == airtime_slots
        latencies = {node.protocol.config.rx_latency_us for node in runner.nodes}
        expected = airtime_slots * spec.slot_time_us + spec.propagation_delay_us
        assert latencies == {expected}

    def test_deterministic(self):
        spec = MultiHopSpec(topology=Topology.chain(6), seed=7, duration_s=10.0)
        a = run_multihop(spec).trace.max_diff_us
        b = run_multihop(spec).trace.max_diff_us
        assert np.array_equal(a, b)

    def test_root_failover(self):
        spec = MultiHopSpec(topology=Topology.grid(3, 3), seed=3, duration_s=30.0)
        runner = MultiHopRunner(spec)
        runner.churn.add(ChurnEvent(150, "leave", (spec.root,)))
        result = runner.run()
        assert result.root_changes >= 1
        assert result.root != spec.root
        # re-synchronized around the new root by the end
        tail = result.trace.window(25.0 * S, 30.0 * S)
        assert float(np.median(tail.max_diff_us)) < 500.0

    def test_node_return_reacquires(self):
        spec = MultiHopSpec(topology=Topology.chain(5), seed=3, duration_s=20.0)
        runner = MultiHopRunner(spec)
        runner.churn.add(ChurnEvent(50, "leave", (3,)))
        runner.churn.add(ChurnEvent(100, "return", (3,)))
        result = runner.run()
        # node 3 away; downstream nodes may transiently detach too
        assert 2 <= result.trace.present_counts.min() <= 4
        assert result.trace.present_counts[-1] == 5
        tail = result.trace.window(15.0 * S, 20.0 * S)
        assert float(tail.max_diff_us.max()) < 500.0

    def test_root_leaving_and_returning_in_one_period_orphans_the_tree(self):
        # The departure alone orphans the tree: the root's return in the
        # same period does not restore its role, a hop-1 station takes over.
        spec = MultiHopSpec(topology=Topology.chain(5), seed=3, duration_s=10.0)
        runner = MultiHopRunner(spec)
        runner.churn.add(ChurnEvent(50, "leave", (spec.root,)))
        runner.churn.add(ChurnEvent(50, "return", (spec.root,)))
        result = runner.run()
        assert runner.events == ["p50: node 0 left", "p50: node 0 returned"]
        assert result.root_changes == 1
        assert result.root != spec.root

    def test_collisions_counted(self):
        spec = MultiHopSpec(topology=Topology.grid(4, 4), seed=3, duration_s=10.0)
        result = run_multihop(spec)
        assert result.collisions_at_receivers >= 0
        assert result.beacons_sent > 0
