"""The standing multi-hop shootout: grid construction, the convergence
metric, CSV rendering, the analyze roll-up, and parallel determinism."""

import numpy as np
import pytest

from repro.analysis.cli import (
    SHOOTOUT_METRICS,
    shootout_summary_csv_text,
    shootout_summary_md_text,
    summary_rows,
)
from repro.experiments.shootout import (
    CONVERGENCE_THRESHOLD_US,
    convergence_time_s,
    main as shootout_main,
    rows_to_csv,
    run,
    shootout_specs,
)
from repro.sweep import SweepOptions

MINI_SCENARIOS = (
    {"name": "mini", "topology": "chain", "n": 5, "duration_s": 4.0, "seed": 3},
)


class TestConvergenceMetric:
    def test_empty_trace_never_converges(self):
        assert convergence_time_s(np.array([]), np.array([])) is None

    def test_unsettled_tail_never_converges(self):
        times = np.array([0.0, 1e6, 2e6])
        diffs = np.array([10.0, 10.0, 900.0])
        assert convergence_time_s(times, diffs) is None

    def test_converged_from_start(self):
        times = np.array([0.0, 1e6])
        diffs = np.array([1.0, 2.0])
        assert convergence_time_s(times, diffs) == 0.0

    def test_earliest_stable_sample(self):
        times = np.array([0.0, 1e6, 2e6, 3e6])
        diffs = np.array([500.0, 40.0, 60.0, 3.0])
        # sample 2 still violates the bound, so the stable tail starts at 3
        assert convergence_time_s(times, diffs) == 3.0

    def test_nan_breaks_the_tail(self):
        times = np.array([0.0, 1e6, 2e6])
        diffs = np.array([1.0, np.nan, 2.0])
        assert convergence_time_s(times, diffs) == 2.0

    def test_threshold_is_the_documented_constant(self):
        times = np.array([0.0])
        assert convergence_time_s(
            times, np.array([CONVERGENCE_THRESHOLD_US])
        ) == 0.0
        assert convergence_time_s(
            times, np.array([CONVERGENCE_THRESHOLD_US + 1.0])
        ) is None


class TestSpecGrid:
    def test_grid_is_protocol_major(self):
        specs = shootout_specs(MINI_SCENARIOS, replicas=2)
        assert len(specs) == 3 * 1 * 2  # protocols x scenarios x replicas
        params = [s.params_dict() for s in specs]
        assert [p["protocol"] for p in params] == [
            "sstsp", "sstsp", "beaconless", "beaconless", "coop", "coop",
        ]
        assert [p["replica"] for p in params] == [0, 1, 0, 1, 0, 1]

    def test_replicas_get_distinct_seeds(self):
        specs = shootout_specs(MINI_SCENARIOS, replicas=3)
        seeds = {s.params_dict()["seed"] for s in specs[:3]}
        assert len(seeds) == 3

    def test_quick_trims_duration(self):
        scenario = ({"name": "x", "topology": "chain", "n": 4,
                     "duration_s": 30.0, "seed": 1},)
        spec = shootout_specs(scenario, quick=True)[0]
        assert spec.params_dict()["duration_s"] == 8.0

    def test_protocol_subset(self):
        specs = shootout_specs(MINI_SCENARIOS, protocols=["coop"])
        assert [s.params_dict()["protocol"] for s in specs] == ["coop"]

    def test_replicas_validated(self):
        with pytest.raises(ValueError, match="replicas"):
            shootout_specs(MINI_SCENARIOS, replicas=0)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(
            ValueError, match=r"unknown multi-hop protocol 'foo' \(known: "
        ):
            shootout_specs(MINI_SCENARIOS, protocols=["sstsp", "foo"])

    def test_empty_protocol_list_rejected(self):
        with pytest.raises(ValueError, match="no multi-hop protocol given"):
            shootout_specs(MINI_SCENARIOS, protocols=[])

    @pytest.mark.parametrize("protocols", ["foo", ","])
    def test_cli_rejects_protocols_before_any_job(
        self, tmp_path, monkeypatch, capsys, protocols
    ):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exit_info:
            shootout_main(["--quick", "--protocols", protocols])
        assert exit_info.value.code == 2
        assert "multi-hop protocol" in capsys.readouterr().err
        assert not (tmp_path / "sweep_logs").exists()


class TestCsvRendering:
    def test_none_renders_empty_and_floats_repr(self):
        row = {
            "protocol": "sstsp", "scenario": "mini", "replica": 0,
            "seed": 3, "nodes": 5, "max_hop": 4, "final_present": 5,
            "root_changes": 0, "beacons_sent": 10, "collisions": 1,
            "beacon_bytes": 92, "bytes_on_air": 920,
            "airtime_on_air_us": 630.0, "convergence_time_s": None,
            "steady_state_error_us": 0.1, "peak_error_us": 2.5,
            "hop1_error_us": None, "deepest_hop_error_us": 1.25,
        }
        text = rows_to_csv([row])
        header, line = text.strip().split("\n")
        assert header.startswith("protocol,scenario,replica,seed,nodes")
        assert ",630.0,," in line  # airtime then the empty convergence cell
        assert line.endswith(",0.1,2.5,,1.25")

    def test_bytes_stable(self):
        row = {key: 1.5 if "us" in key or key.endswith("_s") else "x"
               for key in (
                   "protocol", "scenario", "replica", "seed", "nodes",
                   "max_hop", "final_present", "root_changes",
                   "beacons_sent", "collisions", "beacon_bytes",
                   "bytes_on_air", "airtime_on_air_us",
                   "convergence_time_s", "steady_state_error_us",
                   "peak_error_us", "hop1_error_us",
                   "deepest_hop_error_us",
               )}
        assert rows_to_csv([row]) == rows_to_csv([dict(row)])


def _payload(protocol, scenario, steady, convergence, beacons=10, nbytes=100):
    return {
        "protocol": protocol, "scenario": scenario,
        "steady_state_error_us": steady, "convergence_time_s": convergence,
        "beacons_sent": beacons, "bytes_on_air": nbytes,
    }


def shootout_summaries(payloads, keys=None):
    if keys is None:
        keys = [(p["protocol"], p["scenario"]) for p in payloads]
    return summary_rows(keys, payloads, SHOOTOUT_METRICS)


class TestAnalyzeRollup:
    def test_groups_in_first_seen_order_with_cis(self):
        payloads = [
            _payload("sstsp", "mini", 10.0, 1.0),
            _payload("sstsp", "mini", 12.0, 2.0),
            _payload("coop", "mini", 5.0, None),
        ]
        rows = shootout_summaries(payloads)
        assert [key for key, _, _ in rows] == [("sstsp", "mini"), ("coop", "mini")]
        _, sstsp, (steady, convergence, _, _) = rows[0]
        assert sstsp.cells == 2 and sstsp.quarantined == 0
        assert sstsp.gaps("convergence_time_s") == 0
        assert steady.mean == 11.0
        assert convergence.n == 2
        _, coop, (_, convergence, _, _) = rows[1]
        assert coop.gaps("convergence_time_s") == 1  # never converged
        assert convergence is None  # no convergence stats at all

    def test_quarantined_cells_attribute_via_keys(self):
        keys = [("sstsp", "mini"), ("sstsp", "mini")]
        payloads = [_payload("sstsp", "mini", 10.0, 1.0), None]
        (_, group, _), = shootout_summaries(payloads, keys)
        assert group.cells == 2
        assert group.quarantined == 1

    def test_summary_texts_are_stable_bytes(self):
        payloads = [
            _payload("sstsp", "mini", 10.0, 1.0),
            _payload("sstsp", "mini", 12.0, 2.0),
        ]
        rows = shootout_summaries(payloads)
        csv_a = shootout_summary_csv_text(rows)
        csv_b = shootout_summary_csv_text(shootout_summaries(payloads))
        assert csv_a == csv_b
        assert csv_a.startswith("protocol,scenario,cells,quarantined,unconverged,")
        md = shootout_summary_md_text(rows, replicas=2, failures=[])
        assert "| sstsp | mini |" in md
        assert "No quarantined jobs." in md


class TestParallelDeterminism:
    def test_workers_do_not_change_the_rows(self, tmp_path):
        serial = run(
            MINI_SCENARIOS, seed=1,
            sweep=SweepOptions(workers=1, cache_dir=str(tmp_path / "c1")),
        )
        parallel = run(
            MINI_SCENARIOS, seed=1,
            sweep=SweepOptions(workers=2, cache_dir=str(tmp_path / "c2")),
        )
        assert rows_to_csv(serial) == rows_to_csv(parallel)
        assert [r["protocol"] for r in serial] == ["sstsp", "beaconless", "coop"]
