"""Tests of the experiment harness: every paper table/figure regenerates
with the right shape at quick scale, and the reporting helpers behave."""

import pytest

from repro.analysis.metrics import TraceRecorder
from repro.experiments import figures, lemmas, overhead, table1
from repro.experiments.cli import EXPERIMENTS
from repro.experiments.cli import main as cli_main
from repro.experiments.multihop import job_multihop_run
from repro.experiments.report import (
    ascii_chart,
    downsample_rows,
    format_table,
    trace_chart,
)
from repro.sweep.jobs import execute_job
from repro.sweep.spec import JobSpec


def make_trace(values):
    recorder = TraceRecorder()
    for i, v in enumerate(values):
        recorder.record((i + 1) * 100_000.0, [0.0, v])
    return recorder.finalize()


class TestReportHelpers:
    def test_ascii_chart_renders(self):
        chart = ascii_chart([0, 1, 2, 3], [1.0, 10.0, 100.0, 5.0], "t", width=20, height=4)
        assert "t" in chart and "#" in chart

    def test_ascii_chart_empty(self):
        assert "(no data)" in ascii_chart([], [], "t")

    def test_trace_chart(self):
        chart = trace_chart(make_trace([1, 5, 2]), "demo", width=10, height=3)
        assert "demo" in chart

    def test_format_table(self):
        table = format_table(["a", "bb"], [(1, "x"), (22, "yy")], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_downsample(self):
        rows = downsample_rows(make_trace(range(100)), points=5)
        assert len(rows) == 5
        assert rows[0][1] == 0.0 and rows[-1][1] == 99.0


class TestExperimentRuns:
    def test_fig1_shape(self):
        result = figures.run("fig1", n_values=(20, 80), quick=True, seed=2)
        rows = list(result.summary_rows())
        assert len(rows) == 2
        errs = {n: t.steady_state_error_us() for n, t in result.traces.items()}
        assert errs[80] > errs[20] * 0.8  # monotone-ish growth at quick scale

    def test_fig2_shape(self):
        result = figures.run("fig2", n_values=(80,), m=4, quick=True, seed=2)
        assert result.trace.steady_state_error_us() < 12.0

    def test_table1_shape(self):
        rows = table1.run(m_values=(1, 3), n=30, duration_s=20.0, replicas=1)
        assert rows[1].latency_s < rows[3].latency_s
        assert rows[3].error_us < rows[1].error_us

    @pytest.mark.parametrize("field, kwargs, message", [
        ("replicas", {"replicas": 0}, "replicas must be >= 1, got 0"),
        ("n", {"n": 0}, "n must be >= 2 (a network needs two stations), got 0"),
        ("m", {"m_values": (1, 3, 1)}, "m values must be distinct, got 1 more than once"),
    ])
    def test_table1_grid_rejected_before_any_job(
        self, tmp_path, monkeypatch, capsys, field, kwargs, message
    ):
        grid = dict(m_values=(1, 3), n=30, duration_s=20.0, seed=1, replicas=1)
        grid.update(kwargs)
        with pytest.raises(ValueError) as error:
            table1.cell_specs(**grid)
        assert message in str(error.value)
        flags = {"replicas": ["--replicas", "0"], "n": ["--nodes", "0"],
                 "m": ["-m", "1,3,1"]}[field]
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        with pytest.raises(SystemExit) as exit_info:
            table1.main(flags + ["--no-cache"])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "sweep_logs").exists()

    def test_fig3_shape(self):
        result = figures.run("fig3", n_values=(30,), quick=True, seed=2)
        maxima = result.phase_maxima()
        assert maxima["during"] > maxima["before"]

    def test_fig4_shape(self):
        result = figures.run("fig4", n_values=(60,), m=4, quick=True, seed=2)
        maxima = result.phase_maxima()
        assert maxima["during"] < 150.0
        assert result.drag_us() < 0.0

    def test_overhead_run(self):
        data = overhead.run(chain_length=256, samples=64)
        assert data["tsf"].beacon_bytes == 56
        assert len(data["chain"]) == 3

    def test_lemmas_measures(self):
        ratio = lemmas.measure_contraction(m=3, n=20, seed=2)
        assert 0.0 <= ratio < 1.05
        change = lemmas.measure_reference_change(m=4, n=10, seed=2)
        assert change["settled"] < 25.0


class TestCli:
    def test_single_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        # reload report module so RESULTS_DIR picks up the env var
        import importlib

        from repro.experiments import report

        importlib.reload(report)
        try:
            assert cli_main(["overhead", "--quick"]) == 0
            out = capsys.readouterr().out
            assert "92" in out and "56" in out
        finally:
            monkeypatch.delenv("SSTSP_RESULTS_DIR")
            importlib.reload(report)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])

    def test_subcommand_help_is_its_own(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["profile", "run", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--param" in out
        assert "sstsp-experiment" not in out

    @pytest.mark.parametrize("argv", [["fig1", "-h"], ["analyze", "--help"]])
    def test_help_reaches_subcommand(self, capsys, argv):
        with pytest.raises(SystemExit):
            cli_main(argv)
        assert "{ablations,chaos" not in capsys.readouterr().out

    def test_usage_errors_name_the_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["table1", "-m", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro table1 ")
        assert "repro table1: error: m must be >= 1, got 0" in err
        assert "__main__.py" not in err

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_experiment_help_is_plain(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            cli_main([name, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: repro {name} ")
        assert ":class:" not in out and ":mod:" not in out and "``" not in out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        assert "sstsp-experiment" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "workers must be >= 1"),
        (["--resume", "--no-cache"], "--resume requires the result cache"),
        (["--retries", "-1", "--on-error", "retry"], "max_retries must be >= 0"),
    ], ids=["workers", "resume", "retries"])
    @pytest.mark.parametrize("command", [
        ["fig1", "--quick"], ["fig2", "--quick"], ["fig3", "--quick"],
        ["fig4", "--quick"], ["table1", "--quick"], ["multihop", "--quick"],
        ["shootout", "--quick"], ["ablations", "--quick"],
        ["chaos", "--plans", "1"],
        ["analyze", "table1", "--quick"], ["analyze", "shootout", "--quick"],
    ], ids=lambda command: "-".join(command[:2] if command[0] == "analyze" else command[:1]))
    def test_bad_sweep_flags_are_input_errors(
        self, capsys, tmp_path, monkeypatch, command, flags, message
    ):
        """A bad sweep flag combination is reported like any other bad
        input of the subcommand - never a traceback - and runs nothing."""
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        if command[0] == "analyze":
            assert cli_main(command + flags) == 1
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert err.startswith(f"repro analyze {command[1]}: {message}")
        else:
            with pytest.raises(SystemExit) as exc:
                cli_main(command + flags)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"repro {command[0]}: error: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "sweep_logs").exists()


    def test_fig2_quick_writes_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path / "r"))
        import importlib

        from repro.experiments import report

        importlib.reload(report)
        try:
            figures.main("fig2", ["--quick", "--nodes", "40"])
            out = capsys.readouterr().out
            assert "steady-state error" in out
            assert (tmp_path / "r" / "fig2_sstsp_n40_m4.csv").exists()
        finally:
            monkeypatch.delenv("SSTSP_RESULTS_DIR")
            importlib.reload(report)  # restore default RESULTS_DIR


class TestMultihopJobParams:
    @pytest.mark.parametrize(
        "params, missing",
        [
            ({"topology": "grid"}, "'rows', 'cols'"),
            ({"topology": "grid", "rows": 3}, "'cols'"),
            ({"topology": "chain"}, "'n'"),
            ({"topology": "full_mesh"}, "'n'"),
            ({"topology": "unit_disk"}, "'n'"),
        ],
    )
    def test_missing_topology_field_names_it(self, params, missing):
        spec = JobSpec.make("multihop_run", params)
        with pytest.raises(ValueError) as exc:
            job_multihop_run(spec)
        message = str(exc.value)
        assert f"{params['topology']!r}" in message
        assert message.endswith(missing)

    def test_missing_topology_kind(self):
        with pytest.raises(ValueError, match="missing job param 'topology'"):
            job_multihop_run(JobSpec.make("multihop_run", {"n": 4}))

    def test_unknown_topology_kind(self):
        with pytest.raises(ValueError, match="unknown topology kind 'ring'"):
            job_multihop_run(JobSpec.make("multihop_run", {"topology": "ring"}))


class TestTable1CellJobParams:
    VALID = {"m": 4, "n": 10, "seed": 3, "duration_s": 3.0, "initial_offset_us": 0.0}

    @pytest.mark.parametrize("field", sorted(VALID))
    def test_missing_field_names_it(self, field):
        params = {k: v for k, v in self.VALID.items() if k != field}
        with pytest.raises(ValueError) as exc:
            execute_job(JobSpec.make("table1_cell", params))
        assert str(exc.value) == f"table1_cell: missing job param(s) {field!r}"

    def test_missing_fields_are_all_named(self):
        with pytest.raises(ValueError) as exc:
            execute_job(JobSpec.make("table1_cell", {"m": 4}))
        assert str(exc.value) == (
            "table1_cell: missing job param(s) "
            "'n', 'seed', 'duration_s', 'initial_offset_us'"
        )

    def test_valid_spec_keeps_its_hash_and_runs(self):
        spec = JobSpec.make("table1_cell", self.VALID, root_seed=3)
        assert spec.spec_hash() == (
            "bedd92a0c7ccce44d30625216a91e3710720299cf31be92f50e7fd59850ad421"
        )
        payload = execute_job(spec)
        assert set(payload) == {"latency_us", "error_us"}


class TestScenarioTraceJobParams:
    VALID = {
        "protocol": "sstsp", "lane": "oo", "scenario": "quick", "n": 5,
        "seed": 2, "duration_s": 2.0, "attack_start_s": 0.5,
        "attack_end_s": 1.5,
    }

    @staticmethod
    def _run(params):
        return execute_job(JobSpec.make("scenario_trace", params))

    @pytest.mark.parametrize("field", ["protocol", "n", "seed"])
    def test_missing_field_names_it(self, field):
        params = {k: v for k, v in self.VALID.items() if k != field}
        with pytest.raises(ValueError) as exc:
            self._run(params)
        assert str(exc.value) == (
            f"scenario_trace: missing job param(s) {field!r}"
        )

    @pytest.mark.parametrize(
        "present, missing",
        [
            ("attack_start_s", "'attack_end_s'"),
            ("attack_end_s", "'attack_start_s'"),
            ("attack_shave_us", "'attack_start_s', 'attack_end_s'"),
        ],
    )
    def test_half_an_attack_window_names_the_rest(self, present, missing):
        params = {k: v for k, v in self.VALID.items() if not k.startswith("attack")}
        params[present] = 1.0
        with pytest.raises(ValueError) as exc:
            self._run(params)
        assert str(exc.value) == f"scenario_trace: missing job param(s) {missing}"

    @pytest.mark.parametrize(
        "field, value",
        [("scenario", "papr"), ("protocol", "ntp"), ("lane", "gpu")],
    )
    def test_unknown_value_names_field_and_value(self, field, value):
        with pytest.raises(ValueError) as exc:
            self._run(dict(self.VALID, **{field: value}))
        assert str(exc.value).startswith(
            f"scenario_trace: unknown {field} {value!r}"
        )

    def test_valid_spec_keeps_its_hash_and_runs(self):
        spec = JobSpec.make("scenario_trace", self.VALID)
        assert spec.spec_hash() == (
            "9c77f4aac2ffd59c34abbb431d9ce9f2025c5144d7c88a40858596c2490180e4"
        )
        payload = execute_job(spec)
        assert len(payload["trace"].times_us) == 20
