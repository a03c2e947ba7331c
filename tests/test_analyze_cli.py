"""Golden-fixture and determinism tests for ``repro analyze``.

The CLI's contract is byte-stability: the same sweep analyzed at any
worker count, or resumed after an injected failure, must emit identical
bytes. These tests pin that by comparing every emitted file against
committed goldens under ``tests/data/``.

Regenerating the goldens (only after an intentional format change)::

    SSTSP_RESULTS_DIR=/tmp/regen PYTHONPATH=src python -m repro analyze \
        table1 --nodes 12 --duration 5 -m 1,2 --replicas 2 --seed 3 \
        --no-cache
    cp /tmp/regen/analysis/table1_summary.csv \
        tests/data/analyze_table1/golden_summary.csv   # etc.

The shootout, bench and ``results/table1.csv`` goldens come from
``SHOOTOUT_ARGS``, ``BENCH_FILES`` and ``TABLE1_ARGS`` below in the same
way (``repro table1`` takes the same grid flags as ``analyze table1``).
"""

from __future__ import annotations

import argparse
import os

import pytest

from repro.analysis import cli
from repro.sweep.failpolicy import INJECT_ENV_VAR

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_TABLE1 = os.path.join(DATA_DIR, "analyze_table1")
GOLDEN_LOG = os.path.join(DATA_DIR, "analyze_log")
GOLDEN_SHOOTOUT = os.path.join(DATA_DIR, "analyze_shootout")
GOLDEN_BENCH = os.path.join(DATA_DIR, "analyze_bench")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The grid the table1 goldens were generated from (small enough for CI,
#: large enough that both m rows have live statistics).
TABLE1_ARGS = [
    "table1", "--nodes", "12", "--duration", "5", "-m", "1,2",
    "--replicas", "2", "--seed", "3",
]

#: Matches exactly one job_key of the grid above (m=1, replica seed
#: 1003); a count far above --retries forces quarantine.
INJECT_ONE_CELL = '"m":1,"n":12,"seed":1003:9'

#: Two protocols, two replicas, quick durations: about a second serially.
SHOOTOUT_ARGS = [
    "shootout", "--quick", "--replicas", "2", "--protocols", "sstsp,coop",
    "--seed", "3", "--no-cache",
]

#: The committed benchmark trajectory.
BENCH_FILES = [
    os.path.join(REPO_ROOT, f"BENCH_{label}.json") for label in (7, 8, 10)
]


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def run_table1(tmp_path, monkeypatch, subdir: str, extra):
    """Run ``repro analyze table1`` into an isolated results dir."""
    results = tmp_path / subdir
    monkeypatch.setenv("SSTSP_RESULTS_DIR", str(results))
    assert cli.main(TABLE1_ARGS + list(extra)) == 0
    return results / "analysis"


def assert_outputs_match(out_dir, golden_dir: str, stem: str = "table1") -> None:
    assert_files_match(out_dir, golden_dir, [
        (f"{stem}_summary.csv", "golden_summary.csv"),
        (f"{stem}_summary.md", "golden_summary.md"),
        (f"{stem}_failures.csv", "golden_failures.csv"),
    ])


def assert_files_match(out_dir, golden_dir: str, pairs) -> None:
    for produced, golden in pairs:
        assert read_bytes(str(out_dir / produced)) == read_bytes(
            os.path.join(golden_dir, golden)
        ), f"{produced} diverged from {golden}"


class TestTable1Golden:
    def test_matches_committed_golden(self, tmp_path, monkeypatch):
        out = run_table1(tmp_path, monkeypatch, "serial", ["--no-cache"])
        assert_outputs_match(out, GOLDEN_TABLE1)

    def test_workers_do_not_change_the_bytes(self, tmp_path, monkeypatch):
        # The golden was produced serially; a 4-worker run must emit the
        # same bytes (worker-count independence, transitively 1 == 4).
        out = run_table1(
            tmp_path, monkeypatch, "parallel", ["--no-cache", "--workers", "4"]
        )
        assert_outputs_match(out, GOLDEN_TABLE1)

    def test_table1_command_csv_matches_golden(self, tmp_path, monkeypatch):
        # `repro table1` over the same grid: its mean-per-m rows.
        from repro.experiments import table1

        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        table1.main(TABLE1_ARGS[1:] + ["--no-cache"])
        assert read_bytes(str(tmp_path / "table1.csv")) == read_bytes(
            os.path.join(GOLDEN_TABLE1, "golden_table1.csv")
        )


class TestShootoutGolden:
    def test_matches_committed_golden(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        assert cli.main(SHOOTOUT_ARGS) == 0
        assert_outputs_match(tmp_path / "analysis", GOLDEN_SHOOTOUT, "shootout")


class TestResumeDeterminism:
    def test_resume_after_quarantine_matches_clean_run(
        self, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        common = ["--cache-dir", str(cache), "--workers", "2"]

        # Pass 1: one injected cell exhausts its retries and is
        # quarantined; the summary must keep the row and record the gap.
        monkeypatch.setenv(INJECT_ENV_VAR, INJECT_ONE_CELL)
        broken = run_table1(
            tmp_path, monkeypatch, "broken",
            common + ["--on-error", "quarantine", "--retries", "1"],
        )
        failures = read_bytes(str(broken / "table1_failures.csv"))
        assert failures.count(b"\n") == 2  # header + one quarantined job
        assert b"table1_cell" in failures
        summary = read_bytes(str(broken / "table1_summary.csv")).decode()
        m1_row = summary.splitlines()[1]
        assert m1_row.startswith("1,2,1,")  # m=1: 2 cells, 1 quarantined
        assert b"## Failure digest" in read_bytes(
            str(broken / "table1_summary.md")
        )

        # Pass 2: resume without injection. The cache serves the three
        # completed cells; only the quarantined one executes. The tables
        # must be byte-identical to the committed clean-run goldens.
        monkeypatch.delenv(INJECT_ENV_VAR)
        resumed = run_table1(
            tmp_path, monkeypatch, "resumed", common + ["--resume"]
        )
        assert_outputs_match(resumed, GOLDEN_TABLE1)


class TestFullyQuarantinedM:
    """Every replica of m=1 fails: ``repro table1`` drops the row, while
    ``analyze table1`` keeps it with blank statistics."""

    INJECT_ALL_M1 = '"m":1,"n":12,:9'
    FLAGS = ["--no-cache", "--on-error", "quarantine", "--retries", "0"]

    def test_table1_drops_the_row_and_analyze_keeps_it(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import table1

        monkeypatch.setenv(INJECT_ENV_VAR, self.INJECT_ALL_M1)
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        table1.main(TABLE1_ARGS[1:] + self.FLAGS)
        golden = read_bytes(os.path.join(GOLDEN_TABLE1, "golden_table1.csv"))
        rows = read_bytes(str(tmp_path / "table1.csv")).splitlines()
        assert rows == [golden.splitlines()[0], golden.splitlines()[2]]

        assert cli.main(TABLE1_ARGS + self.FLAGS) == 0
        summary = read_bytes(str(tmp_path / "analysis" / "table1_summary.csv"))
        golden = read_bytes(os.path.join(GOLDEN_TABLE1, "golden_summary.csv"))
        lines = summary.splitlines()
        assert lines[1] == b"1,2,2,0" + b"," * 16
        assert lines[2] == golden.splitlines()[2]
        failures = read_bytes(str(tmp_path / "analysis" / "table1_failures.csv"))
        assert failures.count(b"\n") == 3  # header + both m=1 cells


class TestBadInput:
    """Bad input fails at the boundary with one line naming it."""

    @pytest.mark.parametrize("flags, message", [
        (["--replicas", "0"], "replicas must be >= 1, got 0"),
        (["--nodes", "0"], "n must be >= 2"),
        (["-m", "2,2"], "m values must be distinct, got 2 more than once"),
    ])
    def test_table1_grid(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        assert cli.main(TABLE1_ARGS + ["--no-cache"] + flags) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "sweep_logs").exists()  # no job ran

    @pytest.mark.parametrize("protocols, message", [
        ("foo", "unknown multi-hop protocol 'foo' (known: "),
        (",", "no multi-hop protocol given (known: "),
    ])
    def test_shootout_protocols(
        self, tmp_path, monkeypatch, capsys, protocols, message
    ):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        args = SHOOTOUT_ARGS[:5] + [protocols] + SHOOTOUT_ARGS[6:]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
        assert not (tmp_path / "sweep_logs").exists()

    def test_log_unreadable(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        (tmp_path / "binary.jsonl").write_bytes(b"\xff\xfe\n")
        for name in ("absent.jsonl", "binary.jsonl", ""):
            path = str(tmp_path / name)  # "" names the directory
            assert cli.main(["log", path]) == 1
            err = capsys.readouterr().err
            assert path in err and err.count("\n") == 1

    def test_log_malformed_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        path = tmp_path / "broken.jsonl"
        with open(os.path.join(GOLDEN_LOG, "demo_sweep.jsonl"), "rb") as fh:
            good = fh.read().splitlines()
        path.write_bytes(b"\n".join(good[:2] + [b'{"event": "job",'] + good[2:]))
        assert cli.main(["log", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:3:" in err and err.count("\n") == 1


class _GridResolved(Exception):
    """Raised in place of running a sweep: the grid is all a test needs."""


def _stop_at_sweep(monkeypatch, module, seen):
    """Make ``module.run_sweep`` record its specs' hashes and stop."""
    def fake_run_sweep(name, specs, options=None):
        seen["hashes"] = [spec.spec_hash() for spec in specs]
        raise _GridResolved

    monkeypatch.setattr(module, "run_sweep", fake_run_sweep)


def experiment_grid(monkeypatch, module, argv):
    """``(spec hashes, parser)`` of ``repro <exp> argv``; nothing runs."""
    from repro.experiments.report import experiment_parser

    seen = {}

    def recording_parser(name, doc):
        seen["parser"] = experiment_parser(name, doc)
        return seen["parser"]

    monkeypatch.setattr(module, "experiment_parser", recording_parser)
    _stop_at_sweep(monkeypatch, module, seen)
    with pytest.raises(_GridResolved):
        module.main(argv)
    return seen["hashes"], seen["parser"]


def analyze_grid(monkeypatch, command, argv):
    """``(spec hashes, subparser)`` of ``repro analyze <command> argv``."""
    seen = {}
    _stop_at_sweep(monkeypatch, cli, seen)
    with pytest.raises(_GridResolved):
        cli.main([command] + argv)
    sub = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return seen["hashes"], sub.choices[command]


def option_strings(parser):
    return {option for action in parser._actions for option in action.option_strings}


class TestGridParity:
    """``repro <exp>`` and ``repro analyze <exp>`` resolve the same grid
    from the same flags, so an analyze pass after a run is all cache
    hits."""

    TABLE1_EXPLICIT = [
        "--nodes", "12", "--seed", "3", "-m", "1,2", "--duration", "5",
        "--replicas", "2",
    ]
    SHOOTOUT_EXPLICIT = [
        "--seed", "3", "--replicas", "2", "--protocols", "sstsp,coop", "--quick",
    ]

    @pytest.mark.parametrize("argv", [[], ["--quick"], TABLE1_EXPLICIT])
    def test_table1(self, monkeypatch, argv):
        from repro.experiments import table1

        hashes, parser = experiment_grid(monkeypatch, table1, argv)
        analyzed, subparser = analyze_grid(monkeypatch, "table1", argv)
        assert analyzed == hashes
        assert option_strings(subparser) - {"--name"} == option_strings(parser)
        replicas = 1 if argv == ["--quick"] else 3
        grid = ((1, 2, 3, 4, 5), 100, 60.0, 1, replicas)
        if argv == self.TABLE1_EXPLICIT:
            grid = ((1, 2), 12, 5.0, 3, 2)
        assert hashes == [spec.spec_hash() for spec in table1.cell_specs(*grid)]

    @pytest.mark.parametrize("argv", [[], ["--quick"], SHOOTOUT_EXPLICIT])
    def test_shootout(self, monkeypatch, argv):
        from repro.experiments import shootout

        hashes, parser = experiment_grid(monkeypatch, shootout, argv)
        analyzed, subparser = analyze_grid(monkeypatch, "shootout", argv)
        assert analyzed == hashes
        assert option_strings(subparser) - {"--name"} == option_strings(parser)
        grid = dict(quick=argv == ["--quick"], replicas=1 if argv else 3)
        if argv == self.SHOOTOUT_EXPLICIT:
            grid = dict(protocols=["sstsp", "coop"], seed=3, quick=True, replicas=2)
        assert hashes == [
            spec.spec_hash() for spec in shootout.shootout_specs(**grid)
        ]


class TestLogGolden:
    def test_log_rollup_matches_golden(self, tmp_path, monkeypatch):
        results = tmp_path / "results"
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(results))
        log = os.path.join(GOLDEN_LOG, "demo_sweep.jsonl")
        assert cli.main(["log", log]) == 0
        out = results / "analysis"
        for produced, golden in [
            ("demo_sweep_log_summary.csv", "golden_log_summary.csv"),
            ("demo_sweep_log_summary.md", "golden_log_summary.md"),
            ("demo_sweep_log_metrics.csv", "golden_log_metrics.csv"),
        ]:
            assert read_bytes(str(out / produced)) == read_bytes(
                os.path.join(GOLDEN_LOG, golden)
            ), f"{produced} diverged from {golden}"

    def test_name_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path / "r"))
        log = os.path.join(GOLDEN_LOG, "demo_sweep.jsonl")
        assert cli.main(["log", log, "--name", "renamed"]) == 0
        assert (tmp_path / "r" / "analysis" / "renamed_log_summary.csv").exists()


class TestHelpers:
    def test_markdown_table_escapes_pipes(self):
        table = cli.markdown_table(["k"], [["events.guard_reject|node=2"]])
        assert "events.guard_reject\\|node=2" in table
        # The escaped cell still occupies exactly one column.
        assert table.splitlines()[2].count(" | ") == 0

    def test_fmt_handles_none_and_inf(self):
        assert cli._fmt(None) == "n/a"
        assert cli._fmt(float("inf")) == "inf"
        assert cli._fmt(float("-inf")) == "-inf"
        assert cli._fmt(0.123456) == "0.1235"

    def test_cli_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])


class TestBenchTrend:
    """``repro analyze bench``: the BENCH_*.json trajectory roll-up."""

    def test_committed_trajectory_matches_golden(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
        assert cli.main(["bench"] + BENCH_FILES) == 0
        assert_files_match(tmp_path / "analysis", GOLDEN_BENCH, [
            ("bench_trend.csv", "golden_trend.csv"),
            ("bench_trend.md", "golden_trend.md"),
        ])

    @staticmethod
    def _write_bench(root, label, medians, work=None):
        from repro.analysis.benchgate import bench_record, write_bench_json

        records = [
            bench_record(
                fullname=name, median_s=median, mean_s=median,
                stddev_s=0.0, min_s=median, rounds=1, iterations=1,
                work=work,
            )
            for name, median in medians.items()
        ]
        write_bench_json(
            os.path.join(root, f"BENCH_{label}.json"), label, records
        )

    def test_trend_table_orders_labels_numerically(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path / "r"))
        root = str(tmp_path / "repo")
        os.makedirs(root)
        # label 10 sorts after 9 numerically even though "10" < "9"
        self._write_bench(root, "9", {"bench::a": 0.010})
        self._write_bench(
            root, "10", {"bench::a": 0.012, "bench::b": 0.002},
            work={"fastlane/sstsp/mac.slot_draws": 2500},
        )
        assert cli.main(["bench", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "| benchmark | 9 | 10 |" in out
        md_path = tmp_path / "r" / "analysis" / "bench_trend.md"
        csv_path = tmp_path / "r" / "analysis" / "bench_trend.csv"
        first_md = read_bytes(str(md_path))
        first_csv = read_bytes(str(csv_path))
        assert b"2500" in first_md  # the work total column
        assert b"bench::b | - |" in first_md  # absent in the older label
        # byte-stable on re-run
        assert cli.main(["bench", "--root", root]) == 0
        assert read_bytes(str(md_path)) == first_md
        assert read_bytes(str(csv_path)) == first_csv

    def test_explicit_files_and_empty_root(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path / "r"))
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        assert cli.main(["bench", "--root", empty]) == 1
        root = str(tmp_path / "repo")
        os.makedirs(root)
        self._write_bench(root, "7", {"bench::a": 0.010})
        path = os.path.join(root, "BENCH_7.json")
        assert cli.main(["bench", path, "--name", "named"]) == 0
        assert (tmp_path / "r" / "analysis" / "named_trend.md").exists()
