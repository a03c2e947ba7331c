"""Figures 1-4 pinned against ``tests/data/figures_quick``: the
``repro figN --quick`` stdout (results directory normalised to
``<results>/``) and CSV bytes, the spec hash of every job each figure
builds (so a warm result cache keeps serving them), and each figure's
command-line options."""

import json
import os

import pytest

from repro.experiments import figures, report
from repro.experiments.cli import main as cli_main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "figures_quick")
NAMES = sorted(figures.FIGURES)


def golden_json(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("name", NAMES)
def test_quick_run_matches_golden(name, tmp_path, monkeypatch, capsys):
    results = tmp_path / "results"
    monkeypatch.setenv("SSTSP_RESULTS_DIR", str(results))
    cli_main([name, "--quick", "--no-cache"])
    out = capsys.readouterr().out.replace(str(results) + os.sep, "<results>/")
    assert out.encode() == read_bytes(os.path.join(GOLDEN, f"{name}_stdout.txt"))
    written = sorted(path.name for path in results.glob("*.csv"))
    assert written == sorted(
        f for f in os.listdir(GOLDEN) if f.startswith(f"{name}_") and f.endswith(".csv")
    )
    for csv in written:
        assert read_bytes(results / csv) == read_bytes(os.path.join(GOLDEN, csv)), csv


class _Resolved(Exception):
    """Raised in place of the sweep once a figure has built its specs."""


SPEC_CASES = sorted(golden_json("spec_hashes.json"))


@pytest.mark.parametrize("command", SPEC_CASES)
def test_spec_hashes_match_golden(command, monkeypatch):
    built = []

    def stop(name, specs, sweep):
        built.extend(specs)
        raise _Resolved

    monkeypatch.setattr(figures, "run_sweep", stop)
    with pytest.raises(_Resolved):
        cli_main(command.split())
    assert [
        {"params": spec.params_dict(), "root_seed": spec.root_seed,
         "spec_hash": spec.spec_hash()}
        for spec in built
    ] == golden_json("spec_hashes.json")[command]


def describe(parser):
    """A parser's prog, description and options as JSON-ready data."""
    return json.loads(json.dumps({
        "prog": parser.prog,
        "description": parser.description,
        "actions": [
            {
                "options": list(a.option_strings), "dest": a.dest,
                "default": a.default, "nargs": a.nargs,
                "choices": list(a.choices) if a.choices else None,
                "type": getattr(a.type, "__name__", None), "metavar": a.metavar,
                "help": a.help, "action": type(a).__name__,
            }
            for a in parser._actions
        ],
    }))


@pytest.mark.parametrize("name", NAMES)
def test_options_match_golden(name, monkeypatch):
    """Every ``repro figN`` keeps exactly its flags, defaults and help."""
    seen = {}

    def recording_parser(prog, doc):
        seen["parser"] = report.experiment_parser(prog, doc)
        return seen["parser"]

    monkeypatch.setattr(figures, "experiment_parser", recording_parser)
    with pytest.raises(SystemExit) as exc:
        cli_main([name, "--help"])
    assert exc.value.code == 0
    assert describe(seen["parser"]) == golden_json("parsers.json")[name]


@pytest.mark.parametrize(
    "command, message",
    [
        ("fig2 --quick -m 0", "m must be >= 1, got 0"),
        ("fig4 --quick -m 0", "m must be >= 1, got 0"),
        ("fig3 --quick --nodes 0", "n must be >= 2 (a network needs two stations), got 0"),
        ("fig1 --quick --nodes 1", "n must be >= 2 (a network needs two stations), got 1"),
        ("fig1 --quick --nodes 100 1", "got 1"),
    ],
)
def test_bad_field_is_a_usage_error_before_any_job(
    command, message, tmp_path, monkeypatch, capsys
):
    """A bad ``--nodes`` or ``-m`` fails the ``ScenarioSpec`` /
    ``SstspConfig`` checks at the command line (exit 2, the field named)
    and starts no sweep, so no sweep log is written."""
    results = tmp_path / "results"
    monkeypatch.setenv("SSTSP_RESULTS_DIR", str(results))
    with pytest.raises(SystemExit) as exc:
        cli_main(command.split() + ["--no-cache"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"repro {command.split()[0]}: error: " in err and message in err
    assert not results.exists()
