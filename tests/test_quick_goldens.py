"""The ``--quick`` multi-hop and shootout CSVs, byte for byte.

``repro multihop --quick`` and ``repro shootout --quick`` must write
exactly the committed goldens under ``tests/data/multihop_quick/`` and
``tests/data/shootout_quick/``. The ``mesh12`` rows come from the
complete-graph delegation (a multi-hop spec run on the single-hop lane,
per-hop error reduced from its clock matrix); the other rows run the
spatial engine. Each run is serial and uncached (about a second).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "experiment, golden",
    [
        ("multihop", DATA / "multihop_quick" / "golden_multihop.csv"),
        ("shootout", DATA / "shootout_quick" / "golden_shootout.csv"),
    ],
)
def test_quick_csv_matches_golden(experiment, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("SSTSP_RESULTS_DIR", str(tmp_path))
    cli_main([experiment, "--quick", "--no-cache"])
    assert (tmp_path / f"{experiment}.csv").read_bytes() == golden.read_bytes()
