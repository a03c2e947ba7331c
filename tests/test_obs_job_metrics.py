"""Byte pins of the sweep's per-job observability metrics.

A sweep run with a trace directory writes one ``job_obs`` record per
executed job. Its ``metrics`` payload carries the per-node event
counters (``events.<name>|node=<id>``), the work counters
(``work.<lane>/<site>``) and the histogram summaries, and the
``sweep_end`` record rolls them up. The committed fixtures under
``tests/data/obs_job_metrics/`` hold those payloads for a small sweep:

* one OO SSTSP ``scenario_trace`` job with a guard-tuned insider whose
  shave exceeds the guard, so ``events.guard_reject|node=*`` and the
  ``guard.reject_excess_us`` histogram appear;
* one ``multihop_run`` job on a 5-node chain.

A change to how the observability hooks are installed or how the
payload is assembled must reproduce them byte for byte.

Regenerate (only legitimate before a behaviour-changing change, with the
old code still in the tree)::

    PYTHONPATH=src:tests python -m test_obs_job_metrics
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from repro.sweep import JobSpec, SweepOptions, run_sweep

FIXTURE_DIR = Path(__file__).parent / "data" / "obs_job_metrics"

SPECS = [
    JobSpec.make(
        "scenario_trace",
        {
            "protocol": "sstsp", "lane": "oo", "scenario": "quick", "n": 10,
            "seed": 5, "duration_s": 6.0, "attack_start_s": 2.0,
            "attack_end_s": 5.0, "attack_shave_us": 400.0,
        },
        root_seed=5,
    ),
    JobSpec.make(
        "multihop_run",
        {"topology": "chain", "n": 5, "duration_s": 4.0},
        root_seed=3,
    ),
]


def _serialize(metrics: object) -> str:
    return json.dumps(metrics, sort_keys=True, indent=1) + "\n"


def sweep_payloads(work_dir: Path) -> Dict[str, str]:
    """Run the pinned sweep; fixture file name -> serialized metrics."""
    log_path = work_dir / "sweep.jsonl"
    run_sweep(
        "obs_pin",
        SPECS,
        SweepOptions(trace_dir=str(work_dir / "traces"), log_path=str(log_path)),
    )
    payloads: Dict[str, str] = {}
    with open(log_path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["event"] == "job_obs":
                name = f"{record['kind']}-{record['hash']}.metrics.json"
            elif record["event"] == "sweep_end":
                name = "sweep_end.metrics.json"
            else:
                continue
            payloads[name] = _serialize(record["metrics"])
    return payloads


def test_job_obs_metrics_match_fixtures(tmp_path):
    payloads = sweep_payloads(tmp_path)
    committed = sorted(path.name for path in FIXTURE_DIR.glob("*.metrics.json"))
    assert sorted(payloads) == committed
    for name in committed:
        assert payloads[name] == (FIXTURE_DIR / name).read_text(encoding="utf-8"), name


def test_fixtures_cover_guard_rejections_and_work():
    attack = json.loads(
        (FIXTURE_DIR / f"scenario_trace-{SPECS[0].spec_hash()[:16]}.metrics.json")
        .read_text(encoding="utf-8")
    )
    counters = attack["counters"]
    assert any(key.startswith("events.guard_reject|node=") for key in counters)
    assert any(key.startswith("work.singlehop/sstsp/") for key in counters)
    assert any(
        key.startswith("guard.reject_excess_us|node=") for key in attack["histograms"]
    )
    assert attack["gauges"] == {}


def regenerate() -> None:
    """Rewrite every fixture from the code in the tree."""
    import tempfile

    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as work_dir:
        payloads = sweep_payloads(Path(work_dir))
    for name in sorted(payloads):
        (FIXTURE_DIR / name).write_text(payloads[name], encoding="utf-8")


if __name__ == "__main__":
    regenerate()
