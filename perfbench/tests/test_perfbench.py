"""Tests that prove the benchmark's output check.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER, LayerTracer  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "data", "shootout_quick", "golden_shootout.csv")

#: One cheap job of every lane: (workload, group function, job key).
SAMPLE = (
    ("ibss_related", "related_groups", "r0/rentel"),
    ("ibss_secure", "secure_groups", "r0"),
    ("paper_fastlane", "fastlane_groups", "r0/table1_m2"),
    ("multihop_spatial", "multihop_groups", "quick/mesh12/sstsp"),
    ("multihop_spatial", "multihop_groups", "r0/grid8x8/beaconless"),
)
SEED = 0


def _job(make_groups: str, key: str, seed: int = SEED):
    for group in getattr(workloads, make_groups)(seed):
        for job in group.jobs:
            if job.key == key:
                return job
    raise KeyError(key)


def _sample_digests_in_fresh_process(hashseed: str) -> dict:
    code = (
        "import json, sys\n"
        f"sys.path[:0] = [{BENCH!r}, {os.path.join(ROOT, 'src')!r}]\n"
        "import checks, workloads\n"
        f"sample = {[(w, b, k) for w, b, k in SAMPLE]!r}\n"
        "out = {}\n"
        "for workload, make_groups, key in sample:\n"
        f"    for group in getattr(workloads, make_groups)({SEED}):\n"
        "        for job in group.jobs:\n"
        "            if job.key == key:\n"
        "                out[workload + ':' + key] = checks.digest(job.execute())\n"
        "print(json.dumps(out))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run(args, cwd=ROOT, timeout=300):
    """The benchmark command as it is run from the root of a checkout."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


def test_digests_repeat_across_processes_and_hash_seeds():
    first = _sample_digests_in_fresh_process("1")
    second = _sample_digests_in_fresh_process("2")
    assert first == second
    assert len(first) == len(SAMPLE)
    for workload, _, key in SAMPLE:
        committed = checks.load_expected(
            checks.digest_path(os.path.join(BENCH, "digests"), workload), SEED
        )
        assert committed[key] == first[f"{workload}:{key}"]


def test_traced_and_untraced_outputs_have_identical_digests():
    plain = {key: checks.digest(_job(b, key).execute()) for _, b, key in SAMPLE}
    with LayerTracer() as tracer:
        traced = {}
        for _, make_groups, key in SAMPLE:
            with tracer.job():
                traced[key] = checks.digest(_job(make_groups, key).execute())
    assert traced == plain
    values = tracer.metrics(overhead=1.0)
    assert set(values) == {name for name, *_ in PER_LAYER}
    # every lane of the sample left spans and counts behind
    for name in ("sim.events", "crypto.hash_ops", "fastlane.run_s",
                 "multihop.collect_s", "sweep.overhead_s"):
        assert values[name] > 0, name
    # self times partition the traced job time
    layer_s = sum(values[name] for name, unit, *_ in PER_LAYER if unit == "s")
    assert layer_s == pytest.approx(tracer.job_seconds(), rel=1e-3)


def test_instruments_are_removed_after_the_traced_run():
    from repro.mac.contention import resolve_contention
    from repro.network import runner
    from repro.sim.engine import Simulator

    run_before = Simulator.__dict__["run"]
    with LayerTracer():
        assert runner.resolve_contention is not resolve_contention
    assert runner.resolve_contention is resolve_contention
    assert Simulator.__dict__["run"] is run_before


def _copy_checkout(dest) -> None:
    """The files a benchmark checkout holds: the benchmark, src, the golden."""
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copytree(os.path.join(ROOT, "src"), dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    golden_dir = dest / "tests" / "data" / "shootout_quick"
    golden_dir.mkdir(parents=True)
    shutil.copyfile(GOLDEN, golden_dir / "golden_shootout.csv")


def _quick_run(cwd=ROOT, seed=SEED):
    """One run of the quick shootout group (the first multihop group)."""
    done = _run(["--workload", "multihop_spatial", "--seed", str(seed),
                 "--seconds", "0.1"], cwd=cwd)
    return done, json.loads(done.stdout.strip().splitlines()[-1])


def test_the_committed_digests_pass():
    done, result = _quick_run()
    assert done.returncode == 0, done.stdout + done.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 12
    assert set(result["metrics"]) == {
        "station_periods_per_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb"
    }
    assert "golden: shootout --quick CSV compared byte for byte" in done.stdout


def test_a_seed_without_digests_runs_contracts_only():
    done, result = _quick_run(seed=987654)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "no committed digests for seed 987654; contracts only" in done.stdout


def test_a_perturbed_expected_digest_fails_the_run(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "digests" / "multihop_spatial.json"
    payload = json.loads(path.read_text())
    key = "quick/chain8/sstsp"
    digests = payload["seeds"][str(SEED)].split()
    digests[payload["keys"].index(key)] = "0" * checks.DIGEST_CHARS
    payload["seeds"][str(SEED)] = " ".join(digests)
    path.write_text(json.dumps(payload))

    done, result = _quick_run(cwd=tmp_path)
    assert done.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 12
    assert f"{key}: output digest" in done.stdout


def test_a_perturbed_golden_csv_fails_the_run(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / "tests" / "data" / "shootout_quick" / "golden_shootout.csv"
    path.write_bytes(path.read_bytes().replace(b"sstsp,chain8,0,3,8,7", b"sstsp,chain8,0,3,8,6"))

    done, result = _quick_run(cwd=tmp_path)
    assert done.returncode == 1
    assert result["correct"] is False and result["failed"] == 12
    assert "golden_shootout.csv" in done.stdout


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = _run(["--workload", "ibss_related", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("make_groups", [
    "related_groups", "secure_groups", "fastlane_groups", "multihop_groups",
])
def test_the_workload_seed_drives_the_generated_specs(make_groups):
    def params(seed):
        return [job.params for g in getattr(workloads, make_groups)(seed) for job in g.jobs]

    assert params(3) == params(3)
    changed = [a != b for a, b in zip(params(3), params(4))]
    # everything but the fixed quick shootout cells follows the seed
    assert sum(changed) >= len(changed) - 12 and any(changed)
