"""Work-counter pins for the OO single-hop lane.

The BENCH_10 work counters cover the fastlane and multi-hop lanes only,
so nothing else pins how much work ``NetworkRunner`` does. The committed
fixtures under ``tests/data/oo_counters/`` hold the work-counter tally of
small ``scenario_trace`` jobs on ``lane=oo``, in the byte-stable format
``repro profile run`` writes, plus the SHA-256 of each job's trace
arrays. A runner optimisation must reproduce both byte for byte: same
RNG draws (``phy.ts_jitter_draw`` counts every jitter sample, batched or
not), same events, same clock samples.

The ``sstsp-full-attack`` case runs the same attack scenario on the
full-crypto backend (real hash chains and HMACs), built directly through
``ibss.build_network`` because ``scenario_trace`` has no crypto param; it
pins the per-station ``crypto.*`` counters, which count what each
receiver would compute whether or not the backend shares the host work.
The ``atsp``, ``tatsp``, ``satsf`` and ``rentel`` cases are built the
same way (``scenario_trace`` runs only TSF and SSTSP), so every
TSF-family config class is pinned on this lane; ``tsf-attack`` pins the
channel attacker's insertion.

Any ``scenario_trace`` case can be re-profiled from the command line and
compared with ``repro profile diff``::

    python -m repro profile run scenario_trace --param protocol=tsf \\
        --param lane=oo --param scenario=quick --param n=20 \\
        --param seed=5 --param duration_s=10.0
    python -m repro profile diff \\
        tests/data/oo_counters/tsf.counters.json \\
        results/profile/scenario_trace-<hash>.counters.json

Regenerate (only legitimate before a behaviour-changing change, with the
old code still in the tree)::

    PYTHONPATH=src:tests python -m test_oo_counters
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.experiments.scenarios import quick_spec
from repro.network import ibss
from repro.network.ibss import AttackerSpec
from repro.obs.counters import count_work, write_counts_json
from repro.sweep.jobs import execute_job
from repro.sweep.spec import JobSpec

FIXTURE_DIR = Path(__file__).parent / "data" / "oo_counters"
TRACE_DIGESTS = FIXTURE_DIR / "traces.json"

_BASE = {"lane": "oo", "scenario": "quick", "n": 20, "seed": 5, "duration_s": 10.0}


def _scenario_trace(**params: object) -> Callable[[], object]:
    spec = JobSpec.make("scenario_trace", dict(_BASE, **params))
    return lambda: execute_job(spec)["trace"]


def _full_crypto_attack() -> object:
    spec = quick_spec(
        20, seed=5, duration_s=10.0, attacker=AttackerSpec(3.0, 7.0)
    )
    return ibss.build_network("sstsp", spec, crypto="full").run().trace


def _built(protocol: str) -> Callable[[], object]:
    spec = quick_spec(20, seed=5, duration_s=10.0)
    return lambda: ibss.build_network(protocol, spec).run().trace


#: case name -> zero-argument run returning the job's trace
CASES: Dict[str, Callable[[], object]] = {
    "tsf": _scenario_trace(protocol="tsf"),
    "tsf-attack": _scenario_trace(
        protocol="tsf", attack_start_s=3.0, attack_end_s=7.0
    ),
    "atsp": _built("atsp"),
    "tatsp": _built("tatsp"),
    "satsf": _built("satsf"),
    "rentel": _built("rentel"),
    "sstsp": _scenario_trace(protocol="sstsp"),
    # A guard-tuned insider mid-run: attacker receptions and an excluded
    # metric station go through the same fan-out.
    "sstsp-attack": _scenario_trace(
        protocol="sstsp", attack_start_s=3.0, attack_end_s=7.0
    ),
    "sstsp-full-attack": _full_crypto_attack,
}


def _trace_sha(trace) -> str:
    digest = hashlib.sha256()
    for array in (
        trace.times_us,
        trace.max_diff_us,
        trace.mean_vs_true_us,
        trace.present_counts,
        trace.reference_ids,
    ):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def run_case(name: str):
    """Run one case under the work counters: ``(counts, trace_sha)``."""
    with count_work() as work:
        trace = CASES[name]()
    return work.snapshot(), _trace_sha(trace)


@pytest.mark.parametrize("name", sorted(CASES))
def test_oo_case_matches_fixture(name, tmp_path):
    counts, sha = run_case(name)
    fresh = write_counts_json(str(tmp_path / f"{name}.counters.json"), counts)
    committed = FIXTURE_DIR / f"{name}.counters.json"
    assert Path(fresh).read_bytes() == committed.read_bytes()
    assert sha == json.loads(TRACE_DIGESTS.read_text())[name]


def regenerate() -> None:
    """Rewrite every fixture from the code in the tree."""
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in sorted(CASES):
        counts, digests[name] = run_case(name)
        write_counts_json(str(FIXTURE_DIR / f"{name}.counters.json"), counts)
    TRACE_DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
