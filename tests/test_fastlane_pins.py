"""Byte pins for both vector lanes.

The statistical parity tests (``tests/test_fastlane.py``) only bound the
vector lanes' curves, so nothing else pins their exact output. Each case
under ``tests/data/fastlane_pins/`` holds, for one small run:

* the SHA-256 of every :class:`~repro.analysis.metrics.SyncTrace` array
  (``values_us`` too when the run keeps the clock matrix);
* the SHA-256 of the churn event log, one line per applied change;
* the scalar results (``successful_beacons``, ``collisions``,
  ``reference_changes``, ``recoveries``);
* the work-counter snapshot.

A refactor of the vector lanes must reproduce every case byte for byte:
same RNG draws in the same order, same events, same clock samples.

The ``sstsp-attack`` case runs a 600 us/BP insider against a 300 us fine
guard with ``recovery_rejection_threshold=2``, so the lane's recovery
path (persistent guard rejections send a node back to coarse
re-acquisition) fires. ``sstsp-quiet`` runs without jitter or loss: no
loss coin is drawn, yet the zero-width jitter still takes n doubles per
beacon. ``tsf-rxloss`` flips a per-receiver coin at PER 0.2 under paper
churn for 350 s, so coins and jitter interleave on the channel stream
over many draws.

Regenerate (only legitimate before a behaviour-changing change, with the
old code still in the tree)::

    PYTHONPATH=src:tests python -m test_fastlane_pins
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.experiments.scenarios import quick_spec
from repro.fastlane import run_sstsp_vectorized, run_tsf_vectorized
from repro.network.ibss import AttackerSpec, ScenarioSpec
from repro.obs.counters import count_work
from repro.phy.params import PhyParams

FIXTURE_DIR = Path(__file__).parent / "data" / "fastlane_pins"

_PLAIN = ScenarioSpec(n=30, seed=5, duration_s=30.0)
_CHURN = ScenarioSpec(n=30, seed=5, duration_s=350.0, churn="paper")
_ATTACK = quick_spec(
    30, seed=5, duration_s=30.0,
    attacker=AttackerSpec(10.0, 20.0, shave_per_period_us=600.0),
)
_LOSS = ScenarioSpec(
    n=30, seed=5, duration_s=30.0,
    phy=PhyParams(loss_model="per_transmission", packet_error_rate=0.05),
)
_VALUES = ScenarioSpec(n=30, seed=5, duration_s=30.0, initial_offset_us=112.0)
# no loss coins, but a zero-width jitter still takes n doubles per beacon
_QUIET = ScenarioSpec(
    n=30, seed=5, duration_s=30.0,
    phy=PhyParams(timestamp_jitter_us=0.0, packet_error_rate=0.0),
)
# per-receiver coins and jitter interleave on the channel stream under churn
_RXLOSS = ScenarioSpec(
    n=30, seed=5, duration_s=350.0, churn="paper",
    phy=PhyParams(loss_model="per_receiver", packet_error_rate=0.2),
)

#: case name -> zero-argument run returning the lane's result
CASES: Dict[str, Callable[[], object]] = {
    "tsf-plain": lambda: run_tsf_vectorized(_PLAIN),
    "tsf-churn": lambda: run_tsf_vectorized(_CHURN),
    "tsf-attack": lambda: run_tsf_vectorized(_ATTACK),
    "tsf-loss": lambda: run_tsf_vectorized(_LOSS),
    "tsf-values": lambda: run_tsf_vectorized(_VALUES, keep_values=True),
    "tsf-rxloss": lambda: run_tsf_vectorized(_RXLOSS),
    "sstsp-plain": lambda: run_sstsp_vectorized(_PLAIN),
    "sstsp-churn": lambda: run_sstsp_vectorized(_CHURN),
    "sstsp-attack": lambda: run_sstsp_vectorized(
        _ATTACK,
        _ATTACK.sstsp_config(guard_fine_us=300.0, recovery_rejection_threshold=2),
    ),
    "sstsp-loss": lambda: run_sstsp_vectorized(_LOSS),
    "sstsp-quiet": lambda: run_sstsp_vectorized(_QUIET),
    "sstsp-values": lambda: run_sstsp_vectorized(_VALUES, keep_values=True),
}

_TRACE_ARRAYS = (
    "times_us",
    "max_diff_us",
    "mean_vs_true_us",
    "present_counts",
    "reference_ids",
    "values_us",
)
_SCALARS = ("successful_beacons", "collisions", "reference_changes", "recoveries")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str) -> dict:
    """Run one case under the work counters and digest everything it gives."""
    with count_work() as work:
        result = CASES[name]()
    trace = result.trace
    return {
        "trace": {
            field: _sha(np.ascontiguousarray(getattr(trace, field)).tobytes())
            for field in _TRACE_ARRAYS
            if getattr(trace, field) is not None
        },
        "events": _sha("\n".join(result.events).encode()),
        "results": {
            key: getattr(result, key) for key in _SCALARS if hasattr(result, key)
        },
        "counters": work.snapshot(),
    }


def _dump(pin: dict) -> str:
    return json.dumps(pin, sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_vector_case_matches_pin(name):
    committed = (FIXTURE_DIR / f"{name}.json").read_text()
    assert _dump(run_case(name)) == committed


def test_recovery_case_recovers():
    # the pin only means something if the recovery path actually ran
    pin = json.loads((FIXTURE_DIR / "sstsp-attack.json").read_text())
    assert pin["results"]["recoveries"] > 0


def regenerate() -> None:
    """Rewrite every fixture from the code in the tree."""
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        (FIXTURE_DIR / f"{name}.json").write_text(_dump(run_case(name)))


if __name__ == "__main__":
    regenerate()
