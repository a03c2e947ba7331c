"""Byte pin for one hardened chaos soak on the OO single-hop lane.

The chaos subcommand checks its invariants (bounded tail error, prompt
re-election, no exception), not its exact output, and the other OO pins
(``tests/test_oo_counters.py``) run the default, unhardened config. So
nothing else pins the hardened OO path: coarse-silence watchdog,
recovery after persistent guard rejections, the free-run pace clamp and
the pace clamp of a new reference.

The case is chaos plan 1 at master seed 11 (12 stations, 300 periods,
Gilbert-Elliott burst loss): a reference crash, a partition, two stalls
and a clock jump. It makes 3 free-run clamps, 1 recovery and 5
reference takeovers. ``tests/data/chaos_pins/plan11-1.json`` holds the
SHA-256 of every trace array and of the event log, and the per-node
:class:`~repro.core.sstsp.SstspStats` summed over all stations.

Regenerate (only legitimate before a behaviour-changing change, with the
old code still in the tree)::

    PYTHONPATH=src:tests python -m test_chaos_pins
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict

import numpy as np

from repro.experiments.chaos import ChaosLimits, build_chaos_runner
from repro.faults import random_plan

FIXTURE = Path(__file__).parent / "data" / "chaos_pins" / "plan11-1.json"

_INDEX, _MASTER_SEED, _N, _PERIODS = 1, 11, 12, 300

_TRACE_ARRAYS = (
    "times_us",
    "max_diff_us",
    "mean_vs_true_us",
    "present_counts",
    "reference_ids",
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case() -> dict:
    """Run the plan exactly as ``chaos.run_plan`` does and digest it."""
    rng = np.random.default_rng([_MASTER_SEED, _INDEX])
    plan = random_plan(
        rng,
        periods=_PERIODS,
        node_ids=list(range(_N)),
        first_period=40,
        last_period=_PERIODS - ChaosLimits().tail_periods,
        name=f"chaos-{_MASTER_SEED}-{_INDEX}",
        seed=_MASTER_SEED,
    )
    runner = build_chaos_runner(
        plan,
        n=_N,
        periods=_PERIODS,
        seed=_MASTER_SEED * 10_007 + _INDEX,
        gilbert_elliott=True,
    )
    result = runner.run()
    stats: Dict[str, object] = {}
    for node in runner.nodes:
        for key, value in dataclasses.asdict(node.protocol.stats).items():
            if isinstance(value, dict):
                merged = stats.setdefault(key, {})
                for reason, count in value.items():
                    merged[reason] = merged.get(reason, 0) + count
            else:
                stats[key] = stats.get(key, 0) + value
    trace = result.trace
    return {
        "trace": {
            field: _sha(np.ascontiguousarray(getattr(trace, field)).tobytes())
            for field in _TRACE_ARRAYS
        },
        "events": _sha("\n".join(result.events).encode()),
        "successful_beacons": result.successful_beacons,
        "stats": stats,
    }


def _dump(pin: dict) -> str:
    return json.dumps(pin, sort_keys=True, indent=1) + "\n"


def test_hardened_chaos_run_matches_pin():
    assert _dump(run_case()) == FIXTURE.read_text()


def test_pin_exercises_the_pace_clamps():
    # the pin only means something if the clamp paths actually ran
    stats = json.loads(FIXTURE.read_text())["stats"]
    assert stats["free_run_clamps"] > 0
    assert stats["recoveries"] > 0
    assert stats["became_reference"] > 1


def regenerate() -> None:
    """Rewrite the fixture from the code in the tree."""
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(_dump(run_case()))


if __name__ == "__main__":
    regenerate()
