"""Refactor parity: the protocol-agnostic multi-hop harness vs the
pre-refactor SSTSP runner.

The committed fixtures under ``tests/data/multihop_refactor/`` were
generated by the *pre-refactor* ``multihop/runner.py`` (the monolithic
SSTSP relay loop), immediately before the relay logic moved behind the
multi-hop protocol interface. The refactored SSTSP path must reproduce
them byte-for-byte: identical event traces (every transmission,
reception, guard rejection and election at the same simulated instant)
and identical result payloads (per-hop errors, counters, and the
SHA-256 of every trace array).

Three scenarios pin the distinct code paths:

* ``chain8`` — plain deep-hop relaying (rotation scheduling, guard,
  adjustment);
* ``grid3x3-churn`` — root departure and return through the shared churn
  plumbing (orphan election, reference_change events, re-acquisition);
* ``disk16-thinned`` — random relay thinning (``relay_probability < 1``
  consumes the slot RNG) over a Gilbert-Elliott bursty channel;
* ``chain6-tight-guard`` — a guard window tight enough that timestamp
  jitter trips plausibility rejections (``guard_reject`` events).

Regenerate (only legitimate before a behaviour-changing PR, with the
old code still in the tree)::

    PYTHONPATH=src:tests python -m test_multihop_refactor_parity
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.multihop.runner import MultiHopSpec, run_multihop
from repro.multihop.topology import Topology
from repro.network.churn import REFERENCE_MARKER, ChurnEvent, ChurnSchedule
from repro.obs import observe_run

FIXTURE_DIR = Path(__file__).parent / "data" / "multihop_refactor"


def parity_specs():
    """The pinned scenarios, freshly constructed (specs hold live
    topology objects, so construct per use rather than share)."""
    return {
        "chain8": MultiHopSpec(
            topology=Topology.chain(8), seed=3, duration_s=10.0
        ),
        "grid3x3-churn": MultiHopSpec(
            topology=Topology.grid(3, 3),
            seed=5,
            duration_s=12.0,
            churn=ChurnSchedule(
                (
                    ChurnEvent(40, "leave", (REFERENCE_MARKER,)),
                    ChurnEvent(70, "return", (REFERENCE_MARKER,)),
                )
            ),
        ),
        "disk16-thinned": MultiHopSpec(
            topology=Topology.unit_disk(
                16,
                np.random.default_rng(9),
                area_m=600.0,
                radius_m=260.0,
            ),
            seed=7,
            duration_s=10.0,
            relay_probability=0.7,
            loss_model="gilbert_elliott",
        ),
        "chain6-tight-guard": MultiHopSpec(
            topology=Topology.chain(6),
            seed=11,
            duration_s=8.0,
            timestamp_jitter_us=4.0,
            guard_fine_us=6.0,
            guard_per_hop_us=1.0,
        ),
    }


def _array_sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def result_payload(result) -> dict:
    """A byte-stable JSON payload capturing one run exhaustively.

    Scalars and per-hop errors are serialized with ``repr`` (exact
    float round-trip); the trace arrays are pinned by SHA-256 so the
    fixture stays small while still detecting any single-bit drift in
    any sample of any series.
    """
    trace = result.trace
    return {
        "root": result.root,
        "root_changes": result.root_changes,
        "beacons_sent": result.beacons_sent,
        "collisions_at_receivers": result.collisions_at_receivers,
        "hop_of": {str(k): v for k, v in sorted(result.hop_of.items())},
        "per_hop_error_us": {
            str(hop): repr(value)
            for hop, value in sorted(result.per_hop_error_us.items())
        },
        "steady_state_error_us": repr(trace.steady_state_error_us()),
        "peak_error_us": repr(trace.peak_error_us()),
        "sha256": {
            "times_us": _array_sha(trace.times_us),
            "max_diff_us": _array_sha(trace.max_diff_us),
            "mean_vs_true_us": _array_sha(trace.mean_vs_true_us),
            "present_counts": _array_sha(trace.present_counts),
            "reference_ids": _array_sha(trace.reference_ids),
        },
    }


def run_scenario(name: str, trace_path: str):
    """Run one pinned scenario with event tracing to ``trace_path``."""
    spec = parity_specs()[name]
    with observe_run(trace_path):
        result = run_multihop(spec)
    return result


class TestRefactorParity:
    """Every fixture byte-compares against a fresh run."""

    def _check(self, name: str, tmp_path):
        trace_path = tmp_path / f"{name}.jsonl"
        result = run_scenario(name, str(trace_path))
        golden_trace = (FIXTURE_DIR / f"{name}.trace.jsonl").read_bytes()
        assert trace_path.read_bytes() == golden_trace, (
            f"{name}: refactored multihop SSTSP produced a different event "
            "trace than the pre-refactor runner"
        )
        golden_payload = json.loads(
            (FIXTURE_DIR / f"{name}.result.json").read_text(encoding="utf-8")
        )
        assert result_payload(result) == golden_payload, (
            f"{name}: result payload drifted from the pre-refactor runner"
        )

    def test_chain8(self, tmp_path):
        self._check("chain8", tmp_path)

    def test_grid3x3_churn(self, tmp_path):
        self._check("grid3x3-churn", tmp_path)

    def test_disk16_thinned(self, tmp_path):
        self._check("disk16-thinned", tmp_path)

    def test_chain6_tight_guard(self, tmp_path):
        self._check("chain6-tight-guard", tmp_path)


def regenerate() -> None:
    """Write the fixtures from the code currently in the tree."""
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name in parity_specs():
        trace_path = FIXTURE_DIR / f"{name}.trace.jsonl"
        result = run_scenario(name, str(trace_path))
        payload = result_payload(result)
        (FIXTURE_DIR / f"{name}.result.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {name}: {trace_path}")


if __name__ == "__main__":
    regenerate()
