"""Work-counter and digest pins for the spatial multi-hop lane.

``tests/data/multihop_refactor/`` pins the SSTSP relay path on quiet
channels. The committed fixtures under ``tests/data/multihop_counters/``
cover what it does not: the two related-work competitors
(``beaconless`` and ``coop``) on a dense unit disk, and SSTSP under
every spatial channel effect at once — a partition, a stall, a global
jam, a receiver-scoped jam, per-link error overrides at 0, 0.5 and 1,
and a ``loss_burst`` override — once on the per-receiver loss model and
once on Gilbert-Elliott.

Each case holds the work-counter tally of the run, in the byte-stable
format ``repro profile run`` writes, and one digest record: SHA-256 of
the event trace, of the sync-trace arrays and of the result payload,
plus the channel's running counters. A hot-path optimisation of the
multi-hop harness, the spatial channel or the protocols must reproduce
all of them byte for byte: same RNG draws in the same order, same
events, same clock samples.

Regenerate (only legitimate before a behaviour-changing change, with the
old code still in the tree)::

    PYTHONPATH=src:tests python -m test_multihop_counters
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.multihop.runner import MultiHopRunner, MultiHopSpec
from repro.multihop.topology import Topology
from repro.obs import observe_run
from repro.obs.counters import count_work, write_counts_json

FIXTURE_DIR = Path(__file__).parent / "data" / "multihop_counters"
DIGESTS = FIXTURE_DIR / "digests.json"


def _disk(protocol: str) -> MultiHopRunner:
    topology = Topology.unit_disk(
        24, np.random.default_rng(4), area_m=700.0, radius_m=240.0
    )
    return MultiHopRunner(
        MultiHopSpec(
            topology=topology, seed=6, duration_s=8.0, protocol=protocol
        )
    )


def _faulted(loss_model: str) -> MultiHopRunner:
    spec = MultiHopSpec(
        topology=Topology.grid(4, 4),
        seed=13,
        duration_s=10.0,
        packet_error_rate=0.05,
        loss_model=loss_model,
    )
    runner = MultiHopRunner(spec)
    runner.attach_injector(
        FaultInjector(
            FaultPlan(
                (
                    FaultSpec("partition", 20, 8, magnitude=0.5),
                    FaultSpec("jam", 34, 3),
                    FaultSpec("loss_burst", 44, 6, magnitude=0.4),
                    FaultSpec("stall", 56, 4, node_id=9),
                )
            )
        )
    )
    bp = spec.beacon_period_us
    runner.channel.add_jam_window(64 * bp, 70 * bp, receivers=(2, 3, 7))
    runner.channel.set_link_per(0, 1, 0.0)
    runner.channel.set_link_per(1, 5, 0.5)
    runner.channel.set_link_per(5, 1, 0.5)
    runner.channel.set_link_per(5, 6, 1.0)
    return runner


#: case name -> zero-argument runner factory
CASES: Dict[str, Callable[[], MultiHopRunner]] = {
    "beaconless": lambda: _disk("beaconless"),
    "coop": lambda: _disk("coop"),
    "sstsp-faulted": lambda: _faulted("per_receiver"),
    "sstsp-faulted-ge": lambda: _faulted("gilbert_elliott"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(runner: MultiHopRunner, result, events: bytes) -> dict:
    trace = result.trace
    arrays = b"".join(
        np.ascontiguousarray(array).tobytes()
        for array in (
            trace.times_us,
            trace.max_diff_us,
            trace.mean_vs_true_us,
            trace.present_counts,
            trace.reference_ids,
        )
    )
    payload = {
        "root": result.root,
        "root_changes": result.root_changes,
        "beacons_sent": result.beacons_sent,
        "collisions_at_receivers": result.collisions_at_receivers,
        "hop_of": sorted(result.hop_of.items()),
        "per_hop_error_us": [
            (hop, repr(value))
            for hop, value in sorted(result.per_hop_error_us.items())
        ],
    }
    return {
        "channel_stats": dataclasses.asdict(runner.channel.stats),
        "events_sha256": _sha(events),
        "result_sha256": _sha(json.dumps(payload).encode()),
        "trace_sha256": _sha(arrays),
    }


def run_case(name: str, trace_path: Path):
    """Run one case under work counters and event tracing:
    ``(counts, digest)``."""
    runner = CASES[name]()
    with count_work() as work, observe_run(str(trace_path)):
        result = runner.run()
    return work.snapshot(), _digest(runner, result, trace_path.read_bytes())


@pytest.mark.parametrize("name", sorted(CASES))
def test_multihop_case_matches_fixture(name, tmp_path):
    counts, digest = run_case(name, tmp_path / f"{name}.jsonl")
    fresh = write_counts_json(str(tmp_path / f"{name}.counters.json"), counts)
    committed = FIXTURE_DIR / f"{name}.counters.json"
    assert Path(fresh).read_bytes() == committed.read_bytes()
    assert digest == json.loads(DIGESTS.read_text())[name]


def regenerate() -> None:
    """Rewrite every fixture from the code in the tree."""
    import tempfile

    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            counts, digests[name] = run_case(name, Path(tmp) / "t.jsonl")
            write_counts_json(
                str(FIXTURE_DIR / f"{name}.counters.json"), counts
            )
    DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
