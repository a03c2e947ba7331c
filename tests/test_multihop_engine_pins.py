"""Digest pins of the spatial multi-hop engine across its code paths.

``tests/data/multihop_refactor/`` pins the SSTSP relay on quiet channels
and ``tests/data/multihop_counters/`` pins the competitors on one disk
and SSTSP under every channel effect. The cases here widen that net to
every registered protocol on chains, grids and unit disks up to 120
stations, plus the paths the others miss: relay thinning
(``relay_probability=0.5``, which interleaves the thinning and backoff
draws), reference churn, crashes, clock faults (``freq_step``,
``freq_ramp``, ``clock_jump``), partition/jam/loss-burst/stall faults on
the competitors, per-transmission and Gilbert-Elliott loss, a
jitter-free lossless mesh (no jitter or loss draws at all) and periods in
which only the root decodes a frame.

Each case records, from one run under work counters and event tracing:

* the work-counter tally;
* SHA-256 of the event trace, of the sync-trace arrays and of the
  result payload, plus the channel's running counters;
* SHA-256 of every station's final relay state (hop, upstream, silence
  streak, adjustment count) and its whole adjusted-clock segment
  history, which ``audit_no_leaps`` reads.

A rewrite of the harness, the MAC, the spatial channel or the
estimators must reproduce every entry byte for byte. A hypothesis test
below checks the draw identity such a rewrite leans on: a batch of
backoff slots or timestamp jitter equals the same draws made one at a
time.

Regenerate (only legitimate before a behaviour-changing change, with the
old code still in the tree)::

    PYTHONPATH=src python -m tests.test_multihop_engine_pins
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.multihop.runner import MultiHopRunner, MultiHopSpec
from repro.multihop.topology import Topology
from repro.network.churn import REFERENCE_MARKER, ChurnEvent, ChurnSchedule
from repro.obs import observe_run
from repro.obs.counters import count_work

from tests.test_multihop_counters import _digest, _sha

FIXTURE = Path(__file__).parent / "data" / "multihop_engine" / "digests.json"


def _disk(n: int, seed: int) -> Topology:
    return Topology.unit_disk(
        n, np.random.default_rng(seed), area_m=1_200.0, radius_m=260.0
    )


def _runner(topology: Topology, protocol: str, seed: int, **kw) -> MultiHopRunner:
    return MultiHopRunner(
        MultiHopSpec(
            topology=topology, seed=seed, protocol=protocol,
            duration_s=kw.pop("duration_s", 8.0), **kw,
        )
    )


def _with_faults(runner: MultiHopRunner, *faults: FaultSpec) -> MultiHopRunner:
    runner.attach_injector(FaultInjector(FaultPlan(faults)))
    return runner


def _churned_coop() -> MultiHopRunner:
    churn = ChurnSchedule(
        (
            ChurnEvent(25, "leave", (REFERENCE_MARKER,)),
            ChurnEvent(31, "leave", (7,)),
            ChurnEvent(45, "return", (REFERENCE_MARKER,)),
            ChurnEvent(52, "return", (7,)),
        )
    )
    runner = _runner(
        Topology.grid(5, 5), "coop", 21, duration_s=10.0, churn=churn
    )
    return _with_faults(
        runner,
        FaultSpec("freq_step", 15, node_id=12, magnitude=60.0),
        FaultSpec("freq_ramp", 18, 10, node_id=3, magnitude=-40.0),
        FaultSpec("clock_jump", 60, node_id=16, magnitude=-35.0),
        FaultSpec("crash", 70, 8, node_id=REFERENCE_MARKER),
    )


def _elections() -> MultiHopRunner:
    churn = ChurnSchedule(
        (
            ChurnEvent(20, "leave", (REFERENCE_MARKER,)),
            ChurnEvent(60, "return", (0,)),
        )
    )
    runner = _runner(
        Topology.grid(4, 4), "sstsp", 19, duration_s=12.0, churn=churn
    )
    return _with_faults(
        runner,
        FaultSpec("crash", 80, 10, node_id=REFERENCE_MARKER),
        FaultSpec("freq_step", 30, node_id=REFERENCE_MARKER, magnitude=90.0),
    )


def _faulted(protocol: str, loss_model: str, seed: int) -> MultiHopRunner:
    runner = _runner(
        Topology.grid(5, 5), protocol, seed, duration_s=10.0,
        packet_error_rate=0.05, loss_model=loss_model,
    )
    _with_faults(
        runner,
        FaultSpec("partition", 20, 8, magnitude=0.4),
        FaultSpec("jam", 34, 3),
        FaultSpec("loss_burst", 44, 6, magnitude=0.4),
        FaultSpec("stall", 56, 4, node_id=9),
        FaultSpec("freq_step", 62, node_id=11, magnitude=-80.0),
    )
    bp = runner.spec.beacon_period_us
    runner.channel.add_jam_window(64 * bp, 70 * bp, receivers=(2, 3, 7))
    runner.channel.set_link_per(0, 1, 0.0)
    runner.channel.set_link_per(1, 6, 0.5)
    runner.channel.set_link_per(6, 11, 1.0)
    return runner


#: case name -> zero-argument runner factory
CASES: Dict[str, Callable[[], MultiHopRunner]] = {
    "chain12-sstsp": lambda: _runner(Topology.chain(12), "sstsp", 3, duration_s=10.0),
    "grid6x6-sstsp-tight-guard": lambda: _runner(
        Topology.grid(6, 6), "sstsp", 4, timestamp_jitter_us=4.0,
        guard_fine_us=8.0, guard_per_hop_us=2.0,
    ),
    "disk120-sstsp": lambda: _runner(_disk(120, 5), "sstsp", 5, duration_s=6.0),
    "grid5x5-sstsp-thinned-per-tx": lambda: _runner(
        Topology.grid(5, 5), "sstsp", 8, duration_s=10.0,
        relay_probability=0.5, packet_error_rate=0.05,
        loss_model="per_transmission",
    ),
    "grid4x4-sstsp-elections": _elections,
    "chain10-beaconless": lambda: _runner(Topology.chain(10), "beaconless", 6),
    "grid6x6-beaconless": lambda: _runner(Topology.grid(6, 6), "beaconless", 7),
    "disk120-beaconless": lambda: _runner(
        _disk(120, 9), "beaconless", 9, duration_s=6.0
    ),
    "chain8-beaconless-thinned": lambda: _runner(
        Topology.chain(8), "beaconless", 10, duration_s=10.0,
        relay_probability=0.5,
    ),
    "grid5x5-beaconless-faulted-ge": lambda: _faulted(
        "beaconless", "gilbert_elliott", 11
    ),
    "mesh6-beaconless-clean": lambda: _runner(
        Topology.full_mesh(6), "beaconless", 12, timestamp_jitter_us=0.0,
        packet_error_rate=0.0,
    ),
    "chain10-coop": lambda: _runner(Topology.chain(10), "coop", 13),
    "grid6x6-coop": lambda: _runner(Topology.grid(6, 6), "coop", 14),
    "disk120-coop": lambda: _runner(_disk(120, 15), "coop", 15, duration_s=6.0),
    "grid5x5-coop-churn-clock-faults": _churned_coop,
    "grid5x5-coop-faulted": lambda: _faulted("coop", "per_receiver", 17),
    # the middle root's own frame lost whole: only the root decodes
    "chain3-coop-root-only-receptions": lambda: _runner(
        Topology.chain(3), "coop", 880, duration_s=10.0, root=1,
        loss_model="per_transmission", packet_error_rate=0.05,
    ),
}


def _stations(runner: MultiHopRunner) -> str:
    """SHA-256 of every station's final relay state and clock history."""
    rows = []
    for node in runner.nodes:
        state = node.protocol
        rows.append(
            [
                node.node_id,
                node.present,
                state.hop,
                state.upstream,
                state.silent,
                state.adjustments,
                [
                    [repr(segment.start), repr(segment.k), repr(segment.b)]
                    for segment in state.clock.segments
                ],
            ]
        )
    return _sha(json.dumps(rows).encode())


def run_case(name: str, trace_path: Path) -> dict:
    runner = CASES[name]()
    with count_work() as work, observe_run(str(trace_path)):
        result = runner.run()
    record = _digest(runner, result, trace_path.read_bytes())
    record["counters"] = dict(sorted(work.snapshot().items()))
    record["stations_sha256"] = _stations(runner)
    return record


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_case_matches_pin(name, tmp_path):
    pinned = json.loads(FIXTURE.read_text())[name]
    assert run_case(name, tmp_path / f"{name}.jsonl") == pinned


def test_every_case_is_pinned():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CASES)


def regenerate() -> None:
    """Rewrite the fixture from the code in the tree."""
    import tempfile

    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: run_case(name, Path(tmp) / "t.jsonl") for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(pins, sort_keys=True, indent=1) + "\n")



@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batches=st.lists(
        st.tuples(
            st.integers(1, 20),
            st.integers(0, 40),
            st.sampled_from([0.0, 2.0, 4.5]),
            st.integers(0, 40),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_batched_draws_match_scalar_draws(seed, batches):
    """The engine draws a period's backoff slots with one
    ``integers(0, R, size=k)`` call and its timestamp jitter with one
    ``uniform(-j, j, size=k)`` call; the per-station drivers drew them
    one at a time. Both must give the same values and leave the
    generators in the same state."""
    slots_a, slots_b = np.random.default_rng(seed), np.random.default_rng(seed)
    chan_a, chan_b = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for backoff_range, k, jitter, receptions in batches:
        batched = slots_a.integers(0, backoff_range, size=k).tolist()
        scalar = [int(slots_b.integers(0, backoff_range)) for _ in range(k)]
        assert batched == scalar
        if jitter:
            at_once = chan_a.uniform(-jitter, jitter, size=receptions).tolist()
            one_by_one = [
                -jitter + (jitter + jitter) * chan_b.random()
                for _ in range(receptions)
            ]
            assert at_once == one_by_one
    assert slots_a.bit_generator.state == slots_b.bit_generator.state
    assert chan_a.bit_generator.state == chan_b.bit_generator.state


if __name__ == "__main__":
    regenerate()
