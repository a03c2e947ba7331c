"""Extension bench: the multi-hop protocol shootout.

Runs the shootout grid (every registered multi-hop protocol x a reduced
scenario pair) through the sweep orchestrator — the same lane as
``python -m repro shootout`` — and checks the head-to-head contract:
every scheme synchronizes the chain, the beaconless duty cycle is the
cheapest on air, cooperative flooding is the most expensive, and the
paper's SSTSP carries the largest (authenticated) frames.
"""

from __future__ import annotations

from dataclasses import replace

from conftest import measure_work, paper_rows

from repro.experiments import shootout

#: Reduced-but-shape-preserving grid: the worst-case chain and a lattice.
SCENARIOS = (
    {"name": "chain8", "topology": "chain", "n": 8,
     "duration_s": 15.0, "seed": 3},
    {"name": "grid4x4", "topology": "grid", "rows": 4, "cols": 4,
     "duration_s": 15.0, "seed": 3},
)


def _run_suite(sweep):
    return shootout.run(scenarios=SCENARIOS, sweep=sweep)


def test_shootout_suite(benchmark, sweep_options):
    rows = benchmark.pedantic(
        _run_suite, args=(sweep_options,), rounds=1, iterations=1
    )
    # Counters live in the process that runs the kernels, so the work
    # measurement pins workers=1; the tally is identical at any worker
    # count anyway (the any-worker-count determinism contract).
    measure_work(benchmark, _run_suite, replace(sweep_options, workers=1))

    by_cell = {(r["protocol"], r["scenario"]): r for r in rows}
    assert len(by_cell) == 6  # 3 protocols x 2 scenarios

    # every scheme synchronizes the whole chain to its deepest hop
    for protocol in ("sstsp", "beaconless", "coop"):
        cell = by_cell[(protocol, "chain8")]
        assert cell["max_hop"] == 7
        assert cell["final_present"] == 8
        assert cell["steady_state_error_us"] < 1_000.0  # inside 1% of a BP

    # overhead ordering: duty-cycled beaconless cheapest on air,
    # every-period cooperative flooding the most beacons
    for scenario in ("chain8", "grid4x4"):
        sstsp = by_cell[("sstsp", scenario)]
        beaconless = by_cell[("beaconless", scenario)]
        coop = by_cell[("coop", scenario)]
        assert beaconless["bytes_on_air"] < sstsp["bytes_on_air"]
        assert coop["beacons_sent"] > sstsp["beacons_sent"]

    # frame economics come from the protocols, not a shared constant
    assert by_cell[("sstsp", "chain8")]["beacon_bytes"] == 92
    assert by_cell[("beaconless", "chain8")]["beacon_bytes"] < 92
    assert by_cell[("coop", "chain8")]["beacon_bytes"] < 92

    paper_rows(
        benchmark,
        "shootout: steady error / bytes on air (chain8)",
        [
            f"{p}: {by_cell[(p, 'chain8')]['steady_state_error_us']:.1f}us, "
            f"{by_cell[(p, 'chain8')]['bytes_on_air']} B"
            for p in ("sstsp", "beaconless", "coop")
        ],
    )
