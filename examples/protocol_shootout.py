#!/usr/bin/env python
"""Protocol shootout: every synchronization scheme in the library, head to
head on the same network.

Runs TSF, ATSP, TATSP, SATSF, the Rentel-Kunz controlled-clock scheme and
SSTSP on identical clock populations and channel conditions, then ranks
them by steady-state accuracy and reports beacon-traffic statistics - the
related-work comparison of the paper's section 2 as a runnable table.

A second table takes the comparison multi-hop: every registered
multi-hop protocol (SSTSP relaying, Huan-style beaconless dissemination,
Hu-Servetto-style cooperative averaging) on the same 4x4 grid topology -
the standing shootout of ``python -m repro shootout``, in miniature.

Run:  python examples/protocol_shootout.py [n_nodes] [duration_s]
"""

import sys

from repro.multihop import MultiHopSpec, Topology
from repro.multihop.runner import run_multihop
from repro.network.ibss import ScenarioSpec, build_network
from repro.protocols.multihop_base import (
    available_multihop_protocols,
    resolve_multihop_protocol,
)

PROTOCOLS = ("tsf", "atsp", "tatsp", "satsf", "rentel", "sstsp")


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    duration = float(sys.argv[2]) if len(sys.argv) > 2 else 40.0
    spec = ScenarioSpec(n=n, seed=11, duration_s=duration)

    print(f"shootout: {n} stations, {duration:.0f} s, +-100 ppm oscillators, "
          "identical seeds\n")
    rows = []
    for name in PROTOCOLS:
        result = build_network(name, spec).run()
        trace = result.trace
        stats = result.channel.stats
        rows.append(
            (
                name,
                trace.steady_state_error_us(),
                trace.peak_error_us(),
                result.successful_beacons,
                stats.collisions,
                stats.bytes_on_air,
            )
        )

    rows.sort(key=lambda r: r[1])
    header = (f"{'protocol':<8} {'steady (us)':>12} {'peak (us)':>10} "
              f"{'beacons':>8} {'collisions':>10} {'bytes on air':>13}")
    print(header)
    print("-" * len(header))
    for name, steady, peak, beacons, collisions, bytes_on_air in rows:
        print(f"{name:<8} {steady:>12.2f} {peak:>10.1f} {beacons:>8} "
              f"{collisions:>10} {bytes_on_air:>13}")

    best = rows[0][0]
    tsf_steady = next(r[1] for r in rows if r[0] == "tsf")
    best_steady = rows[0][1]
    print(f"\nwinner: {best} "
          f"({tsf_steady / best_steady:.0f}x tighter than plain TSF)")
    print("note: ATSP/TATSP/SATSF narrow TSF's gap by prioritising fast "
          "stations; SSTSP removes the contention from the steady state "
          "entirely (the paper's design argument, section 3.1)")

    print("\nmulti-hop shootout: 4x4 grid, same seeds, every registered "
          "multi-hop protocol\n")
    mh_rows = []
    for name in available_multihop_protocols():
        spec_mh = MultiHopSpec(
            topology=Topology.grid(4, 4), seed=11,
            duration_s=min(duration, 20.0), protocol=name,
        )
        result = run_multihop(spec_mh)
        per_hop = result.per_hop_error_us
        deepest = per_hop[max(per_hop)] if per_hop else float("nan")
        mh_rows.append(
            (
                name,
                result.trace.steady_state_error_us(),
                deepest,
                result.beacons_sent,
                result.beacons_sent
                * resolve_multihop_protocol(name).beacon_bytes,
            )
        )
    mh_rows.sort(key=lambda r: r[1])
    header = (f"{'protocol':<10} {'steady (us)':>12} {'deepest hop (us)':>17} "
              f"{'beacons':>8} {'bytes on air':>13}")
    print(header)
    print("-" * len(header))
    for name, steady, deepest, beacons, bytes_on_air in mh_rows:
        print(f"{name:<10} {steady:>12.2f} {deepest:>17.2f} {beacons:>8} "
              f"{bytes_on_air:>13}")
    print("\nnote: the full scenario suite with seed replicas and CIs is "
          "`python -m repro shootout` / `python -m repro analyze shootout`")


if __name__ == "__main__":
    main()
