"""Station-periods per second of the multi-hop harness against network size.

Runs SSTSP relaying on square grids of about 1k and 10k stations (and
any other sizes given) for 20 simulated seconds each, one run per size
in this one process, and prints one line per size: stations, beacon
periods, setup and run host seconds, station-periods per second of the
run, peak resident memory so far, and, read from the relay table after
the run, how many present stations are synchronized (``synced``) and the
deepest relay hop (``max_hop``)::

    PYTHONPATH=src python benchmarks/scaling_multihop.py            # 1k, 10k
    PYTHONPATH=src python benchmarks/scaling_multihop.py 32 100 316  # sides

Arguments are grid sides (a side of 100 is a 100 x 100 grid). Not a
test: the numbers are host timings. Station-periods count every
station, synchronized or idle, so read the rate next to ``synced``.
"""

from __future__ import annotations

import resource
import sys
import time

from repro.multihop.runner import MultiHopRunner, MultiHopSpec
from repro.multihop.topology import Topology

DURATION_S = 20.0


def main(argv) -> None:
    sides = [int(arg) for arg in argv] or [32, 100]
    print(
        "stations  periods  setup_s  run_s  station_periods_per_s  peak_rss_mb"
        "  synced  max_hop"
    )
    for side in sides:
        start = time.perf_counter()
        spec = MultiHopSpec(
            topology=Topology.grid(side, side), seed=1, duration_s=DURATION_S
        )
        runner = MultiHopRunner(spec)
        built = time.perf_counter()
        runner.run()
        done = time.perf_counter()
        n = spec.topology.n
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        table = runner.table
        hops = table.hop[table.present & (table.hop >= 0)]
        print(
            f"{n:8d}  {spec.periods:7d}  {built - start:7.2f}  {done - built:5.1f}"
            f"  {n * spec.periods / (done - built):21.0f}  {rss:11.0f}"
            f"  {len(hops):6d}  {int(hops.max(initial=0)):7d}",
            flush=True,
        )


if __name__ == "__main__":
    main(sys.argv[1:])
