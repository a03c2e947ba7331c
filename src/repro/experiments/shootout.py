"""Standing multi-hop protocol shootout through the sweep orchestrator.

Runs every protocol registered in
:data:`~repro.protocols.multihop_base.MULTIHOP_PROTOCOLS` (the paper's
SSTSP relaying plus the related-work competitors: Huan-style beaconless
one-way dissemination and Hu–Servetto-style cooperative spatial
averaging) across the shared multi-hop scenario suite
(:data:`repro.experiments.multihop.DEFAULT_SCENARIOS`) over seed
replicas (three by default, one with ``--quick``).

Each (protocol, scenario, replica) cell is one content-addressed
:class:`~repro.sweep.spec.JobSpec`, so the shootout inherits the
orchestrator's contract: ``--workers N`` fans cells across processes,
``--cache-dir`` makes reruns cache hits, and the ``results/shootout.csv``
bytes are identical at any worker count. ``repro analyze shootout`` rolls
the replicas up into per-(protocol, scenario) confidence intervals.

Columns beyond the accuracy metrics quantify what each scheme pays for
its accuracy: beacon count, bytes on air (count x the protocol's own
frame size), slot-quantised airtime, and a deterministic convergence
time (earliest sample from which the network-wide error stays under
``CONVERGENCE_THRESHOLD_US`` for the rest of the run).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.experiments.multihop import DEFAULT_SCENARIOS, scenario_params
from repro.experiments.report import (
    add_replica_arguments,
    experiment_parser,
    format_table,
    replica_count,
    rows_csv_text,
    write_rows_csv,
)
from repro.sweep import (
    JobSpec,
    SweepOptions,
    add_sweep_arguments,
    parse_sweep_args,
    run_sweep,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import argparse

#: A run "converged" at the earliest sample from which every later
#: network-wide max-difference sample stays below this bound. 50 us sits
#: an order of magnitude above the paper's 2*epsilon single-hop bound but
#: well below the initial-offset transient, so it separates "locked on"
#: from "still hunting" for every scheme in the suite.
CONVERGENCE_THRESHOLD_US: float = 50.0

#: Per-replica seed spacing (scenario seeds stay well clear of each other).
_REPLICA_SEED_STRIDE = 101

_CSV_COLUMNS = (
    "protocol", "scenario", "replica", "seed", "nodes", "max_hop",
    "final_present", "root_changes", "beacons_sent", "collisions",
    "beacon_bytes", "bytes_on_air", "airtime_on_air_us",
    "convergence_time_s", "steady_state_error_us", "peak_error_us",
    "hop1_error_us", "deepest_hop_error_us",
)


def convergence_time_s(
    times_us: np.ndarray,
    max_diff_us: np.ndarray,
    threshold_us: float = CONVERGENCE_THRESHOLD_US,
) -> Optional[float]:
    """Earliest sample time (seconds) from which every subsequent sample
    is finite and below ``threshold_us``; ``None`` if the trace never
    settles (including an empty trace)."""
    n = len(max_diff_us)
    if n == 0:
        return None
    ok = np.isfinite(max_diff_us) & (max_diff_us <= threshold_us)
    if not bool(ok[-1]):
        return None
    # last index where the condition fails, +1 = start of the stable tail
    bad = np.nonzero(~ok)[0]
    start = int(bad[-1]) + 1 if len(bad) else 0
    return float(times_us[start]) / 1e6


def job_shootout_run(job: JobSpec) -> Dict[str, Any]:
    """Execute one (protocol, scenario, replica) cell.

    Builds its spec with
    :func:`repro.experiments.multihop.build_multihop_spec`, as
    ``job_multihop_run`` does (the ``protocol`` param rides through
    ``_SPEC_PASSTHROUGH`` into ``MultiHopSpec``), but keeps the result object in hand so the overhead
    and convergence columns come from the same run — nothing re-executes.
    """
    from repro.multihop.runner import run_multihop
    from repro.protocols.multihop_base import resolve_multihop_protocol

    from repro.experiments.multihop import build_multihop_spec

    params, spec = build_multihop_spec(job)
    topology = spec.topology
    result = run_multihop(spec)
    trace = result.trace
    protocol_cls = resolve_multihop_protocol(spec.protocol)
    per_hop = dict(result.per_hop_error_us)
    hop1 = per_hop.get(1)
    deepest = per_hop[max(per_hop)] if per_hop else None
    beacon_bytes = protocol_cls.beacon_bytes
    airtime_us = spec.airtime_slots * spec.slot_time_us
    return {
        "protocol": spec.protocol,
        "scenario": params.get("name", job.kind),
        "replica": int(params.get("replica", 0)),
        "seed": spec.seed,
        "nodes": topology.n,
        "max_hop": result.max_hop(),
        "final_present": int(trace.present_counts[-1]) if len(trace) else 0,
        "root_changes": result.root_changes,
        "beacons_sent": result.beacons_sent,
        "collisions": result.collisions_at_receivers,
        "beacon_bytes": beacon_bytes,
        "bytes_on_air": result.beacons_sent * beacon_bytes,
        "airtime_on_air_us": result.beacons_sent * airtime_us,
        "convergence_time_s": convergence_time_s(
            trace.times_us, trace.max_diff_us
        ),
        "steady_state_error_us": trace.steady_state_error_us(),
        "peak_error_us": trace.peak_error_us(),
        "hop1_error_us": hop1,
        "deepest_hop_error_us": deepest,
    }


def shootout_specs(
    scenarios: Sequence[Mapping[str, Any]] = DEFAULT_SCENARIOS,
    protocols: Optional[Sequence[str]] = None,
    seed: int = 1,
    quick: bool = False,
    replicas: int = 1,
) -> List[JobSpec]:
    """Freeze the protocol x scenario x replica grid into sweep specs.

    Row order (protocol-major, then scenario, then replica) is the CSV
    row order — the orchestrator returns values in spec order regardless
    of worker count, which is what keeps the bytes stable. An empty
    ``protocols`` or an unregistered name raises ``ValueError`` before
    any spec exists.
    """
    from repro.protocols.multihop_base import (
        available_multihop_protocols,
        check_multihop_protocols,
    )

    if protocols is None:
        protocols = available_multihop_protocols()
    check_multihop_protocols(protocols)
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    specs = []
    for protocol in protocols:
        for scenario in scenarios:
            for replica in range(replicas):
                params = scenario_params(scenario, quick)
                params["protocol"] = protocol
                params["replica"] = replica
                params["seed"] = (
                    int(params.get("seed", 1)) + replica * _REPLICA_SEED_STRIDE
                )
                specs.append(JobSpec.make("shootout_run", params, root_seed=seed))
    return specs


def run(
    scenarios: Sequence[Mapping[str, Any]] = DEFAULT_SCENARIOS,
    protocols: Optional[Sequence[str]] = None,
    seed: int = 1,
    quick: bool = False,
    replicas: int = 1,
    sweep: Optional[SweepOptions] = None,
) -> List[Dict[str, Any]]:
    """Run the shootout grid; returns payloads in spec order."""
    specs = shootout_specs(
        scenarios, protocols=protocols, seed=seed, quick=quick, replicas=replicas
    )
    return run_sweep("shootout", specs, sweep).values


def rows_to_csv(rows: Sequence[Dict[str, Any]]) -> str:
    """Render payload rows to the canonical ``results/shootout.csv`` text."""
    return rows_csv_text(_CSV_COLUMNS, rows)


def protocol_list(text: str) -> List[str]:
    """The ``--protocols`` value: comma-separated names, blanks dropped."""
    return [name.strip() for name in text.split(",") if name.strip()]


def add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the protocol x scenario x replica grid flags of
    ``repro shootout`` and ``repro analyze shootout``;
    :func:`grid_specs` resolves them."""
    add_replica_arguments(
        parser,
        "single replica, scenario durations trimmed to ~8 simulated seconds",
        "(protocol, scenario) cell",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="sweep root seed (default 1)"
    )
    parser.add_argument(
        "--protocols", type=protocol_list, default=None, metavar="P1,P2,...",
        help="comma-separated protocol subset (default: every registered one)",
    )


def grid_specs(args: argparse.Namespace) -> List[JobSpec]:
    """The :func:`shootout_specs` grid the :func:`add_grid_arguments`
    flags name over :data:`DEFAULT_SCENARIOS`; raises ``ValueError``
    naming a bad field."""
    return shootout_specs(
        protocols=args.protocols,
        seed=args.seed,
        quick=args.quick,
        replicas=replica_count(args),
    )


def main(argv=None) -> None:
    """CLI entry point: ``python -m repro shootout``."""
    parser = experiment_parser("shootout", __doc__)
    add_grid_arguments(parser)
    add_sweep_arguments(parser)
    args, sweep = parse_sweep_args(parser, argv)

    try:
        specs = grid_specs(args)
    except ValueError as exc:
        parser.error(str(exc))
    rows = run_sweep("shootout", specs, sweep).values
    csv_path = write_rows_csv("shootout", _CSV_COLUMNS, rows)
    print("=== Multi-hop protocol shootout ===")
    print()
    table_rows = []
    for row in rows:
        conv = row["convergence_time_s"]
        deepest = row["deepest_hop_error_us"]
        table_rows.append(
            (
                row["protocol"],
                row["scenario"],
                row["replica"],
                row["max_hop"],
                f"{row['steady_state_error_us']:.2f} us",
                f"{deepest:.2f} us" if deepest is not None else "-",
                f"{conv:.2f} s" if conv is not None else "never",
                row["beacons_sent"],
                row["bytes_on_air"],
                row["root_changes"],
            )
        )
    print(
        format_table(
            ["protocol", "scenario", "rep", "max hop", "steady err",
             "deepest err", "converged", "beacons", "bytes", "root chg"],
            table_rows,
        )
    )
    print()
    print(f"rows written to {csv_path}")
    print(
        "shape checks: sstsp pays the largest beacons for authenticated "
        "accuracy; beaconless halves traffic via its duty cycle; coop "
        "floods every period and buys accuracy with density"
    )


if __name__ == "__main__":
    main()
