"""Multi-hop scenario suite through the sweep orchestrator.

The paper's stated future work (multi-hop SSTSP, :mod:`repro.multihop`)
evaluated over the canonical topology shapes — worst-case chain, lattice
grid, random unit-disk deployment, and the degenerate complete graph
(which the runner delegates to the single-hop reference lane). Each
scenario is one content-addressed :class:`~repro.sweep.spec.JobSpec`, so
the suite inherits the orchestrator's contract: ``--workers N`` fans
scenarios across processes, ``--cache-dir`` makes reruns cache hits, and
the ``results/multihop.csv`` bytes are identical at any worker count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.report import experiment_parser, format_table, write_rows_csv
from repro.sweep import (
    JobSpec,
    SweepOptions,
    add_sweep_arguments,
    parse_sweep_args,
    run_sweep,
)

if TYPE_CHECKING:  # pragma: no cover - imported lazily at run time
    from repro.multihop.runner import MultiHopSpec

#: The default scenario grid: one row per topology shape the multi-hop
#: tests and benchmarks exercise. ``duration_s`` values keep a cold serial
#: run in the minutes range; ``--quick`` trims them further.
DEFAULT_SCENARIOS: Sequence[Dict[str, Any]] = (
    {"name": "chain8", "topology": "chain", "n": 8, "duration_s": 25.0, "seed": 3},
    {
        "name": "grid5x5",
        "topology": "grid",
        "rows": 5,
        "cols": 5,
        "duration_s": 30.0,
        "seed": 3,
    },
    {
        "name": "mesh12",
        "topology": "full_mesh",
        "n": 12,
        "duration_s": 20.0,
        "seed": 3,
    },
    {
        "name": "disk30",
        "topology": "unit_disk",
        "n": 30,
        "area_m": 900.0,
        "radius_m": 320.0,
        "duration_s": 30.0,
        "seed": 5,
    },
)

#: ``results/multihop.csv`` columns.
_CSV_COLUMNS = (
    "name", "nodes", "root", "root_changes", "beacons_sent", "collisions",
    "max_hop", "final_present", "steady_state_error_us", "peak_error_us",
    "hop1_error_us", "deepest_hop_error_us",
)

#: Spec fields forwarded verbatim from job params to MultiHopSpec.
_SPEC_PASSTHROUGH = (
    "seed",
    "protocol",
    "duration_s",
    "beacon_period_us",
    "drift_ppm",
    "initial_offset_us",
    "root",
    "hop_stride_slots",
    "relay_probability",
    "m",
    "l",
    "resync_after_periods",
    "loss_model",
)


#: Job params each topology kind needs.
_TOPOLOGY_FIELDS = {
    "chain": ("n",),
    "full_mesh": ("n",),
    "grid": ("rows", "cols"),
    "unit_disk": ("n",),
}


def _build_topology(params: Mapping[str, Any], job: JobSpec):
    """Topology from flat job params (unit-disk draws from the job seed)."""
    from repro.multihop.topology import Topology

    if "topology" not in params:
        raise ValueError(
            f"missing job param 'topology' (one of {sorted(_TOPOLOGY_FIELDS)})"
        )
    kind = params["topology"]
    if kind not in _TOPOLOGY_FIELDS:
        raise ValueError(f"unknown topology kind {kind!r}")
    missing = [name for name in _TOPOLOGY_FIELDS[kind] if name not in params]
    if missing:
        raise ValueError(
            f"topology {kind!r} needs job param(s) "
            + ", ".join(repr(name) for name in missing)
        )
    if kind == "chain":
        return Topology.chain(int(params["n"]))
    if kind == "full_mesh":
        return Topology.full_mesh(int(params["n"]))
    if kind == "grid":
        return Topology.grid(int(params["rows"]), int(params["cols"]))
    # unit_disk
    rng = np.random.default_rng(job.derived_seed())
    return Topology.unit_disk(
        int(params["n"]),
        rng,
        area_m=float(params.get("area_m", 1_000.0)),
        radius_m=float(params.get("radius_m", 250.0)),
    )


def build_multihop_spec(job: JobSpec) -> Tuple[Dict[str, Any], "MultiHopSpec"]:
    """The job's params and the :class:`MultiHopSpec` they describe: the
    topology from :func:`_build_topology`, the ``_SPEC_PASSTHROUGH``
    fields verbatim."""
    from repro.multihop.runner import MultiHopSpec

    params = job.params_dict()
    topology = _build_topology(params, job)
    overrides = {
        key: params[key] for key in _SPEC_PASSTHROUGH if key in params
    }
    return params, MultiHopSpec(topology=topology, **overrides)


def job_multihop_run(job: JobSpec) -> Dict[str, Any]:
    """Execute one multi-hop scenario; returns a flat, picklable payload."""
    from repro.multihop.runner import run_multihop

    params, spec = build_multihop_spec(job)
    result = run_multihop(spec)
    trace = result.trace
    return {
        "name": params.get("name", job.kind),
        "nodes": spec.topology.n,
        "root": result.root,
        "root_changes": result.root_changes,
        "beacons_sent": result.beacons_sent,
        "collisions": result.collisions_at_receivers,
        "max_hop": result.max_hop(),
        "per_hop_error_us": dict(result.per_hop_error_us),
        "steady_state_error_us": trace.steady_state_error_us(),
        "peak_error_us": trace.peak_error_us(),
        "final_present": int(trace.present_counts[-1]) if len(trace) else 0,
        "final_max_diff_us": float(trace.max_diff_us[-1]) if len(trace) else None,
    }


def scenario_params(scenario: Mapping[str, Any], quick: bool) -> Dict[str, Any]:
    """A scenario's job params; ``quick`` caps its duration at 8
    simulated seconds."""
    params = dict(scenario)
    if quick:
        params["duration_s"] = min(float(params.get("duration_s", 30.0)), 8.0)
    return params


def scenario_specs(
    scenarios: Sequence[Mapping[str, Any]] = DEFAULT_SCENARIOS,
    seed: int = 1,
    quick: bool = False,
) -> List[JobSpec]:
    """Freeze the scenario grid into sweep job specs."""
    return [
        JobSpec.make("multihop_run", scenario_params(scenario, quick), root_seed=seed)
        for scenario in scenarios
    ]


def run(
    scenarios: Sequence[Mapping[str, Any]] = DEFAULT_SCENARIOS,
    seed: int = 1,
    quick: bool = False,
    sweep: Optional[SweepOptions] = None,
) -> List[Dict[str, Any]]:
    """Run the scenario suite; returns payloads in scenario order."""
    specs = scenario_specs(scenarios, seed=seed, quick=quick)
    return run_sweep("multihop", specs, sweep).values


def main(argv=None) -> None:
    """CLI entry point: ``python -m repro multihop``."""
    parser = experiment_parser("multihop", __doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="trim scenario durations to ~8 simulated seconds",
    )
    parser.add_argument("--seed", type=int, default=1, help="sweep root seed")
    add_sweep_arguments(parser)
    args, sweep = parse_sweep_args(parser, argv)

    rows = run(seed=args.seed, quick=args.quick, sweep=sweep)
    csv_rows = []
    table_rows = []
    for row in rows:
        per_hop = row["per_hop_error_us"]
        hop1 = per_hop.get(1)
        deepest = per_hop[max(per_hop)] if per_hop else None
        csv_rows.append(dict(row, hop1_error_us=hop1, deepest_hop_error_us=deepest))
        table_rows.append(
            (
                row["name"],
                row["nodes"],
                row["max_hop"],
                f"{hop1:.2f} us" if hop1 is not None else "-",
                f"{deepest:.2f} us" if deepest is not None else "-",
                row["beacons_sent"],
                row["collisions"],
                row["root_changes"],
            )
        )
    csv_path = write_rows_csv("multihop", _CSV_COLUMNS, csv_rows)
    print("=== Multi-hop SSTSP scenario suite ===")
    print()
    print(
        format_table(
            ["scenario", "n", "max hop", "hop-1 err", "deepest err",
             "beacons", "collisions", "root changes"],
            table_rows,
        )
    )
    print()
    print(f"rows written to {csv_path}")
    print(
        "shape checks: hop-1 error stays in the single-hop range; error "
        "grows with hop depth; the complete graph matches the single-hop lane"
    )


if __name__ == "__main__":
    main()
