"""Table 1: synchronization latency and error versus the aggressiveness m.

The paper sweeps m in 1..5 with initial clock offsets uniform in
(-112 us, 112 us) and reports:

====  =======================  =====================
 m    synchronization latency  synchronization error
====  =======================  =====================
 1    0.1 s                    12 us
 2    0.4 s                    7 us
 3    0.6 s                    6 us
 4    0.8 s                    6 us
 5    1.1 s                    6 us
====  =======================  =====================

i.e. small m converges fastest but amplifies per-beacon noise (the
adjusted clock chases each estimate), while large m filters noise at the
cost of latency; m = 2-3 is the sweet spot. Latency is measured to the
industry threshold (max difference < 25 us, sustained); error is the
stabilised maximum clock difference.

The m x replica grid runs through the sweep orchestrator
(:mod:`repro.sweep`): ``--workers N`` fans the cells across processes,
``--cache-dir``/``--no-cache`` control result caching, and the reported
rows (and the ``results/table1.csv`` bytes) are identical at any worker
count.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.analysis.stats import group_cells
from repro.experiments.report import ensure_results_dir, experiment_parser, format_table
from repro.experiments.scenarios import TABLE1_INITIAL_OFFSET_US, quick_spec
from repro.sim.units import S
from repro.sweep import (
    JobSpec,
    SweepOptions,
    add_sweep_arguments,
    expand_grid,
    run_sweep,
    sweep_options_from_args,
)

#: Rows the paper reports, for side-by-side printing.
PAPER_ROWS = {1: (0.1, 12.0), 2: (0.4, 7.0), 3: (0.6, 6.0), 4: (0.8, 6.0), 5: (1.1, 6.0)}


@dataclass
class Table1Row:
    m: int
    latency_s: Optional[float]
    error_us: float


def cell_specs(
    m_values: Sequence[int],
    n: int,
    duration_s: float,
    seed: int,
    replicas: int,
) -> list:
    """The frozen job specs of the m x replica grid (m outer, replica
    inner — the original serial loop order).

    Raises ``ValueError`` naming the bad field before any job exists:
    ``replicas < 1``, a repeated or non-positive m, or a scenario that
    ``ScenarioSpec`` rejects (``n < 2``, a duration shorter than one
    beacon period).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    scenario = quick_spec(n, seed=seed, duration_s=duration_s)
    for i, m in enumerate(m_values):
        if m in m_values[:i]:
            raise ValueError(f"m values must be distinct, got {m} more than once")
        scenario.sstsp_config(m=m)  # SstspConfig rejects m < 1
    specs = []
    for point in expand_grid({"m": list(m_values), "replica": list(range(replicas))}):
        specs.append(
            JobSpec.make(
                "table1_cell",
                {
                    "m": point["m"],
                    "n": n,
                    "seed": seed + 1000 * point["replica"],
                    "duration_s": duration_s,
                    "initial_offset_us": TABLE1_INITIAL_OFFSET_US,
                },
                root_seed=seed,
            )
        )
    return specs


def run(
    m_values: Sequence[int] = (1, 2, 3, 4, 5),
    n: int = 100,
    duration_s: float = 60.0,
    seed: int = 1,
    replicas: int = 3,
    sweep: Optional[SweepOptions] = None,
) -> Dict[int, Table1Row]:
    """Sweep m per the Table 1 setup; latency/error averaged over replicas.

    Under a quarantining failure policy (``--on-error quarantine``) a
    failed cell leaves ``None`` in the sweep values; its replica is
    skipped, and an ``m`` whose cells *all* failed is omitted from the
    returned rows (the quarantine report in the sweep summary and run
    log says why). With the default raise policy nothing changes.
    """
    specs = cell_specs(m_values, n, duration_s, seed, replicas)
    groups = group_cells(
        [spec.params_dict()["m"] for spec in specs],
        run_sweep("table1", specs, sweep).values,
        ("latency_us", "error_us"),
    )
    rows: Dict[int, Table1Row] = {}
    for m, group in groups.items():
        errors = group.values["error_us"]
        if not errors:  # every replica quarantined
            continue
        latencies = [v / S for v in group.values["latency_us"] if v is not None]
        rows[m] = Table1Row(
            m=m,
            latency_s=sum(latencies) / len(latencies) if latencies else None,
            error_us=sum(errors) / len(errors),
        )
    return rows


def save_rows_csv(rows: Dict[int, Table1Row], name: str = "table1") -> str:
    """Write the measured rows as CSV; ``repr`` floats keep the bytes a
    pure function of the values (the parallel-determinism contract)."""
    path = os.path.join(ensure_results_dir(), f"{name}.csv")
    lines = ["m,latency_s,error_us"]
    for m, row in sorted(rows.items()):
        latency = "" if row.latency_s is None else repr(row.latency_s)
        lines.append(f"{m},{latency},{row.error_us!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _parse_m_values(text: str) -> Sequence[int]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad m list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("need at least one m value")
    return values


def main(argv=None) -> None:
    """CLI entry point; prints the reproduced rows/series."""
    parser = experiment_parser("table1", __doc__)
    parser.add_argument("--quick", action="store_true", help="single replica")
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "-m", "--m-values", type=_parse_m_values, default=(1, 2, 3, 4, 5),
        dest="m_values", metavar="M1,M2,...",
        help="comma-separated m values to sweep (default 1,2,3,4,5)",
    )
    parser.add_argument(
        "--duration", type=float, default=60.0, metavar="S",
        help="scenario duration per cell in seconds",
    )
    parser.add_argument(
        "--replicas", type=int, default=None,
        help="replicas per m (default 3, or 1 with --quick)",
    )
    add_sweep_arguments(parser)
    args = parser.parse_args(argv)
    replicas = args.replicas
    if replicas is None:
        replicas = 1 if args.quick else 3
    try:
        cell_specs(args.m_values, args.nodes, args.duration, args.seed, replicas)
    except ValueError as exc:
        parser.error(str(exc))

    rows = run(
        m_values=args.m_values,
        n=args.nodes,
        duration_s=args.duration,
        seed=args.seed,
        replicas=replicas,
        sweep=sweep_options_from_args(args),
    )
    csv_path = save_rows_csv(rows)
    print("=== Table 1: maximum clock difference & synchronization latency vs m ===")
    print()
    table_rows = []
    for m, row in sorted(rows.items()):
        paper_latency, paper_error = PAPER_ROWS.get(m, (None, None))
        table_rows.append(
            (
                m,
                f"{row.latency_s:.2f} s" if row.latency_s is not None else "n/a",
                f"{row.error_us:.1f} us",
                f"{paper_latency} s" if paper_latency is not None else "-",
                f"{paper_error:.0f} us" if paper_error is not None else "-",
            )
        )
    print(
        format_table(
            ["m", "latency (measured)", "error (measured)",
             "latency (paper)", "error (paper)"],
            table_rows,
        )
    )
    print()
    print(f"rows written to {csv_path}")
    print("shape checks: latency increases with m; error improves from m=1 "
          "and flattens by m=3 (paper: m = 2 or 3 is the best trade-off)")


if __name__ == "__main__":
    main()
