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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import group_cells
from repro.experiments.report import (
    add_replica_arguments,
    experiment_parser,
    format_table,
    replica_count,
    write_rows_csv,
)
from repro.experiments.scenarios import TABLE1_INITIAL_OFFSET_US, quick_spec
from repro.sim.units import S
from repro.sweep import (
    JobSpec,
    SweepOptions,
    add_sweep_arguments,
    parse_sweep_args,
    run_sweep,
)

#: Rows the paper reports, for side-by-side printing.
PAPER_ROWS = {1: (0.1, 12.0), 2: (0.4, 7.0), 3: (0.6, 6.0), 4: (0.8, 6.0), 5: (1.1, 6.0)}


@dataclass
class Table1Row:
    m: int
    latency_s: Optional[float]
    error_us: float


#: ``results/table1.csv`` columns: the :class:`Table1Row` fields.
_CSV_COLUMNS = ("m", "latency_s", "error_us")


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
    ``replicas < 1``, no m, a repeated or non-positive m, or a scenario that
    ``ScenarioSpec`` rejects (``n < 2``, a duration shorter than one
    beacon period).
    """
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if not m_values:
        raise ValueError("m values must not be empty")
    scenario = quick_spec(n, seed=seed, duration_s=duration_s)
    for i, m in enumerate(m_values):
        if m in m_values[:i]:
            raise ValueError(f"m values must be distinct, got {m} more than once")
        scenario.sstsp_config(m=m)  # SstspConfig rejects m < 1
    return [
        JobSpec.make(
            "table1_cell",
            {
                "m": m,
                "n": n,
                "seed": seed + 1000 * replica,
                "duration_s": duration_s,
                "initial_offset_us": TABLE1_INITIAL_OFFSET_US,
            },
            root_seed=seed,
        )
        for m in m_values
        for replica in range(replicas)
    ]


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
    return sweep_rows(cell_specs(m_values, n, duration_s, seed, replicas), sweep)


def sweep_rows(
    specs: Sequence[JobSpec], sweep: Optional[SweepOptions] = None
) -> Dict[int, Table1Row]:
    """Run ``specs`` (a :func:`cell_specs` grid) and average each m's
    replicas into its row (see :func:`run`)."""
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
    """Write the measured rows, in m order, to ``results/<name>.csv``."""
    return write_rows_csv(name, _CSV_COLUMNS, [vars(rows[m]) for m in sorted(rows)])


def _parse_m_values(text: str) -> Sequence[int]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad m list {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("need at least one m value")
    return values


def add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the m x replica grid flags of ``repro table1`` and
    ``repro analyze table1``; :func:`grid_specs` resolves them."""
    add_replica_arguments(parser, "single replica", "m")
    parser.add_argument(
        "--nodes", type=int, default=100, metavar="N",
        help="stations per network (default 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="sweep root seed (default 1)",
    )
    parser.add_argument(
        "-m", "--m-values", type=_parse_m_values, default=(1, 2, 3, 4, 5),
        dest="m_values", metavar="M1,M2,...",
        help="comma-separated m values to sweep (default 1,2,3,4,5)",
    )
    parser.add_argument(
        "--duration", type=float, default=60.0, metavar="S",
        help="scenario duration per cell in seconds (default 60)",
    )


def grid_specs(args: argparse.Namespace) -> List[JobSpec]:
    """The :func:`cell_specs` grid the :func:`add_grid_arguments` flags
    name; raises ``ValueError`` naming a bad field."""
    return cell_specs(
        args.m_values, args.nodes, args.duration, args.seed, replica_count(args)
    )


def main(argv=None) -> None:
    """CLI entry point; prints the reproduced rows/series."""
    parser = experiment_parser("table1", __doc__)
    add_grid_arguments(parser)
    add_sweep_arguments(parser)
    args, sweep = parse_sweep_args(parser, argv)
    try:
        specs = grid_specs(args)
    except ValueError as exc:
        parser.error(str(exc))

    rows = sweep_rows(specs, sweep)
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
