"""Figure 2: maximum clock difference of SSTSP, 500 nodes, m = 4.

The paper's headline accuracy result: after stabilisation SSTSP keeps the
maximum clock difference below ~10 us in a 500-station IBSS, riding out
the churn pattern and the reference departures at 300/500/800 s with only
transient spikes. The reproduction runs the exact section 5 scenario on
the vectorised SSTSP engine with m = 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.metrics import SyncTrace
from repro.experiments.report import (
    downsample_rows,
    experiment_parser,
    format_table,
    save_trace_csv,
    trace_chart,
)
from repro.sweep import (
    JobSpec,
    SweepOptions,
    add_sweep_arguments,
    run_sweep,
    sweep_options_from_args,
)


@dataclass
class Fig2Result:
    trace: SyncTrace
    reference_changes: int

    def stabilized_error_us(self) -> float:
        """Median max difference over the final quarter of the run."""
        horizon = self.trace.times_us[-1]
        tail = self.trace.window(horizon * 0.75, horizon + 1)
        return float(tail.max_diff_us.max())


def run(
    n: int = 500, m: int = 4, quick: bool = False, seed: int = 1,
    lane: str = "vec",
    sweep: Optional[SweepOptions] = None,
) -> Fig2Result:
    """Reproduce Fig. 2.

    ``lane`` selects the engine: ``"vec"`` (default, fast) or ``"oo"``
    (the reference implementation - slower; pair with ``quick`` and a
    smaller ``n`` for cross-checking). The run executes through the sweep
    orchestrator, so a cached rerun returns instantly.
    """
    if lane not in ("vec", "oo"):
        raise ValueError(f"unknown lane {lane!r}")
    spec = JobSpec.make(
        "scenario_trace",
        {
            "protocol": "sstsp",
            "lane": lane,
            "scenario": "quick" if quick else "paper",
            "n": n,
            "m": m,
            "seed": seed,
        },
        root_seed=seed,
    )
    payload = run_sweep("fig2", [spec], sweep).values[0]
    return Fig2Result(
        trace=payload["trace"], reference_changes=payload["reference_changes"]
    )


def main(argv=None) -> None:
    """CLI entry point; prints the reproduced rows/series."""
    parser = experiment_parser("fig2", __doc__)
    parser.add_argument("--quick", action="store_true", help="60 s smoke run")
    parser.add_argument("--nodes", type=int, default=500)
    parser.add_argument("-m", type=int, default=4, dest="m")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lane", choices=("vec", "oo"), default="vec",
                        help="engine: vectorised (fast) or reference OO lane")
    add_sweep_arguments(parser)
    args = parser.parse_args(argv)

    result = run(
        n=args.nodes, m=args.m, quick=args.quick, seed=args.seed,
        lane=args.lane, sweep=sweep_options_from_args(args),
    )
    trace = result.trace
    path = save_trace_csv(trace, f"fig2_sstsp_n{args.nodes}_m{args.m}")
    print("=== Figure 2: SSTSP maximum clock difference "
          f"({args.nodes} nodes, m = {args.m}) ===")
    print()
    print(trace_chart(trace, f"SSTSP, {args.nodes} nodes, m={args.m} (series: {path})"))
    print(
        format_table(
            ["time (s)", "max clock diff (us)"],
            [(f"{t:.0f}", f"{d:.1f}") for t, d in downsample_rows(trace)],
        )
    )
    print()
    print(f"steady-state error: {trace.steady_state_error_us():.2f} us "
          "(paper: below 10 us after stabilisation)")
    print(f"max over final quarter: {result.stabilized_error_us():.2f} us")
    print(f"reference changes observed: {result.reference_changes}")


if __name__ == "__main__":
    main()
