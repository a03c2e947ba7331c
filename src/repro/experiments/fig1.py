"""Figure 1: maximum clock difference of TSF, 100 and 300 nodes.

The paper's point: TSF does not scale - the fastest station is starved of
beacon transmissions and collisions multiply with N, so the maximum clock
difference grows with network size and spikes far above the 25 us
industry expectation. The reproduction runs the exact section 5 scenario
(churn included) on the vectorised TSF engine and reports the series plus
summary statistics per network size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.analysis.metrics import INDUSTRY_THRESHOLD_US, SyncTrace
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
class Fig1Result:
    """Traces per network size."""

    traces: Dict[int, SyncTrace]

    def summary_rows(self):
        """Yield (N, steady, peak, time-above-threshold) summary rows."""
        for n, trace in sorted(self.traces.items()):
            above = float(
                (trace.max_diff_us > INDUSTRY_THRESHOLD_US).mean() * 100.0
            )
            yield (
                n,
                f"{trace.steady_state_error_us():.1f}",
                f"{trace.peak_error_us():.1f}",
                f"{above:.0f}%",
            )


def run(
    n_values: Sequence[int] = (100, 300),
    quick: bool = False,
    seed: int = 1,
    lane: str = "vec",
    sweep: Optional[SweepOptions] = None,
) -> Fig1Result:
    """Reproduce Fig. 1 for the given network sizes.

    ``lane`` selects the engine: ``"vec"`` (default, fast) or ``"oo"``
    (the object-oriented reference implementation - slower, use with
    ``quick=True`` at these sizes). The per-N runs execute through the
    sweep orchestrator (``sweep`` controls workers/caching).
    """
    specs = [
        JobSpec.make(
            "scenario_trace",
            {
                "protocol": "tsf",
                "lane": lane,
                "scenario": "quick" if quick else "paper",
                "n": n,
                "seed": seed,
            },
            root_seed=seed,
        )
        for n in n_values
    ]
    payloads = run_sweep("fig1", specs, sweep).values
    return Fig1Result(
        {n: payload["trace"] for n, payload in zip(n_values, payloads)}
    )


def main(argv=None) -> None:
    """CLI entry point; prints the reproduced rows/series."""
    parser = experiment_parser("fig1", __doc__)
    parser.add_argument("--quick", action="store_true", help="60 s smoke run")
    parser.add_argument("--nodes", type=int, nargs="+", default=[100, 300])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--lane", choices=("vec", "oo"), default="vec",
                        help="engine: vectorised (fast) or reference OO lane")
    add_sweep_arguments(parser)
    args = parser.parse_args(argv)

    result = run(
        tuple(args.nodes), quick=args.quick, seed=args.seed, lane=args.lane,
        sweep=sweep_options_from_args(args),
    )
    print("=== Figure 1: TSF maximum clock difference ===")
    for n, trace in sorted(result.traces.items()):
        path = save_trace_csv(trace, f"fig1_tsf_n{n}")
        print()
        print(trace_chart(trace, f"TSF, {n} nodes (series: {path})"))
        print(
            format_table(
                ["time (s)", "max clock diff (us)"],
                [(f"{t:.0f}", f"{d:.1f}") for t, d in downsample_rows(trace)],
            )
        )
    print()
    print(
        format_table(
            ["N", "steady-state (us)", "peak (us)", "time above 25us"],
            result.summary_rows(),
            title="Summary (paper: error grows with N, far above 25 us)",
        )
    )


if __name__ == "__main__":
    main()
