"""Figure 3: TSF under attack (100 nodes, attacker active 400 s - 600 s).

The attacker transmits a beacon at every BP without delay, carrying an
erroneous time slower than its clock. TSF stations cancel their own
beacons on reception and ignore the (not-later) timestamp, so the fastest
station stops pulling the network forward and the honest clocks free-run
apart: the paper reports the error rising to ~20000 us over the 200 s
attack, with recovery afterwards.
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
from repro.experiments.scenarios import PAPER_ATTACK
from repro.sim.units import S
from repro.sweep import (
    JobSpec,
    SweepOptions,
    add_sweep_arguments,
    run_sweep,
    sweep_options_from_args,
)


@dataclass
class Fig3Result:
    trace: SyncTrace
    attack_start_s: float
    attack_end_s: float

    def phase_maxima(self):
        """Max clock difference before/during/after the attack window."""
        t = self.trace
        end = t.times_us[-1]
        return {
            "before": float(t.window(0, self.attack_start_s * S).max_diff_us.max()),
            "during": float(
                t.window(self.attack_start_s * S, self.attack_end_s * S)
                .max_diff_us.max()
            ),
            "after": float(
                t.window(self.attack_end_s * S, end + 1).max_diff_us.max()
            ),
        }


def run(
    n: int = 100, quick: bool = False, seed: int = 1,
    sweep: Optional[SweepOptions] = None,
) -> Fig3Result:
    """Reproduce Fig. 3 (through the sweep orchestrator)."""
    if quick:
        start_s, end_s = 20.0, 40.0
    else:
        start_s, end_s = PAPER_ATTACK.start_s, PAPER_ATTACK.end_s
    spec = JobSpec.make(
        "scenario_trace",
        {
            "protocol": "tsf",
            "scenario": "quick" if quick else "paper",
            "n": n,
            "seed": seed,
            "duration_s": 60.0 if quick else None,
            "attack_start_s": start_s,
            "attack_end_s": end_s,
        },
        root_seed=seed,
    )
    payload = run_sweep("fig3", [spec], sweep).values[0]
    return Fig3Result(payload["trace"], start_s, end_s)


def main(argv=None) -> None:
    """CLI entry point; prints the reproduced rows/series."""
    parser = experiment_parser("fig3", __doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    add_sweep_arguments(parser)
    args = parser.parse_args(argv)

    result = run(
        n=args.nodes, quick=args.quick, seed=args.seed,
        sweep=sweep_options_from_args(args),
    )
    trace = result.trace
    path = save_trace_csv(trace, f"fig3_tsf_attack_n{args.nodes}")
    print(f"=== Figure 3: TSF under attack ({args.nodes} nodes) ===")
    print()
    print(trace_chart(trace, f"TSF + attacker (series: {path})"))
    print(
        format_table(
            ["time (s)", "max clock diff (us)"],
            [(f"{t:.0f}", f"{d:.1f}") for t, d in downsample_rows(trace)],
        )
    )
    print()
    maxima = result.phase_maxima()
    print(
        format_table(
            ["phase", "max clock diff (us)"],
            [(k, f"{v:.1f}") for k, v in maxima.items()],
            title="Attack window "
            f"{result.attack_start_s:.0f}-{result.attack_end_s:.0f} s "
            "(paper: rises to ~20000 us during the attack)",
        )
    )


if __name__ == "__main__":
    main()
