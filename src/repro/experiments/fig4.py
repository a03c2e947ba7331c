"""Figure 4: SSTSP under attack (500 nodes, attacker active 400 s - 600 s).

The same attacker as Fig. 3, but as a compromised *legitimate* SSTSP node
(uTESLA passes) whose erroneous timestamps are tuned to pass the guard
time check. It seizes the reference role - and still cannot
desynchronize the network: every station slews to the same (slightly
dragged) virtual clock, the maximum clock difference stays bounded near
its no-attack level, and the network recovers fully when the attack ends.
The reproduction also reports the virtual-clock drag (mean clock vs true
time), making the "virtual clock slightly different to the real clock"
effect visible.
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
class Fig4Result:
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

    def drag_us(self) -> float:
        """How far the attacker dragged the shared virtual clock."""
        return float(self.trace.mean_vs_true_us[-1] - self.trace.mean_vs_true_us[0])


def run(
    n: int = 500, m: int = 4, quick: bool = False, seed: int = 1,
    sweep: Optional[SweepOptions] = None,
) -> Fig4Result:
    """Reproduce Fig. 4 (through the sweep orchestrator)."""
    if quick:
        start_s, end_s = 20.0, 40.0
    else:
        start_s, end_s = PAPER_ATTACK.start_s, PAPER_ATTACK.end_s
    spec = JobSpec.make(
        "scenario_trace",
        {
            "protocol": "sstsp",
            "scenario": "quick" if quick else "paper",
            "n": n,
            "m": m,
            "seed": seed,
            "duration_s": 60.0 if quick else None,
            "attack_start_s": start_s,
            "attack_end_s": end_s,
            "attack_shave_us": 40.0,
        },
        root_seed=seed,
    )
    payload = run_sweep("fig4", [spec], sweep).values[0]
    return Fig4Result(payload["trace"], start_s, end_s)


def main(argv=None) -> None:
    """CLI entry point; prints the reproduced rows/series."""
    parser = experiment_parser("fig4", __doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--nodes", type=int, default=500)
    parser.add_argument("-m", type=int, default=4, dest="m")
    parser.add_argument("--seed", type=int, default=1)
    add_sweep_arguments(parser)
    args = parser.parse_args(argv)

    result = run(
        n=args.nodes, m=args.m, quick=args.quick, seed=args.seed,
        sweep=sweep_options_from_args(args),
    )
    trace = result.trace
    path = save_trace_csv(trace, f"fig4_sstsp_attack_n{args.nodes}")
    print(f"=== Figure 4: SSTSP under attack ({args.nodes} nodes, m={args.m}) ===")
    print()
    print(trace_chart(trace, f"SSTSP + insider attacker (series: {path})"))
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
            "(paper: the attacker cannot desynchronize the network)",
        )
    )
    print()
    print(f"virtual-clock drag accumulated by the attacker: {result.drag_us():.0f} us "
          "(the 'virtual clock slightly different to the real clock' of section 4)")


if __name__ == "__main__":
    main()
