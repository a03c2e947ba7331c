"""Chaos soak: randomized fault plans with recovery invariants.

The paper's claim is not just low steady-state error but *survival under
adversity*: Lemma 2 bounds the error growth across a reference change,
and section 5 exercises churn and attack windows. The hand-written
scenarios cover a handful of schedules; this harness generates N
randomized :class:`~repro.faults.spec.FaultPlan`\\ s from a seed, runs
each against a recovery-hardened SSTSP network
(``SstspConfig.hardened()``), and asserts four invariants per run:

1. **bounded error** — after the fault-free recovery tail the maximum
   clock difference obeys a Lemma-2-style loss-aware bound
   (``2 * rho * (x + 2) * BP`` for ``x`` tolerated consecutive lost
   beacons: under burst loss every station free-runs and the pairwise
   spread grows at the oscillator-tolerance rate until the next beacon
   lands), *and* the tail median is back under the industry threshold
   (Lemma 1's geometric contraction means any bounded perturbation must
   re-converge within the tail);
2. **reference re-election** — after every injected crash of the station
   holding the reference role, some legitimate station holds the role
   again within a bounded number of periods (Lemma 2's regime requires a
   reference to exist);
3. **no unhandled exceptions** — the run completes;
4. **monotonicity** — trace sample times strictly increase and every
   honest node's adjusted clock is monotone over the whole run (the
   paper's no-leap guarantee holds *through* the faults), and every
   present node has re-synchronized by the end.

Everything is derived deterministically from ``--seed``: rerunning with
the same seed reproduces identical per-plan outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.metrics import INDUSTRY_THRESHOLD_US
from repro.core.config import SstspConfig
from repro.experiments.report import experiment_parser, format_table
from repro.experiments.scenarios import PAPER_PHY
from repro.faults import FaultInjector, FaultPlan, random_plan
from repro.network.ibss import ScenarioSpec, build_network
from repro.network.lane import Lane
from repro.network.runner import NetworkRunner
from repro.sim.units import S
from repro.sweep import (
    JobSpec,
    SweepOptions,
    add_sweep_arguments,
    parse_sweep_args,
    run_sweep,
)


#: Consecutive lost beacons the tail error bound absorbs: the chaos
#: channel keeps its burst-loss regime through the recovery tail, so the
#: bound must cover the spread a loss burst opens up before the next
#: delivered beacon collapses it again.
LOSS_TOLERANCE_BEACONS = 4


def lemma2_loss_bound(
    drift_ppm: float = 100.0,
    beacon_period_us: float = 0.1 * S,
    lost_beacons: int = LOSS_TOLERANCE_BEACONS,
) -> float:
    """Lemma 2's loss-aware error bound, in microseconds.

    After ``x`` consecutive lost beacons every station has free-run for
    ``x + 2`` beacon periods since its last correction took effect (the
    ``+2`` covers the correction-to-coincidence slewing horizon), during
    which the pairwise spread grows at both stations' oscillator
    tolerance: ``(rho_1 + rho_2) * (x + 2) * BP``. With the paper's
    +-100 ppm tolerance and 0.1 s BP this is 120 us for ``x = 4`` —
    still far inside the 500 us fine guard, so recovery is guaranteed.
    """
    return 2.0 * drift_ppm * 1e-6 * (lost_beacons + 2) * beacon_period_us


@dataclass(frozen=True)
class ChaosLimits:
    """Invariant bounds one soak run is checked against.

    Attributes
    ----------
    tail_periods:
        Fault-free periods at the end of every plan (no fault may affect
        them; recovery happens here).
    eval_periods:
        Final stretch the error bound is evaluated over (shorter than the
        tail so recovery transients - e.g. a re-coarsing node after a
        large clock jump - have settled).
    tail_bound_us:
        Maximum allowed clock difference over the evaluation stretch
        (default: :func:`lemma2_loss_bound` — loss bursts in the tail
        open a transient spread the next delivered beacon collapses).
    converged_bound_us:
        Maximum allowed *median* clock difference over the evaluation
        stretch — the steady-state the network must have contracted back
        to (burst-robust: a short loss spike cannot move the median of a
        50-sample window).
    reelect_within:
        Periods within which a legitimate reference must hold the role
        again after an injected reference crash.
    """

    tail_periods: int = 100
    eval_periods: int = 50
    tail_bound_us: float = lemma2_loss_bound()
    converged_bound_us: float = INDUSTRY_THRESHOLD_US
    reelect_within: int = 40

    def __post_init__(self) -> None:
        if not 1 <= self.eval_periods <= self.tail_periods:
            raise ValueError("need 1 <= eval_periods <= tail_periods")
        if self.converged_bound_us > self.tail_bound_us:
            raise ValueError("converged_bound_us must be <= tail_bound_us")
        if self.converged_bound_us <= 0 or self.reelect_within < 1:
            raise ValueError("bounds must be positive")


@dataclass
class PlanOutcome:
    """Result of one plan's soak run (all fields deterministic in seed)."""

    index: int
    scenario_seed: int
    plan: FaultPlan
    failures: List[str] = field(default_factory=list)
    tail_max_us: float = float("nan")
    tail_median_us: float = float("nan")
    reelect_delays: Tuple[int, ...] = ()
    reference_crashes: int = 0
    events: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return not self.failures and self.error is None


def build_chaos_runner(
    plan: FaultPlan,
    n: int,
    periods: int,
    seed: int,
    gilbert_elliott: bool = False,
) -> NetworkRunner:
    """A hardened SSTSP network with ``plan`` attached.

    ``gilbert_elliott`` switches the channel to the burst-loss model so
    soaks also exercise temporally correlated loss, not just injected
    bursts.
    """
    phy = PAPER_PHY
    if gilbert_elliott:
        phy = replace(phy, loss_model="gilbert_elliott", packet_error_rate=1e-3)
    bp = 0.1 * S
    spec = ScenarioSpec(
        n=n,
        seed=seed,
        duration_s=periods * bp / S,
        beacon_period_us=bp,
        phy=phy,
    )
    runner = build_network("sstsp", spec, sstsp_config=SstspConfig.hardened())
    runner.attach_injector(FaultInjector(plan))
    return runner


def _check_invariants(
    outcome: PlanOutcome,
    runner: Lane,
    trace,
    limits: ChaosLimits,
) -> None:
    """Populate ``outcome.failures`` from a finished run (reads only the
    :class:`~repro.network.lane.Lane` surface)."""
    injector = runner.injector
    # 1. bounded error over the final evaluation stretch: the max obeys
    # the loss-aware Lemma 2 bound, the median the steady-state one.
    tail = trace.max_diff_us[-limits.eval_periods:]
    if not tail.size:
        outcome.failures.append("no tail samples to evaluate")
    else:
        outcome.tail_max_us = float(tail.max())
        outcome.tail_median_us = float(np.median(tail))
        if outcome.tail_max_us > limits.tail_bound_us:
            outcome.failures.append(
                f"tail error {outcome.tail_max_us:.1f}us > "
                f"{limits.tail_bound_us:.1f}us"
            )
        if outcome.tail_median_us > limits.converged_bound_us:
            outcome.failures.append(
                f"tail median {outcome.tail_median_us:.1f}us > "
                f"{limits.converged_bound_us:.1f}us (not re-converged)"
            )
    # 2. reference re-election after every injected reference crash.
    # Sample index p-1 corresponds to period p.
    delays = []
    refs = trace.reference_ids
    outcome.reference_crashes = len(injector.reference_crashes)
    for crash_period, crashed in injector.reference_crashes:
        delay = None
        for d in range(1, limits.reelect_within + 1):
            idx = crash_period - 1 + d
            if idx >= len(refs):
                break
            if refs[idx] >= 0 and refs[idx] != crashed:
                delay = d
                break
        if delay is None:
            outcome.failures.append(
                f"no reference within {limits.reelect_within} periods of "
                f"the crash at p{crash_period}"
            )
        else:
            delays.append(delay)
    outcome.reelect_delays = tuple(delays)
    # 4a. trace sample times strictly increase
    if len(trace) > 1 and not np.all(np.diff(trace.times_us) > 0):
        outcome.failures.append("trace times not strictly increasing")
    # 4b. per-node adjusted clocks never leap or run backward
    horizon_true = runner.periods * runner.beacon_period_us
    for node in runner.nodes:
        clock = getattr(node.protocol, "clock", None)
        if clock is None:
            continue
        if not clock.is_monotonic(0.0, node.hw.read(horizon_true)):
            outcome.failures.append(f"node {node.node_id} clock not monotone")
    # 4c. every present node re-synchronized by the end
    for node in runner.nodes:
        if node.present and not node.protocol.is_synchronized():
            outcome.failures.append(f"node {node.node_id} never re-synchronized")


def run_plan(
    index: int,
    master_seed: int,
    n: int = 12,
    periods: int = 300,
    limits: Optional[ChaosLimits] = None,
) -> PlanOutcome:
    """Generate plan ``index`` from ``master_seed``, run it, check invariants."""
    limits = limits or ChaosLimits()
    rng = np.random.default_rng([master_seed, index])
    scenario_seed = master_seed * 10_007 + index
    plan = random_plan(
        rng,
        periods=periods,
        node_ids=list(range(n)),
        first_period=40,
        last_period=periods - limits.tail_periods,
        name=f"chaos-{master_seed}-{index}",
        seed=master_seed,
    )
    outcome = PlanOutcome(index=index, scenario_seed=scenario_seed, plan=plan)
    runner = build_chaos_runner(
        plan, n=n, periods=periods, seed=scenario_seed,
        gilbert_elliott=index % 2 == 1,
    )
    try:
        result = runner.run()
    except Exception as exc:  # invariant 3: no unhandled exceptions
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.failures.append(f"unhandled exception: {outcome.error}")
        return outcome
    outcome.events = len(result.events)
    _check_invariants(outcome, runner, result.trace, limits)
    return outcome


def job_chaos_plan(job: "JobSpec") -> PlanOutcome:
    """Sweep job: one randomized plan soak (pure function of the spec)."""
    p = job.params_dict()
    limits = ChaosLimits(
        tail_periods=p["tail_periods"],
        eval_periods=p["eval_periods"],
        tail_bound_us=p["tail_bound_us"],
        converged_bound_us=p["converged_bound_us"],
        reelect_within=p["reelect_within"],
    )
    return run_plan(
        p["index"], p["master_seed"], n=p["n"], periods=p["periods"],
        limits=limits,
    )


def run_chaos(
    plans: int,
    seed: int,
    n: int = 12,
    periods: int = 300,
    limits: Optional[ChaosLimits] = None,
    sweep: Optional["SweepOptions"] = None,
) -> List[PlanOutcome]:
    """Run ``plans`` independent randomized soaks derived from ``seed``.

    Plans are independent jobs, so the soak parallelises through the
    sweep orchestrator (``sweep`` controls workers/caching) with
    per-plan outcomes identical to the serial run.
    """
    limits = limits or ChaosLimits()
    specs = [
        JobSpec.make(
            "chaos_plan",
            {
                "index": i,
                "master_seed": seed,
                "n": n,
                "periods": periods,
                "tail_periods": limits.tail_periods,
                "eval_periods": limits.eval_periods,
                "tail_bound_us": limits.tail_bound_us,
                "converged_bound_us": limits.converged_bound_us,
                "reelect_within": limits.reelect_within,
            },
            root_seed=seed,
        )
        for i in range(plans)
    ]
    return run_sweep("chaos", specs, sweep).values


def outcome_fingerprint(outcome: PlanOutcome) -> Dict:
    """The reproducibility-relevant projection of one outcome (equal for
    equal seeds)."""
    return {
        "index": outcome.index,
        "plan": outcome.plan.to_dict(),
        "failures": list(outcome.failures),
        "tail_max_us": round(outcome.tail_max_us, 6),
        "tail_median_us": round(outcome.tail_median_us, 6),
        "reelect_delays": list(outcome.reelect_delays),
        "events": outcome.events,
        "error": outcome.error,
    }


def main(argv=None) -> None:
    """CLI entry point: run the soak and print the per-plan table."""
    parser = experiment_parser("chaos", __doc__)
    parser.add_argument("--plans", type=int, default=10, help="number of plans")
    parser.add_argument("--seed", type=int, default=7, help="master seed")
    parser.add_argument("--nodes", type=int, default=12, help="stations per run")
    parser.add_argument(
        "--periods", type=int, default=300, help="beacon periods per run"
    )
    parser.add_argument(
        "--bound-us",
        type=float,
        default=lemma2_loss_bound(),
        help="tail max-error bound (us; Lemma 2 loss-aware default)",
    )
    parser.add_argument(
        "--converged-us",
        type=float,
        default=INDUSTRY_THRESHOLD_US,
        help="tail median-error bound (us; steady-state convergence)",
    )
    parser.add_argument(
        "--reelect-within",
        type=int,
        default=40,
        help="re-election bound after a reference crash (periods)",
    )
    add_sweep_arguments(parser)
    args, sweep = parse_sweep_args(parser, argv)
    limits = ChaosLimits(
        tail_bound_us=args.bound_us,
        converged_bound_us=args.converged_us,
        reelect_within=args.reelect_within,
    )

    outcomes = run_chaos(
        args.plans, args.seed, n=args.nodes, periods=args.periods, limits=limits,
        sweep=sweep,
    )
    rows = []
    for o in outcomes:
        delays = ",".join(str(d) for d in o.reelect_delays) or "-"
        rows.append(
            (
                o.index,
                len(o.plan),
                "+".join(sorted(set(o.plan.kinds()))),
                f"{o.tail_max_us:.1f}",
                f"{o.tail_median_us:.1f}",
                delays,
                "ok" if o.ok else "; ".join(o.failures),
            )
        )
    print(
        format_table(
            [
                "plan", "faults", "kinds", "tail max (us)",
                "tail med (us)", "re-elect (BPs)", "verdict",
            ],
            rows,
            title=(
                f"chaos soak: {args.plans} plans, seed {args.seed}, "
                f"N={args.nodes}, {args.periods} BPs each "
                f"(max bound {limits.tail_bound_us:.0f}us, median bound "
                f"{limits.converged_bound_us:.0f}us, re-election within "
                f"{limits.reelect_within} BPs)"
            ),
        )
    )
    failed = [o for o in outcomes if not o.ok]
    print(
        f"\n{len(outcomes) - len(failed)}/{len(outcomes)} plans green; "
        f"{sum(o.reference_crashes for o in outcomes)} reference crashes "
        "injected"
    )
    if failed:
        print("\nviolated invariants:")
        for o in failed:
            for failure in o.failures:
                print(f"  plan {o.index}: {failure}")
        raise SystemExit(1)


if __name__ == "__main__":
    main()
