"""Figures 1-4: maximum clock difference over time in the section 5 IBSS.

One experiment - the exact section 5 scenario, churn included - for TSF
or SSTSP, without or with the attacker active from 400 s to 600 s; each
figure is one :data:`FIGURES` entry, and they differ only by its data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import INDUSTRY_THRESHOLD_US, SyncTrace
from repro.experiments.jobs import scenario_from_params
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
    parse_sweep_args,
    run_sweep,
)


@dataclass
class FigureResult:
    """Traces and reference changes per network size, and the attack window."""

    traces: Dict[int, SyncTrace]
    reference_changes: Dict[int, Optional[int]]
    attack_window_s: Optional[Tuple[float, float]]

    @property
    def trace(self) -> SyncTrace:
        """The trace of a single-size figure."""
        (trace,) = self.traces.values()
        return trace

    def summary_rows(self):
        """Yield (N, steady, peak, time-above-threshold) summary rows."""
        for n, trace in sorted(self.traces.items()):
            above = (trace.max_diff_us > INDUSTRY_THRESHOLD_US).mean() * 100.0
            yield (n, f"{trace.steady_state_error_us():.1f}",
                   f"{trace.peak_error_us():.1f}", f"{above:.0f}%")

    def stabilized_error_us(self) -> float:
        """Max clock difference over the final quarter of the run."""
        horizon = self.trace.times_us[-1]
        tail = self.trace.window(horizon * 0.75, horizon + 1)
        return float(tail.max_diff_us.max())

    def phase_maxima(self) -> Dict[str, float]:
        """Max clock difference before/during/after the attack window."""
        start, end = (edge * S for edge in self.attack_window_s)
        spans = {"before": (0, start), "during": (start, end),
                 "after": (end, self.trace.times_us[-1] + 1)}
        return {phase: float(self.trace.window(*span).max_diff_us.max())
                for phase, span in spans.items()}

    def drag_us(self) -> float:
        """How far the attacker dragged the shared virtual clock."""
        return float(self.trace.mean_vs_true_us[-1] - self.trace.mean_vs_true_us[0])


def _growth_summary(result: FigureResult) -> str:
    return format_table(
        ["N", "steady-state (us)", "peak (us)", "time above 25us"],
        result.summary_rows(),
        title="Summary (paper: error grows with N, far above 25 us)",
    )


def _accuracy_summary(result: FigureResult) -> str:
    (changes,) = result.reference_changes.values()
    return (
        f"steady-state error: {result.trace.steady_state_error_us():.2f} us "
        "(paper: below 10 us after stabilisation)\n"
        f"max over final quarter: {result.stabilized_error_us():.2f} us\n"
        f"reference changes observed: {changes}"
    )


def _attack_summary(result: FigureResult, paper: str) -> str:
    start, end = result.attack_window_s
    return format_table(
        ["phase", "max clock diff (us)"],
        [(k, f"{v:.1f}") for k, v in result.phase_maxima().items()],
        title=f"Attack window {start:.0f}-{end:.0f} s (paper: {paper})",
    )


def _drag_summary(result: FigureResult) -> str:
    return (
        _attack_summary(result, "the attacker cannot desynchronize the network")
        + "\n\nvirtual-clock drag accumulated by the attacker: "
        f"{result.drag_us():.0f} us (the 'virtual clock slightly different "
        "to the real clock' of section 4)"
    )


@dataclass(frozen=True)
class Figure:
    """Everything that tells one figure from the others.

    ``params`` are its fixed ``scenario_trace`` params; ``options`` the
    ones the command line may set (``-m``, ``--lane``), with defaults.
    ``nodes`` is one size, or a tuple of them (``--nodes`` then takes
    several). ``csv``, ``banner`` and ``chart`` are format strings over
    ``n``, the options and (``chart`` only) the CSV ``path``.
    """

    name: str
    title: str
    params: Dict[str, Any]
    options: Dict[str, Any]
    nodes: Union[int, Tuple[int, ...]]
    attack: bool
    quick_help: Optional[str]
    csv: str
    banner: str
    chart: str
    summary: Callable[[FigureResult], str]


FIGURES: Dict[str, Figure] = {fig.name: fig for fig in (
    Figure(
        "fig1", "Figure 1: maximum clock difference of TSF, 100 and 300 nodes.",
        params={"protocol": "tsf"}, options={"lane": "vec"}, nodes=(100, 300),
        attack=False, quick_help="60 s smoke run", csv="fig1_tsf_n{n}",
        banner="=== Figure 1: TSF maximum clock difference ===",
        chart="TSF, {n} nodes (series: {path})", summary=_growth_summary,
    ),
    Figure(
        "fig2", "Figure 2: maximum clock difference of SSTSP, 500 nodes, m = 4.",
        params={"protocol": "sstsp"}, options={"m": 4, "lane": "vec"}, nodes=500,
        attack=False, quick_help="60 s smoke run", csv="fig2_sstsp_n{n}_m{m}",
        banner="=== Figure 2: SSTSP maximum clock difference ({n} nodes, m = {m}) ===",
        chart="SSTSP, {n} nodes, m={m} (series: {path})", summary=_accuracy_summary,
    ),
    Figure(
        "fig3", "Figure 3: TSF under attack (100 nodes, attacker active 400 s - 600 s).",
        params={"protocol": "tsf"}, options={}, nodes=100,
        attack=True, quick_help=None, csv="fig3_tsf_attack_n{n}",
        banner="=== Figure 3: TSF under attack ({n} nodes) ===",
        chart="TSF + attacker (series: {path})",
        summary=lambda r: _attack_summary(r, "rises to ~20000 us during the attack"),
    ),
    Figure(
        "fig4", "Figure 4: SSTSP under attack (500 nodes, attacker active 400 s - 600 s).",
        params={"protocol": "sstsp", "attack_shave_us": 40.0}, options={"m": 4}, nodes=500,
        attack=True, quick_help=None, csv="fig4_sstsp_attack_n{n}",
        banner="=== Figure 4: SSTSP under attack ({n} nodes, m={m}) ===",
        chart="SSTSP + insider attacker (series: {path})", summary=_drag_summary,
    ),
)}


def job_specs(
    name: str,
    n_values: Union[None, int, Sequence[int]] = None,
    quick: bool = False,
    seed: int = 1,
    **options: Any,
) -> Tuple[List[JobSpec], Optional[Tuple[float, float]]]:
    """Figure ``name``'s sweep jobs, one per network size, and its attack
    window (see :func:`run` for the arguments).

    Raises ``ValueError`` naming the bad field before any job exists:
    each job's scenario goes through the ``ScenarioSpec`` and
    ``SstspConfig`` checks its run will make (``n < 2``, ``m < 1``), as
    ``table1.cell_specs`` checks its grid.
    """
    fig = FIGURES[name]
    unknown = set(options) - set(fig.options)
    if unknown:
        raise TypeError(f"{name} takes no {', '.join(sorted(unknown))}")
    params = {"scenario": "quick" if quick else "paper", "seed": seed,
              **fig.params, **fig.options, **options}
    window = None
    if fig.attack:
        window = (20.0, 40.0) if quick else (PAPER_ATTACK.start_s, PAPER_ATTACK.end_s)
        params.update(duration_s=60.0 if quick else None,
                      attack_start_s=window[0], attack_end_s=window[1])
    nodes = fig.nodes if n_values is None else n_values
    sizes = (nodes,) if isinstance(nodes, int) else tuple(nodes)
    for n in sizes:
        scenario = scenario_from_params(dict(params, n=n))
        if "m" in params:
            scenario.sstsp_config(m=params["m"])
    specs = [JobSpec.make("scenario_trace", params, root_seed=seed, n=n) for n in sizes]
    return specs, window


def run(
    name: str,
    n_values: Union[None, int, Sequence[int]] = None,
    quick: bool = False,
    seed: int = 1,
    sweep: Optional[SweepOptions] = None,
    **options: Any,
) -> FigureResult:
    """Reproduce figure ``name``, one sweep job per network size.

    ``n_values`` (one size or several) and the figure's ``options``
    (``m``; ``lane``: ``"vec"``, or the slower reference ``"oo"``)
    default to its :data:`FIGURES` entry.
    With ``quick`` the run lasts 60 s and the attack 20-40 s.
    """
    specs, window = job_specs(name, n_values, quick=quick, seed=seed, **options)
    return _sweep(name, specs, window, sweep)


def _sweep(
    name: str,
    specs: List[JobSpec],
    window: Optional[Tuple[float, float]],
    sweep: Optional[SweepOptions],
) -> FigureResult:
    sizes = [spec.params_dict()["n"] for spec in specs]
    payloads = dict(zip(sizes, run_sweep(name, specs, sweep).values))
    return FigureResult(
        {n: p["trace"] for n, p in payloads.items()},
        {n: p["reference_changes"] for n, p in payloads.items()},
        window,
    )


def main(name: str, argv=None) -> None:
    """``repro <name>``: prints the figure's chart, series and summary."""
    fig = FIGURES[name]
    parser = experiment_parser(name, fig.title)
    parser.add_argument("--quick", action="store_true", help=fig.quick_help)
    parser.add_argument("--nodes", type=int, default=fig.nodes,
                        nargs=None if isinstance(fig.nodes, int) else "+")
    if "m" in fig.options:
        parser.add_argument("-m", type=int, default=fig.options["m"])
    parser.add_argument("--seed", type=int, default=1)
    if "lane" in fig.options:
        parser.add_argument("--lane", choices=("vec", "oo"), default="vec",
                            help="engine: vectorised (fast) or reference OO lane")
    add_sweep_arguments(parser)
    args, sweep = parse_sweep_args(parser, argv)
    options = {key: getattr(args, key) for key in fig.options}
    try:
        specs, window = job_specs(
            name, args.nodes, quick=args.quick, seed=args.seed, **options
        )
    except ValueError as exc:
        parser.error(str(exc))

    result = _sweep(name, specs, window, sweep)
    print(fig.banner.format(n=args.nodes, **options))
    for n, trace in sorted(result.traces.items()):
        path = save_trace_csv(trace, fig.csv.format(n=n, **options))
        print()
        print(trace_chart(trace, fig.chart.format(n=n, path=path, **options)))
        print(format_table(
            ["time (s)", "max clock diff (us)"],
            [(f"{t:.0f}", f"{d:.1f}") for t, d in downsample_rows(trace)],
        ))
    print()
    print(fig.summary(result))
