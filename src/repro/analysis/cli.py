"""``repro analyze`` — statistical roll-ups of sweep output.

Subcommands
-----------

``table1``
    Re-resolve the Table 1 ``m x replica`` grid through the sweep
    orchestrator and emit the **Table-1-with-CIs** view: per-``m`` mean /
    median / Student-t and seeded-bootstrap 95% intervals over the
    replicas, side by side with the paper's numbers, plus a
    failure/quarantine digest from the PR 6 failure records. Writes
    ``results/analysis/<name>_summary.csv`` / ``.md`` and
    ``<name>_failures.csv``.
``shootout``
    Re-resolve the multi-hop shootout grid (protocol x scenario x
    replica) and roll each
    (protocol, scenario) group's replicas into accuracy / convergence /
    beacon-traffic / bytes-on-air means with the same CI machinery.
    Writes ``results/analysis/<name>_summary.csv`` / ``.md`` and
    ``<name>_failures.csv``.
``log``
    Roll one sweep run log (the JSONL written under
    ``results/sweep_logs/``) into per-kind job/wall-time tables, a
    resilience digest (retries, quarantines, worker crashes), and the
    merged metrics-registry roll-up (``merge_snapshots`` over every
    ``job_obs`` record). Writes ``<name>_log_summary.csv`` / ``.md`` and
    ``<name>_log_metrics.csv``.
``bench``
    Roll the committed ``BENCH_*.json`` trajectory files (see
    :mod:`repro.analysis.benchgate`) into a cross-label trend view:
    per-benchmark wall-time medians and deterministic work totals,
    columns ordered by label (numeric labels numerically). Writes
    ``results/analysis/<name>_trend.csv`` / ``.md``.

``table1`` and ``shootout`` take their grid flags from the experiment
module (``add_grid_arguments`` / ``grid_specs``), so with the flags of a
``repro <exp>`` run a warm cache serves every cell without executing.

One roll-up path serves every subcommand: :func:`summary_rows` groups
cells per key, :func:`summary_csv_text` lays out each metric's stats
columns from its ``(metric, field, unit, scale)`` entry,
:func:`sweep_summary_md_text` adds the failure digest, and
:func:`write_outputs` writes the ``<name>_<suffix>`` files.

Every emitted file is **byte-stable**: floats are serialized with
``repr`` in CSVs and fixed formats in markdown, rows are sorted, and the
bootstrap is seeded — so the same sweep analyzed at any worker count, or
after a ``--resume``, produces identical bytes (pinned in
``tests/test_analyze_cli.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

from repro.analysis.stats import CellGroup, SummaryStats, group_cells
from repro.obs.registry import merge_snapshots, snapshot_rows
from repro.sim.units import S
from repro.sweep import JobSpec, run_sweep, sweep_options_from_args
from repro.sweep.failpolicy import JobFailure

#: Subdirectory of the results dir receiving analysis tables.
ANALYSIS_SUBDIR = "analysis"

#: One summarised metric: ``(CSV column prefix, cell field, CSV unit
#: suffix, divisor from the field's unit to the CSV's)``.
Metric = Tuple[str, str, str, float]

#: The statistics columns that follow ``<metric>_n``, in CSV order.
_STAT_COLUMNS = ("mean", "median", "std", "t_lo", "t_hi", "boot_lo", "boot_hi")

#: ``(key, its cells, one summary per metric)``.
SummaryRow = Tuple[Any, CellGroup, List[Optional[SummaryStats]]]

TABLE1_METRICS: Tuple[Metric, ...] = (
    ("latency", "latency_us", "s", S),
    ("error", "error_us", "us", 1.0),
)
SHOOTOUT_METRICS: Tuple[Metric, ...] = (
    ("steady", "steady_state_error_us", "us", 1.0),
    ("convergence", "convergence_time_s", "s", 1.0),
    ("beacons", "beacons_sent", "", 1.0),
    ("bytes", "bytes_on_air", "", 1.0),
)
#: A cache hit carries ``None``: its wall time measures the pickle
#: loader, not the simulator.
LOG_METRICS: Tuple[Metric, ...] = (("wall", "wall_s", "s", 1.0),)


def write_outputs(stem: str, echo: str, outputs: Sequence[Tuple[str, str]]) -> int:
    """Write each ``(suffix, text)`` exactly (LF newlines, utf-8) to
    ``results/analysis/<stem>_<suffix>``, print ``echo``, then one aligned
    ``<kind> <EXT>: <path>`` line per file (``log_summary.csv`` is
    labelled ``summary CSV``). Returns 0."""
    from repro.experiments.report import ensure_results_dir

    out_dir = os.path.join(ensure_results_dir(), ANALYSIS_SUBDIR)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for suffix, text in outputs:
        path = os.path.join(out_dir, f"{stem}_{suffix}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        base, ext = os.path.splitext(suffix)
        written.append((f"{base.rsplit('_', 1)[-1]} {ext[1:].upper()}:", path))
    print(echo)
    width = max(len(label) for label, _ in written)
    for label, path in written:
        print(f"{label:<{width}} {path}")
    return 0


def _fail(message: str) -> int:
    """Report bad input on one stderr line; the exit code is 1."""
    print(message, file=sys.stderr)
    return 1


def _fmt(value: Optional[float], digits: int = 4) -> str:
    """Markdown cell format: fixed significant digits, 'n/a' for None."""
    if value is None:
        return "n/a"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.{digits}g}"


def _mean_cell(stats_obj: Optional[SummaryStats], scale: float = 1.0) -> str:
    """Markdown cell of a summary's mean; 'n/a' without a summary."""
    return _fmt(stats_obj.mean / scale) if stats_obj else "n/a"


def _ci_cell(stats_obj: Optional[SummaryStats], scale: float = 1.0) -> str:
    """``[low, high]`` markdown cell of a summary's t interval."""
    if stats_obj is None:
        return "n/a"
    low, high = stats_obj.t_ci.low, stats_obj.t_ci.high
    return f"[{_fmt(low / scale if math.isfinite(low) else low)}, " \
           f"{_fmt(high / scale if math.isfinite(high) else high)}]"


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """A GitHub-style markdown table (deterministic bytes).

    Cell text is pipe-escaped — metric keys like ``name|node=2`` must
    not open a new column.
    """
    def cell(text: str) -> str:
        return text.replace("|", "\\|")

    lines = [
        "| " + " | ".join(cell(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(cell(c) for c in row) + " |")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the shared roll-up: grouping, stats columns, failure digest
# ----------------------------------------------------------------------


def summary_rows(
    keys: Sequence[Hashable],
    cells: Sequence[Optional[Dict[str, Any]]],
    metrics: Sequence[Metric],
) -> List[SummaryRow]:
    """Group ``cells`` by ``keys`` (first-seen order; a quarantined
    ``None`` cell counts against its key) and summarise each metric."""
    groups = group_cells(keys, cells, [field for _, field, _, _ in metrics])
    return [
        (key, group, [group.summary(field) for _, field, _, _ in metrics])
        for key, group in groups.items()
    ]


def _stat_csv_fields(stats_obj: Optional[SummaryStats], scale: float = 1.0) -> List[str]:
    """CSV cells (repr floats) for one metric summary; blank when absent."""
    if stats_obj is None:
        return [""] * (1 + len(_STAT_COLUMNS))
    values = (
        stats_obj.mean, stats_obj.median, stats_obj.std,
        stats_obj.t_ci.low, stats_obj.t_ci.high,
        stats_obj.bootstrap_ci.low, stats_obj.bootstrap_ci.high,
    )
    return [str(stats_obj.n)] + [
        repr(value / scale if math.isfinite(value) else value) for value in values
    ]


def summary_csv_text(
    lead_header: str,
    metrics: Sequence[Metric],
    rows: Iterable[Tuple[Sequence[str], Sequence[Optional[SummaryStats]]]],
) -> str:
    """A roll-up as CSV: each row's lead cells, then per metric
    ``<metric>_n`` and the :data:`_STAT_COLUMNS` (unit-suffixed, divided
    by the metric's scale, repr floats; blank for a missing summary)."""
    header = [lead_header]
    for name, _, unit, _ in metrics:
        suffix = f"_{unit}" if unit else ""
        header += [f"{name}_n"] + [f"{name}_{col}{suffix}" for col in _STAT_COLUMNS]
    lines = [",".join(header)]
    for lead, stats in rows:
        cells = list(lead)
        for (_, _, _, scale), stats_obj in zip(metrics, stats):
            cells += _stat_csv_fields(stats_obj, scale)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def failures_csv_text(failures: Sequence[JobFailure]) -> str:
    """The quarantine digest as CSV (header always present)."""
    lines = ["seq,kind,hash,reason,attempts,message"]
    for failure in sorted(failures, key=lambda f: f.seq):
        message = failure.message.replace("\n", " ").replace(",", ";")
        lines.append(
            f"{failure.seq},{failure.kind},{failure.hash},"
            f"{failure.reason},{failure.attempts},{message}"
        )
    return "\n".join(lines) + "\n"


def sweep_summary_md_text(
    title: str,
    per: str,
    replicas: int,
    missing: str,
    headers: Sequence[str],
    body: Sequence[Sequence[str]],
    failures: Sequence[JobFailure],
) -> str:
    """A sweep roll-up as markdown: title, a blurb naming the replicas
    ``per`` row and what else counts as ``missing``, the table, and the
    failure digest."""
    if failures:
        digest = markdown_table(
            ["seq", "kind", "hash", "reason", "attempts"],
            [
                [str(f.seq), f.kind, f.hash, f.reason, str(f.attempts)]
                for f in sorted(failures, key=lambda f: f.seq)
            ],
        )
    else:
        digest = "No quarantined jobs."
    parts = [
        f"# {title}",
        "",
        f"Replicas per {per}: {replicas}. Intervals are two-sided 95% "
        "(Student-t; the CSV adds the seeded-bootstrap interval). "
        f"`missing` counts quarantined cells plus replicas {missing}.",
        "",
        markdown_table(headers, body),
        "",
        "## Failure digest",
        "",
        digest,
    ]
    return "\n".join(parts) + "\n"


def _analyze_sweep(
    args: argparse.Namespace,
    grid_specs: Callable[[argparse.Namespace], List[JobSpec]],
    key: Callable[[JobSpec], Hashable],
    metrics: Sequence[Metric],
    csv_text: Callable[[Sequence[SummaryRow]], str],
    md_text: Callable[[Sequence[SummaryRow], int, Sequence[JobFailure]], str],
) -> int:
    """Resolve the grid ``args`` name through the sweep and write its
    summary CSV and markdown plus the failures CSV; a grid
    ``grid_specs`` rejects runs no job and exits 1."""
    from repro.experiments.report import replica_count

    try:
        specs = grid_specs(args)
        sweep = sweep_options_from_args(args)
    except ValueError as exc:
        return _fail(f"repro analyze {args.command}: {exc}")
    result = run_sweep(f"{args.name}_analyze", specs, sweep)
    rows = summary_rows([key(spec) for spec in specs], result.values, metrics)
    md = md_text(rows, replica_count(args), result.failures)
    return write_outputs(args.name, md, [
        ("summary.csv", csv_text(rows)),
        ("summary.md", md),
        ("failures.csv", failures_csv_text(result.failures)),
    ])


# ----------------------------------------------------------------------
# analyze table1
# ----------------------------------------------------------------------


def table1_summary_csv_text(rows: Sequence[SummaryRow]) -> str:
    """The Table-1-with-CIs summary as CSV (latency in s, error in us)."""
    return summary_csv_text("m,cells,quarantined,unsynced", TABLE1_METRICS, [
        ([str(m), str(g.cells), str(g.quarantined), str(g.gaps("latency_us"))], stats)
        for m, g, stats in rows
    ])


def table1_summary_md_text(
    rows: Sequence[SummaryRow],
    replicas: int,
    failures: Sequence[JobFailure],
) -> str:
    """The Table-1-with-CIs view as markdown, plus the failure digest."""
    from repro.experiments.table1 import PAPER_ROWS

    body: List[List[str]] = []
    for m, group, (latency, error) in rows:
        paper_latency, paper_error = PAPER_ROWS.get(m, (None, None))
        body.append([
            str(m), _mean_cell(latency, S), _ci_cell(latency, S),
            _mean_cell(error), _ci_cell(error),
            _fmt(paper_latency), _fmt(paper_error),
            str(error.n if error else 0),
            str(group.quarantined + group.gaps("latency_us")),
        ])
    return sweep_summary_md_text(
        "Table 1 with confidence intervals", "m", replicas,
        "that never reached the 25 us threshold",
        ["m", "latency (s)", "latency 95% CI (s)",
         "error (us)", "error 95% CI (us)",
         "paper latency (s)", "paper error (us)", "n", "missing"],
        body, failures,
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import grid_specs

    return _analyze_sweep(
        args, grid_specs, lambda spec: spec.params_dict()["m"],
        TABLE1_METRICS, table1_summary_csv_text, table1_summary_md_text,
    )


# ----------------------------------------------------------------------
# analyze shootout
# ----------------------------------------------------------------------


def shootout_key(spec: JobSpec) -> Tuple[str, str]:
    """A shootout cell's ``(protocol, scenario)`` row key, named as its
    payload names them."""
    params = spec.params_dict()
    return str(params["protocol"]), str(params.get("name", spec.kind))


def shootout_summary_csv_text(rows: Sequence[SummaryRow]) -> str:
    """The shootout-with-CIs summary as CSV (repr floats)."""
    return summary_csv_text(
        "protocol,scenario,cells,quarantined,unconverged", SHOOTOUT_METRICS, [
            (list(key) + [str(g.cells), str(g.quarantined),
                          str(g.gaps("convergence_time_s"))], stats)
            for key, g, stats in rows
        ],
    )


def shootout_summary_md_text(
    rows: Sequence[SummaryRow],
    replicas: int,
    failures: Sequence[JobFailure],
) -> str:
    """The shootout roll-up as markdown, plus the failure digest."""
    body: List[List[str]] = []
    for (protocol, scenario), group, (steady, conv, beacons, nbytes) in rows:
        body.append([
            protocol, scenario,
            _mean_cell(steady), _ci_cell(steady), _mean_cell(conv), _ci_cell(conv),
            _mean_cell(beacons), _mean_cell(nbytes),
            str(group.cells),
            str(group.quarantined + group.gaps("convergence_time_s")),
        ])
    return sweep_summary_md_text(
        "Multi-hop shootout with confidence intervals",
        "(protocol, scenario)", replicas,
        "whose network-wide error never settled under the convergence "
        "threshold",
        ["protocol", "scenario", "steady err (us)", "steady 95% CI (us)",
         "converge (s)", "converge 95% CI (s)", "beacons", "bytes on air",
         "n", "missing"],
        body, failures,
    )


def _cmd_shootout(args: argparse.Namespace) -> int:
    from repro.experiments.shootout import grid_specs

    return _analyze_sweep(
        args, grid_specs, shootout_key,
        SHOOTOUT_METRICS, shootout_summary_csv_text, shootout_summary_md_text,
    )


# ----------------------------------------------------------------------
# analyze log
# ----------------------------------------------------------------------


def read_run_log(path: str) -> List[Dict[str, Any]]:
    """All records of one sweep run log (JSONL, in file order).

    Raises ``ValueError`` naming ``path`` when it cannot be read as
    text, and its line number for a line that is not a JSON object.
    """
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
                if not isinstance(record, dict):
                    raise ValueError(f"{path}:{lineno}: not a JSON object")
                records.append(record)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return records


def log_kind_rows(records: Sequence[Dict[str, Any]]) -> List[SummaryRow]:
    """Per-kind rows over the ``job`` records, sorted by kind; wall-time
    statistics cover executed (cache-miss) jobs only."""
    jobs = [record for record in records if record.get("event") == "job"]
    rows = summary_rows(
        [record.get("kind", "?") for record in jobs],
        [
            {"wall_s": None if record.get("cache") == "hit"
             else float(record.get("wall_s", 0.0))}
            for record in jobs
        ],
        LOG_METRICS,
    )
    return sorted(rows, key=lambda row: row[0])


def log_resilience_counts(records: Sequence[Dict[str, Any]]) -> Dict[str, int]:
    """Counts of the sweep's resilience events in one run log."""
    counts = dict.fromkeys(
        ("job_retry", "job_quarantined", "worker_crash", "sweep_interrupted"), 0
    )
    for record in records:
        event = record.get("event")
        if event in counts:
            counts[event] += 1
    return counts


def log_merged_metrics(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """``merge_snapshots`` roll-up of every ``job_obs`` metrics snapshot."""
    total: Dict[str, Any] = {}
    for record in records:
        if record.get("event") == "job_obs" and "metrics" in record:
            merge_snapshots(total, record["metrics"])
    return total


def log_summary_csv_text(
    kind_rows: Sequence[SummaryRow],
    resilience: Dict[str, int],
) -> str:
    """Per-kind roll-up CSV plus ``#<event>,<count>`` resilience rows."""
    rows: List[Tuple[List[str], List[Optional[SummaryStats]]]] = []
    for kind, group, stats in kind_rows:
        hits = group.gaps("wall_s")
        rows.append(([kind, str(group.cells), str(hits), str(group.cells - hits)], stats))
    for key in sorted(resilience):
        rows.append(([f"#{key}", str(resilience[key]), "", ""], [None]))
    return summary_csv_text("kind,jobs,cache_hits,executed", LOG_METRICS, rows)


def log_metrics_csv_text(metrics: Dict[str, Any]) -> str:
    """The merged metrics roll-up as flat CSV rows (repr floats)."""
    lines = ["section,metric,field,value"]
    for section, metric, stat_field, value in snapshot_rows(metrics):
        lines.append(f"{section},{metric},{stat_field},{value!r}")
    return "\n".join(lines) + "\n"


def log_summary_md_text(
    source: str,
    kind_rows: Sequence[SummaryRow],
    resilience: Dict[str, int],
    metrics: Dict[str, Any],
) -> str:
    """The run-log roll-up as markdown."""
    body = []
    for kind, group, (wall,) in kind_rows:
        hits = group.gaps("wall_s")
        body.append([
            kind, str(group.cells), str(hits), str(group.cells - hits),
            _mean_cell(wall),
            _fmt(wall.median) if wall else "n/a",
            _ci_cell(wall),
        ])
    parts = [
        "# Sweep run-log summary",
        "",
        f"Source: `{source}`",
        "",
        "## Jobs by kind",
        "",
        markdown_table(
            ["kind", "jobs", "cache hits", "executed",
             "wall mean (s)", "wall median (s)", "wall 95% CI (s)"],
            body,
        ),
        "",
        "## Resilience",
        "",
        markdown_table(
            ["event", "count"],
            [[key, str(resilience[key])] for key in sorted(resilience)],
        ),
        "",
        "## Metrics roll-up",
        "",
    ]
    rows = snapshot_rows(metrics)
    if rows:
        parts.append(markdown_table(
            ["section", "metric", "field", "value"],
            [[s, m, f, _fmt(v, digits=9)] for s, m, f, v in rows],
        ))
    else:
        parts.append("No `job_obs` metrics in this log (run with `--trace-dir`).")
    return "\n".join(parts) + "\n"


def _cmd_log(args: argparse.Namespace) -> int:
    try:
        records = read_run_log(args.log)
    except ValueError as exc:
        return _fail(f"repro analyze log: {exc}")
    name = args.name
    if name is None:
        name = os.path.splitext(os.path.basename(args.log))[0]
    kind_rows = log_kind_rows(records)
    resilience = log_resilience_counts(records)
    metrics = log_merged_metrics(records)
    # Basename only: the emitted bytes must not depend on where the log
    # happened to live (the golden-fixture tests byte-compare them).
    md_text = log_summary_md_text(
        os.path.basename(args.log), kind_rows, resilience, metrics
    )
    return write_outputs(name, md_text, [
        ("log_summary.csv", log_summary_csv_text(kind_rows, resilience)),
        ("log_metrics.csv", log_metrics_csv_text(metrics)),
        ("log_summary.md", md_text),
    ])


# ----------------------------------------------------------------------
# analyze bench
# ----------------------------------------------------------------------


def _bench_label_key(label: str) -> Tuple[int, int, str]:
    """Sort key for BENCH labels: numeric labels first, in numeric
    order, then everything else lexicographically."""
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


def discover_bench_files(root: str) -> List[str]:
    """The committed ``BENCH_*.json`` trajectory files under ``root``,
    in sorted-name order (the payload label decides the column order)."""
    names = sorted(
        name for name in os.listdir(root)
        if name.startswith("BENCH_") and name.endswith(".json")
    )
    return [os.path.join(root, name) for name in names]


def load_bench_trajectory(
    paths: Sequence[str],
) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Load trajectory files as ``(label, basename, payload)`` triples,
    ordered by label (numeric labels numerically, then the rest)."""
    from repro.analysis.benchgate import load_bench_json

    loaded = []
    for path in paths:
        payload = load_bench_json(path)
        label = str(payload.get("label"))
        loaded.append((label, os.path.basename(path), payload))
    loaded.sort(key=lambda item: (_bench_label_key(item[0]), item[1]))
    return loaded


def _work_total(entry: Dict[str, Any]) -> str:
    """A BENCH record's total counted ops; '' before counters existed."""
    work = entry.get("work") or {}
    return str(sum(int(count) for count in work.values())) if work else ""


def bench_trend_md_text(
    trajectory: Sequence[Tuple[str, str, Dict[str, Any]]],
) -> str:
    """The benchmark-trajectory roll-up as byte-stable markdown.

    One wall-time table (benchmark x label, medians in ms) and one
    deterministic-work table (total counted ops per benchmark x label;
    blank before the counters existed) over every loaded BENCH file.
    """
    labels = [label for label, _, _ in trajectory]
    names = sorted({name for _, _, payload in trajectory for name in payload["benchmarks"]})
    wall_rows = []
    work_rows = []
    for name in names:
        wall_cells = [name]
        work_cells = [name]
        for _, _, payload in trajectory:
            entry = payload["benchmarks"].get(name)
            if not isinstance(entry, dict):
                wall_cells.append("-")
                work_cells.append("-")
                continue
            wall_cells.append(_fmt(float(entry["median_s"]) * 1e3))
            work_cells.append(_work_total(entry) or "-")
        wall_rows.append(wall_cells)
        work_rows.append(work_cells)

    parts = [
        "# Benchmark trajectory",
        "",
        "Source files (ordered by label): "
        + ", ".join(f"`{base}`" for _, base, _ in trajectory),
        "",
        "## Wall-time medians (ms)",
        "",
        markdown_table(["benchmark"] + labels, wall_rows),
        "",
        "## Deterministic work (total counted ops)",
        "",
        markdown_table(["benchmark"] + labels, work_rows),
        "",
        "Work totals come from `repro.obs.counters` and are a pure "
        "function of the workload; a change between labels is a real "
        "workload shift, not machine noise (`repro bench-gate` compares "
        "the per-counter breakdown exactly).",
    ]
    return "\n".join(parts) + "\n"


def bench_trend_csv_text(
    trajectory: Sequence[Tuple[str, str, Dict[str, Any]]],
) -> str:
    """Flat CSV of the trajectory (repr floats, one row per benchmark
    per label): label, benchmark, median/mean/min, rounds, work total."""
    lines = ["label,benchmark,median_s,mean_s,min_s,rounds,work_total"]
    for label, _, payload in trajectory:
        table = payload["benchmarks"]
        for name in sorted(table):
            entry = table[name]
            lines.append(",".join([
                label,
                name,
                repr(float(entry["median_s"])),
                repr(float(entry["mean_s"])),
                repr(float(entry["min_s"])),
                str(int(entry["rounds"])),
                _work_total(entry),
            ]))
    return "\n".join(lines) + "\n"


def _cmd_bench(args: argparse.Namespace) -> int:
    paths = list(args.files)
    if not paths:
        paths = discover_bench_files(args.root)
    if not paths:
        return _fail(f"no BENCH_*.json files found under {args.root!r}")
    trajectory = load_bench_trajectory(paths)
    md_text = bench_trend_md_text(trajectory)
    return write_outputs(args.name, md_text, [
        ("trend.csv", bench_trend_csv_text(trajectory)),
        ("trend.md", md_text),
    ])


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The ``repro analyze`` parser (table1 / shootout / log / bench)."""
    from repro.experiments import shootout, table1
    from repro.sweep import add_sweep_arguments

    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Roll sweep output into summary tables with CIs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, experiment, func, help_text in (
        ("table1", table1, _cmd_table1,
         "Table-1-with-CIs view over the m x replica grid"),
        ("shootout", shootout, _cmd_shootout,
         "per-(protocol, scenario) CIs over the multi-hop shootout grid"),
    ):
        p_sweep = sub.add_parser(name, help=help_text)
        experiment.add_grid_arguments(p_sweep)
        p_sweep.add_argument(
            "--name", default=name,
            help=f"output stem under results/analysis/ (default {name})",
        )
        add_sweep_arguments(p_sweep)
        p_sweep.set_defaults(func=func)

    p_log = sub.add_parser(
        "log", help="roll one sweep run log (JSONL) into summary tables"
    )
    p_log.add_argument("log", help="run-log JSONL path (results/sweep_logs/...)")
    p_log.add_argument(
        "--name", default=None,
        help="output stem under results/analysis/ (default: log file stem)",
    )
    p_log.set_defaults(func=_cmd_log)

    p_bench = sub.add_parser(
        "bench",
        help="benchmark-trajectory trend table over committed BENCH_*.json",
    )
    p_bench.add_argument(
        "files", nargs="*",
        help="BENCH_*.json files to roll up (default: discover them "
        "under --root)",
    )
    p_bench.add_argument(
        "--root", default=".",
        help="directory scanned for BENCH_*.json when no files are "
        "given (default: the current directory)",
    )
    p_bench.add_argument(
        "--name", default="bench",
        help="output stem under results/analysis/ (default bench)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the subcommand's exit code."""
    args = build_parser().parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    raise SystemExit(main())
