"""Terminal reporting: ASCII time-series charts, tables and CSV output.

The environment has no plotting stack, so figures render as log-scale
ASCII charts - enough to eyeball the shapes the paper's figures show -
and every experiment also writes its full series as CSV next to the
repository (``results/``) for external plotting.
"""

from __future__ import annotations

import argparse
import math
import os
from typing import Any, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import SyncTrace
from repro.sim.units import S


def experiment_parser(name: str, doc: Optional[str]) -> argparse.ArgumentParser:
    """The argument parser of ``repro <name>``.

    Its usage lines and errors name the subcommand, and ``--help``
    describes it with the summary line of the module docstring ``doc``
    (the rest of a docstring carries reST markup that argparse would
    print verbatim).
    """
    summary = (doc or "").strip().partition("\n")[0]
    return argparse.ArgumentParser(prog=f"repro {name}", description=summary)


def add_replica_arguments(
    parser: argparse.ArgumentParser, quick_help: str, per: str
) -> None:
    """Declare a replicated grid's ``--quick`` and ``--replicas`` flags;
    :func:`replica_count` resolves them."""
    parser.add_argument("--quick", action="store_true", help=quick_help)
    parser.add_argument(
        "--replicas", type=int, default=None, metavar="R",
        help=f"seed replicas per {per} (default 3, or 1 with --quick)",
    )


def replica_count(args: argparse.Namespace) -> int:
    """The replicas per cell: ``--replicas``, else 3, or 1 with ``--quick``."""
    if args.replicas is not None:
        return args.replicas
    return 1 if args.quick else 3


#: Default output directory for CSV series when ``SSTSP_RESULTS_DIR``
#: is unset.
RESULTS_DIR = "results"


def ensure_results_dir() -> str:
    """Create (if needed) and return the CSV output directory.

    ``SSTSP_RESULTS_DIR`` is resolved at call time, not import time, so
    tests and one-off runs can redirect output without reloading the
    module.
    """
    root = os.environ.get("SSTSP_RESULTS_DIR", RESULTS_DIR)
    os.makedirs(root, exist_ok=True)
    return root


def save_trace_csv(trace: SyncTrace, name: str) -> str:
    """Write a trace to ``results/<name>.csv``; returns the path."""
    path = os.path.join(ensure_results_dir(), f"{name}.csv")
    trace.save_csv(path)
    return path


def rows_csv_text(
    columns: Sequence[str], rows: Iterable[Mapping[str, Any]]
) -> str:
    """Result rows as CSV text: ``None`` empty, floats ``repr``, anything
    else ``str`` — the bytes are a pure function of the values (the
    parallel-determinism contract)."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for column in columns:
            value = row[column]
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_rows_csv(
    name: str, columns: Sequence[str], rows: Iterable[Mapping[str, Any]]
) -> str:
    """Write :func:`rows_csv_text` to ``results/<name>.csv``; returns the path."""
    path = os.path.join(ensure_results_dir(), f"{name}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(rows_csv_text(columns, rows))
    return path


def ascii_chart(
    times_s: Sequence[float],
    values: Sequence[float],
    title: str,
    width: int = 78,
    height: int = 16,
    log_floor: float = 1.0,
) -> str:
    """Render a log-scale ASCII chart of a time series."""
    t = np.asarray(times_s, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size == 0:
        return f"{title}\n(no data)"
    # bucket to the chart width (max per bucket: figures plot worst case)
    edges = np.linspace(t[0], t[-1], width + 1)
    idx = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, width - 1)
    col_max = np.full(width, np.nan)
    for i in range(width):
        bucket = v[idx == i]
        if bucket.size:
            col_max[i] = bucket.max()
    levels = np.log10(np.maximum(col_max, log_floor))
    finite = levels[np.isfinite(levels)]
    lo = math.floor(finite.min()) if finite.size else 0.0
    hi = math.ceil(finite.max()) if finite.size else 1.0
    hi = max(hi, lo + 1)
    rows: List[str] = [title]
    for r in range(height, 0, -1):
        threshold = lo + (hi - lo) * r / height
        label = 10 ** (lo + (hi - lo) * r / height)
        line = "".join(
            "#" if np.isfinite(levels[i]) and levels[i] >= threshold - (hi - lo) / height else " "
            for i in range(width)
        )
        rows.append(f"{label:>10.1f}us |{line}")
    rows.append(" " * 12 + "+" + "-" * width)
    rows.append(
        " " * 12
        + f"{t[0]:<10.0f}{'time (s)':^{max(0, width - 20)}}{t[-1]:>10.0f}"
    )
    return "\n".join(rows)


def trace_chart(trace: SyncTrace, title: str, **kw) -> str:
    """ASCII chart of a trace's max clock difference over time."""
    return ascii_chart(trace.times_us / S, trace.max_diff_us, title, **kw)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width text table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def downsample_rows(
    trace: SyncTrace, points: int = 20
) -> List[Tuple[float, float]]:
    """``(time_s, max_diff_us)`` rows at ~evenly spaced sample points."""
    if len(trace) == 0:
        return []
    indices = np.unique(np.linspace(0, len(trace) - 1, points).astype(int))
    return [
        (float(trace.times_us[i] / S), float(trace.max_diff_us[i]))
        for i in indices
    ]
