"""``sstsp-experiment``: run any (or all) paper experiments.

Every experiment CLI shares the sweep-execution flags installed by
:func:`repro.sweep.add_sweep_arguments` — ``--workers``, caching,
tracing/profiling, and the resilience set (``--retries``,
``--job-timeout``, ``--on-error``, ``--resume``); see
``docs/simulation.md`` ("Sweep resilience").

Examples
--------
::

    sstsp-experiment fig1 --quick
    sstsp-experiment table1
    sstsp-experiment table1 --workers 4 --on-error quarantine --retries 2
    sstsp-experiment table1 --resume
    sstsp-experiment all --quick
"""

from __future__ import annotations

import argparse
import functools
import importlib
import sys
from typing import Callable, Dict, List, Tuple

from repro.experiments import (
    ablations,
    chaos,
    figures,
    lemmas,
    multihop,
    overhead,
    related,
    shootout,
    table1,
)

EXPERIMENTS: Dict[str, Callable[[List[str]], None]] = {
    **{name: functools.partial(figures.main, name) for name in figures.FIGURES},
    "table1": table1.main,
    "multihop": multihop.main,
    "shootout": shootout.main,
    "overhead": overhead.main,
    "lemmas": lemmas.main,
    "related": related.main,
    "ablations": ablations.main,
    "chaos": chaos.main,
}


#: Subcommands that hand their arguments to another tool's ``main``,
#: as ``name -> (module, function)``.
TOOLS: Dict[str, Tuple[str, str]] = {
    "analyze": ("repro.analysis.cli", "main"),
    "bench-gate": ("repro.analysis.benchgate", "main"),
    "lint": ("repro.lint.cli", "main"),
    "profile": ("repro.obs.profilecli", "main"),
    "trace": ("repro.obs.cli", "main"),
}


def _dispatch(name: str, rest: List[str]) -> int:
    """Run subcommand ``name`` with its own arguments ``rest``."""
    if name in TOOLS:
        module, func = TOOLS[name]
        return getattr(importlib.import_module(module), func)(rest)
    if name == "all":
        for experiment in (
            "fig1", "fig2", "table1", "fig3", "fig4",
            "overhead", "lemmas", "related", "ablations",
        ):
            print(f"\n{'#' * 70}\n# {experiment}\n{'#' * 70}")
            EXPERIMENTS[experiment](rest)
        return 0
    EXPERIMENTS[name](rest)
    return 0


def main(argv=None) -> int:
    """Dispatch one (or all) experiment reproductions."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # A leading subcommand gets every later argument, ``-h`` included, so
    # ``repro profile run --help`` shows the subcommand's own help.
    if argv and (argv[0] in EXPERIMENTS or argv[0] in TOOLS):
        return _dispatch(argv[0], argv[1:])
    parser = argparse.ArgumentParser(
        prog="sstsp-experiment",
        description="Reproduce the SSTSP paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"] + sorted(TOOLS),
        help="which table/figure to regenerate ('analyze' rolls sweep "
        "output into summary tables with CIs; 'bench-gate' compares a "
        "BENCH_*.json against a baseline; 'lint' runs reprolint, "
        "the determinism/unit-safety static analysis; 'profile' runs a "
        "job under spans + deterministic work counters; 'trace' inspects "
        "event-trace JSONL files)",
    )
    args, passthrough = parser.parse_known_args(argv)
    return _dispatch(args.experiment, passthrough)


if __name__ == "__main__":
    raise SystemExit(main())
