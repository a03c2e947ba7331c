#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ibss_related --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload ibss_related --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with every instrument off;
``--trace 1`` runs the job list once untraced and once traced and
reports the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is nonzero when any job raised or produced a wrong output. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGEST_DIR = os.path.join(HERE, "digests")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: workload name -> the function in workloads.py that makes its groups
WORKLOADS = {
    "ibss_related": "related_groups",
    "ibss_secure": "secure_groups",
    "paper_fastlane": "fastlane_groups",
    "multihop_spatial": "multihop_groups",
}
#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5
#: The tail percentile needs this many jobs beyond it.
TAIL_BEYOND = 10
#: Host seconds of :func:`kernel_seconds` at the reference speed. Every
#: reported time is host time rescaled to this speed (see README.md).
KERNEL_REF_S = 0.0035
READY = "perfbench-ready"


def _use_checkout_sources() -> None:
    """Import the program from this checkout's ``src``, or stop."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    # Hermetic: no injected job failures, no result cache from the caller.
    for var in ("SSTSP_FAIL_INJECT", "SSTSP_SWEEP_CACHE"):
        os.environ.pop(var, None)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _groups(workload: str, seed: int) -> List[Any]:
    import workloads

    return getattr(workloads, WORKLOADS[workload])(seed)


def kernel_seconds() -> float:
    """Best of three host timings of a fixed interpreter + numpy kernel.

    The kernel runs no program code, so a change to the program cannot
    move it; only the machine's momentary speed does.
    """
    import numpy as np

    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(40_000):
            x += i * i % 7
        a = np.arange(100_000, dtype=np.float64)
        float((np.sqrt(a) * 1.5).sum())
        best = min(best, time.perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` of host time rescaled by the kernel timings around it."""
    return seconds * KERNEL_REF_S / ((kernel_before + kernel_after) / 2)


class Runner:
    """Runs groups of jobs, timing each job and checking its output.

    With ``calibrate`` the kernel is timed before every job and once
    after the last (:meth:`close`), so each job's time can be rescaled
    by the machine speed measured right around it.
    """

    def __init__(
        self, expected: Optional[Dict[str, str]], calibrate: bool = True
    ) -> None:
        self.expected = expected
        self.calibrate = calibrate
        self.job_seconds: List[float] = []
        self.job_keys: List[str] = []
        self.kernel: List[float] = []
        self.station_periods = 0
        self.failures: List[str] = []
        self.failed = 0
        self.digests: Dict[str, str] = {}
        self.golden_checks = 0

    @property
    def attempted(self) -> int:
        return len(self.job_seconds)

    def run_group(self, group: Any, job_context: Any = None) -> None:
        from checks import digest

        outs: Dict[str, Any] = {}
        bad_jobs = set()
        for job in group.jobs:
            if self.calibrate:
                self.kernel.append(kernel_seconds())
            t0 = time.perf_counter()
            try:
                if job_context is None:
                    out = job.execute()
                else:
                    with job_context():
                        out = job.execute()
            except Exception as exc:  # a failing job is counted, not fatal
                self.job_seconds.append(time.perf_counter() - t0)
                self.job_keys.append(job.key)
                self.failures.append(f"{job.key}: raised {type(exc).__name__}: {exc}")
                bad_jobs.add(job.key)
                continue
            self.job_seconds.append(time.perf_counter() - t0)
            self.job_keys.append(job.key)
            self.station_periods += job.station_periods
            outs[job.key] = out
            got = digest(out)
            seen = self.digests.setdefault(job.key, got)
            want = self.expected.get(job.key) if self.expected is not None else seen
            if got != want or got != seen:
                self.failures.append(f"{job.key}: output digest {got} != expected {want}")
                bad_jobs.add(job.key)
        if len(outs) == len(group.jobs):
            violations = list(group.contract(outs))
            if group.golden is not None:
                self.golden_checks += 1
                violations += group.golden(outs)
            if violations:
                self.failures += [f"{group.name}: {v}" for v in violations]
                bad_jobs.update(outs)
        self.failed += len(bad_jobs)

    def close(self) -> None:
        if self.calibrate:
            self.kernel.append(kernel_seconds())

    def scaled_seconds(self) -> List[float]:
        """Per-job host seconds at the reference speed."""
        return [
            at_reference_speed(t, before, after)
            for t, before, after in zip(self.job_seconds, self.kernel, self.kernel[1:])
        ]


def _tail(seconds: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond it."""
    ordered = sorted(seconds)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _probe_setup(args: argparse.Namespace) -> float:
    """Host seconds from spawning a fresh process until it is ready to time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    elapsed = None
    try:
        for line in proc.stdout:
            if line.strip() == READY:
                elapsed = time.perf_counter() - t0
                break
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or elapsed is None:
        raise RuntimeError(f"setup probe failed (exit code {code})")
    return elapsed


def _setup_seconds(args: argparse.Namespace) -> Tuple[List[float], List[float]]:
    """(at reference speed, raw) host seconds of each setup probe."""
    kernel = [kernel_seconds()]
    raw = []
    for _ in range(SETUP_PROBES):
        raw.append(_probe_setup(args))
        kernel.append(kernel_seconds())
    scaled = [at_reference_speed(t, a, b) for t, a, b in zip(raw, kernel, kernel[1:])]
    return scaled, raw


def _fmt(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(title: str, rows: List[Tuple[str, Any, str, str]]) -> None:
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name.ljust(width)}  {_fmt(value):>12} {unit:<6} {note}")


def _record(args: argparse.Namespace, groups: List[Any], extra: Dict[str, Any]) -> str:
    """Write the generated job list and the results next to each other."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [
            {"group": g.name, "key": j.key, "params": j.params,
             "station_periods": j.station_periods}
            for g in groups for j in g.jobs
        ],
    }
    payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, default=str)
        fh.write("\n")
    return path


def _print_checks(failures: List[str], golden_checks: int, expected, args) -> None:
    if expected is None:
        print(f"output check: no committed digests for seed {args.seed}; contracts only")
    else:
        print(f"output check: exact digests of seed {args.seed} from {args.digests}, "
              "plus contracts")
    if golden_checks:
        print(f"golden: shootout --quick CSV compared byte for byte {golden_checks}x")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")


def timed_run(args: argparse.Namespace, groups, expected) -> Tuple[int, int, Dict[str, Any]]:
    import workloads

    setup, setup_raw = _setup_seconds(args)
    runner = Runner(expected)
    # A fixed amount of work per run: the groups that take --seconds at
    # the reference speed (one pass of the job list at LIST_SECONDS).
    n_groups = max(1, round(len(groups) * args.seconds / workloads.LIST_SECONDS))
    start = time.perf_counter()
    i = 0
    while i < n_groups or runner.attempted <= TAIL_BEYOND:
        runner.run_group(groups[i % len(groups)])
        i += 1
    runner.close()
    wall = time.perf_counter() - start
    jobs = runner.scaled_seconds()
    tail, pct = _tail(jobs)
    metrics = {
        "station_periods_per_s": (runner.station_periods / sum(jobs), "1/s"),
        "job_p50_s": (statistics.median(jobs), "s"),
        "job_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    raw = {
        "station_periods_per_s": runner.station_periods / sum(runner.job_seconds),
        "job_p50_s": statistics.median(runner.job_seconds),
        "job_tail_s": _tail(runner.job_seconds)[0],
        "setup_s": statistics.median(setup_raw),
    }
    failed_ratio = runner.failed / runner.attempted
    print(f"perfbench {args.workload} seed={args.seed}: {runner.attempted} jobs, "
          f"{i} groups in {wall:.2f}s")
    _print_checks(runner.failures, runner.golden_checks, expected, args)
    notes = {
        "station_periods_per_s": f"{runner.station_periods} station-periods",
        "job_p50_s": f"median of {runner.attempted} jobs",
        "job_tail_s": f"p{pct:.1f} of {runner.attempted} jobs, "
                      f"{min(TAIL_BEYOND, runner.attempted - 1)} beyond",
        "setup_s": f"median of {len(setup)} fresh processes",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    rows = []
    for name, (value, unit) in metrics.items():
        note = notes[name]
        if name in raw:
            note += f"; unscaled {_fmt(raw[name])}"
        rows.append((name, value, unit, note))
    rows.append(("failed_ratio", failed_ratio, "1", f"{runner.failed}/{runner.attempted} jobs"))
    kernel = statistics.median(runner.kernel)
    _report(f"end-to-end metrics (host time at reference speed; kernel median "
            f"{kernel * 1e3:.3f} ms vs {KERNEL_REF_S * 1e3:.3f} ms):", rows)
    extra = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "unscaled": raw,
        "failed_ratio": failed_ratio,
        "setup_probes_s": setup_raw,
        "job_seconds": list(zip(runner.job_keys, runner.job_seconds)),
        "kernel_s": runner.kernel,
        "failures": runner.failures,
    }
    return runner.attempted, runner.failed, extra


def traced_run(args: argparse.Namespace, groups, expected) -> Tuple[int, int, Dict[str, Any]]:
    from layers import PER_LAYER, LayerTracer

    plain = Runner(expected)
    for group in groups:
        plain.run_group(group)
    plain.close()
    traced = Runner(expected)
    with LayerTracer() as tracer:
        for group in groups:
            traced.run_group(group, tracer.job)
    traced.close()
    untraced_s = sum(plain.scaled_seconds())
    traced_s = sum(traced.scaled_seconds())
    values = tracer.metrics(traced_s / untraced_s)
    mismatched = sorted(k for k, d in traced.digests.items() if plain.digests.get(k) != d)
    failures = plain.failures + traced.failures + [
        f"{key}: traced output differs from untraced" for key in mismatched
    ]
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed + len(mismatched)

    print(f"perfbench {args.workload} seed={args.seed} traced: {traced.attempted} jobs, "
          f"{untraced_s:.2f}s untraced, {traced_s:.2f}s traced (reference speed)")
    _print_checks(failures, plain.golden_checks + traced.golden_checks, expected, args)
    rows = []
    for name, unit, moves, active in PER_LAYER:
        note = f"-> {moves}" if args.workload in active else "idle (predicted)"
        rows.append((name, values[name], unit, note))
    _report(f"per-layer metrics ({args.workload}, host seconds summed over the job list):",
            rows)
    layer_s = sum(values[name] for name, unit, *_ in PER_LAYER if unit == "s")
    print(f"  layer self times + unattributed_s = {layer_s:.4f}s "
          f"of {tracer.job_seconds():.4f}s traced job time")
    os.makedirs(OUT_DIR, exist_ok=True)
    chrome = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.chrome.json")
    with open(chrome, "w", encoding="utf-8") as fh:
        json.dump(tracer.chrome_trace(traced.job_keys), fh, separators=(",", ":"))
    print(f"spans: {chrome}")
    extra = {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in PER_LAYER},
        "span_tree": tracer.profiler.span_tree(),
        "work_counters": tracer.work.snapshot(),
        "failures": failures,
    }
    return attempted, failed, extra


def write_digests(args: argparse.Namespace) -> int:
    """Regenerate the committed digests of ``args.workload`` for a seed range."""
    from checks import write_expected

    first, _, last = args.write_digests.partition("-")
    produced = {}
    status = 0
    for seed in range(int(first), int(last or first) + 1):
        runner = Runner(None, calibrate=False)
        for group in _groups(args.workload, seed):
            runner.run_group(group)
        for failure in runner.failures:
            print(f"seed {seed}: FAILED {failure}")
            status = 1
        produced[seed] = runner.digests
        print(f"seed {seed}: {len(runner.digests)} job digests", flush=True)
    write_expected(args.digests, args.workload, produced)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", default=None, metavar="FIRST-LAST",
                        help="regenerate the committed digests for a seed range")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.digests = os.path.join(DIGEST_DIR, f"{args.workload}.json")

    _use_checkout_sources()
    from checks import load_expected

    if args.write_digests:
        return write_digests(args)
    expected = load_expected(args.digests, args.seed)
    groups = _groups(args.workload, args.seed)
    groups[0].jobs[0].execute()  # untimed warm-up
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    run = traced_run if args.trace else timed_run
    attempted, failed, extra = run(args, groups, expected)
    print(f"record: {_record(args, groups, extra)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": extra["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
