"""The benchmark's four workloads.

A workload turns a seed into a list of *groups*. A group is a few jobs
whose outputs are checked together against the qualitative contract of
one experiment (for example "SSTSP has the lowest steady-state error of
the six single-hop protocols"). A job is one unit of the program's work
as a user runs it: build the network, run it, reduce the result.

Every job is driven through the program's public entry points only
(``build_network(...).run()``, ``run_sweep``, ``run_*_vectorized``,
``MultiHopSpec``/``MultiHopRunner``, ``repro.experiments.*``). The
program never sees the seed given to the benchmark, only the specs
generated from it.

``Job.execute`` returns an *outcome*: a flat mapping of the job's
simulated outputs (trace arrays plus scalar results). The outcome is
what the digest check hashes and what the group contracts read.

Each job list is sized to take about :data:`LIST_SECONDS` of host time
at the reference speed (see ``run.py``), so one pass is one run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.analysis.metrics import INDUSTRY_THRESHOLD_US, SyncTrace, sync_latency_us
from repro.experiments import shootout
from repro.experiments.scenarios import TABLE1_INITIAL_OFFSET_US, quick_spec
from repro.multihop.runner import MultiHopRunner, MultiHopSpec
from repro.multihop.topology import Topology
from repro.network import ibss
from repro.network.ibss import AttackerSpec
from repro.protocols.multihop_base import resolve_multihop_protocol
from repro.sim.units import S
from repro.sweep import JobSpec, SweepOptions, run_sweep

Outcome = Dict[str, Any]

#: One process, no result cache, no run log or manifest.
SWEEP = SweepOptions(workers=1)
#: Host seconds one pass of a job list takes at the reference speed.
LIST_SECONDS = 20.0
#: The committed output of ``repro shootout --quick``, outside the benchmark.
GOLDEN_CSV = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "data", "shootout_quick", "golden_shootout.csv",
)

#: The single-hop protocols of ``repro related``.
RELATED_PROTOCOLS = ("tsf", "atsp", "tatsp", "satsf", "rentel", "sstsp")
#: The registered multi-hop protocols of ``repro shootout``.
MULTIHOP_PROTOCOLS = ("sstsp", "beaconless", "coop")


@dataclass
class Job:
    """One unit of work: build + run + reduce, timed as a whole."""

    key: str
    params: Dict[str, Any]
    station_periods: int
    execute: Callable[[], Outcome]


@dataclass
class Group:
    """Jobs checked together by one experiment's contract."""

    name: str
    jobs: List[Job]
    #: Reads ``{job key: outcome}``; returns the violated clauses.
    contract: Callable[[Mapping[str, Outcome]], List[str]]
    #: Optional exact check against a file outside the benchmark.
    golden: Optional[Callable[[Mapping[str, Outcome]], List[str]]] = None


def spec_seeds(seed: int, workload: str, count: int) -> List[int]:
    """``count`` scenario seeds drawn from the benchmark seed.

    The workload name is mixed in so that two workloads given the same
    seed still simulate different networks.
    """
    tag = sum(ord(ch) * 31**i for i, ch in enumerate(workload)) % 2**32
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    return [int(v) for v in rng.integers(1, 2**31 - 1, size=count)]


def _trace_outcome(trace: SyncTrace) -> Outcome:
    return {
        "trace.times_us": trace.times_us,
        "trace.max_diff_us": trace.max_diff_us,
        "trace.mean_vs_true_us": trace.mean_vs_true_us,
        "trace.present_counts": trace.present_counts,
        "trace.reference_ids": trace.reference_ids,
    }


def _channel_outcome(stats) -> Outcome:
    return {
        "channel.transmissions": stats.transmissions,
        "channel.collisions": stats.collisions,
        "channel.deliveries": stats.deliveries,
        "channel.per_drops": stats.per_drops,
    }


def _periods(duration_s: float) -> int:
    """Beacon periods of a run (every scenario here uses BP = 0.1 s)."""
    return int(round(duration_s * S / (0.1 * S)))


def _window_max(trace: SyncTrace, start_s: float, end_s: float) -> float:
    return float(trace.window(start_s * S, end_s * S).max_diff_us.max())


# ---------------------------------------------------------------------------
# ibss_related: the OO single-hop lane as ``repro related`` runs it
# ---------------------------------------------------------------------------

RELATED_N = 100
RELATED_DURATION_S = 30.0
RELATED_GROUPS = 15


def _related_job(protocol: str, spec_seed: int) -> Outcome:
    spec = quick_spec(RELATED_N, seed=spec_seed, duration_s=RELATED_DURATION_S)
    result = ibss.build_network(protocol, spec).run()
    trace = result.trace
    out = _trace_outcome(trace)
    out.update(
        steady_us=trace.steady_state_error_us(),
        peak_us=trace.peak_error_us(),
        beacons=result.successful_beacons,
        windows=result.contention_windows,
    )
    out.update(_channel_outcome(result.channel.stats))
    return out


def _related_contract(outs: Mapping[str, Outcome]) -> List[str]:
    # tests/test_experiments_extra.py::TestRelated: every protocol reports
    # an error, SSTSP has the lowest and beats TSF by more than 2x.
    steady = {key.rsplit("/", 1)[1]: out["steady_us"] for key, out in outs.items()}
    bad = [f"{p}: steady error {v} not > 0" for p, v in steady.items() if not v > 0]
    if steady["sstsp"] != min(steady.values()):
        bad.append(f"sstsp steady {steady['sstsp']:.2f}us is not the lowest")
    if not steady["sstsp"] < steady["tsf"] / 2:
        bad.append(
            f"sstsp steady {steady['sstsp']:.2f}us not < tsf/2 ({steady['tsf']:.2f}us)"
        )
    return bad


def related_groups(seed: int) -> List[Group]:
    groups = []
    for r, spec_seed in enumerate(spec_seeds(seed, "ibss_related", RELATED_GROUPS)):
        jobs = [
            Job(
                key=f"r{r}/{protocol}",
                params={"protocol": protocol, "n": RELATED_N, "seed": spec_seed,
                        "duration_s": RELATED_DURATION_S, "crypto": "modeled"},
                station_periods=RELATED_N * _periods(RELATED_DURATION_S),
                execute=lambda p=protocol, s=spec_seed: _related_job(p, s),
            )
            for protocol in RELATED_PROTOCOLS
        ]
        groups.append(Group(f"related/r{r}", jobs, _related_contract))
    return groups


# ---------------------------------------------------------------------------
# ibss_secure: OO SSTSP, full crypto, guard-tuned insider mid-run
# ---------------------------------------------------------------------------

#: The scenario shape and windows of benchmarks/bench_fig4_sstsp_attack.py:
#: 60 s with the insider active for the middle third. Shorter runs let
#: the virtual clock's own drift hide the drag, and at n=100 over 15 s
#: the insider sometimes loses the reference election to an honest node.
SECURE_N = 30
SECURE_DURATION_S = 60.0
SECURE_ATTACK = (20.0, 40.0)
SECURE_GROUPS = 30


def _secure_job(spec_seed: int) -> Outcome:
    spec = quick_spec(
        SECURE_N, seed=spec_seed, duration_s=SECURE_DURATION_S,
        attacker=AttackerSpec(start_s=SECURE_ATTACK[0], end_s=SECURE_ATTACK[1]),
    )
    result = ibss.build_network("sstsp", spec, crypto="full").run()
    trace = result.trace
    stats = [node.protocol.stats for node in result.nodes]
    out = _trace_outcome(trace)
    out.update(
        beacons=result.successful_beacons,
        windows=result.contention_windows,
        reference_changes=trace.reference_changes(),
        beacons_received=sum(s.beacons_received for s in stats),
        rejected_pipeline=sum(s.rejected_pipeline for s in stats),
        rejected_guard=sum(s.rejected_guard for s in stats),
        adjustments=sum(s.adjustments for s in stats),
        steady_us=trace.steady_state_error_us(),
        before_us=_window_max(trace, 10.0, 20.0),
        during_us=_window_max(trace, 21.0, 40.0),
        after_median_us=float(np.median(trace.window(50 * S, 61 * S).max_diff_us)),
        drag_us=float(trace.mean_vs_true_us[-1]),
    )
    out.update(_channel_outcome(result.channel.stats))
    return out


def _secure_contract(outs: Mapping[str, Outcome]) -> List[str]:
    # benchmarks/bench_fig4_sstsp_attack.py: bounded during the attack,
    # clean recovery, dragged virtual clock.
    bad = []
    for key, out in outs.items():
        if not out["during_us"] < 100.0:
            bad.append(f"{key}: max difference {out['during_us']:.1f}us during attack")
        if not out["after_median_us"] < 20.0:
            bad.append(f"{key}: no recovery ({out['after_median_us']:.1f}us after)")
        if not out["drag_us"] < -1_000.0:
            bad.append(f"{key}: virtual clock not dragged ({out['drag_us']:.0f}us)")
    return bad


def secure_groups(seed: int) -> List[Group]:
    groups = []
    for r, spec_seed in enumerate(spec_seeds(seed, "ibss_secure", SECURE_GROUPS)):
        job = Job(
            key=f"r{r}",
            params={"protocol": "sstsp", "n": SECURE_N, "seed": spec_seed,
                    "duration_s": SECURE_DURATION_S, "crypto": "full",
                    "attack_s": list(SECURE_ATTACK)},
            # the insider is one extra simulated station
            station_periods=(SECURE_N + 1) * _periods(SECURE_DURATION_S),
            execute=lambda s=spec_seed: _secure_job(s),
        )
        groups.append(Group(f"secure/r{r}", [job], _secure_contract))
    return groups


# ---------------------------------------------------------------------------
# paper_fastlane: the paper-reproduction path through run_sweep
# ---------------------------------------------------------------------------

TABLE1_M = (1, 2, 3, 4, 5)
TABLE1_N = 100
TABLE1_DURATION_S = 60.0
#: fig1-shaped TSF runs (two sizes, so the growth-with-N clause applies)
#: and a fig2-shaped SSTSP run; paper churn makes the reference leave at
#: 300 s, so the SSTSP run spans one re-election.
FIG1_SIZES = (100, 300)
FIG1_DURATION_S = 200.0
FIG2_N = 500
FIG2_DURATION_S = 350.0
#: The fig2 bench bounds spikes below 100 us over 40-61 s of its 60 s run.
#: That holds for the bench's seed but not for every network: a lost
#: reference beacon can trigger a re-election in that window (126 us at
#: seed 20, r4). The window's maximum is recorded, not bounded.
FIG2_TAIL_S = (40.0, 61.0)
FASTLANE_GROUPS = 7


def _sweep_one(spec: JobSpec) -> Any:
    return run_sweep("perfbench", [spec], SWEEP).values[0]


def _table1_job(m: int, spec_seed: int) -> Outcome:
    spec = JobSpec.make(
        "table1_cell",
        {"m": m, "n": TABLE1_N, "seed": spec_seed,
         "duration_s": TABLE1_DURATION_S,
         "initial_offset_us": TABLE1_INITIAL_OFFSET_US},
        root_seed=spec_seed,
    )
    cell = _sweep_one(spec)
    return {"latency_us": cell["latency_us"], "error_us": cell["error_us"]}


def _scenario_job(protocol: str, n: int, duration_s: float, spec_seed: int) -> Outcome:
    params = {"protocol": protocol, "lane": "vec", "scenario": "paper",
              "n": n, "seed": spec_seed, "duration_s": duration_s}
    if protocol == "sstsp":
        params["m"] = 4
    payload = _sweep_one(JobSpec.make("scenario_trace", params, root_seed=spec_seed))
    trace = payload["trace"]
    out = _trace_outcome(trace)
    out.update(
        reference_changes=payload["reference_changes"],
        steady_us=trace.steady_state_error_us(),
        peak_us=trace.peak_error_us(),
        above_threshold=float((trace.max_diff_us > INDUSTRY_THRESHOLD_US).mean()),
        latency_us=sync_latency_us(trace, INDUSTRY_THRESHOLD_US),
    )
    if protocol == "sstsp":
        out["tail_max_us"] = _window_max(trace, *FIG2_TAIL_S)
    return out


def _fastlane_contract(outs: Mapping[str, Outcome]) -> List[str]:
    bad = []
    by_name = {key.split("/", 1)[1]: out for key, out in outs.items()}
    # benchmarks/bench_table1_m_sweep.py
    cells = [by_name[f"table1_m{m}"] for m in TABLE1_M]
    latencies = [c["latency_us"] for c in cells]
    errors = [c["error_us"] for c in cells]
    if any(lat is None for lat in latencies):
        bad.append(f"table1: some m never synchronizes ({latencies})")
    elif latencies != sorted(latencies):
        bad.append(f"table1: latency not increasing with m ({latencies})")
    if errors[0] != max(errors):
        bad.append(f"table1: m=1 is not the worst error ({errors})")
    if not all(e < 2 * min(errors) for e in errors[2:]):
        bad.append(f"table1: m>=3 not within 2x of the best error ({errors})")
    # benchmarks/bench_fig1_tsf.py (its collisions clause needs a count
    # the scenario_trace payload does not carry)
    small, large = (by_name[f"fig1_tsf_n{n}"] for n in FIG1_SIZES)
    if not large["steady_us"] > small["steady_us"]:
        bad.append("fig1: TSF error does not grow with N")
    if not (small["above_threshold"] > 0.5 and large["above_threshold"] > 0.5):
        bad.append("fig1: TSF not above 25us most of the time")
    # benchmarks/bench_fig2_sstsp.py
    fig2 = by_name[f"fig2_sstsp_n{FIG2_N}"]
    if not fig2["steady_us"] < 10.0:
        bad.append(f"fig2: steady error {fig2['steady_us']:.2f}us not < 10us")
    if not fig2["steady_us"] < small["steady_us"] / 3:
        bad.append("fig2: SSTSP does not beat TSF(100) by 3x")
    return bad


def fastlane_groups(seed: int) -> List[Group]:
    groups = []
    for r, spec_seed in enumerate(spec_seeds(seed, "paper_fastlane", FASTLANE_GROUPS)):
        jobs = [
            Job(
                key=f"r{r}/table1_m{m}",
                params={"kind": "table1_cell", "m": m, "n": TABLE1_N,
                        "seed": spec_seed, "duration_s": TABLE1_DURATION_S},
                station_periods=TABLE1_N * _periods(TABLE1_DURATION_S),
                execute=lambda m=m, s=spec_seed: _table1_job(m, s),
            )
            for m in TABLE1_M
        ]
        jobs += [
            Job(
                key=f"r{r}/fig1_tsf_n{n}",
                params={"kind": "scenario_trace", "protocol": "tsf", "n": n,
                        "seed": spec_seed, "duration_s": FIG1_DURATION_S},
                station_periods=n * _periods(FIG1_DURATION_S),
                execute=lambda n=n, s=spec_seed: _scenario_job(
                    "tsf", n, FIG1_DURATION_S, s
                ),
            )
            for n in FIG1_SIZES
        ]
        jobs.append(
            Job(
                key=f"r{r}/fig2_sstsp_n{FIG2_N}",
                params={"kind": "scenario_trace", "protocol": "sstsp",
                        "n": FIG2_N, "seed": spec_seed,
                        "duration_s": FIG2_DURATION_S, "m": 4},
                station_periods=FIG2_N * _periods(FIG2_DURATION_S),
                execute=lambda s=spec_seed: _scenario_job(
                    "sstsp", FIG2_N, FIG2_DURATION_S, s
                ),
            )
        )
        groups.append(Group(f"fastlane/r{r}", jobs, _fastlane_contract))
    return groups


# ---------------------------------------------------------------------------
# multihop_spatial: the multi-hop shootout on dense spatial topologies
# ---------------------------------------------------------------------------

SPATIAL_DURATION_S = 20.0
SPATIAL_GROUPS = 8
GRID_SIDE = 8
DISK_N = 80
DISK_AREA_M = 1_000.0
DISK_RADIUS_M = 300.0


def _spatial_topology(kind: str, spec_seed: int) -> Topology:
    if kind == "grid":
        return Topology.grid(GRID_SIDE, GRID_SIDE)
    rng = np.random.default_rng(spec_seed)
    return Topology.unit_disk(DISK_N, rng, area_m=DISK_AREA_M, radius_m=DISK_RADIUS_M)


def _spatial_job(protocol: str, kind: str, spec_seed: int) -> Outcome:
    topology = _spatial_topology(kind, spec_seed)
    spec = MultiHopSpec(
        topology=topology, seed=spec_seed, duration_s=SPATIAL_DURATION_S,
        protocol=protocol,
    )
    result = MultiHopRunner(spec).run()
    trace = result.trace
    beacon_bytes = resolve_multihop_protocol(protocol).beacon_bytes
    out = _trace_outcome(trace)
    out.update(
        root=result.root,
        root_changes=result.root_changes,
        beacons_sent=result.beacons_sent,
        collisions=result.collisions_at_receivers,
        max_hop=result.max_hop(),
        per_hop_error_us=dict(result.per_hop_error_us),
        beacon_bytes=beacon_bytes,
        bytes_on_air=result.beacons_sent * beacon_bytes,
        final_present=int(trace.present_counts[-1]),
        steady_us=trace.steady_state_error_us(),
        peak_us=trace.peak_error_us(),
    )
    return out


def _overhead_clauses(by_cell: Mapping[tuple, Outcome], scenarios) -> List[str]:
    # benchmarks/bench_shootout.py: beaconless cheapest on air, coop
    # floods the most beacons, frame sizes come from the protocols.
    bad = []
    for scenario in scenarios:
        sstsp = by_cell[("sstsp", scenario)]
        beaconless = by_cell[("beaconless", scenario)]
        coop = by_cell[("coop", scenario)]
        if not beaconless["bytes_on_air"] < sstsp["bytes_on_air"]:
            bad.append(f"{scenario}: beaconless not cheaper on air than sstsp")
        if not coop["beacons_sent"] > sstsp["beacons_sent"]:
            bad.append(f"{scenario}: coop does not send more beacons than sstsp")
        if sstsp["beacon_bytes"] != 92 or not (
            beaconless["beacon_bytes"] < 92 and coop["beacon_bytes"] < 92
        ):
            bad.append(f"{scenario}: unexpected frame sizes")
    return bad


def _spatial_contract(outs: Mapping[str, Outcome]) -> List[str]:
    by_cell = {}
    for key, out in outs.items():
        _, scenario, protocol = key.split("/")
        by_cell[(protocol, scenario)] = out
    bad = _overhead_clauses(by_cell, ("grid8x8", f"disk{DISK_N}"))
    # benchmarks/bench_multihop.py (SSTSP): hop-1 at single-hop accuracy.
    for scenario in ("grid8x8", f"disk{DISK_N}"):
        if not by_cell[("sstsp", scenario)]["per_hop_error_us"].get(1, np.inf) < 10.0:
            bad.append(f"sstsp {scenario}: hop-1 error not < 10us")
    return bad


def _quick_contract(outs: Mapping[str, Outcome]) -> List[str]:
    by_cell = {(o["protocol"], o["scenario"]): o for o in outs.values()}
    bad = _overhead_clauses(by_cell, ("chain8", "grid5x5"))
    # every scheme synchronizes the whole chain to its deepest hop
    for protocol in MULTIHOP_PROTOCOLS:
        cell = by_cell[(protocol, "chain8")]
        if not (
            cell["max_hop"] == 7
            and cell["final_present"] == 8
            and cell["steady_state_error_us"] < 1_000.0
        ):
            bad.append(f"{protocol} chain8: chain not synchronized")
    return bad


def _quick_golden(outs: Mapping[str, Outcome]) -> List[str]:
    """The quick shootout rendered as CSV must equal the committed bytes."""
    with open(GOLDEN_CSV, "rb") as fh:
        golden = fh.read()
    if shootout.rows_to_csv(list(outs.values())).encode("utf-8") == golden:
        return []
    return ["shootout --quick CSV differs from tests/data/shootout_quick/golden_shootout.csv"]


def multihop_groups(seed: int) -> List[Group]:
    quick_specs = shootout.shootout_specs(quick=True)
    quick_jobs = []
    for spec in quick_specs:
        params = spec.params_dict()
        n = params["n"] if "n" in params else params["rows"] * params["cols"]
        quick_jobs.append(
            Job(
                key=f"quick/{params['name']}/{params['protocol']}",
                params=dict(params, kind="shootout_run"),
                station_periods=n * _periods(params["duration_s"]),
                execute=lambda spec=spec: dict(_sweep_one(spec)),
            )
        )
    groups = [Group("shootout_quick", quick_jobs, _quick_contract, golden=_quick_golden)]
    for r, spec_seed in enumerate(spec_seeds(seed, "multihop_spatial", SPATIAL_GROUPS)):
        jobs = []
        for kind, scenario, n in (
            ("grid", "grid8x8", GRID_SIDE**2),
            ("disk", f"disk{DISK_N}", DISK_N),
        ):
            for protocol in MULTIHOP_PROTOCOLS:
                jobs.append(
                    Job(
                        key=f"r{r}/{scenario}/{protocol}",
                        params={"protocol": protocol, "topology": kind, "n": n,
                                "seed": spec_seed,
                                "duration_s": SPATIAL_DURATION_S},
                        station_periods=n * _periods(SPATIAL_DURATION_S),
                        execute=lambda p=protocol, k=kind, s=spec_seed: _spatial_job(
                            p, k, s
                        ),
                    )
                )
        groups.append(Group(f"spatial/r{r}", jobs, _spatial_contract))
    return groups
