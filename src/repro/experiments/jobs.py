"""Sweep job functions shared by the figure/table experiments.

Each function is module-level (worker processes re-import it by dotted
path, see :mod:`repro.sweep.jobs`), takes one frozen
:class:`~repro.sweep.spec.JobSpec` and returns a picklable payload. All
simulation randomness comes from the seed recorded *in the spec*, so a
job's result is a pure function of its spec — the property the result
cache and the parallel/serial byte-identity guarantee both rest on.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.analysis.metrics import INDUSTRY_THRESHOLD_US, sync_latency_us
from repro.experiments.scenarios import paper_spec, quick_spec
from repro.network.ibss import AttackerSpec, ScenarioSpec
from repro.sweep.spec import JobSpec


_SCENARIO_BUILDERS = {"paper": paper_spec, "quick": quick_spec}

#: Attacker knobs of ``scenario_trace``: any of them needs the attack window.
_ATTACK_PARAMS = ("attack_start_s", "attack_end_s", "attack_shave_us")


def _require(kind: str, params: Dict[str, Any], *names: str) -> None:
    """Raise ValueError naming ``kind`` and every param in ``names`` that
    is missing or None."""
    missing = [name for name in names if params.get(name) is None]
    if missing:
        raise ValueError(
            f"{kind}: missing job param(s) "
            + ", ".join(repr(name) for name in missing)
        )


def scenario_from_params(params: Dict[str, Any]) -> ScenarioSpec:
    """Rebuild the ScenarioSpec a ``scenario_trace`` job describes."""
    _require("scenario_trace", params, "n", "seed")
    scenario = params.get("scenario", "paper")
    builder = _SCENARIO_BUILDERS.get(scenario)
    if builder is None:
        raise ValueError(
            f"scenario_trace: unknown scenario {scenario!r} "
            f"(one of {sorted(_SCENARIO_BUILDERS)})"
        )
    attacker: Optional[AttackerSpec] = None
    if any(params.get(name) is not None for name in _ATTACK_PARAMS):
        _require("scenario_trace", params, "attack_start_s", "attack_end_s")
        kwargs: Dict[str, Any] = {
            "start_s": params["attack_start_s"],
            "end_s": params["attack_end_s"],
        }
        if params.get("attack_shave_us") is not None:
            kwargs["shave_per_period_us"] = params["attack_shave_us"]
        attacker = AttackerSpec(**kwargs)
    kwargs = {
        "n": params["n"],
        "seed": params["seed"],
        "attacker": attacker,
        "initial_offset_us": params.get("initial_offset_us", 0.0),
    }
    if params.get("duration_s") is not None:
        kwargs["duration_s"] = params["duration_s"]
    return builder(**kwargs)


def run_scenario_trace(job: JobSpec) -> Dict[str, Any]:
    """One protocol scenario → its trace payload (fig1–fig4 unit of work).

    Params: ``protocol`` (tsf|sstsp), ``lane`` (vec|oo), ``scenario``
    (paper|quick), ``n``, ``seed``, optional ``duration_s``, ``m``,
    ``initial_offset_us`` and attacker knobs (``attack_start_s``,
    ``attack_end_s``, ``attack_shave_us``).
    """
    params = job.params_dict()
    _require("scenario_trace", params, "protocol")
    protocol = params["protocol"]
    if protocol not in ("tsf", "sstsp"):
        raise ValueError(f"scenario_trace: unknown protocol {protocol!r}")
    lane = params.get("lane", "vec")
    if lane not in ("vec", "oo"):
        raise ValueError(f"scenario_trace: unknown lane {lane!r}")
    spec = scenario_from_params(params)
    if protocol == "sstsp":
        config = spec.sstsp_config(m=params.get("m", 4))
        if lane == "oo":
            from repro.network.ibss import build_network

            result = build_network("sstsp", spec, sstsp_config=config).run()
            return {
                "trace": result.trace,
                "reference_changes": result.trace.reference_changes(),
            }
        from repro.fastlane import run_sstsp_vectorized

        result = run_sstsp_vectorized(spec, config=config)
        return {
            "trace": result.trace,
            "reference_changes": result.reference_changes,
        }
    if lane == "oo":
        from repro.network.ibss import build_network

        result = build_network("tsf", spec).run()
        return {"trace": result.trace, "reference_changes": None}
    from repro.fastlane import run_tsf_vectorized

    return {"trace": run_tsf_vectorized(spec).trace, "reference_changes": None}


def run_table1_cell(job: JobSpec) -> Dict[str, Optional[float]]:
    """One (m, replica) Table 1 cell: latency to threshold + tail error.

    Params: ``m``, ``n``, ``seed`` (already replica-offset), ``duration_s``,
    ``initial_offset_us``.
    """
    from repro.fastlane import run_sstsp_vectorized

    params = job.params_dict()
    _require("table1_cell", params, "m", "n", "seed", "duration_s", "initial_offset_us")
    spec = quick_spec(
        params["n"],
        seed=params["seed"],
        duration_s=params["duration_s"],
        initial_offset_us=params["initial_offset_us"],
    )
    config = spec.sstsp_config(m=params["m"])
    trace = run_sstsp_vectorized(spec, config=config).trace
    latency = sync_latency_us(trace, INDUSTRY_THRESHOLD_US)
    return {
        "latency_us": latency,
        "error_us": trace.steady_state_error_us(),
    }
