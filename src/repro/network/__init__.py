"""Network harness: nodes, churn, the per-BP runner, scenario builders.

:class:`~repro.network.runner.NetworkRunner` drives one IBSS: each beacon
period it collects transmission intents, resolves the contention cascade
on the true-time axis, pushes the winning beacon through the lossy
channel, dispatches receptions and end-of-period hooks, applies churn and
records the max-clock-difference trace.
"""

from repro.network.node import Node
from repro.network.churn import ChurnEvent, ChurnSchedule
from repro.network.runner import NetworkRunner, RunResult
from repro.network.ibss import build_network

__all__ = [
    "Node",
    "ChurnEvent",
    "ChurnSchedule",
    "NetworkRunner",
    "RunResult",
    "build_network",
]
