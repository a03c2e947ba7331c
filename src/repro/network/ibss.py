"""IBSS scenario builders.

One call builds a ready-to-run network: sampled clocks, channel,
per-node protocol drivers, optional churn and optional attacker - wired
with independent named RNG streams so scenarios are reproducible and
insensitive to construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.clocks.population import ClockPopulation
from repro.core.backend import (
    CryptoBackend,
    FullCryptoBackend,
    ModeledCryptoBackend,
)
from repro.core.config import SstspConfig
from repro.core.sstsp import SstspProtocol
from repro.crypto.mutesla import IntervalSchedule
from repro.network.churn import ChurnSchedule
from repro.network.node import Node
from repro.network.runner import NetworkRunner, RunnerParams
from repro.phy.channel import BroadcastChannel
from repro.phy.params import (
    PhyParams,
    SSTSP_BEACON_AIRTIME_SLOTS,
    TSF_BEACON_AIRTIME_SLOTS,
)
from repro.protocols.atsp import AtspConfig, AtspProtocol
from repro.protocols.rentel import RentelConfig, RentelProtocol
from repro.protocols.satsf import SatsfConfig, SatsfProtocol
from repro.protocols.tatsp import TatspConfig, TatspProtocol
from repro.protocols.tsf import TsfConfig, TsfProtocol
from repro.security.attacks import (
    AttackWindow,
    SstspInsiderAttacker,
    TsfChannelAttacker,
)
from repro.sim.rng import RngRegistry
from repro.sim.units import S


@dataclass(frozen=True)
class AttackerSpec:
    """Attacker to add to a scenario (one extra, initially honest station).

    The attacker kind follows the network's protocol: the channel attacker
    for TSF-family networks, the guard-tuned insider for SSTSP.
    """

    start_s: float = 400.0
    end_s: float = 600.0
    #: Transmission lead: large enough to deterministically beat the honest
    #: reference (honest clock spread is ~+-10 us; "the attacker always
    #: wins the contentions").
    lead_slots: float = 5.0
    #: TSF attacker: how much slower than its clock the advertised time is.
    #: Large enough that no honest station ever falls behind it during the
    #: attack (otherwise the erroneous value would, ironically, act as a
    #: sync anchor for the slowest stations).
    error_offset_us: float = 50_000.0
    #: TSF attacker: TBTT pace boost guaranteeing it outruns any honest
    #: +-100 ppm oscillator ("the attacker always wins the contentions").
    pace_boost_us_per_period: float = 30.0
    #: SSTSP insider: per-BP timestamp shave (must stay under the guard).
    shave_per_period_us: float = 40.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Shared shape of one simulated scenario (paper section 5 defaults)."""

    n: int = 100
    seed: int = 1
    duration_s: float = 100.0
    beacon_period_us: float = 0.1 * S
    drift_ppm: float = 100.0
    initial_offset_us: float = 0.0
    phy: PhyParams = field(default_factory=PhyParams)
    churn: Optional[str] = None  # None | "paper"
    attacker: Optional[AttackerSpec] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(
                f"n must be >= 2 (a network needs two stations), got {self.n}"
            )
        if self.duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {self.duration_s}")
        if self.churn not in (None, "paper"):
            raise ValueError(
                f"churn must be None or 'paper', got {self.churn!r}"
            )

    @property
    def periods(self) -> int:
        return int(round(self.duration_s * S / self.beacon_period_us))


_TSF_FAMILY = {
    "tsf": (TsfConfig, TsfProtocol),
    "atsp": (AtspConfig, AtspProtocol),
    "tatsp": (TatspConfig, TatspProtocol),
    "satsf": (SatsfConfig, SatsfProtocol),
    "rentel": (RentelConfig, RentelProtocol),
}


def build_network(
    protocol: str,
    spec: ScenarioSpec,
    sstsp_config: Optional[SstspConfig] = None,
    crypto: str = "modeled",
) -> NetworkRunner:
    """Build a runnable network for any supported protocol.

    ``protocol`` is one of ``tsf``, ``atsp``, ``tatsp``, ``satsf``,
    ``rentel``, ``sstsp``. For SSTSP, ``crypto`` selects the beacon
    protection backend (``"full"`` or ``"modeled"``).
    """
    if protocol == "sstsp":
        return build_sstsp_network(spec, config=sstsp_config, crypto=crypto)
    if protocol in _TSF_FAMILY:
        return build_tsf_network(spec, protocol=protocol)
    raise ValueError(f"unknown protocol {protocol!r}")


def _sample_clocks(spec: ScenarioSpec, rngs: RngRegistry, count: int):
    population = ClockPopulation.sample(
        count,
        rngs.get("clocks"),
        drift_ppm=spec.drift_ppm,
        initial_offset_us=spec.initial_offset_us,
    )
    return [population.clock(i) for i in range(count)]


def _churn_for(
    spec: ScenarioSpec, rngs: RngRegistry, node_count: int
) -> Optional[ChurnSchedule]:
    """The spec's churn preset as a schedule over stations
    ``0..node_count-1``, drawn from the ``churn`` stream (every lane)."""
    if spec.churn is None:
        return None
    return ChurnSchedule.paper_default(
        node_ids=list(range(node_count)),
        total_periods=spec.periods,
        rng=rngs.get("churn"),
        beacon_period_us=spec.beacon_period_us,
    )


def build_tsf_network(
    spec: ScenarioSpec,
    protocol: str = "tsf",
    config=None,
) -> NetworkRunner:
    """Build a TSF-family network (TSF / ATSP / TATSP / SATSF / Rentel)."""
    config_cls, protocol_cls = _TSF_FAMILY[protocol]
    if config is None:
        config = config_cls(
            beacon_period_us=spec.beacon_period_us,
            slot_time_us=spec.phy.slot_time_us,
        )
    rngs = RngRegistry(spec.seed)
    extra = 1 if spec.attacker is not None else 0
    clocks = _sample_clocks(spec, rngs, spec.n + extra)

    nodes = []
    for i in range(spec.n):
        node = Node(i, clocks[i])
        node.protocol = protocol_cls(i, node.timer, config, rngs.get("proto", i))
        nodes.append(node)
    if spec.attacker is not None:
        attacker_id = spec.n
        node = Node(attacker_id, clocks[attacker_id])
        window = AttackWindow.from_seconds(
            spec.attacker.start_s, spec.attacker.end_s, spec.beacon_period_us
        )
        if protocol == "rentel":
            raise ValueError(
                "the channel attacker targets TSF-timer protocols; the "
                "controlled-clock scheme is outside its model"
            )
        # The channel attacker works against every TSF-family protocol:
        # the paper's section 5 notes the improved variants (ATSP, TATSP,
        # SATSF) "are also vulnerable to the attack because they depend on
        # the fast nodes to spread the timing information".
        node.protocol = TsfChannelAttacker(
            attacker_id,
            node.timer,
            config,
            rngs.get("proto", attacker_id),
            window=window,
            lead_slots=spec.attacker.lead_slots,
            error_offset_us=spec.attacker.error_offset_us,
            pace_boost_us_per_period=spec.attacker.pace_boost_us_per_period,
        )
        node.include_in_metrics = False
        nodes.append(node)

    phy = replace(spec.phy, beacon_airtime_slots=TSF_BEACON_AIRTIME_SLOTS)
    channel = BroadcastChannel(phy, rngs.get("channel"))
    params = RunnerParams(
        beacon_period_us=spec.beacon_period_us,
        periods=spec.periods,
        beacon_airtime_slots=TSF_BEACON_AIRTIME_SLOTS,
    )
    return NetworkRunner(
        nodes, channel, phy, params, churn=_churn_for(spec, rngs, spec.n)
    )


def build_sstsp_network(
    spec: ScenarioSpec,
    config: Optional[SstspConfig] = None,
    crypto: str = "modeled",
) -> NetworkRunner:
    """Build an SSTSP network, optionally with the insider attacker."""
    if config is None:
        config = SstspConfig(
            beacon_period_us=spec.beacon_period_us,
            slot_time_us=spec.phy.slot_time_us,
            rx_latency_us=(
                SSTSP_BEACON_AIRTIME_SLOTS * spec.phy.slot_time_us
                + spec.phy.propagation_delay_us
            ),
        )
    rngs = RngRegistry(spec.seed)
    extra = 1 if spec.attacker is not None else 0
    clocks = _sample_clocks(spec, rngs, spec.n + extra)

    schedule = IntervalSchedule(
        t0_us=config.t0_us,
        interval_us=config.beacon_period_us,
        length=spec.periods + config.m + 8,
    )
    backend: CryptoBackend
    if crypto == "full":
        backend = FullCryptoBackend(schedule, rngs.get("crypto"))
    elif crypto == "modeled":
        backend = ModeledCryptoBackend(schedule)
    else:
        raise ValueError(f"unknown crypto backend {crypto!r}")

    nodes = []
    for i in range(spec.n):
        backend.register_node(i)
        node = Node(i, clocks[i])
        node.protocol = SstspProtocol(
            i, config, backend, rngs.get("proto", i), founding=True
        )
        nodes.append(node)
    if spec.attacker is not None:
        attacker_id = spec.n
        backend.register_node(attacker_id)  # a *compromised* legitimate node
        node = Node(attacker_id, clocks[attacker_id])
        window = AttackWindow.from_seconds(
            spec.attacker.start_s, spec.attacker.end_s, spec.beacon_period_us
        )
        node.protocol = SstspInsiderAttacker(
            attacker_id,
            config,
            backend,
            rngs.get("proto", attacker_id),
            window=window,
            shave_per_period_us=spec.attacker.shave_per_period_us,
            lead_slots=spec.attacker.lead_slots,
        )
        node.include_in_metrics = False
        nodes.append(node)

    phy = replace(spec.phy, beacon_airtime_slots=SSTSP_BEACON_AIRTIME_SLOTS)
    channel = BroadcastChannel(phy, rngs.get("channel"))
    params = RunnerParams(
        beacon_period_us=spec.beacon_period_us,
        periods=spec.periods,
        beacon_airtime_slots=SSTSP_BEACON_AIRTIME_SLOTS,
    )
    return NetworkRunner(
        nodes, channel, phy, params, churn=_churn_for(spec, rngs, spec.n)
    )
