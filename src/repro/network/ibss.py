"""IBSS scenario builder.

One call (:func:`build_network`) builds a ready-to-run network for any
protocol: sampled clocks, channel, per-node protocol drivers, optional
churn and optional attacker - wired with independent named RNG streams
so scenarios are reproducible and insensitive to construction order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

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
from repro.network.runner import NetworkRunner
from repro.phy.channel import BroadcastChannel
from repro.phy.params import (
    PhyParams,
    SSTSP_BEACON_AIRTIME_SLOTS,
    TSF_BEACON_AIRTIME_SLOTS,
)
from repro.protocols.atsp import AtspConfig, AtspProtocol
from repro.protocols.base import SyncProtocol
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
        if self.beacon_period_us <= 0:
            raise ValueError(
                f"beacon_period_us must be > 0, got {self.beacon_period_us}"
            )
        if self.periods < 1:
            raise ValueError(
                f"duration_s must cover at least one beacon period, got "
                f"{self.duration_s} s ({self.periods} periods of "
                f"{self.beacon_period_us} us)"
            )
        if self.churn not in (None, "paper"):
            raise ValueError(
                f"churn must be None or 'paper', got {self.churn!r}"
            )

    @property
    def periods(self) -> int:
        return int(round(self.duration_s * S / self.beacon_period_us))

    def sstsp_config(self, **overrides) -> SstspConfig:
        """The SSTSP config this scenario runs: its ``BP`` and PHY slot
        time, ``rx_latency_us`` = SSTSP beacon airtime + propagation
        delay, and keyword ``overrides`` for any other field."""
        values = dict(
            beacon_period_us=self.beacon_period_us,
            slot_time_us=self.phy.slot_time_us,
            rx_latency_us=(
                SSTSP_BEACON_AIRTIME_SLOTS * self.phy.slot_time_us
                + self.phy.propagation_delay_us
            ),
        )
        values.update(overrides)
        return SstspConfig(**values)

    def attack_window(self) -> Optional[AttackWindow]:
        """The attacker's active periods (None without an attacker)."""
        if self.attacker is None:
            return None
        return AttackWindow.from_seconds(
            self.attacker.start_s, self.attacker.end_s, self.beacon_period_us
        )

    def churn_schedule(self, rngs: RngRegistry) -> Optional[ChurnSchedule]:
        """The churn preset as a schedule over stations ``0..n-1`` (never
        the attacker), drawn from the ``churn`` stream."""
        if self.churn is None:
            return None
        return ChurnSchedule.paper_default(
            node_ids=list(range(self.n)),
            total_periods=self.periods,
            rng=rngs.get("churn"),
            beacon_period_us=self.beacon_period_us,
        )

    def sample_clocks(self, rngs: RngRegistry) -> ClockPopulation:
        """Clocks of stations ``0..n-1`` plus the attacker at index ``n``,
        drawn from the ``clocks`` stream."""
        return ClockPopulation.sample(
            self.n + (self.attacker is not None),
            rngs.get("clocks"),
            drift_ppm=self.drift_ppm,
            initial_offset_us=self.initial_offset_us,
        )


_TSF_FAMILY = {
    "tsf": (TsfConfig, TsfProtocol),
    "atsp": (AtspConfig, AtspProtocol),
    "tatsp": (TatspConfig, TatspProtocol),
    "satsf": (SatsfConfig, SatsfProtocol),
    "rentel": (RentelConfig, RentelProtocol),
}

#: ``(node, rng) -> driver`` for an honest station and
#: ``(node, rng, window) -> driver`` for the attacker.
_DriverFactory = Callable[..., SyncProtocol]


def build_network(
    protocol: str,
    spec: ScenarioSpec,
    sstsp_config: Optional[SstspConfig] = None,
    crypto: str = "modeled",
) -> NetworkRunner:
    """Build a runnable network for any supported protocol.

    ``protocol`` is one of ``tsf``, ``atsp``, ``tatsp``, ``satsf``,
    ``rentel``, ``sstsp``. For SSTSP, ``sstsp_config`` replaces the
    scenario's :meth:`ScenarioSpec.sstsp_config` and ``crypto`` selects
    the beacon protection backend (``"full"`` or ``"modeled"``).

    Every protocol is assembled the same way - the same sampled clocks,
    per-station RNG streams, attacker slot (station ``n``, excluded from
    the metric), churn and channel - so only the station drivers and the
    beacon airtime differ between the networks the paper compares.
    """
    rngs = RngRegistry(spec.seed)
    if protocol == "sstsp":
        station, attacker, airtime_slots = _sstsp_drivers(
            spec, rngs, sstsp_config, crypto
        )
    elif protocol in _TSF_FAMILY:
        station, attacker, airtime_slots = _tsf_drivers(protocol, spec)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")

    clocks = spec.sample_clocks(rngs)
    nodes = []
    for node_id in range(len(clocks)):
        node = Node(node_id, clocks.clock(node_id))
        rng = rngs.get("proto", node_id)
        if node_id < spec.n:
            node.protocol = station(node, rng)
        else:
            node.protocol = attacker(node, rng, spec.attack_window())
            node.include_in_metrics = False
        nodes.append(node)

    phy = spec.phy.with_beacon_airtime(airtime_slots)
    channel = BroadcastChannel(phy, rngs.get("channel"))
    return NetworkRunner(
        nodes,
        channel,
        spec.beacon_period_us,
        spec.periods,
        churn=spec.churn_schedule(rngs),
    )


def _tsf_drivers(
    protocol: str, spec: ScenarioSpec
) -> Tuple[_DriverFactory, _DriverFactory, int]:
    """Station and channel-attacker factories of a TSF-family network."""
    config_cls, protocol_cls = _TSF_FAMILY[protocol]
    if protocol == "rentel" and spec.attacker is not None:
        raise ValueError(
            "the channel attacker targets TSF-timer protocols; the "
            "controlled-clock scheme is outside its model"
        )
    config = config_cls(
        beacon_period_us=spec.beacon_period_us,
        slot_time_us=spec.phy.slot_time_us,
    )
    attack = spec.attacker

    def station(node: Node, rng) -> SyncProtocol:
        return protocol_cls(node.node_id, node.timer, config, rng)

    def attacker(node: Node, rng, window: AttackWindow) -> SyncProtocol:
        # The channel attacker works against every TSF-family protocol:
        # the paper's section 5 notes the improved variants (ATSP, TATSP,
        # SATSF) "are also vulnerable to the attack because they depend on
        # the fast nodes to spread the timing information".
        return TsfChannelAttacker(
            node.node_id,
            node.timer,
            config,
            rng,
            window=window,
            lead_slots=attack.lead_slots,
            error_offset_us=attack.error_offset_us,
            pace_boost_us_per_period=attack.pace_boost_us_per_period,
        )

    return station, attacker, TSF_BEACON_AIRTIME_SLOTS


def _sstsp_drivers(
    spec: ScenarioSpec,
    rngs: RngRegistry,
    config: Optional[SstspConfig],
    crypto: str,
) -> Tuple[_DriverFactory, _DriverFactory, int]:
    """Station and insider-attacker factories of an SSTSP network; every
    station, the attacker included, registers with one crypto backend."""
    if config is None:
        config = spec.sstsp_config()
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
    attack = spec.attacker

    def station(node: Node, rng) -> SyncProtocol:
        backend.register_node(node.node_id)
        return SstspProtocol(node.node_id, config, backend, rng, founding=True)

    def attacker(node: Node, rng, window: AttackWindow) -> SyncProtocol:
        backend.register_node(node.node_id)  # a *compromised* legitimate node
        return SstspInsiderAttacker(
            node.node_id,
            config,
            backend,
            rng,
            window=window,
            shave_per_period_us=attack.shave_per_period_us,
            lead_slots=attack.lead_slots,
        )

    return station, attacker, SSTSP_BEACON_AIRTIME_SLOTS
