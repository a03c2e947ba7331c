"""Synchronization protocols.

All protocols - the TSF baseline, the related-work schemes the paper
surveys (ATSP, TATSP [4], SATSF [10], Rentel-Kunz [1]) and SSTSP itself
(:mod:`repro.core`) - implement the per-node driver interface of
:mod:`repro.protocols.base` and run unchanged inside the
:mod:`repro.network` harness.

Each multi-hop scheme is one :class:`~repro.protocols.multihop_table.
RelayTable` subclass instead and runs inside the spatial
:mod:`repro.multihop` harness, which hands every station a
:class:`~repro.protocols.multihop_base.StationView` of its table row;
the schemes register by short name in
:data:`~repro.protocols.multihop_base.MULTIHOP_PROTOCOLS` (lazy dotted
paths, so importing this package stays light).
"""

from repro.protocols.base import (
    ClockKind,
    RxContext,
    SyncProtocol,
    TxIntent,
)
from repro.protocols.multihop_base import (
    MULTIHOP_PROTOCOLS,
    MultiHopContext,
    StationView,
    available_multihop_protocols,
    resolve_multihop_protocol,
)
from repro.protocols.tsf import TsfConfig, TsfProtocol
from repro.protocols.atsp import AtspConfig, AtspProtocol
from repro.protocols.tatsp import TatspConfig, TatspProtocol
from repro.protocols.satsf import SatsfConfig, SatsfProtocol
from repro.protocols.rentel import RentelConfig, RentelProtocol

__all__ = [
    "ClockKind",
    "SyncProtocol",
    "TxIntent",
    "RxContext",
    "TsfConfig",
    "TsfProtocol",
    "AtspConfig",
    "AtspProtocol",
    "TatspConfig",
    "TatspProtocol",
    "SatsfConfig",
    "SatsfProtocol",
    "RentelConfig",
    "RentelProtocol",
    "MULTIHOP_PROTOCOLS",
    "MultiHopContext",
    "StationView",
    "available_multihop_protocols",
    "resolve_multihop_protocol",
]
