"""802.11 ad-hoc-mode beacon MAC.

Implements the beacon generation window of the standard's TSF: at each
Target Beacon Transmission Time every competing station draws a uniform
slot delay in ``[0, w]`` slot times, transmits when its timer expires
unless it received a beacon first, and defers while the medium is busy.
:mod:`repro.mac.contention` resolves one window's worth of candidate
transmissions into collisions and the first success on the real
(clock-skew-aware) time axis.
"""

from repro.mac.beacon import BeaconFrame, SecureBeaconFrame
from repro.mac.contention import (
    ContentionResult,
    Transmission,
    draw_slots,
    resolve_contention,
    resolve_slotted,
)

__all__ = [
    "BeaconFrame",
    "SecureBeaconFrame",
    "ContentionResult",
    "Transmission",
    "draw_slots",
    "resolve_contention",
    "resolve_slotted",
]
