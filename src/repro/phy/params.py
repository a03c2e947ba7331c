"""PHY timing parameters.

The paper evaluates an OFDM system at 54 Mbps (section 5): ``aSlotTime``
is 9 us, the contention window parameter is ``w = 30``, the beacon period
is 0.1 s, and beacon airtimes are 4 slot times for TSF's 56-byte beacon and
7 slot times for SSTSP's 92-byte beacon (24-byte preamble + 32-byte body,
plus 36 bytes of hash values and interval index for SSTSP).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.sim.units import US

#: TSF beacon size per the paper: 24 bytes preamble + 32 bytes data.
TSF_BEACON_BYTES: int = 56
#: SSTSP beacon size per the paper: TSF beacon + two 128-bit hash values
#: (HMAC tag + disclosed key) + a 4-byte interval index.
SSTSP_BEACON_BYTES: int = 92
#: Beacon airtime in slot times (paper section 5).
TSF_BEACON_AIRTIME_SLOTS: int = 4
SSTSP_BEACON_AIRTIME_SLOTS: int = 7
#: Beaconless one-way dissemination (Huan et al. style): a bare piggyback
#: timestamp — 24-byte preamble + 8-byte timestamp + 1-byte hop + 1-byte
#: schedule-delay index, no authentication material.
BEACONLESS_BEACON_BYTES: int = 34
BEACONLESS_BEACON_AIRTIME_SLOTS: int = 3
#: Cooperative spatial-averaging beacon (Hu & Servetto style): TSF-sized
#: payload + the sender's hop count and local sample weight.
COOP_BEACON_BYTES: int = 60
COOP_BEACON_AIRTIME_SLOTS: int = 4


@dataclass(frozen=True)
class PhyParams:
    """Timing and loss parameters of the radio.

    Attributes
    ----------
    slot_time_us:
        ``aSlotTime``; 9 us for OFDM.
    bitrate_mbps:
        Nominal PHY rate (only used for overhead accounting).
    beacon_airtime_slots:
        Time a beacon occupies the medium, in slot times.
    propagation_delay_us:
        Nominal one-hop transmission + propagation delay ``t_p`` the
        receiver adds to a received timestamp.
    timestamp_jitter_us:
        Half-width of the uniform receive-side timestamping error. The
        paper calls the resulting bound ``epsilon`` (< 5 us "normally"); the
        maximum synchronization error of SSTSP is ``2 * epsilon``.
    packet_error_rate:
        Probability that an otherwise successful beacon is not decoded
        (paper uses 0.01% = 1e-4).
    loss_model:
        ``"per_receiver"`` - each receiver flips an independent coin (more
        physical: fading is local); ``"per_transmission"`` - one coin per
        beacon, lost for everyone (the reading consistent with the paper's
        very clean 500-node curves: with per-receiver loss at N = 500,
        *some* receiver misses nearly every beacon, and with ``l = 1``
        each miss triggers a spurious election); ``"gilbert_elliott"`` -
        per-transmission loss whose probability follows the classic
        two-state burst chain (good state uses ``packet_error_rate``, bad
        state ``ge_per_bad``), matching the bursty regimes studied for
        beaconless WSN sync (arXiv:1906.09037).
    ge_p_good_to_bad / ge_p_bad_to_good:
        Gilbert-Elliott transition probabilities, advanced once per
        transmission. Expected burst length is ``1 / ge_p_bad_to_good``
        transmissions.
    ge_per_bad:
        Loss probability while the chain is in the bad state.
    cca_us:
        Vulnerability window of carrier sensing: two transmissions whose
        starts are closer than this collide; a later one senses the medium
        busy and defers. The slotted-contention model sets this to one slot
        time.
    """

    slot_time_us: float = 9.0 * US
    bitrate_mbps: float = 54.0
    beacon_airtime_slots: int = TSF_BEACON_AIRTIME_SLOTS
    propagation_delay_us: float = 1.0 * US
    timestamp_jitter_us: float = 2.0 * US
    packet_error_rate: float = 1e-4
    loss_model: str = "per_receiver"
    cca_us: float = 9.0 * US
    ge_p_good_to_bad: float = 0.02
    ge_p_bad_to_good: float = 0.25
    ge_per_bad: float = 0.6

    def __post_init__(self) -> None:
        if self.slot_time_us <= 0:
            raise ValueError("slot_time_us must be > 0")
        if self.beacon_airtime_slots <= 0:
            raise ValueError("beacon_airtime_slots must be > 0")
        if not 0.0 <= self.packet_error_rate <= 1.0:
            raise ValueError("packet_error_rate must be in [0, 1]")
        for name in ("propagation_delay_us", "timestamp_jitter_us"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.cca_us <= 0:
            raise ValueError("cca_us must be > 0")
        if self.loss_model not in (
            "per_receiver", "per_transmission", "gilbert_elliott"
        ):
            raise ValueError(
                f"unknown loss_model {self.loss_model!r}: expected "
                "'per_receiver', 'per_transmission' or 'gilbert_elliott'"
            )
        for name in ("ge_p_good_to_bad", "ge_p_bad_to_good", "ge_per_bad"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def beacon_airtime_us(self) -> float:
        """Beacon airtime in microseconds."""
        return self.beacon_airtime_slots * self.slot_time_us

    def with_beacon_airtime(self, slots: int) -> "PhyParams":
        """Copy with a different beacon airtime (TSF vs SSTSP beacons)."""
        return replace(self, beacon_airtime_slots=slots)

    def airtime_us_for_bytes(self, size_bytes: int) -> float:
        """Raw serialisation time of ``size_bytes`` at the PHY bitrate.

        Used by the overhead model; the MAC uses the slot-quantised
        :attr:`beacon_airtime_us` the paper specifies instead.
        """
        bits = size_bytes * 8
        return bits / self.bitrate_mbps  # Mbit/s == bit/us


#: The paper's section 5 configuration.
OFDM_54MBPS = PhyParams()
