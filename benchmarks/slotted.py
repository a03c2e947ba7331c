"""The classic slot-granular contention rule, for the contention ablation.

Both simulation lanes resolve beacon windows with the carrier-sense
cascade of :func:`repro.mac.contention.resolve_contention`. The slotted
rule lives here, next to ``bench_ablation_contention.py``, the one bench
that compares the two; ``tests/test_mac_contention.py`` checks it too.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.obs.counters import count


def draw_slots(
    stations: Sequence[int],
    w: int,
    rng: np.random.Generator,
) -> Dict[int, int]:
    """Draw one uniform backoff slot in ``[0, w]`` per station.

    The standard defines the beacon generation window as ``w + 1`` slots,
    with the delay uniform over them.
    """
    if w < 0:
        raise ValueError(f"w must be >= 0, got {w}")
    if not stations:
        return {}
    count("mac.slot_draws", len(stations))
    slots = rng.integers(0, w + 1, size=len(stations))
    return {station: int(slot) for station, slot in zip(stations, slots)}


def resolve_slotted(slots: Dict[int, int]) -> Tuple[Optional[int], bool]:
    """Classic slot-granular rule: the unique minimum slot wins.

    Returns ``(winner, collided)``: ``winner`` is the station holding the
    unique smallest slot or None; ``collided`` is True when two or more
    stations shared the smallest slot (no beacon that window).
    """
    if not slots:
        return None, False
    min_slot = min(slots.values())
    holders = [s for s, slot in slots.items() if slot == min_slot]
    if len(holders) == 1:
        return holders[0], False
    return None, True
