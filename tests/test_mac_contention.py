"""Unit tests for beacon-window contention resolution."""

import numpy as np
import pytest

from benchmarks.slotted import draw_slots, resolve_slotted
from repro.fastlane.common import resolve_window
from repro.mac.contention import resolve_contention

AIR = 36.0  # 4 slots
CCA = 9.0


def resolve(candidates, airtime=AIR, cca=CCA):
    """Resolve ``(station, time)`` pairs."""
    ids = [station for station, _ in candidates]
    times = [t for _, t in candidates]
    return resolve_contention(ids, times, airtime, cca)


def winner(result):
    success = result.first_success
    return None if success is None else success.members[0]


def untransmitted(result, candidates):
    """Candidates that never went on air (cancelled on the success)."""
    transmitted = {m for tx in result.transmissions for m in tx.members}
    return sorted(station for station, _ in candidates if station not in transmitted)


def test_single_candidate_succeeds():
    candidates = [(7, 100.0)]
    result = resolve(candidates)
    assert winner(result) == 7
    assert result.first_success.start_us == 100.0
    assert untransmitted(result, candidates) == []


def test_no_candidates():
    result = resolve([])
    assert winner(result) is None
    assert result.transmissions == []


def test_later_candidate_cancels_after_success():
    candidates = [(1, 0.0), (2, 50.0)]
    result = resolve(candidates)
    assert winner(result) == 1
    assert untransmitted(result, candidates) == [2]


def test_same_slot_collides():
    result = resolve([(1, 0.0), (2, 4.0)])
    assert winner(result) is None
    assert result.collisions == 1
    assert result.transmissions[0].members == (1, 2)


def test_deferral_then_cancel_on_success():
    # 2 expires during 1's successful transmission, beyond the CCA window:
    # it defers to the end of the busy period, then cancels (beacon heard).
    candidates = [(1, 0.0), (2, 20.0)]
    result = resolve(candidates)
    assert winner(result) == 1
    assert untransmitted(result, candidates) == [2]


def test_deferral_then_transmit_after_collision():
    # 1 and 2 collide; 3 deferred during the collision transmits at its end
    # (no beacon was received) and succeeds.
    result = resolve([(1, 0.0), (2, 5.0), (3, 20.0)])
    assert result.collisions == 1
    assert winner(result) == 3
    assert result.first_success.start_us == pytest.approx(36.0)


def test_two_deferred_nodes_collide_on_restart():
    result = resolve([(1, 0.0), (2, 5.0), (3, 20.0), (4, 25.0)])
    # 3 and 4 both restart at t=36 and collide again
    assert winner(result) is None
    assert result.collisions == 2


def test_idle_gap_second_success_not_possible_after_first():
    # A candidate far beyond the first success still cancels.
    candidates = [(1, 0.0), (2, 500.0)]
    result = resolve(candidates)
    assert winner(result) == 1
    assert untransmitted(result, candidates) == [2]
    assert len(result.transmissions) == 1


def test_transmission_after_collision_far_gap():
    # Collision at 0; candidate at 100 (idle again) succeeds.
    result = resolve([(1, 0.0), (2, 3.0), (3, 100.0)])
    assert winner(result) == 3


def test_exact_tie_collides():
    result = resolve([(1, 10.0), (2, 10.0)])
    assert winner(result) is None
    assert result.transmissions[0].members == (1, 2)


def test_duplicate_station_rejected():
    with pytest.raises(ValueError, match="station 1 listed twice"):
        resolve([(1, 0.0), (1, 5.0)])


def test_duplicate_station_rejected_through_resolve_window():
    with pytest.raises(ValueError, match="station 4 listed twice"):
        resolve_window(np.array([4, 2, 4]), np.array([0.0, 9.0, 18.0]), AIR, CCA)


def test_length_mismatch_names_both_lengths():
    with pytest.raises(ValueError, match="ids has 3 entries but times has 2"):
        resolve_contention([1, 2, 3], [0.0, 9.0], AIR, CCA)


def test_parameter_validation():
    with pytest.raises(ValueError):
        resolve([(1, 0.0)], 0.0, CCA)
    with pytest.raises(ValueError):
        resolve([(1, 0.0)], AIR, -1.0)


def test_degenerates_to_unique_minimum_rule_with_perfect_clocks():
    # Slot positions 9 us apart: earliest unique slot always wins.
    rng = np.random.default_rng(7)
    for _ in range(200):
        slots = draw_slots(list(range(10)), w=30, rng=rng)
        candidates = [(s, slot * 9.0) for s, slot in slots.items()]
        cascade_winner = winner(resolve(candidates))
        slotted_winner, collided = resolve_slotted(slots)
        if not collided:
            assert cascade_winner == slotted_winner
        else:
            # the cascade may still recover a later success; if it reports
            # a winner it must not hold the contested minimum slot
            if cascade_winner is not None:
                assert slots[cascade_winner] > min(slots.values())


class TestDrawSlots:
    def test_uniform_range(self, rng):
        slots = draw_slots(list(range(10_000)), w=30, rng=rng)
        values = np.array(list(slots.values()))
        assert values.min() >= 0
        assert values.max() <= 30
        # roughly uniform: each slot ~ 10000/31 = 322
        counts = np.bincount(values, minlength=31)
        assert counts.min() > 200

    def test_empty(self, rng):
        assert draw_slots([], 30, rng) == {}

    def test_negative_w_rejected(self, rng):
        with pytest.raises(ValueError):
            draw_slots([1], -1, rng)


class TestResolveSlotted:
    def test_unique_min_wins(self):
        winner, collided = resolve_slotted({1: 5, 2: 3, 3: 9})
        assert winner == 2 and not collided

    def test_tied_min_collides(self):
        winner, collided = resolve_slotted({1: 3, 2: 3, 3: 9})
        assert winner is None and collided

    def test_empty(self):
        assert resolve_slotted({}) == (None, False)
