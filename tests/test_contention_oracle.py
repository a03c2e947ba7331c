"""Parity of the sorted-walk contention cascade with the heap reference.

``heap_cascade`` below is the earlier implementation of
:func:`repro.mac.contention.resolve_contention`, kept verbatim as the
reference oracle: it pushes every candidate onto a heap, drains it to
the end, and lists the stations that cancelled. The cascade in ``src/``
stops at the first success instead. Over every generated window the two
must agree on each transmission up to and including the first success,
on the collision count, on the ``contention_win`` event and on the
``mac.*`` work counts.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastlane.common import resolve_window
from repro.mac.contention import Transmission, resolve_contention
from repro.obs.counters import count, count_work
from repro.obs.events import emit, observe_run


@dataclass
class OracleResult:
    transmissions: List[Transmission] = field(default_factory=list)
    cancelled: List[int] = field(default_factory=list)

    @property
    def first_success(self) -> Optional[Transmission]:
        for tx in self.transmissions:
            if tx.success:
                return tx
        return None

    @property
    def collisions(self) -> int:
        return sum(1 for tx in self.transmissions if not tx.success)


def heap_cascade(
    candidates: Sequence[Tuple[int, float]],
    airtime_us: float,
    cca_us: float,
) -> OracleResult:
    """The drain-to-end heap cascade (reference behaviour)."""
    if airtime_us <= 0 or cca_us <= 0:
        raise ValueError("airtime_us and cca_us must be > 0")
    seen = set()
    for station, _ in candidates:
        if station in seen:
            raise ValueError(f"station {station} listed twice in contention")
        seen.add(station)

    counter = itertools.count()
    heap: List[Tuple[float, int, int]] = []
    for station, t in candidates:
        heapq.heappush(heap, (float(t), next(counter), station))
    count("mac.contention_round")
    count("mac.contention_candidates", len(candidates))

    result = OracleResult()
    cur_start: Optional[float] = None
    cur_end = 0.0
    cur_members: List[int] = []
    success_done_at: Optional[float] = None

    def close_group() -> None:
        nonlocal cur_start, cur_members, success_done_at
        if cur_start is None:
            return
        tx = Transmission(cur_start, cur_end, tuple(cur_members))
        result.transmissions.append(tx)
        if tx.success and success_done_at is None:
            success_done_at = tx.end_us
        cur_start = None
        cur_members = []

    while heap:
        t, _, station = heapq.heappop(heap)
        if cur_start is not None and t >= cur_end:
            close_group()
        if success_done_at is not None and t >= success_done_at:
            result.cancelled.append(station)
            continue
        if cur_start is None:
            cur_start = t
            cur_end = t + airtime_us
            cur_members = [station]
        elif t - cur_start < cca_us:
            cur_members.append(station)  # inside vulnerability window: collision
        else:
            # Medium sensed busy: defer to the end of the busy period.
            heapq.heappush(heap, (cur_end, next(counter), station))
    close_group()
    first = result.first_success
    if first is not None:
        emit(
            "contention_win",
            t_us=first.start_us,
            node=first.members[0],
            contenders=len(candidates),
            collisions=result.collisions,
        )
    return result


def until_first_success(transmissions: List[Transmission]) -> List[Transmission]:
    for k, tx in enumerate(transmissions):
        if tx.success:
            return transmissions[: k + 1]
    return transmissions


def observed(resolve):
    """Run ``resolve()`` under a work tally and an event trace."""
    with count_work() as work, observe_run() as obs:
        result = resolve()
    events = [{k: v for k, v in e.items() if k != "seq"} for e in obs.events]
    return result, work.snapshot(), events


#: (airtime_us, cca_us) pairs: the OO and fastlane beacon shapes, a long
#: airtime that chains deferrals across many slots, and a CCA window
#: longer than the airtime (nobody ever defers).
SHAPES = [(36.0, 9.0), (63.0, 9.0), (400.0, 9.0), (5.0, 9.0)]


#: The vector TSF lane's beacon shape: 7 slots of airtime, one-slot CCA.
TSF_SHAPE = (63.0, 9.0)


def tsf_window(n: int, seed: int, skew_us: float):
    """A TSF-shaped election window at scale: ``n`` stations draw a slot
    in ``[0, 30]`` (TsfConfig.w) on the 9 us grid, shifted by a per-station
    clock skew in ``[-skew_us, skew_us]`` (0 keeps exact slot ties)."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(10 * n)[:n].tolist()
    slots = rng.integers(0, 31, size=n)
    skews = rng.uniform(-skew_us, skew_us, size=n) if skew_us else np.zeros(n)
    return ids, (slots * 9.0 + skews).tolist(), *TSF_SHAPE


@st.composite
def windows(draw):
    """``(ids, times, airtime_us, cca_us)`` for one beacon window."""
    if draw(st.integers(0, 9)) == 0:
        # one window in ten is an election at n up to 500
        return tsf_window(
            draw(st.integers(min_value=2, max_value=500)),
            draw(st.integers(min_value=0, max_value=2**32 - 1)),
            draw(st.sampled_from([0.0, 20.0, 200.0])),
        )
    airtime, cca = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(min_value=0, max_value=40))
    ids = draw(
        st.lists(st.integers(0, 10_000), min_size=n, max_size=n, unique=True)
    )
    kind = draw(st.sampled_from(["slots", "skewed", "free", "collide_then_win"]))
    if kind == "slots":
        # zero skew: slot-quantised starts, exact ties at small w
        w = draw(st.integers(min_value=0, max_value=31))
        slots = draw(st.lists(st.integers(0, w), min_size=n, max_size=n))
        times = [slot * 9.0 for slot in slots]
    elif kind == "skewed":
        slots = draw(st.lists(st.integers(0, 31), min_size=n, max_size=n))
        skews = draw(
            st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)
        )
        times = [slot * 9.0 + skew for slot, skew in zip(slots, skews)]
    elif kind == "free":
        times = draw(st.lists(st.floats(0.0, 2_000.0), min_size=n, max_size=n))
    else:
        # a colliding group inside one CCA window, then the rest later
        head = draw(st.integers(min_value=0, max_value=n))
        lag = draw(st.floats(0.0, cca * 0.99))
        later = draw(
            st.lists(st.floats(0.0, 3 * airtime), min_size=n - head, max_size=n - head)
        )
        times = [100.0 + lag * k / max(head, 1) for k in range(head)]
        times += [100.0 + airtime * 0.5 + t for t in later]
        order = draw(st.permutations(range(n)))
        times = [times[k] for k in order]
    return ids, times, airtime, cca


@given(window=windows())
@settings(max_examples=600, deadline=None)
def test_sorted_walk_matches_heap_cascade(window):
    ids, times, airtime, cca = window
    new, new_counts, new_events = observed(
        lambda: resolve_contention(ids, times, airtime, cca)
    )
    old, old_counts, old_events = observed(
        lambda: heap_cascade(list(zip(ids, times)), airtime, cca)
    )
    assert new.transmissions == until_first_success(old.transmissions)
    assert new.first_success == old.first_success
    assert new.collisions == old.collisions
    assert new_counts == old_counts
    assert new_counts["mac.contention_round"] == 1
    assert new_counts["mac.contention_candidates"] == len(ids)
    assert new_events == old_events


def test_collision_then_success_window():
    # 1 and 2 collide; 3 and 4 defer and collide again at 36; 5 defers
    # during that retry and wins alone at 72; 6 and 7 cancel.
    ids = [1, 2, 3, 4, 5, 6, 7]
    times = [0.0, 5.0, 20.0, 25.0, 50.0, 90.0, 200.0]
    new = resolve_contention(ids, times, 36.0, 9.0)
    old = heap_cascade(list(zip(ids, times)), 36.0, 9.0)
    assert [tx.members for tx in new.transmissions] == [(1, 2), (3, 4), (5,)]
    assert new.transmissions == old.transmissions
    assert old.cancelled == [6, 7]


def assert_window_matches_oracle(ids, times, airtime, cca):
    """``resolve_window`` on numpy inputs agrees with the heap cascade on
    the winner, its start, the collision count, the work counts and the
    ``contention_win`` event."""
    (winner, start, collisions), new_counts, new_events = observed(
        lambda: resolve_window(
            np.array(ids, dtype=np.int64), np.array(times, dtype=float), airtime, cca
        )
    )
    old, old_counts, old_events = observed(
        lambda: heap_cascade(list(zip(ids, times)), airtime, cca)
    )
    success = old.first_success
    assert winner == (None if success is None else success.members[0])
    assert start == (None if success is None else success.start_us)
    assert collisions == old.collisions
    if ids:
        assert new_counts == old_counts
        assert new_events == old_events
    else:  # an empty window never reaches the cascade
        assert new_counts == {} and new_events == []


@given(window=windows())
@settings(max_examples=200, deadline=None)
def test_resolve_window_with_numpy_inputs_matches_oracle(window):
    assert_window_matches_oracle(*window)


@pytest.mark.parametrize("n", [1, 2, 500])
@pytest.mark.parametrize("skew_us", [0.0, 200.0])
def test_resolve_window_at_election_scale(n, skew_us):
    # always run what hypothesis draws only now and then: the one-candidate
    # settle and 500-candidate elections with and without skew
    for seed in range(20):
        assert_window_matches_oracle(*tsf_window(n, seed, skew_us))


@pytest.mark.parametrize(
    "ids, times, station, value",
    [
        ([0, 1], [math.nan, math.nan], 0, "nan"),
        ([0, 1, 2], [1.0, 5.0, math.nan], 2, "nan"),
        ([4, 7], [math.inf, 3.0], 4, "inf"),
        ([4, 7], [3.0, -math.inf], 7, "-inf"),
    ],
)
def test_non_finite_time_is_rejected(ids, times, station, value):
    # A NaN start never ends its transmission: the cascade used to loop
    # forever, appending empty transmissions.
    message = f"station {station} has non-finite transmission time {value}"
    with pytest.raises(ValueError, match=message):
        resolve_contention(ids, times, 30.0, 9.0)
    with pytest.raises(ValueError, match=message):
        resolve_window(np.array(ids), np.array(times), 30.0, 9.0)


@pytest.mark.parametrize("airtime, cca", [(math.nan, 9.0), (30.0, math.nan), (0.0, 9.0)])
def test_bad_window_shape_is_rejected(airtime, cca):
    # a NaN airtime used to end every transmission at NaN, and a NaN CCA
    # window deferred every station instead of colliding it
    for n in (1, 2):
        with pytest.raises(ValueError, match="must be > 0"):
            resolve_window(np.arange(n), np.array([0.0, 5.0][:n]), airtime, cca)
    with pytest.raises(ValueError, match="must be > 0"):
        resolve_contention([0, 1], [0.0, 5.0], airtime, cca)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_lone_non_finite_candidate_is_rejected(value):
    with pytest.raises(ValueError, match=f"station 3 .* {value}"):
        resolve_window(np.array([3]), np.array([value]), 30.0, 9.0)
