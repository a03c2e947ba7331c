"""Parity of the lazy churn applier with the callback-era reference.

``CallbackApplier`` below is the earlier ``ChurnApplier``, kept verbatim
as the reference oracle: its ``apply`` takes ``leave`` / ``ret``
callbacks and calls them as it walks the period's events. The applier in
``src/`` instead yields the due ``(action, node_id)`` changes from
:meth:`~repro.network.churn.ChurnApplier.due`, and the lane applies each
one before asking for the next. Over generated schedules (reference
markers, double-booked leaves and returns, unknown ids, an excluded
attacker-held reference, and a reference that moves after each leave)
both must apply the same sequence of changes and end with the same
marker FIFO.

``TestChurnApplier`` drives the applier the way the vector lanes do:
through :meth:`~repro.fastlane.common.VectorLane.apply_churn`, over the
lane's presence mask and event log.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastlane.common import VectorLane
from repro.network.churn import (
    REFERENCE_MARKER,
    ChurnApplier,
    ChurnEvent,
    ChurnSchedule,
)
from repro.network.ibss import ScenarioSpec


class CallbackApplier:
    """The callback-era applier (reference behaviour)."""

    def __init__(self, schedule: Optional[ChurnSchedule]) -> None:
        self.schedule = schedule
        self._marker_left: List[int] = []

    def resolve_marker(
        self,
        node_id: int,
        action: str,
        current_reference: Callable[[], Optional[int]],
        exclude: Optional[Callable[[int], bool]] = None,
    ) -> Optional[int]:
        if node_id != REFERENCE_MARKER:
            return node_id
        if action == "leave":
            ref = current_reference()
            if ref is None or ref < 0:
                return None
            if exclude is not None and exclude(ref):
                return None
            self._marker_left.append(ref)
            return ref
        if self._marker_left:
            return self._marker_left.pop(0)
        return None

    def apply(
        self,
        period: int,
        current_reference: Callable[[], Optional[int]],
        is_present: Callable[[int], Optional[bool]],
        leave: Callable[[int], None],
        ret: Callable[[int], None],
        exclude: Optional[Callable[[int], bool]] = None,
    ) -> None:
        if self.schedule is None:
            return
        for event in self.schedule.events_for(period):
            for node_id in event.node_ids:
                resolved = self.resolve_marker(
                    node_id, event.action, current_reference, exclude
                )
                if resolved is None:
                    continue
                present = is_present(resolved)
                if present is None:
                    continue
                if event.action == "leave" and present:
                    leave(resolved)
                elif event.action == "return" and not present:
                    ret(resolved)


class World:
    """Presence plus a reference role that moves after every leave."""

    def __init__(
        self, present: List[bool], refs: List[int], excluded: List[int]
    ) -> None:
        self.present = list(present)
        self._refs = refs
        self._next = 0
        self.reference = refs[0]
        self.excluded = set(excluded)
        self.applied: List[Tuple[int, str, int]] = []

    def current_reference(self) -> int:
        ref = self.reference
        return ref if 0 <= ref < len(self.present) and self.present[ref] else -1

    def is_present(self, node_id: int) -> Optional[bool]:
        if not 0 <= node_id < len(self.present):
            return None
        return self.present[node_id]

    def exclude(self, ref: int) -> bool:
        return ref in self.excluded

    def change(self, period: int, action: str, node_id: int) -> None:
        self.applied.append((period, action, node_id))
        self.present[node_id] = action == "return"
        if action == "leave":
            self._next = (self._next + 1) % len(self._refs)
            self.reference = self._refs[self._next]


@st.composite
def churn_cases(draw):
    n = draw(st.integers(2, 7))
    ids = st.one_of(st.just(REFERENCE_MARKER), st.integers(-3, n + 2))
    events = draw(
        st.lists(
            st.builds(
                ChurnEvent,
                st.integers(1, 6),
                st.sampled_from(("leave", "return")),
                st.lists(ids, min_size=1, max_size=4).map(tuple),
            ),
            max_size=24,
        )
    )
    present = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    refs = draw(st.lists(st.integers(-1, n - 1), min_size=1, max_size=6))
    excluded = draw(st.lists(st.integers(0, n - 1), max_size=2))
    with_exclude = draw(st.booleans())
    return events, present, refs, excluded, with_exclude


def _run_oracle(case) -> Tuple[World, List[int]]:
    events, present, refs, excluded, with_exclude = case
    world = World(present, refs, excluded)
    applier = CallbackApplier(ChurnSchedule(events))
    exclude = world.exclude if with_exclude else None
    for period in range(1, 7):
        applier.apply(
            period,
            world.current_reference,
            world.is_present,
            lambda i, p=period: world.change(p, "leave", i),
            lambda i, p=period: world.change(p, "return", i),
            exclude,
        )
    return world, applier._marker_left


def _run_lazy(case) -> Tuple[World, List[int]]:
    events, present, refs, excluded, with_exclude = case
    world = World(present, refs, excluded)
    applier = ChurnApplier(ChurnSchedule(events))
    exclude = world.exclude if with_exclude else None
    for period in range(1, 7):
        for action, node_id in applier.due(
            period, world.current_reference, world.is_present, exclude
        ):
            world.change(period, action, node_id)
    return world, applier.marker_left


@settings(max_examples=300, deadline=None)
@given(churn_cases())
def test_due_matches_callback_apply(case):
    oracle, oracle_fifo = _run_oracle(case)
    lazy, lazy_fifo = _run_lazy(case)
    assert lazy.applied == oracle.applied
    assert lazy_fifo == oracle_fifo
    assert lazy.present == oracle.present


def test_generated_cases_reach_every_rule():
    """A fixed case exercising each rule the oracle compares: a double
    booking, an unknown id, an excluded reference and a moving one."""
    case = (
        [
            ChurnEvent(1, "leave", (REFERENCE_MARKER, 1, 1, 99)),
            ChurnEvent(2, "leave", (REFERENCE_MARKER,)),
            ChurnEvent(3, "return", (REFERENCE_MARKER, REFERENCE_MARKER, 1)),
        ],
        [True, True, True, True],
        [0, 2, 3],
        [3],
        True,
    )
    lazy, fifo = _run_lazy(case)
    oracle, oracle_fifo = _run_oracle(case)
    # p1: the marker takes the reference (0); node 1 leaves once (the
    # second leave is double-booked); 99 is unknown. Each leave moves the
    # reference on: 0 -> 2 -> 3.
    # p2: reference 3 is excluded, so nothing leaves and the FIFO is kept.
    # p3: the marker return brings back 0; the second marker finds an
    # empty FIFO; node 1 returns.
    assert lazy.applied == oracle.applied == [
        (1, "leave", 0),
        (1, "leave", 1),
        (3, "return", 0),
        (3, "return", 1),
    ]
    assert fifo == oracle_fifo == []


def _lane(n: int, schedule: Optional[ChurnSchedule]) -> VectorLane:
    """A vector lane over ``n`` stations that applies ``schedule``."""
    lane = VectorLane(ScenarioSpec(n=n, duration_s=1.0), keep_values=False)
    lane.churn = ChurnApplier(schedule)
    return lane


class TestChurnApplier:
    def test_leave_and_return(self):
        schedule = ChurnSchedule(
            [ChurnEvent(5, "leave", (1,)), ChurnEvent(9, "return", (1,))]
        )
        lane = _lane(3, schedule)
        assert lane.apply_churn(5) == [("leave", 1)]
        assert not lane.present[1]
        assert lane.apply_churn(9) == [("return", 1)]
        assert lane.present[1]
        assert lane.events == ["p5: node 1 left", "p9: node 1 returned"]

    def test_reference_marker_resolution(self):
        schedule = ChurnSchedule(
            [
                ChurnEvent(5, "leave", (REFERENCE_MARKER,)),
                ChurnEvent(9, "return", (REFERENCE_MARKER,)),
            ]
        )
        lane = _lane(3, schedule)
        lane.apply_churn(5, lambda: 2)
        assert not lane.present[2]
        assert lane.churn.marker_left == [2]
        lane.apply_churn(9)
        assert lane.present[2]
        assert lane.churn.marker_left == []

    def test_marker_with_no_reference_noop(self):
        schedule = ChurnSchedule([ChurnEvent(5, "leave", (REFERENCE_MARKER,))])
        lane = _lane(3, schedule)
        assert lane.apply_churn(5) == []
        assert lane.present.all()
        assert lane.churn.marker_left == []

    def test_none_schedule(self):
        lane = _lane(2, None)
        assert lane.apply_churn(1) == []
        assert lane.present.all()

    def test_out_of_range_ids_ignored(self):
        schedule = ChurnSchedule([ChurnEvent(1, "leave", (99, 3))])
        lane = _lane(3, schedule)
        assert lane.apply_churn(1) == []
        assert lane.present.all()

    def test_excluded_reference_is_not_enqueued(self):
        schedule = ChurnSchedule([ChurnEvent(1, "leave", (REFERENCE_MARKER,))])
        applier = ChurnApplier(schedule)
        changes = list(
            applier.due(1, lambda: 2, lambda i: True, exclude=lambda i: i == 2)
        )
        assert changes == []
        assert applier.marker_left == []

    def test_overlapping_marker_departures_pair_fifo(self):
        applier = ChurnApplier(ChurnSchedule())
        refs = [2]

        def current() -> int:
            return refs[-1]

        assert applier.resolve_marker(REFERENCE_MARKER, "leave", current) == 2
        refs.append(4)
        assert applier.resolve_marker(REFERENCE_MARKER, "leave", current) == 4
        assert applier.resolve_marker(REFERENCE_MARKER, "return", current) == 2
        assert applier.resolve_marker(REFERENCE_MARKER, "return", current) == 4
        assert applier.resolve_marker(REFERENCE_MARKER, "return", current) is None

    def test_presence_read_after_each_change(self):
        # A leave and a return of the same node in one period both fire:
        # the return sees the presence the leave just cleared.
        schedule = ChurnSchedule(
            [ChurnEvent(1, "leave", (0,)), ChurnEvent(1, "return", (0,))]
        )
        lane = _lane(2, schedule)
        assert lane.apply_churn(1) == [("leave", 0), ("return", 0)]
        assert lane.present[0]
