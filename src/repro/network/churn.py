"""Membership churn.

The paper's section 5 scenario: 5% of the stations leave at every
``k * 200 s`` and return 50 s later; additionally, the current *reference*
node leaves at 300 s, 500 s and 800 s (to exercise reference re-election)
and likewise returns after 50 s. A :class:`ChurnSchedule` pre-computes the
leave/return events; the special node id :data:`REFERENCE_MARKER` is
resolved by the runner at event time to whoever currently is the
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.units import S

#: Placeholder node id meaning "whoever is the reference when this fires".
REFERENCE_MARKER: int = -1


@dataclass(frozen=True)
class ChurnEvent:
    """One churn action, applied at the start of ``period``."""

    period: int
    action: str  # "leave" | "return"
    node_ids: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.action not in ("leave", "return"):
            raise ValueError(f"unknown churn action {self.action!r}")


class ChurnSchedule:
    """An ordered collection of churn events, indexed by period."""

    def __init__(self, events: Iterable[ChurnEvent] = ()) -> None:
        self._by_period: dict = {}
        for event in events:
            self._by_period.setdefault(event.period, []).append(event)

    def add(self, event: ChurnEvent) -> None:
        """Append one event."""
        self._by_period.setdefault(event.period, []).append(event)

    def events_for(self, period: int) -> List[ChurnEvent]:
        """Events to apply at the start of ``period``."""
        return self._by_period.get(period, [])

    def periods(self) -> List[int]:
        """Sorted periods having events."""
        return sorted(self._by_period)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_period.values())

    def __iter__(self) -> Iterator[ChurnEvent]:
        """Every event, in period order (insertion order within a period)."""
        for period in self.periods():
            yield from self._by_period[period]

    @classmethod
    def paper_default(
        cls,
        node_ids: Sequence[int],
        total_periods: int,
        rng: np.random.Generator,
        beacon_period_us: float = 0.1 * S,
        leave_fraction: float = 0.05,
        leave_every_s: float = 200.0,
        away_s: float = 50.0,
        reference_leave_times_s: Sequence[float] = (300.0, 500.0, 800.0),
    ) -> "ChurnSchedule":
        """The section 5 churn pattern, scaled to any horizon.

        Group departures happen at ``k * leave_every_s``; each group is an
        independent random ``leave_fraction`` sample of the stations. The
        reference departures use :data:`REFERENCE_MARKER`.
        """
        schedule = cls()
        n = len(node_ids)

        def period_of(t_s: float) -> int:
            return int(round(t_s * S / beacon_period_us))

        away_periods = max(1, period_of(away_s))
        # Station id -> first period it is back (tracked so that when
        # away_s > leave_every_s a station still away cannot be sampled
        # into the next departure group, which would silently mispair its
        # leave/return events).
        away_until: dict = {}
        k = 1
        while True:
            leave_period = period_of(k * leave_every_s)
            if leave_period >= total_periods:
                break
            eligible = np.asarray(
                [i for i in node_ids if away_until.get(i, 0) <= leave_period]
            )
            group_size = max(1, int(round(n * leave_fraction)))
            group_size = min(group_size, len(eligible))
            if group_size == 0:
                k += 1
                continue
            group = tuple(
                int(i)
                for i in rng.choice(eligible, size=group_size, replace=False)
            )
            schedule.add(ChurnEvent(leave_period, "leave", group))
            return_period = leave_period + away_periods
            for i in group:
                away_until[i] = return_period
            if return_period < total_periods:
                schedule.add(ChurnEvent(return_period, "return", group))
            k += 1

        for t_s in reference_leave_times_s:
            leave_period = period_of(t_s)
            if leave_period >= total_periods:
                continue
            schedule.add(ChurnEvent(leave_period, "leave", (REFERENCE_MARKER,)))
            return_period = leave_period + away_periods
            if return_period < total_periods:
                # The marker is resolved at leave time; the runner records
                # the resolved id so the same station returns.
                schedule.add(ChurnEvent(return_period, "return", (REFERENCE_MARKER,)))
        return schedule


def churn_line(period: int, action: str, node_id: int) -> str:
    """The event-log line of one applied churn change (every lane's format)."""
    verb = "left" if action == "leave" else "returned"
    return f"p{period}: node {node_id} {verb}"


class ChurnApplier:
    """Stateful churn semantics shared by every lane.

    The single implementation of the three membership rules that the
    OO runners (:class:`~repro.network.lane.Lane`) and both vector
    engines apply:

    * a ``leave`` only fires for a node that is present, a ``return``
      only for one that is absent (double-booked events are dropped);
    * :data:`REFERENCE_MARKER` leaves resolve to the current reference
      at fire time and are remembered in a FIFO so the matching
      ``return`` brings the *same* station back;
    * a marker leave that resolves to an excluded station (e.g. an
      attacker masquerading as reference) is dropped without consuming
      the FIFO.

    The applier owns only membership bookkeeping: :meth:`due` yields the
    changes, and what "leaving" does to a node (presence flags, protocol
    callbacks, event logs) is up to the lane iterating it.
    """

    def __init__(self, schedule: Optional[ChurnSchedule]) -> None:
        self.schedule = schedule
        self._marker_left: List[int] = []

    @property
    def marker_left(self) -> List[int]:
        """FIFO of resolved reference ids that left and have not returned."""
        return self._marker_left

    def resolve_marker(
        self,
        node_id: int,
        action: str,
        current_reference: Callable[[], Optional[int]],
        exclude: Optional[Callable[[int], bool]] = None,
    ) -> Optional[int]:
        """Resolve :data:`REFERENCE_MARKER` (a real id passes through)."""
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

    def due(
        self,
        period: int,
        current_reference: Callable[[], Optional[int]],
        is_present: Callable[[int], Optional[bool]],
        exclude: Optional[Callable[[int], bool]] = None,
    ) -> Iterator[Tuple[str, int]]:
        """Yield the ``(action, node_id)`` changes due at ``period``.

        Lazy on purpose: the caller applies each change before asking for
        the next, so presence and the reference are read after every
        applied change. ``is_present`` returns None for unknown node ids
        (the event is dropped).
        """
        if self.schedule is None:
            return
        for event in self.schedule.events_for(period):
            leaving = event.action == "leave"
            for node_id in event.node_ids:
                resolved = self.resolve_marker(
                    node_id, event.action, current_reference, exclude
                )
                if resolved is None:
                    continue
                present = is_present(resolved)
                # Only a present node leaves, only an absent one returns.
                if present is not None and present == leaving:
                    yield event.action, resolved
