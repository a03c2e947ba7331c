"""The lane surface both OO runners share.

:class:`Lane` is everything membership changes and fault injection
touch on a running network: the station list and its id index, the
channel, the run shape (``beacon_period_us``, ``periods``), the mutable
``churn`` schedule, the event log and the attached fault injector.
:class:`~repro.network.runner.NetworkRunner` and
:class:`~repro.multihop.runner.MultiHopRunner` both inherit it, so churn
is applied one way on both, and
:class:`~repro.faults.injector.FaultInjector` binds to this surface
alone. Each lane supplies its own :meth:`Lane.current_reference` and may
react to a departure through :meth:`Lane._on_left`.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.network.churn import ChurnApplier, ChurnSchedule, churn_line
from repro.network.node import Node
from repro.obs.events import emit
from repro.phy.channel import BroadcastChannel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector

logger = logging.getLogger(__name__)


class Lane:
    """Stations, channel, run shape, churn, event log and fault injector.

    Attributes
    ----------
    nodes:
        Every station, in construction order.
    channel:
        The broadcast channel the stations share.
    beacon_period_us, periods:
        ``BP`` and the number of simulated beacon periods.
    events:
        Human-readable log of applied churn changes and faults.
    injector:
        The attached :class:`~repro.faults.injector.FaultInjector`, if any.
    """

    def __init__(
        self,
        nodes: Sequence[Node],
        channel: BroadcastChannel,
        beacon_period_us: float,
        periods: int,
        churn: Optional[ChurnSchedule] = None,
    ) -> None:
        if beacon_period_us <= 0:
            raise ValueError(f"beacon_period_us must be > 0, got {beacon_period_us}")
        if periods < 1:
            raise ValueError(f"periods must be >= 1, got {periods}")
        self.nodes = list(nodes)
        self._by_id: Dict[int, Node] = {node.node_id: node for node in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise ValueError("duplicate node ids")
        self.channel = channel
        self.beacon_period_us = beacon_period_us
        self.periods = periods
        self.churn = churn if churn is not None else ChurnSchedule()
        self.events: List[str] = []
        self.injector: Optional["FaultInjector"] = None

    @property
    def churn(self) -> ChurnSchedule:
        """The membership schedule; ``churn.add(...)`` extends it in place."""
        return self._churn.schedule

    @churn.setter
    def churn(self, schedule: ChurnSchedule) -> None:
        # A new schedule starts a new reference-marker FIFO.
        self._churn = ChurnApplier(schedule)

    def node(self, node_id: int) -> Optional[Node]:
        """The station with ``node_id`` (None for an unknown id)."""
        return self._by_id.get(node_id)

    def attach_injector(self, injector: "FaultInjector") -> None:
        """Bind a fault injector; its hooks run every period from now on."""
        injector.bind(self)
        self.injector = injector

    def current_reference(self) -> int:
        """Node id holding this lane's reference role (-1 if none)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Churn and fault hooks
    # ------------------------------------------------------------------

    def apply_churn(self, period: int) -> None:
        """Apply the churn changes due at the start of ``period``."""
        t_us = period * self.beacon_period_us
        for action, node_id in self._churn.due(
            period, self.current_reference, self._is_present, self._squats_reference
        ):
            node = self._by_id[node_id]
            if action == "leave":
                node.present = False
                node.protocol.on_leave(period)
                emit("churn_leave", t_us=t_us, node=node_id, period=period)
                self._on_left(node_id)
            else:
                node.present = True
                node.protocol.on_return(period)
                emit("churn_return", t_us=t_us, node=node_id, period=period)
            line = churn_line(period, action, node_id)
            self.events.append(line)
            logger.info("churn: %s", line)

    def _on_left(self, node_id: int) -> None:
        """Lane-specific consequence of a churn departure (none here)."""

    def _is_present(self, node_id: int) -> Optional[bool]:
        node = self._by_id.get(node_id)
        return None if node is None else node.present

    def _squats_reference(self, ref: int) -> bool:
        # The "reference" is an attacker squatting on the role; the churn
        # scenario removes legitimate stations only.
        node = self._by_id.get(ref)
        return node is not None and not node.include_in_metrics

    def _period_faults(
        self, period: int
    ) -> Tuple[FrozenSet[int], Optional[Dict[int, int]]]:
        """Fire the injector's period-start hook; return the period's
        stalled node ids and partition split."""
        injector = self.injector
        if injector is None:
            return frozenset(), None
        injector.on_period_start(period)
        return injector.stalled_ids(period), injector.partition_groups(period)

    def _adopt(self, other: "Lane") -> None:
        """Expose ``other``'s stations, channel and event log as this
        lane's (for a lane that delegated its run to ``other``)."""
        self.nodes = other.nodes
        self._by_id = other._by_id
        self.channel = other.channel
        self.events = other.events
