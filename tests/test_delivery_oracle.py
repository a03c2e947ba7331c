"""Parity of sender-side window delivery with the receiver-major reference.

``ReceiverMajorChannel.deliver_window`` below is the earlier
implementation of
:meth:`repro.phy.channel.SpatialBroadcastChannel.deliver_window`, kept
verbatim as the reference oracle: for every receiver it filters the
whole transmission list by the receiver's neighbour set, sorts what it
heard by start time and draws each lone frame's loss coin with a scalar
``rng.random()`` call. The channel in ``src/`` fans each transmission
out from its sender instead and draws every coin of the window in one
vector. Over generated windows the two must agree on the delivered
frames (receivers and per-receiver order), the collision count, the
``ChannelStats`` deltas, the ``phy.*`` work counts and the generator
state afterwards — so every later draw of a run is unchanged too.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multihop.topology import Topology
from repro.obs.counters import count, count_work
from repro.phy.channel import SpatialBroadcastChannel, WindowDelivery
from repro.phy.params import PhyParams


class ReceiverMajorChannel(SpatialBroadcastChannel):
    """The spatial channel with the receiver-major delivery loop."""

    def _jammed_for(self, receiver: int, true_time: float) -> bool:
        if self.is_jammed(true_time):
            return True
        for start, end, targets in self._scoped_jams:
            if start <= true_time < end and receiver in targets:
                return True
        return False

    def deliver_window(
        self,
        transmissions: Sequence[Tuple[int, float]],
        receivers: Sequence[int],
        airtime_us: float,
        size_bytes: int = 0,
        audible: Optional[Callable[[int, int], bool]] = None,
    ) -> WindowDelivery:
        if airtime_us <= 0:
            raise ValueError("airtime_us must be > 0")
        count("phy.window")
        self.stats.transmissions += len(transmissions)
        self.stats.bytes_on_air += size_bytes * len(transmissions)

        frame_delivered: Optional[Dict[int, bool]] = None
        if self._per_override is not None or self.phy.loss_model != "per_receiver":
            frame_delivered = {}
            for sender, _start in transmissions:
                if self._per_override is not None:
                    per = self._per_override
                elif self.phy.loss_model == "gilbert_elliott":
                    per = self._gilbert_elliott_per()
                else:
                    per = self.phy.packet_error_rate
                if per <= 0.0:
                    frame_delivered[sender] = True
                else:
                    count("phy.per_draw")
                    frame_delivered[sender] = bool(self._rng.random() >= per)

        neighbor_sets = {
            node: frozenset(self.topology.neighbors(node))
            for node in range(self.topology.n)
        }
        delivery = WindowDelivery()
        static_per = self.phy.packet_error_rate
        for receiver in receivers:
            hears = neighbor_sets.get(receiver, frozenset())
            heard = [
                (sender, start)
                for sender, start in transmissions
                if sender in hears
                and (audible is None or audible(receiver, sender))
            ]
            if not heard:
                continue
            heard.sort(key=lambda item: item[1])
            decoded: List[int] = []
            index = 0
            while index < len(heard):
                group_end = heard[index][1] + airtime_us
                j = index + 1
                while j < len(heard) and heard[j][1] < group_end:
                    group_end = max(group_end, heard[j][1] + airtime_us)
                    j += 1
                group = heard[index:j]
                index = j
                if len(group) > 1:
                    count("phy.collision_group")
                    delivery.collisions += 1
                    self.stats.collisions += 1
                    continue
                sender, start = group[0]
                count("phy.delivery_attempt")
                if self._jammed_for(receiver, start):
                    self.stats.jammed_drops += 1
                    continue
                link = self._link_per.get((sender, receiver))
                if link is not None:
                    if link <= 0.0:
                        ok = True
                    else:
                        count("phy.per_draw")
                        ok = bool(self._rng.random() >= link)
                elif frame_delivered is not None:
                    ok = frame_delivered[sender]
                elif static_per <= 0.0:
                    ok = True
                else:
                    count("phy.per_draw")
                    ok = bool(self._rng.random() >= static_per)
                if ok:
                    self.stats.deliveries += 1
                    decoded.append(sender)
                else:
                    self.stats.per_drops += 1
            if decoded:
                delivery.receptions[receiver] = decoded
        return delivery


_PROBABILITIES = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def windows(draw):
    """One channel configuration plus a short sequence of windows."""
    n = draw(st.integers(1, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(
        pair for pair in pairs if draw(st.booleans())
    )
    phy = PhyParams(
        packet_error_rate=draw(_PROBABILITIES),
        loss_model=draw(
            st.sampled_from(["per_receiver", "per_transmission", "gilbert_elliott"])
        ),
        ge_p_good_to_bad=draw(_PROBABILITIES),
        ge_p_bad_to_good=draw(_PROBABILITIES),
        ge_per_bad=draw(_PROBABILITIES),
    )
    directed = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    links = draw(
        st.dictionaries(
            st.sampled_from(directed), _PROBABILITIES, max_size=6
        )
        if directed
        else st.just({})
    )
    slot = 9.0
    jams = draw(
        st.lists(
            st.tuples(
                st.integers(0, 14),
                st.integers(1, 6),
                st.none() | st.sets(st.integers(0, n - 1), max_size=n),
            ),
            max_size=3,
        )
    )
    airtime = slot * draw(st.sampled_from([1, 3, 7]))
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        senders = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        starts = [
            slot * draw(st.integers(0, 14)) + draw(st.sampled_from([0.0, 0.5]))
            for _ in senders
        ]
        receivers = sorted(draw(st.sets(st.integers(0, n + 1), max_size=n + 2)))
        groups = draw(
            st.none() | st.lists(st.integers(0, 1), min_size=n, max_size=n)
        )
        override = draw(st.none() | _PROBABILITIES)
        steps.append((list(zip(senders, starts)), receivers, groups, override))
    seed = draw(st.integers(0, 2**16))
    return graph, phy, links, jams, airtime, steps, seed


def _build(cls, graph, phy, links, jams, seed):
    channel = cls(
        phy,
        np.random.default_rng(seed),
        Topology(graph.number_of_nodes(), graph.edges()),
    )
    for (sender, receiver), per in links.items():
        channel.set_link_per(sender, receiver, per)
    for start, length, targets in jams:
        channel.add_jam_window(
            start * 9.0, (start + length) * 9.0, receivers=targets
        )
    return channel


def _run(channel, airtime, steps):
    outcomes = []
    with count_work() as work:
        for transmissions, receivers, groups, override in steps:
            channel.set_per_override(override)
            audible = None
            if groups is not None:

                def audible(receiver, sender, groups=groups):
                    return groups[receiver] == groups[sender]

            delivery = channel.deliver_window(
                transmissions, receivers, airtime, size_bytes=92, audible=audible
            )
            outcomes.append(
                (list(delivery.receptions.items()), delivery.collisions)
            )
    return (
        outcomes,
        dataclasses.asdict(channel.stats),
        work.snapshot(),
        channel._rng.bit_generator.state,
        channel._ge_bad,
    )


@settings(max_examples=300, deadline=None)
@given(windows())
def test_sender_side_delivery_matches_receiver_major(case):
    graph, phy, links, jams, airtime, steps, seed = case
    reference = _run(
        _build(ReceiverMajorChannel, graph, phy, links, jams, seed), airtime, steps
    )
    batched = _run(
        _build(SpatialBroadcastChannel, graph, phy, links, jams, seed),
        airtime,
        steps,
    )
    assert batched == reference


def test_oracle_exercises_every_fate():
    # A fixed window that hits a collision, a jammed frame, a link
    # override at each end of [0, 1] and per-receiver coins.
    graph = nx.path_graph(5)
    phy = PhyParams(packet_error_rate=0.5)
    links = {(1, 2): 0.0, (3, 2): 1.0}
    steps = [
        ([(3, 40.0), (1, 0.0), (0, 100.0), (4, 200.0)], [0, 1, 2, 3, 4], None, None),
        ([(2, 5.0), (0, 5.0), (4, 60.0)], [1, 3], None, None),
    ]
    jams = [(22, 2, {3})]
    reference = _run(
        _build(ReceiverMajorChannel, graph, phy, links, jams, 7), 27.0, steps
    )
    batched = _run(_build(SpatialBroadcastChannel, graph, phy, links, jams, 7), 27.0, steps)
    assert batched == reference
    stats = batched[1]
    assert stats["collisions"] >= 1
    assert stats["jammed_drops"] >= 1
    assert stats["per_drops"] >= 1
    assert batched[2]["phy.per_draw"] >= 1
