"""Draw identity of the vector lanes' block draws with per-call draws.

``PerCallDraws`` below keeps the earlier bodies of
:meth:`repro.fastlane.common.VectorLane.draw_slots`, ``loss_mask`` and
``jitter`` verbatim as the reference oracle: one ``integers`` call per
period on the ``slots`` stream, one ``random``/``uniform`` call per
beacon on the ``channel`` stream. The lane in ``src/`` draws each
stream in blocks and hands out rows and slices of them. Over generated
call sequences (churn, winners, both delivery orders, run lengths that
end mid-block) the two must return equal arrays, bit for bit, and count
the same work.

The identity rests on numpy internals: a bounded ``integers`` call of
size ``B*n`` yields the values of ``B`` calls of size ``n`` (the 32-bit
path keeps its spare half-word in the bit generator), ``random`` blocks
split the same way, and ``uniform(-j, j)`` is ``-j + (j - -j) * u``.
This test is what checks them on every numpy the package supports.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastlane import common
from repro.fastlane.common import VectorLane
from repro.network.ibss import ScenarioSpec
from repro.obs.counters import count, count_work
from repro.phy.params import PhyParams
from repro.sim.rng import RngRegistry


class PerCallDraws:
    """The lane's draw sites as they were, one numpy call per draw."""

    def __init__(self, spec: ScenarioSpec, n: int) -> None:
        self.spec = spec
        self.n = n
        self.present = np.ones(n, dtype=bool)
        rngs = RngRegistry(spec.seed)
        self._slots = rngs.get("slots")
        self._channel = rngs.get("channel")

    def draw_slots(self, w: int) -> np.ndarray:
        """One backoff slot in ``[0, w]`` per node (``slots`` stream)."""
        count("mac.slot_draws", self.n)
        return self._slots.integers(0, w + 1, size=self.n).astype(np.float64)

    def loss_mask(self, winner: int) -> np.ndarray:
        """Receivers of ``winner``'s beacon: the present nodes other than
        the winner, less those the ``channel`` stream's loss coins drop."""
        receive = self.present.copy()
        receive[winner] = False
        # pre-loss receivers, as BroadcastChannel.broadcast counts them
        count("phy.delivery_attempt", int(np.count_nonzero(receive)))
        per = self.spec.phy.packet_error_rate
        if per > 0.0:
            if self.spec.phy.loss_model == "per_transmission":
                count("phy.per_draw")
                if self._channel.random() < per:
                    receive[:] = False
            else:
                count("phy.per_draw", self.n)
                receive &= self._channel.random(self.n) >= per
        return receive

    def jitter(self) -> np.ndarray:
        """One receive timestamping error per node (``channel`` stream)."""
        jitter = self.spec.phy.timestamp_jitter_us
        count("phy.ts_jitter_draw", self.n)
        return self._channel.uniform(-jitter, jitter, size=self.n)


#: one step of a run: ("slots",), ("beacon", winner, loss_first) or
#: ("churn", node)
Step = Tuple


@st.composite
def runs(draw):
    # n odd and even; the lane's n is the spec's (no attacker here)
    nodes = draw(st.integers(2, 41))
    phy = PhyParams(
        loss_model=draw(st.sampled_from(["per_receiver", "per_transmission"])),
        packet_error_rate=draw(st.sampled_from([0.0, 1e-4, 0.2, 0.5, 1.0])),
        timestamp_jitter_us=draw(st.sampled_from([0.0, 2.0, 7.5])),
    )
    spec = ScenarioSpec(
        n=nodes,
        seed=draw(st.integers(0, 2**16)),
        duration_s=draw(st.sampled_from([0.1, 1.0, 10.0])),
        phy=phy,
    )
    step = st.one_of(
        st.just(("slots",)),
        st.tuples(st.just("beacon"), st.integers(0, nodes - 1), st.booleans()),
        st.tuples(st.just("churn"), st.integers(0, nodes - 1)),
    )
    steps = draw(st.lists(step, max_size=120))
    return {
        "spec": spec,
        "w": draw(st.sampled_from([0, 1, 15, 31, 1023])),
        # blocks from one row up to the production size, so run lengths
        # end mid-block and refills meet a partly read block
        "block_bytes": draw(st.sampled_from([8, 40, 200, 1000, 65536])),
        "steps": steps,
    }


def _drive(draws, steps: List[Step], w: int, refresh) -> List[np.ndarray]:
    """Play ``steps`` on one set of draw sites; returns every array drawn."""
    out: List[np.ndarray] = []
    for step in steps:
        if step[0] == "slots":
            out.append(draws.draw_slots(w).copy())
        elif step[0] == "churn":
            draws.present[step[1]] = not draws.present[step[1]]
            refresh()
        else:
            _, winner, loss_first = step
            if not draws.present[winner]:
                continue  # the engines only ever deliver a present winner
            if loss_first:  # the SSTSP order
                out.append(draws.loss_mask(winner).copy())
                out.append(draws.jitter().copy())
            else:  # the TSF order
                out.append(draws.jitter().copy())
                out.append(draws.loss_mask(winner).copy())
    return out


@settings(max_examples=300, deadline=None)
@given(runs())
def test_block_draws_match_per_call_draws(case):
    spec = case["spec"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(common, "DRAW_BLOCK_BYTES", case["block_bytes"])
        lane = VectorLane(spec, keep_values=False)
        with count_work() as lane_work:
            got = _drive(lane, case["steps"], case["w"], lane._refresh_membership)
    with count_work() as ref_work:
        ref = PerCallDraws(spec, lane.n)
        want = _drive(ref, case["steps"], case["w"], lambda: None)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    assert lane_work.snapshot() == ref_work.snapshot()


def test_slot_window_is_fixed_per_lane():
    lane = VectorLane(ScenarioSpec(n=5, seed=1, duration_s=1.0), keep_values=False)
    lane.draw_slots(31)
    lane.draw_slots(31)
    with pytest.raises(ValueError, match="w=15"):
        lane.draw_slots(15)
