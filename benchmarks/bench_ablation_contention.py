"""Ablation: contention model - carrier-sense cascade vs slotted rule.

DESIGN.md calls the skew-exact cascade a load-bearing choice: the classic
"unique minimum slot wins" rule deadlocks large elections (exact ties
always collide), while the cascade lets clock skew de-quantise
transmissions so a 500-node SSTSP election concludes. This bench measures
both models head-to-head on the same draws.
"""

from __future__ import annotations

import numpy as np

from conftest import paper_rows

from repro.mac.contention import draw_slots, resolve_contention, resolve_slotted

N_WINDOWS = 300


def _simulate(n_nodes: int, skew_spread_us: float, rng: np.random.Generator):
    """Count window successes under both models over N_WINDOWS windows."""
    cascade_wins = 0
    slotted_wins = 0
    for _ in range(N_WINDOWS):
        slots = draw_slots(list(range(n_nodes)), w=30, rng=rng)
        skews = rng.uniform(-skew_spread_us, skew_spread_us, size=n_nodes)
        times = [s * 9.0 + skews[i] for i, s in slots.items()]
        if resolve_contention(list(slots), times, 63.0, 9.0).first_success is not None:
            cascade_wins += 1
        if resolve_slotted(slots)[0] is not None:
            slotted_wins += 1
    return cascade_wins, slotted_wins


def test_cascade_resolves_where_slotted_deadlocks(benchmark):
    rng = np.random.default_rng(7)
    rows = benchmark.pedantic(
        lambda: {
            (n, spread): _simulate(n, spread, rng)
            for n in (50, 500)
            for spread in (0.0, 200.0)
        },
        rounds=1,
        iterations=1,
    )
    # with zero skew both models agree that 500-node windows deadlock
    assert rows[(500, 0.0)][1] == 0
    # with realistic skew spread the cascade recovers successes the
    # slotted rule cannot represent
    assert rows[(500, 200.0)][0] > rows[(500, 200.0)][1] * 3
    paper_rows(
        benchmark,
        "ablation: contention model (success rate / window)",
        [
            f"n={n} skew=+-{spread:.0f}us: cascade={c / N_WINDOWS:.0%} "
            f"slotted={s / N_WINDOWS:.0%}"
            for (n, spread), (c, s) in sorted(rows.items())
        ],
    )


def test_cascade_throughput(benchmark):
    """Raw resolution speed at election scale (500 candidates)."""
    rng = np.random.default_rng(3)
    slots = draw_slots(list(range(500)), w=30, rng=rng)
    skews = rng.uniform(-200, 200, size=500)
    times = [s * 9.0 + skews[i] for i, s in slots.items()]
    result = benchmark(lambda: resolve_contention(list(slots), times, 63.0, 9.0))
    assert result.transmissions
