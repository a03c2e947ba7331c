"""Property tests for the multi-hop extension's topology and invariants."""

import networkx as nx
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clocks.adjusted import AdjustedClock
from repro.clocks.chain import ClockChain, adjusted_at_all
from repro.clocks.oscillator import HardwareClock
from repro.multihop import MultiHopRunner, MultiHopSpec, Topology
from repro.obs.counters import count_work


class TestTopologyProperties:
    @given(n=st.integers(2, 40), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_two_hop_neighbors_contains_one_hop(self, n, seed):
        graph = nx.gnp_random_graph(n, 0.3, seed=seed)
        topology = Topology(graph.number_of_nodes(), graph.edges())
        for node in range(n):
            one_hop = set(topology.neighbors(node))
            two_hop = set(topology.two_hop_neighbors(node))
            assert one_hop <= two_hop
            assert node not in two_hop

    @given(n=st.integers(2, 30), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_hop_distances_triangle(self, n, seed):
        graph = nx.gnp_random_graph(n, 0.4, seed=seed)
        assume(nx.is_connected(graph))
        topology = Topology(graph.number_of_nodes(), graph.edges())
        hops = topology.hop_distances(0)
        for u, v in topology.edges():
            if u in hops and v in hops:
                assert abs(hops[u] - hops[v]) <= 1

    @given(n=st.integers(1, 30), p=st.floats(0.0, 0.6), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_two_hop_csr_matches_per_node_lists(self, n, p, seed):
        graph = nx.gnp_random_graph(n, p, seed=seed)
        topology = Topology(graph.number_of_nodes(), graph.edges())
        indptr, indices = topology.two_hop_csr()
        assert len(indptr) == n + 1
        for node in range(n):
            segment = indices[indptr[node] : indptr[node + 1]]
            assert tuple(segment.tolist()) == topology.two_hop_neighbors(node)

    def test_hop_distances_returns_a_copy(self):
        topology = Topology.chain(4)
        hops = topology.hop_distances(0)
        hops[3] = 99
        assert topology.hop_distances(0) == {0: 0, 1: 1, 2: 2, 3: 3}
        assert topology.hop_distances(2) == {2: 0, 1: 1, 3: 1, 0: 2}

    @given(rows=st.integers(2, 6), cols=st.integers(2, 6))
    @settings(max_examples=20)
    def test_grid_always_connected(self, rows, cols):
        topology = Topology.grid(rows, cols)
        assert topology.is_connected()
        assert topology.n == rows * cols
        assert topology.diameter() == (rows - 1) + (cols - 1)


class TestSameHopCount:
    @given(
        n=st.integers(1, 25),
        p=st.floats(0.0, 0.6),
        seed=st.integers(0, 1000),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_station_recount(self, n, p, seed, data):
        # The vector count equals the per-station two-hop recount it
        # replaced, for every present synchronized station; absent or
        # unsynchronized stations read 0.
        graph = nx.gnp_random_graph(n, p, seed=seed)
        topology = Topology(graph.number_of_nodes(), graph.edges())
        runner = MultiHopRunner(MultiHopSpec(topology=topology, root=0))
        for node in runner.nodes:
            node.present = data.draw(st.booleans())
            node.protocol.hop = data.draw(st.none() | st.integers(0, 3))
        ctx = runner.ctx
        ctx.new_period(0, False)
        for node in runner.nodes:
            i = node.node_id
            state = node.protocol
            expected = 0
            if node.present and state.hop is not None:
                expected = sum(
                    1
                    for other in topology.two_hop_neighbors(i)
                    if runner.nodes[other].present
                    and runner.nodes[other].protocol.hop == state.hop
                )
            assert ctx.same_hop_count(i) == expected

    def test_snapshot_lasts_until_the_next_period(self):
        runner = MultiHopRunner(MultiHopSpec(topology=Topology.chain(3)))
        for node in runner.nodes:
            node.protocol.hop = 1
        ctx = runner.ctx
        ctx.new_period(0, False)
        assert ctx.same_hop_count(1) == 2
        runner.nodes[2].protocol.hop = 2
        assert ctx.same_hop_count(1) == 2
        ctx.new_period(0, False)
        assert ctx.same_hop_count(1) == 1


class TestAdjustedAtAll:
    @given(
        clocks=st.lists(
            st.tuples(
                st.floats(0.999, 1.001),
                st.floats(-1e6, 1e6),
                st.floats(0.99, 1.01),
                st.floats(-1e6, 1e6),
            ),
            max_size=12,
        ),
        true_time=st.floats(0.0, 1e10),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_single_reads(self, clocks, true_time):
        chains = [
            ClockChain(HardwareClock(rate, offset), AdjustedClock(k, b))
            for rate, offset, k, b in clocks
        ]
        with count_work() as single_work:
            single = [chain.adjusted_at(true_time) for chain in chains]
        with count_work() as pass_work:
            at_once = adjusted_at_all(chains, true_time)
        assert np.array(at_once).tobytes() == np.array(single).tobytes()
        assert pass_work.snapshot() == single_work.snapshot()


class TestRunInvariants:
    @given(n=st.integers(3, 10), seed=st.integers(0, 50))
    @settings(max_examples=8, deadline=None)
    def test_chain_runs_never_crash_and_hops_consistent(self, n, seed):
        spec = MultiHopSpec(
            topology=Topology.chain(n), seed=seed, duration_s=8.0
        )
        runner = MultiHopRunner(spec)
        result = runner.run()
        # believed hops never beat BFS distance (the physical lower bound)
        true_hops = spec.topology.hop_distances(result.root)
        for i, state in enumerate(runner.nodes):
            if state.hop is not None and i in true_hops:
                assert state.hop >= true_hops[i]
        # adjusted clocks stay monotone everywhere
        for state in runner.nodes:
            assert state.clock.is_monotonic(0.0, 8.0e6, samples=64)
