"""Parity of :class:`repro.multihop.topology.Topology` with networkx.

The topology answers its graph queries with its own breadth-first
search over sorted neighbour tuples. networkx (a test-only dependency)
is the oracle: on the same stations and edges, both must agree on the
neighbour sets, the hop distances from every root, connectivity, the
diameter of connected graphs and the edge set. Each builder is also
checked against the graph networkx builds from the same shape.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.multihop import Topology


def assert_matches(topology: Topology, graph: nx.Graph) -> None:
    n = graph.number_of_nodes()
    assert topology.n == n
    for node in range(n):
        assert topology.neighbors(node) == tuple(sorted(graph.neighbors(node)))
        assert topology.hop_distances(node) == dict(
            nx.single_source_shortest_path_length(graph, node)
        )
    connected = nx.is_connected(graph)
    assert topology.is_connected() == connected
    if connected:
        assert topology.diameter() == nx.diameter(graph)
    assert set(topology.edges()) == {
        (min(u, v), max(u, v)) for u, v in graph.edges()
    }


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 30))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    density = draw(st.sampled_from([0.05, 0.15, 0.4, 0.9]))
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for a, b in pairs:
        if draw(st.floats(0.0, 1.0)) < density:
            # Either orientation: the topology is undirected.
            graph.add_edge(*((a, b) if draw(st.booleans()) else (b, a)))
    return graph


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_random_edge_sets_match_networkx(graph):
    assert_matches(Topology(graph.number_of_nodes(), graph.edges()), graph)


def test_duplicate_and_reversed_edges_collapse():
    topology = Topology(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
    assert topology.edges() == [(0, 1), (1, 2)]
    assert topology.neighbors(1) == (0, 2)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_chain(n):
    assert_matches(Topology.chain(n), nx.path_graph(n))


@pytest.mark.parametrize("n", [1, 2, 6])
def test_full_mesh(n):
    assert_matches(Topology.full_mesh(n), nx.complete_graph(n))


@pytest.mark.parametrize("diagonal", [False, True])
def test_grid(diagonal):
    rows, cols = 4, 5
    graph = nx.grid_2d_graph(rows, cols)
    if diagonal:
        for r in range(rows - 1):
            for c in range(cols):
                if c + 1 < cols:
                    graph.add_edge((r, c), (r + 1, c + 1))
                if c - 1 >= 0:
                    graph.add_edge((r, c), (r + 1, c - 1))
    graph = nx.relabel_nodes(graph, {(r, c): r * cols + c for r, c in graph})
    assert_matches(Topology.grid(rows, cols, diagonal=diagonal), graph)


def test_unit_disk():
    n, area_m, radius_m = 40, 800.0, 220.0
    topology = Topology.unit_disk(
        n, np.random.default_rng(7), area_m=area_m, radius_m=radius_m
    )
    # Replay the builder's draws: one position array per attempt, the
    # first connected one kept.
    rng = np.random.default_rng(7)
    while True:
        positions = rng.uniform(0.0, area_m, size=(n, 2))
        graph = nx.random_geometric_graph(
            n, radius_m, pos={i: tuple(p) for i, p in enumerate(positions)}
        )
        if nx.is_connected(graph):
            break
    assert_matches(topology, graph)
