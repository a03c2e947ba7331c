"""Radio topologies for the multi-hop extension.

A :class:`Topology` is an undirected reachability graph: an edge means
the two stations decode each other's transmissions. Builders cover the
shapes multi-hop sync papers evaluate on: random unit-disk deployments,
regular grids, and worst-case chains. Each builder emits an edge list;
the topology keeps one sorted neighbour tuple per station and answers
every graph query by breadth-first search over those tuples.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


def _station(value: object, n: int, what: str) -> int:
    """``value`` as a station id in ``0..n-1``, or a ``ValueError``
    naming it."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if 0 <= value < n:
            return int(value)
    raise ValueError(f"{what} {value!r} is not a station id in 0..{n - 1}")


def _csr(lists: List[Tuple[int, ...]]) -> Tuple[np.ndarray, np.ndarray]:
    """Per-station id lists as one CSR pair ``(indptr, indices)``."""
    indptr = np.zeros(len(lists) + 1, dtype=np.intp)
    np.cumsum([len(each) for each in lists], out=indptr[1:])
    indices = np.fromiter(
        (j for each in lists for j in each),
        dtype=np.intp,
        count=int(indptr[-1]),
    )
    return indptr, indices


class Topology:
    """Undirected connectivity graph over station ids ``0..n-1``."""

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        if (
            not isinstance(n, (int, np.integer))
            or isinstance(n, bool)
            or n < 1
        ):
            raise ValueError(f"topology size n must be an int >= 1, got {n!r}")
        n = int(n)
        adjacency: List[Set[int]] = [set() for _ in range(n)]
        for edge in edges:
            try:
                first, second = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a (u, v) pair") from None
            u = _station(first, n, f"edge {edge!r}: endpoint")
            v = _station(second, n, f"edge {edge!r}: endpoint")
            if u == v:
                raise ValueError(f"edge {edge!r} is a self-loop on station {u}")
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._neighbors: List[Tuple[int, ...]] = [
            tuple(sorted(each)) for each in adjacency
        ]
        self._hop_cache: Dict[int, Dict[int, int]] = {}
        self._two_hop_cache: Dict[int, Tuple[int, ...]] = {}
        self._one_hop_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._two_hop_csr: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------

    @classmethod
    def full_mesh(cls, n: int) -> "Topology":
        """Single-hop IBSS as a degenerate case (every pair connected)."""
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def chain(cls, n: int) -> "Topology":
        """Worst-case diameter: a line of ``n`` stations."""
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def grid(cls, rows: int, cols: int, diagonal: bool = False) -> "Topology":
        """``rows x cols`` lattice; ``diagonal`` adds 8-connectivity."""
        edges: List[Edge] = []
        for r in range(rows):
            for c in range(cols):
                here = r * cols + c
                if c + 1 < cols:
                    edges.append((here, here + 1))
                if r + 1 < rows:
                    edges.append((here, here + cols))
                if diagonal and r + 1 < rows and c + 1 < cols:
                    edges.append((here, here + cols + 1))
                if diagonal and r + 1 < rows and c - 1 >= 0:
                    edges.append((here, here + cols - 1))
        return cls(rows * cols, edges)

    @classmethod
    def unit_disk(
        cls,
        n: int,
        rng: np.random.Generator,
        area_m: float = 1_000.0,
        radius_m: float = 250.0,
        require_connected: bool = True,
        max_attempts: int = 50,
    ) -> "Topology":
        """Random deployment: ``n`` stations uniform in an ``area_m``
        square, connected when within ``radius_m``. Redraws until the
        graph is connected (if required)."""
        for _ in range(max_attempts):
            positions = rng.uniform(0.0, area_m, size=(n, 2))
            edges: List[Edge] = []
            for i in range(n):
                deltas = positions[i + 1 :] - positions[i]
                dists = np.hypot(deltas[:, 0], deltas[:, 1])
                edges.extend(
                    (i, i + 1 + j) for j in np.flatnonzero(dists <= radius_m).tolist()
                )
            topology = cls(n, edges)
            if not require_connected or topology.is_connected():
                return topology
        raise RuntimeError(
            f"no connected unit-disk deployment found in {max_attempts} draws"
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._neighbors)

    def neighbors(self, node: int) -> Tuple[int, ...]:
        """Stations within radio range of ``node`` (sorted)."""
        return self._neighbors[node]

    def degree(self, node: int) -> int:
        """Number of radio neighbours of ``node``."""
        return len(self._neighbors[node])

    def is_complete(self) -> bool:
        """Whether every pair of stations is connected (the degenerate
        single-hop case: the multi-hop runner then delegates to the
        reference IBSS lane)."""
        return all(
            len(self._neighbors[i]) == self.n - 1 for i in range(self.n)
        )

    def _bfs(self, root: int) -> Dict[int, int]:
        """Hop distance from ``root`` to every station it reaches."""
        neighbors = self._neighbors
        hops = {root: 0}
        frontier = [root]
        hop = 0
        while frontier:
            hop += 1
            reached = []
            for node in frontier:
                for other in neighbors[node]:
                    if other not in hops:
                        hops[other] = hop
                        reached.append(other)
            frontier = reached
        return hops

    def is_connected(self) -> bool:
        """Whether every station can reach every other."""
        return len(self._bfs(0)) == self.n

    def diameter(self) -> int:
        """Longest shortest-path hop count in the graph."""
        reached = len(self._bfs(0))
        if reached != self.n:
            raise ValueError(
                f"diameter is undefined on a disconnected topology: station 0 "
                f"reaches {reached} of {self.n} stations"
            )
        return max(max(self._bfs(root).values()) for root in range(self.n))

    def hop_distances(self, root: int) -> Dict[int, int]:
        """BFS hop distance from ``root`` to every reachable station.

        The search runs once per root (the graph is immutable); every
        call returns a fresh copy the caller may mutate."""
        cached = self._hop_cache.get(root)
        if cached is None:
            root = _station(root, self.n, "root")
            cached = self._bfs(root)
            self._hop_cache[root] = cached
        return dict(cached)

    def two_hop_neighbors(self, node: int) -> Tuple[int, ...]:
        """Stations within two hops (excluding ``node``): the interference
        domain for hidden-terminal scheduling. Cached per topology."""
        cache = self._two_hop_cache
        cached = cache.get(node)
        if cached is None:
            reach = set(self._neighbors[node])
            for neighbor in self._neighbors[node]:
                reach.update(self._neighbors[neighbor])
            reach.discard(node)
            cached = tuple(sorted(reach))
            cache[node] = cached
        return cached

    def one_hop_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every station's :meth:`neighbors` as one CSR pair ``(indptr,
        indices)``, laid out like :meth:`two_hop_csr`: station ``i``'s
        list is ``indices[indptr[i]:indptr[i + 1]]``. Built once per
        topology; treat the arrays as read-only."""
        if self._one_hop_csr is None:
            self._one_hop_csr = _csr(self._neighbors)
        return self._one_hop_csr

    def two_hop_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every station's :meth:`two_hop_neighbors` as one CSR pair
        ``(indptr, indices)``: station ``i``'s list is
        ``indices[indptr[i]:indptr[i + 1]]``. Built once per topology;
        treat the arrays as read-only."""
        if self._two_hop_csr is None:
            self._two_hop_csr = _csr(
                [self.two_hop_neighbors(i) for i in range(self.n)]
            )
        return self._two_hop_csr

    def edges(self) -> List[Edge]:
        """The radio links, each once as ``(u, v)`` with ``u < v``."""
        return [
            (u, v)
            for u, others in enumerate(self._neighbors)
            for v in others
            if u < v
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        links = sum(len(each) for each in self._neighbors) // 2
        return (
            f"Topology(n={self.n}, edges={links}, "
            f"connected={self.is_connected()})"
        )
