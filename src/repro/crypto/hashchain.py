"""One-way hash chains.

A chain of length ``n`` over seed ``s`` is ``v_0 = s, v_j = h(v_{j-1})``;
the paper writes ``v_j = h^j(s_i)``. The *anchor* ``v_n = h^n(s)`` is
published through an authenticated out-of-band mechanism (section 3.2
assumes one exists; :class:`HashChainRegistry` plays that role here).

uTESLA key assignment (section 3.3): the key protecting the beacon of
interval ``j`` is ``h^{n-j}(s)``; the beacon of interval ``j`` *discloses*
``h^{n-j+1}(s)`` - the key of interval ``j-1`` - letting receivers
authenticate the previous interval's beacon.

Three storage strategies implement a common interface:

=====================  ==========  ======================================
strategy               storage     element access cost
=====================  ==========  ======================================
:class:`DenseHashChain`    O(n)    O(1)
:class:`SeedOnlyHashChain` O(1)    O(j) hashes
fractal (see
:mod:`repro.crypto.fractal`)  O(log n)  O(log n) amortised, in
                                   disclosure order
=====================  ==========  ======================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

from repro.crypto.primitives import HASH_BYTES, constant_time_eq, hash128, hash128_iter


class HashChain(ABC):
    """Common interface of hash-chain storage strategies."""

    def __init__(self, seed: bytes, length: int) -> None:
        if length < 1:
            raise ValueError(f"chain length must be >= 1, got {length}")
        if not seed:
            raise ValueError("seed must be non-empty bytes")
        self._seed = bytes(seed)
        self._length = int(length)

    @property
    def length(self) -> int:
        """``n``: number of hash applications from seed to anchor."""
        return self._length

    @property
    def anchor(self) -> bytes:
        """The published commitment ``h^n(seed)``."""
        return self.element(self._length)

    @abstractmethod
    def element(self, j: int) -> bytes:
        """``h^j(seed)`` for ``0 <= j <= n``."""

    def key_for_interval(self, interval: int) -> bytes:
        """uTESLA key of beacon interval ``interval``: ``h^{n-j}(seed)``.

        Valid intervals are ``1..n`` (interval ``n`` would use the seed
        itself; senders should retire the chain before reaching it).
        """
        self._check_interval(interval)
        return self.element(self._length - interval)

    def disclosed_key_for_interval(self, interval: int) -> bytes:
        """Key disclosed *inside* the beacon of ``interval``:
        ``h^{n-j+1}(seed)``, the key of interval ``interval - 1``."""
        self._check_interval(interval)
        return self.element(self._length - interval + 1)

    def _check_interval(self, interval: int) -> None:
        if not 1 <= interval <= self._length:
            raise ValueError(
                f"interval must be in [1, {self._length}], got {interval}"
            )

    def storage_elements(self) -> int:
        """Number of chain elements this strategy keeps resident."""
        return 1  # seed only, unless overridden


class DenseHashChain(HashChain):
    """Precompute and store all ``n + 1`` elements: O(n) space, O(1) access."""

    def __init__(self, seed: bytes, length: int) -> None:
        super().__init__(seed, length)
        elements = [bytes(seed) if len(seed) == HASH_BYTES else hash128(seed)]
        # Normalise an arbitrary-size seed to one hash width first so that
        # element(0) has the same length as every other element.
        value = elements[0]
        for _ in range(length):
            value = hash128(value)
            elements.append(value)
        self._elements = elements

    def element(self, j: int) -> bytes:
        if not 0 <= j <= self._length:
            raise ValueError(f"element index must be in [0, {self._length}], got {j}")
        return self._elements[j]

    def storage_elements(self) -> int:
        return self._length + 1


class SeedOnlyHashChain(HashChain):
    """Store only the seed; recompute each element on demand (O(j) hashes)."""

    def __init__(self, seed: bytes, length: int) -> None:
        super().__init__(seed, length)
        self._base = bytes(seed) if len(seed) == HASH_BYTES else hash128(seed)
        self.hash_operations = 0

    def element(self, j: int) -> bytes:
        if not 0 <= j <= self._length:
            raise ValueError(f"element index must be in [0, {self._length}], got {j}")
        self.hash_operations += j
        return hash128_iter(self._base, j)

    def storage_elements(self) -> int:
        return 1


def verify_element(
    candidate: bytes,
    claimed_index: int,
    anchor: bytes,
    length: int,
    cache: Optional[Tuple[int, bytes]] = None,
) -> Tuple[bool, int]:
    """Verify that ``candidate`` is ``h^claimed_index(seed)`` of the chain
    committed to by ``anchor = h^length(seed)``.

    Parameters
    ----------
    cache:
        Optionally ``(index, value)`` of a *previously verified* element
        with ``index > claimed_index``; verification then only hashes up to
        that element instead of all the way to the anchor (the paper's
        "store previously authenticated disclosed key to reduce processing
        overhead ... only one hash operation is needed instead of j - 1").

    Returns
    -------
    (ok, hash_operations):
        Whether verification succeeded, and how many hash applications it
        cost (for the overhead model).
    """
    if not 0 <= claimed_index <= length:
        return False, 0
    if cache is not None:
        cache_index, cache_value = cache
        if claimed_index < cache_index <= length:
            steps = cache_index - claimed_index
            return (
                constant_time_eq(hash128_iter(candidate, steps), cache_value),
                steps,
            )
        if cache_index == claimed_index:
            return constant_time_eq(candidate, cache_value), 0
    steps = length - claimed_index
    return constant_time_eq(hash128_iter(candidate, steps), anchor), steps


class HashChainRegistry:
    """Trusted distribution of chain anchors (the paper's section 3.2 service).

    The paper assumes every node can publish an authenticated last element
    ``h^n(s_i)`` via public-key signatures, symmetric pre-distribution [11]
    or non-cryptographic channels [12]; the registry abstracts whichever is
    used. It is the *only* trusted component in the reproduction.
    """

    def __init__(self) -> None:
        self._anchors: Dict[int, Tuple[bytes, int]] = {}

    def publish(self, node_id: int, anchor: bytes, length: int) -> None:
        """Register node ``node_id``'s anchor. Re-publication must match
        (a node cannot silently swap its chain)."""
        existing = self._anchors.get(node_id)
        if existing is not None and existing != (anchor, length):
            raise ValueError(
                f"node {node_id} attempted to re-publish a different anchor"
            )
        self._anchors[node_id] = (bytes(anchor), int(length))

    def lookup(self, node_id: int) -> Optional[Tuple[bytes, int]]:
        """``(anchor, length)`` for ``node_id``, or None if never published."""
        return self._anchors.get(node_id)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._anchors

    def __len__(self) -> int:
        return len(self._anchors)
