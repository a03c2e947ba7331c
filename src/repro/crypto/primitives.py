"""Hash and MAC primitives.

The paper assumes 128-bit hash values (section 3.4's 92-byte beacon
arithmetic). We instantiate the one-way function as SHA-256 truncated to
128 bits and the MAC as HMAC-SHA-256 truncated likewise. Truncation keeps
the simulated frame sizes exactly as the paper accounts them while
retaining a real, non-invertible primitive - the point of the reproduction
is that every accept/reject decision flows through genuine cryptography.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from typing import Dict, Tuple

#: Bytes per hash value / MAC tag / chain element (128 bits, per the paper).
HASH_BYTES: int = 16


def hash128(data: bytes) -> bytes:
    """One-way function ``h``: SHA-256 truncated to 128 bits."""
    return hashlib.sha256(data).digest()[:HASH_BYTES]


def hash128_iter(data: bytes, times: int) -> bytes:
    """Apply :func:`hash128` ``times`` times (``times = 0`` returns input)."""
    if times < 0:
        raise ValueError(f"times must be >= 0, got {times}")
    digest = hashlib.sha256
    value = data
    for _ in range(times):
        value = digest(value).digest()[:HASH_BYTES]
    return value


def hmac128(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256 truncated to 128 bits."""
    return _hmac.new(key, data, hashlib.sha256).digest()[:HASH_BYTES]


def constant_time_eq(a: bytes, b: bytes) -> bool:
    """Timing-safe equality for tags and chain elements."""
    return _hmac.compare_digest(a, b)


class PrimitiveMemo:
    """Exact-input memo of :func:`hash128_iter` and :func:`hmac128`.

    All receivers of one broadcast verify the same disclosed key and
    check the same buffered tag, so a network can share one memo among
    its receivers and do each broadcast's hashing once. Entries are
    keyed on the *full input bytes* (and the step count), never on who
    sent them or for which interval, so a forged key or tag is a
    different input and always gets computed afresh. Callers still make
    their own comparisons and count their own work.

    Each table is cleared when it reaches :attr:`MAX_ENTRIES`; the
    results are pure functions of the keys, so clearing never changes
    one. One broadcast needs a handful of entries.
    """

    #: Entries per table before it is cleared.
    MAX_ENTRIES: int = 256

    __slots__ = ("_hashes", "_macs")

    def __init__(self) -> None:
        self._hashes: Dict[Tuple[bytes, int], bytes] = {}
        self._macs: Dict[Tuple[bytes, bytes], bytes] = {}

    def hash128_iter(self, data: bytes, times: int) -> bytes:
        """:func:`hash128_iter`, computed once per distinct input."""
        memo = self._hashes
        entry = (data, times)
        value = memo.get(entry)
        if value is None:
            value = hash128_iter(data, times)
            if len(memo) >= self.MAX_ENTRIES:
                memo.clear()
            memo[entry] = value
        return value

    def hmac128(self, key: bytes, data: bytes) -> bytes:
        """:func:`hmac128`, computed once per distinct input."""
        memo = self._macs
        entry = (key, data)
        value = memo.get(entry)
        if value is None:
            value = hmac128(key, data)
            if len(memo) >= self.MAX_ENTRIES:
                memo.clear()
            memo[entry] = value
        return value

    def __len__(self) -> int:
        return len(self._hashes) + len(self._macs)
