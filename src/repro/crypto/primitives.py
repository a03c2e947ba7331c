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

