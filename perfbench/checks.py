"""Exact output checks: canonical digests of job outcomes.

A job's outcome (trace arrays plus scalar results) is hashed into a
short digest. The digests of every job of a seed's job list were
generated once from the program and are committed under
``perfbench/digests/``; a run compares each job it executes against
them. The hash covers array dtypes, shapes and raw bytes and the exact
``repr`` of every scalar, so any change in a simulated value shows.

A digest file holds the job keys once (they do not depend on the seed)
and, per seed, the digests in the same order, space-separated.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Mapping, Optional

import numpy as np

#: Hex characters kept per digest (64 bits).
DIGEST_CHARS = 16


def _feed(h: Any, value: Any) -> None:
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(value, np.generic):
        _feed(h, value.item())
    elif isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value, key=repr):
            _feed(h, key)
            _feed(h, value[key])
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _feed(h, item)
        h.update(b"]")
    elif value is None or isinstance(value, (bool, int, float, str)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    else:
        raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(outcome: Mapping[str, Any]) -> str:
    """The canonical digest of one job outcome."""
    h = hashlib.sha256()
    _feed(h, dict(outcome))
    return h.hexdigest()[:DIGEST_CHARS]


def digest_path(directory: str, workload: str) -> str:
    return os.path.join(directory, f"{workload}.json")


def load_expected(path: str, seed: int) -> Optional[Dict[str, str]]:
    """Committed digests of ``seed`` (``{job key: digest}``), or None."""
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    digests = payload["seeds"].get(str(seed))
    if digests is None:
        return None
    return dict(zip(payload["keys"], digests.split()))


def write_expected(path: str, workload: str, seeds: Mapping[int, Mapping[str, str]]) -> None:
    """Merge ``seeds`` (``{seed: {job key: digest}}``) into ``path``."""
    payload: Dict[str, Any] = {"workload": workload, "keys": None, "seeds": {}}
    if os.path.isfile(path):
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    for seed in sorted(seeds):
        keys = list(seeds[seed])
        if payload["keys"] is None:
            payload["keys"] = keys
        if keys != payload["keys"]:
            raise ValueError(f"seed {seed}: job keys differ from the committed ones")
        payload["seeds"][str(seed)] = " ".join(seeds[seed][key] for key in keys)
    payload["seeds"] = dict(sorted(payload["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
