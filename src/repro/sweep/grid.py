"""Declarative parameter-grid expansion.

A grid is a mapping from axis name to either a list of values (swept) or
a single scalar (held fixed). :func:`expand_grid` expands the cartesian
product in a deterministic order — axes in mapping-insertion order, each
axis's values in the given order, the *last* axis varying fastest — so a
grid expands to the same job list on every machine and every run.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Mapping


def expand_grid(axes: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Expand ``axes`` into the list of parameter points it describes.

    List/tuple values are swept; scalars ride along unchanged on every
    point. ``expand_grid({"m": [1, 2], "n": 30})`` yields
    ``[{"m": 1, "n": 30}, {"m": 2, "n": 30}]``.
    """
    names: List[str] = []
    pools: List[Iterable[Any]] = []
    fixed: Dict[str, Any] = {}
    for name, values in axes.items():
        if isinstance(values, (list, tuple)):
            if len(values) == 0:
                raise ValueError(f"axis {name!r} has no values")
            names.append(name)
            pools.append(list(values))
        else:
            fixed[name] = values
    points = []
    for combo in itertools.product(*pools):
        point = dict(fixed)
        point.update(zip(names, combo))
        points.append(point)
    return points

