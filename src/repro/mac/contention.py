"""Beacon-window contention resolution.

One beacon window is resolved on the real time axis: every candidate
station, with its scheduled transmission time - the time its backoff
timer expires as measured in *true* time, so clock skew between stations
is honoured - is resolved in time order under three rules:

1. **Cancel on reception** (802.11 TSF rule): a station whose timer expires
   at or after the end of an earlier *successful* transmission cancels its
   pending beacon. The window is therefore over at the first success, and
   the cascade stops there.
2. **Carrier sense**: a station whose timer expires while the medium is
   busy, but ``cca_us`` or more after the busy transmission started,
   defers to the end of the busy period.
3. **Collision**: stations starting within ``cca_us`` of an ongoing
   transmission's start are inside the carrier-sense vulnerability window
   and garble it; none of the colliding frames is received by anyone.

This cascade allows several transmissions per window (collision, then a
retry group, then possibly a late success), matching the behaviour TSF
scalability studies model, and degenerates to the classic
"unique-minimum-slot wins" rule when all stations share one perfect clock.

The cascade steps once per *transmission*, not once per candidate: on the
time-sorted candidates, three ``bisect`` boundaries split each
transmission's stations into the tie group at its start, the collision
members inside the CCA window and the deferred group, all taken as list
slices. A window of n candidates that ends after a handful of
transmissions therefore costs one sort and a handful of Python steps,
not n of them.

Both lanes call the one cascade: the OO runner directly, the vectorised
fast lane through :func:`repro.fastlane.common.resolve_window`, which
settles a one-candidate window (no contention to resolve) without the
cascade but with the same work counts and event.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.counters import count
from repro.obs.events import emit, tracing_enabled


@dataclass(frozen=True)
class Transmission:
    """One on-air transmission (possibly a collision of several frames)."""

    start_us: float
    end_us: float
    members: Tuple[int, ...]

    @property
    def success(self) -> bool:
        """True when exactly one station transmitted (decodable frame)."""
        return len(self.members) == 1


@dataclass
class ContentionResult:
    """Outcome of one beacon window: its transmissions, in start order,
    up to and including the first success."""

    transmissions: List[Transmission] = field(default_factory=list)

    @property
    def first_success(self) -> Optional[Transmission]:
        """The first successful transmission, if any (always the last one)."""
        if self.transmissions and self.transmissions[-1].success:
            return self.transmissions[-1]
        return None

    @property
    def collisions(self) -> int:
        """Number of collided transmissions in the window."""
        return sum(1 for tx in self.transmissions if not tx.success)


def resolve_contention(
    ids: Sequence[int],
    times: Sequence[float],
    airtime_us: float,
    cca_us: float,
) -> ContentionResult:
    """Resolve one beacon window.

    Parameters
    ----------
    ids, times:
        Parallel sequences (lists or arrays): candidate stations and their
        scheduled transmission true times in us. A station appears at most
        once; equal times keep input order. A non-finite time raises
        ValueError naming its station.
    airtime_us:
        Time one beacon occupies the medium.
    cca_us:
        Carrier-sense vulnerability window (see module docstring).

    Notes
    -----
    Cancellation uses the *successful transmission* itself, not the
    per-receiver packet-error draw - i.e. we assume the cancelling station
    heard the beacon. With the paper's PER of 1e-4 the distinction is
    negligible and this is the standard simplification.
    """
    _check_shape(airtime_us, cca_us)
    if len(ids) != len(times):
        raise ValueError(
            f"ids has {len(ids)} entries but times has {len(times)}"
        )
    time_arr = np.asarray(times, dtype=float)
    order = np.argsort(time_arr)
    sorted_times = time_arr[order]
    if time_arr.size > 1 and (sorted_times[1:] == sorted_times[:-1]).any():
        # Equal times keep input order, which only the (slower) stable
        # sort guarantees; without ties both sorts give the one order.
        order = np.argsort(time_arr, kind="stable")
        sorted_times = time_arr[order]
    id_list = np.asarray(ids)[order].tolist()
    time_list = sorted_times.tolist()
    n = len(id_list)
    # argsort puts -inf first and +inf/NaN last: the ends tell whether
    # every time is finite (a NaN start would never end a transmission).
    if n and not (math.isfinite(time_list[0]) and math.isfinite(time_list[-1])):
        k = int(np.flatnonzero(~np.isfinite(time_arr))[0])
        raise _non_finite(ids[k], float(time_arr[k]))
    if len(set(id_list)) != n:
        seen = set()
        for station in id_list:
            if station in seen:
                raise ValueError(f"station {station} listed twice in contention")
            seen.add(station)
    count("mac.contention_round")
    count("mac.contention_candidates", n)

    # Step once per transmission over the sorted candidates. ``deferred``
    # holds the stations that sensed the current transmission and wait
    # for its end, when they all start together (after any candidate
    # timed exactly at that end). Each transmission's candidates split at
    # three boundaries: the tie group (``t <= start``), the CCA boundary
    # (``t - start < cca_us`` joins the collision, later ones defer) and
    # the busy end (``t < end``); everyone at or after the end waits for
    # the next transmission.
    result = ContentionResult()
    deferred: List[int] = []
    end = 0.0
    i = 0
    while i < n or deferred:
        start = end if deferred else time_list[i]
        end = start + airtime_us
        ties = bisect_right(time_list, start, i)
        busy = bisect_left(time_list, end, ties)
        # ``start + cca_us`` may round either way of the exact predicate
        # ``t - start < cca_us``; the bisection only seeds the search.
        cca = bisect_left(time_list, start + cca_us, ties, busy)
        while cca > ties and not time_list[cca - 1] - start < cca_us:
            cca -= 1
        while cca < busy and time_list[cca] - start < cca_us:
            cca += 1
        members = id_list[i:ties] + deferred + id_list[ties:cca]
        deferred = id_list[cca:busy]
        i = busy
        result.transmissions.append(Transmission(start, end, tuple(members)))
        if len(members) == 1:
            # Every later candidate hears this beacon and cancels; every
            # earlier transmission was a collision.
            emit(
                "contention_win",
                t_us=start,
                node=members[0],
                contenders=n,
                collisions=len(result.transmissions) - 1,
            )
            break
    return result


def settle_alone(
    station: int, t_us: float, airtime_us: float, cca_us: float
) -> None:
    """Settle a window whose one candidate transmits alone at ``t_us``
    and wins.

    :func:`resolve_contention` would step once and stop at that success;
    this makes the same checks, work counts and ``contention_win`` event
    without the sort and the result objects.
    """
    _check_shape(airtime_us, cca_us)
    if not math.isfinite(t_us):
        raise _non_finite(station, t_us)
    count("mac.contention_round")
    count("mac.contention_candidates", 1)
    emit("contention_win", t_us=t_us, node=station, contenders=1, collisions=0)


def _check_shape(airtime_us: float, cca_us: float) -> None:
    if not (airtime_us > 0 and cca_us > 0):  # NaN fails too
        raise ValueError("airtime_us and cca_us must be > 0")


def _non_finite(station: int, t_us: float) -> ValueError:
    return ValueError(f"station {station} has non-finite transmission time {t_us!r}")


def partition_domains(
    ids: Sequence[int],
    times: Sequence[float],
    member_ids: Sequence[int],
    groups: Optional[Dict[int, int]],
) -> List[Tuple[List[int], List[float], List[int]]]:
    """Split one beacon window into independent hearing domains.

    ``groups`` maps node id -> partition group (a network-partition
    fault); ``None`` means the medium is whole and everything resolves
    in a single domain. Nodes missing from ``groups`` are isolated from
    every listed group (they match no group id), mirroring how a
    physical partition silences stragglers. Returns
    ``(domain_ids, domain_times, domain_member_ids)`` triples in sorted
    group order; each domain runs its own contention cascade, which is
    how two references can coexist until the network heals.
    """
    if groups is None:
        return [(list(ids), list(times), list(member_ids))]
    domains: List[Tuple[List[int], List[float], List[int]]] = []
    for group in sorted(set(groups.values())):
        members = [nid for nid in member_ids if groups.get(nid) == group]
        inside = [k for k, nid in enumerate(ids) if groups.get(nid) == group]
        domains.append(
            ([ids[k] for k in inside], [times[k] for k in inside], members)
        )
    return domains


@dataclass
class NeighborhoodResult:
    """Outcome of spatial carrier sensing over one beacon window."""

    #: Positions (into the candidate ``ids``/``times``) of every
    #: transmission that went on air, in start-time order (ties in input
    #: order); every other candidate sensed the medium busy and cancelled.
    kept: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))


def resolve_neighborhood(
    ids: Sequence[int],
    times: Sequence[float],
    airtime_us: float,
    hears: Callable[[int], Iterable[int]],
) -> NeighborhoodResult:
    """Carrier sensing over an arbitrary hearing graph.

    The single-hop cascade (:func:`resolve_contention`) assumes every
    station hears every other; in a spatial network a transmission only
    silences the sender's audible neighborhood, so several transmissions
    can legitimately share a window (spatial reuse) and hidden terminals
    can still collide at a receiver. This resolver generalises the
    busy-medium rule to arbitrary per-station hearing sets:

    * candidates (parallel ``ids``/``times``, lists or arrays, as for
      :func:`resolve_contention`) are processed in scheduled-time order,
      ties in input order (``np.argsort(kind="stable")``), matching the
      deterministic engines;
    * a station whose medium is busy at its scheduled instant cancels
      (relays do not defer: they retry next period's window);
    * a transmission marks every station in ``hears(sender)`` busy until
      the frame ends.

    Receiver-side collision grouping (two audible frames overlapping at
    one receiver) is the channel's job, not the MAC's — see
    :meth:`repro.phy.channel.SpatialBroadcastChannel.deliver_window`.
    """
    if airtime_us <= 0:
        raise ValueError("airtime_us must be > 0")
    if len(ids) != len(times):
        raise ValueError(
            f"ids has {len(ids)} entries but times has {len(times)}"
        )
    count("mac.neighborhood_round")
    count("mac.contention_candidates", len(ids))
    time_arr = np.asarray(times, dtype=float)
    order = time_arr.argsort(kind="stable")
    contenders = len(ids)
    tracing = tracing_enabled()
    kept: List[int] = []
    # Candidates start in time order and every frame lasts ``airtime_us``,
    # so each transmission ends no earlier than the ones before it: the
    # latest end a station heard is simply the last one marked on it.
    busy_until: Dict[int, float] = {}
    for position, station, start in zip(
        order.tolist(), np.asarray(ids)[order].tolist(), time_arr[order].tolist()
    ):
        if busy_until.get(station, -math.inf) > start:
            continue
        kept.append(position)
        if tracing:
            emit(
                "contention_win",
                t_us=start,
                node=station,
                contenders=contenders,
            )
        end = start + airtime_us
        for neighbor in hears(station):
            busy_until[neighbor] = end
    return NeighborhoodResult(np.array(kept, dtype=np.intp))
