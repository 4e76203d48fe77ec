"""Anchored lift searches for replays and evidence (`verify_witness`,
`verify_certificate`, `iso_check`'s not-surjective evidence).

A subset of orbits {a_1 < ... < a_k} is lifted by fixing the canonical
representative of a_1 (the anchor) and choosing one member from each other
orbit.  Every unanchored lift is carried to an anchored one by a single group
element, so uniqueness up to the action is equivalent to uniqueness among
anchored tuples whenever no nonidentity element moves a point by less than
the scale (the doubled-point condition checked separately).

One depth-first walk, `_walk`, visits one subset's anchored tuples in
lexicographic order, sharing no code with `complexes.anchored_lifts`.  The
three searches differ only in the state they thread through it (a diameter
or a packed ball row) and in what they prune.  Every comparison is exact.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "anchored_lifts_within",
    "anchored_min_diameter",
    "anchored_witnessed_lifts",
]


def _walk(members_by_orbit, orbits, extend, leaf, state) -> None:
    """Visit the anchored tuples over `orbits` in lexicographic order.

    `state` belongs to the anchor alone.  `extend(state, chosen, y)` returns
    the state of the tuple `chosen + (y,)`, or None to prune that branch;
    `leaf(points, state)` receives each complete tuple.  Member lists are
    assumed sorted ascending.
    """
    k = len(orbits)

    def rec(chosen: tuple[int, ...], state) -> None:
        if len(chosen) == k:
            leaf(chosen, state)
            return
        for y in members_by_orbit[orbits[len(chosen)]]:
            child = extend(state, chosen, y)
            if child is not None:
                rec(chosen + (y,), child)

    rec((members_by_orbit[orbits[0]][0],), state)


def anchored_lifts_within(
    Dl: Sequence[Sequence[float]],
    members_by_orbit: list[list[int]],
    orbits: tuple[int, ...],
    bound: float,
    strict: bool = True,
) -> list[tuple[float, tuple[int, ...]]]:
    """All anchored lift tuples with diameter < bound (<= bound if not strict).

    Returns (diameter, points) pairs in lexicographic order of the point
    tuples; member lists are assumed sorted ascending.
    """
    out: list[tuple[float, tuple[int, ...]]] = []

    def extend(diam: float, chosen: tuple[int, ...], y: int) -> float | None:
        row = Dl[y]
        for x in chosen:
            d = row[x]
            if not (d < bound if strict else d <= bound):
                return None
            if d > diam:
                diam = d
        return diam

    _walk(members_by_orbit, orbits, extend,
          lambda points, diam: out.append((diam, points)), 0.0)
    return out


def anchored_min_diameter(
    Dl: Sequence[Sequence[float]],
    members_by_orbit: list[list[int]],
    orbits: tuple[int, ...],
) -> tuple[float, list[tuple[int, ...]]]:
    """Minimum diameter over all anchored lift tuples, with every tuple
    achieving it (exact float equality), in lexicographic order."""
    best = math.inf
    achievers: list[tuple[int, ...]] = []

    def extend(diam: float, chosen: tuple[int, ...], y: int) -> float | None:
        row = Dl[y]
        for x in chosen:
            d = row[x]
            if d > best:  # cannot reach the incumbent minimum
                return None
            if d > diam:
                diam = d
        return diam

    def leaf(points: tuple[int, ...], diam: float) -> None:
        nonlocal best
        if diam < best:
            best = diam
            achievers.clear()
        achievers.append(points)

    _walk(members_by_orbit, orbits, extend, leaf, 0.0)
    if math.isinf(best):
        return best, []
    return best, achievers


def anchored_witnessed_lifts(
    balls: np.ndarray,
    members_by_orbit: list[list[int]],
    orbits: tuple[int, ...],
) -> list[tuple[tuple[int, ...], int]]:
    """Anchored lift tuples whose balls share a sample point, with one witness.

    `balls` holds the balls as packed bit rows (`complexes.ball_rows`): bit y
    of row x is set iff sample point y lies in the ball around x.  Returns
    (points, witness) pairs in lexicographic order of the point tuples; the
    witness is the lowest-index common sample point.
    """
    out: list[tuple[tuple[int, ...], int]] = []

    def extend(row: np.ndarray, chosen: tuple[int, ...], y: int) -> np.ndarray | None:
        row = row & balls[y]
        return row if row.any() else None

    def leaf(points: tuple[int, ...], row: np.ndarray) -> None:
        out.append((points, int(np.unpackbits(row, bitorder="little").argmax())))

    start = balls[members_by_orbit[orbits[0]][0]]
    if start.any():
        _walk(members_by_orbit, orbits, extend, leaf, start)
    return out
