"""Quantitative checks on how a group action interacts with a scale r, and
scans that bracket the largest scale at which each property holds.

Four properties of an isometric action, each parametrized by r:

- distance: every nonidentity element moves every point by at least r.
- ball: no point lies within r of both x and g.x for any nonidentity g.
- diameter: subsets of the quotient with diameter < r (up to k_max+1 points)
  lift to the base space uniquely up to the action, the unique lift having the
  same diameter, and with no second lift of diameter < r.
- nerve: subsets of quotient balls of radius r with a common sample point lift
  uniquely up to the action to base balls with a common sample point.

For a free action the diameter and nerve properties are exactly what make
the quotient of the Vietoris-Rips (resp. Cech) complex at scale r isomorphic
to the complex of the quotient metric space, so their checks double as
certificates for iso_check.  An action with a fixed point fails their
doubled-point part at every positive scale, even where the complexes match:
circle(16) mod i -> -i fails the diameter check at 0.0625 and 0.125 on the
fixed point 0, and iso_check is isomorphic at both.  Both checks decide
each quotient simplex from its forced lift (`complexes.edge_lifts`) and
check no dimension past `_DECIDING_DIM`: on a free action a pass there
certifies the complexes in every dimension.

Every check, scan and replay runs on the exactly invariant base space of
build_quotient (see the tolerance policy in `actions`), and compares exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .actions import IsometricAction, QuotientSpace, build_quotient
from .complexes import (DEFAULT_BUDGET, DEFAULT_DIM_CAP, ball_rows, cech_complex,
                        edge_lifts, spans, vr_complex)
from .lifts import (anchored_lifts_within, anchored_min_diameter,
                    anchored_witnessed_lifts)
from .spaces import FiniteMetricSpace

__all__ = [
    "ActionCheckResult",
    "ThresholdReport",
    "distance_threshold",
    "ball_threshold",
    "diameter_action_check",
    "nerve_action_check",
    "threshold_scan",
    "verify_witness",
]

# The last dimension that can decide a check.  Once the doubled points and
# every quotient edge pass at r on a free action, the representative a of
# orbit A has one point b_B of each orbit B with a lift of {A, B} through it
# (a second would be a second lift: no element fixes a), so a quotient simplex
# has at most the one forced lift {a} + {b_B}.  For VR it is a lift iff
# d(b_B, b_C) < r for each B, C, and then its sides are the quotient
# distances, so a subset with one lift passes and one with none fails; for
# Cech a quotient witness always lifts (see nerve_action_check).  So the
# first failure lies at or below the cap, and a pass holds in every dimension.
_DECIDING_DIM = {"vr": 2, "cech": 1}


@dataclass
class ActionCheckResult:
    """Outcome of one property check at a fixed scale."""

    kind: str
    r: float
    ok: bool
    k_max: int = DEFAULT_DIM_CAP
    convention: str = "lt"
    witness: dict | None = None
    subsets_checked: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ThresholdReport:
    """Bracketing of the largest scale at which a property holds.

    The property holds at passes_at and fails at fails_at; resolution =
    fails_at - passes_at is the width of the bracket.  For the distance and
    ball kinds passes_at is the exact supremum of passing scales.  For the
    diameter and nerve kinds both ends are adjacent grid values around the
    exact failure scale (provenance "search": "exact-minimum"), and scanned
    is the number of checks run: 1, at fails_at, or 0 when fails_at is inf.
    """

    kind: str
    k_max: int
    convention: str
    passes_at: float
    fails_at: float
    witness: dict | None = None
    resolution: float | None = None
    scanned: int = 0
    vacuous: bool = False
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key in ("passes_at", "fails_at", "resolution"):
            if doc[key] is not None and math.isinf(doc[key]):
                doc[key] = "inf"
        return doc


def _bracket(grid: np.ndarray, t: float, strict: bool = True) -> tuple[float, float]:
    """The last grid value at which a property failing exactly above t (at and
    above t, unless strict) holds (0.0 if none), and the first (inf if none)."""
    i = int(np.searchsorted(grid, t, side="right" if strict else "left"))
    return float(grid[i - 1]) if i else 0.0, float(grid[i]) if i < len(grid) else math.inf


def _doubled_points(D: np.ndarray, action: IsometricAction, ball: bool,
                    points=slice(None)) -> np.ndarray:
    """The scale above which each of `points` (an index array, or every point)
    and its image under each nonidentity g double, as an (elements - 1,
    points) array: d(x, g.x), or with `ball` min over y of max(d(x, y),
    d(g.x, y)), a g at a time."""
    rows, images = D[points], action.element_arrays[1:, points]
    if ball:
        values = [np.maximum(rows, D[img]).min(axis=1) for img in images]
        return np.array(values).reshape(len(images), len(rows))
    return np.take_along_axis(rows, images.T, axis=1).T


def _exact_threshold(kind: str, space: FiniteMetricSpace,
                     action: IsometricAction) -> ThresholdReport:
    """Report of the distance or ball threshold: the least doubled-point value
    over all points of the exactly invariant base, witnessed by the first
    (g, x, then y) that attains it.

    The trivial group passes vacuously at every scale; otherwise the property
    fails at the first critical value above the minimum, on the grid that
    `QuotientSpace.critical_values` reads from the representative rows (the
    base's own grid, bit for bit, since the base is exactly invariant).
    """
    q = build_quotient(space, action)
    base = q.base
    if len(action.elements) == 1:
        return ThresholdReport(kind=kind, k_max=0, convention="lt",
                               passes_at=math.inf, fails_at=math.inf,
                               vacuous=True)
    values = _doubled_points(base.dist, action, kind == "ball")
    g, x = divmod(int(np.argmin(values)), base.n)
    best, gx = float(values[g, x]), int(action.element_arrays[g + 1, x])
    witness = {"g": g + 1, "x": x, "gx": gx}
    if kind == "ball":
        witness.update(y=int(np.argmin(np.maximum(base.dist[x], base.dist[gx]))), value=best)
    else:
        witness["moved"] = best
    fails_at = _bracket(q.critical_values(), best)[1]
    return ThresholdReport(kind=kind, k_max=0, convention="lt",
                           passes_at=best, fails_at=fails_at, witness=witness,
                           resolution=(fails_at - best) if math.isfinite(fails_at) else None,
                           provenance={"method": "exact-minimum"})


def distance_threshold(space: FiniteMetricSpace, action: IsometricAction) -> ThresholdReport:
    """Exact threshold for the distance property: min over g != e of d(x, g.x).

    The property "every nonidentity element moves every point by at least r"
    holds exactly for r <= passes_at.
    """
    return _exact_threshold("distance", space, action)


def ball_threshold(space: FiniteMetricSpace, action: IsometricAction) -> ThresholdReport:
    """Exact threshold for the ball property.

    passes_at = min over nonidentity g and sample points x, y of
    max(d(x, y), d(g.x, y)); open balls of radius r around x and g.x share a
    sample point iff that minimum is < r, so the property holds exactly for
    r <= passes_at.
    """
    return _exact_threshold("ball", space, action)


def _doubles_failure(q: QuotientSpace, r: float, ball: bool,
                     convention: str = "lt") -> dict | None:
    """Doubled-point part of the diameter/nerve checks: the first orbit, then
    g, that doubles at r, with the lowest common sample point y for balls.
    Checking at representatives suffices, by conjugation."""
    within = np.less_equal if convention == "leq" else np.less
    values = _doubled_points(q.base.dist, q.action, ball, q.reps).T
    hits = np.argwhere(within(values, r))
    if not len(hits):
        return None
    a, g = hits[0].tolist()
    x, gx, D = q.reps[a], int(q.action.element_arrays[g + 1, q.reps[a]]), q.base.dist
    witness = {"part": "doubles", "orbit": a, "g": g + 1, "x": x, "gx": gx}
    if not ball:
        return {**witness, "moved": float(values[a, g])}
    y = int(np.argmax(within(np.maximum(D[x], D[gx]), r)))
    return {**witness, "y": y, "value": float(max(D[x, y], D[gx, y])), "fixed_point": gx == x}


def _first_failure(q: QuotientSpace, kind: str, r: float, convention: str,
                   k_max: int, budget: int, failure) -> tuple[dict | None, int]:
    """The witness `failure(orbits, lifts)` of the first simplex, in
    (dimension, lex) order, of the quotient's `kind` complex at r without
    exactly one anchored lift at r, and the number of simplices checked, up
    to dimension min(k_max, _DECIDING_DIM[kind]): past that cap no first
    failure lies.  One `tally` counts the edges' lifts per quotient edge
    (each projects to one: quotient distances never exceed base distances,
    and a base ball witness projects to a quotient one).  Once each edge
    {A, B} has its one lift (a, b_AB), triangle {A, B, C} has the one lift
    (a, b_AB, b_AC) if d(b_AB, b_AC) is within r, else none."""
    build = vr_complex if kind == "vr" else cech_complex
    qcx = build(q.space, r, convention=convention,
                dim_cap=min(k_max, _DECIDING_DIM[kind]), budget=budget)
    if 1 not in qcx.simplices:
        return None, 0
    rows = edge_lifts(q.base, q.proj, r, kind, convention)
    ranks, count = qcx.tally(1, q.proj[rows])
    if (count != 1).any():
        s = int(np.argmax(count != 1))
        return failure(qcx.simplices[1][s], rows[ranks == s]), s + 1
    if 2 not in qcx.simplices:
        return None, len(count)
    lift = np.zeros((q.space.n, q.space.n), dtype=np.int32)
    lift[tuple(q.proj[rows].T)] = rows[:, 1]  # lift[A, B]: the one lift point b_AB
    tri = qcx.simplices[2]
    within = np.less_equal if convention == "leq" else np.less
    ok = within(q.base.dist[lift[tri[:, 0], tri[:, 1]], lift[tri[:, 0], tri[:, 2]]], r)
    if not ok.all():
        s = int(np.argmin(ok))
        return failure(tri[s], tri[:0]), len(count) + s + 1  # a triangle with no lift
    return None, len(count) + len(tri)


def _diameters(D: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The largest entry of D over the pairs of each vertex row."""
    i, j = np.triu_indices(rows.shape[1], 1)
    return D[rows[:, i], rows[:, j]].max(axis=1)


def _failure_scale(q: QuotientSpace, kind: str, k_max: int) -> float:
    """The scale T above which (at and above which, nerve under "leq") the
    check fails: the least doubled-point value or f(S) of a quotient subset
    up to `_DECIDING_DIM`.  Diameter, from arrays at the representatives a
    in O(q n + q^3) work: an edge's f is the second-least distance from a
    to B, a triangle's (B, C above A) its quotient diameter when its one
    possible lift below T, {a, b_B, b_C}, is longer.  Nerve: an edge's
    second-least lift radius, over the edges' lifts at the doubled-point
    scale (`edge_lifts`, at most q n rows)."""
    D = q.base.dist
    t = float(_doubled_points(D, q.action, kind == "nerve", q.reps).min(initial=math.inf))
    top = min(k_max, _DECIDING_DIM["vr" if kind == "diameter" else "cech"])
    if t == 0.0 or math.isinf(t) or top == 0:  # a fixed point, or one lift per subset
        return t
    if kind == "nerve":  # the edges' second-least lift radii, 2^18 // n lifts at a time
        rows = edge_lifts(q.base, q.proj, t, "cech", "lt")
        step = max(1, (1 << 18) // len(D))
        radii = np.concatenate([np.zeros(0)] + [D[rows[lo:lo + step]].max(1).min(1)
                                                for lo in range(0, len(rows), step)])
        edges = q.proj[rows] @ np.array([len(q.reps), 1])
        o = np.lexsort((radii, edges))
        edges, radii = edges[o], radii[o]
        return min(t, float(radii[1:][edges[1:] == edges[:-1]].min(initial=math.inf)))
    members = np.array(q.members)  # the action is free: (q, |G|)
    m = len(members)
    near = D[np.ix_(q.reps, members.ravel())].reshape(m, m, -1)  # near[a, B]: d(a, B)
    t = min(t, float(np.partition(near, 1, axis=2)[:, :, 1].min()))
    if top == 1:
        return t
    b, Q = members[np.arange(m), near.argmin(axis=2)], q.space.dist  # b[a, B] = b_B
    for a in range(m):  # triangles below t whose one possible lift is longer
        nb = a + 1 + np.flatnonzero(Q[a, a + 1:] < t)
        qdiam = np.maximum(np.maximum.outer(Q[a, nb], Q[a, nb]), Q[np.ix_(nb, nb)])
        longer = D[np.ix_(b[a, nb], b[a, nb])] > qdiam
        t = min(t, float(qdiam[longer].min(initial=math.inf)))
    return t


def _diameter_failure(q: QuotientSpace, orbits: np.ndarray, lifts: np.ndarray) -> dict:
    """The witness of a quotient subset below the scale without exactly one
    anchored lift below it, given those lifts in lex order."""
    qdiam, orbits = float(_diameters(q.space.dist, orbits[None])[0]), orbits.tolist()
    within = list(zip(_diameters(q.base.dist, lifts).tolist(), map(tuple, lifts.tolist())))
    if within:
        min_diam = min(d for d, _ in within)
        achievers = [t for d, t in within if d == min_diam]
    else:  # the minimum is >= r; find it and its achievers
        min_diam, achievers = anchored_min_diameter(q.base.dist, q.members, tuple(orbits))
        min_diam = float(min_diam)

    def sets(mode: str, **evidence) -> dict:
        return {"part": "sets", "mode": mode, "orbits": orbits, "qdiam": qdiam,
                **evidence}

    if min_diam > qdiam:
        return sets("no_equality_lift", min_lift_diam=min_diam,
                    min_lifts=[list(t) for t in achievers[:4]])
    if len(achievers) > 1:
        return sets("equality_not_unique", lifts=[list(t) for t in achievers[:4]])
    extras = [list(t) for _, t in within if t != achievers[0]]
    return sets("extra_lift_within_scale", lift=list(achievers[0]), extra_lifts=extras[:4])


def _check_k_max(k_max: int) -> None:
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")


def diameter_action_check(space: FiniteMetricSpace, action: IsometricAction,
                          r: float, k_max: int = DEFAULT_DIM_CAP,
                          quotient: QuotientSpace | None = None,
                          budget: int = DEFAULT_BUDGET) -> ActionCheckResult:
    """Check the diameter property at scale r for subsets of 2..k_max+1 orbits.

    A qualifying subset (quotient diameter < r) passes when exactly one
    anchored lift tuple has diameter < r and that tuple's diameter equals the
    quotient diameter.  Failure modes: no_equality_lift (even the smallest
    lift is strictly larger), equality_not_unique (two anchored lifts achieve
    it), extra_lift_within_scale (a second, larger lift still below r).
    For a free action, together with the doubled-point part, this is exactly
    the condition under which the quotient of VR(space, r) matches VR(quotient
    space, r); a fixed point fails it at every r > 0.  It checks subsets of
    up to min(k_max, 2) + 1 orbits, which decide every size (`_DECIDING_DIM`),
    from the forced lifts, and the budget bounds the quotient complex alone.
    """
    _check_k_max(k_max)
    q = quotient if quotient is not None else build_quotient(space, action)
    witness, checked = _doubles_failure(q, r, ball=False), 0
    if witness is None:
        witness, checked = _first_failure(q, "vr", r, "lt", k_max, budget,
                                          functools.partial(_diameter_failure, q))
    return ActionCheckResult(kind="diameter", r=float(r), ok=witness is None,
                             k_max=k_max, witness=witness, subsets_checked=checked)


def nerve_action_check(space: FiniteMetricSpace, action: IsometricAction,
                       r: float, k_max: int = DEFAULT_DIM_CAP,
                       convention: str = "lt",
                       quotient: QuotientSpace | None = None,
                       budget: int = DEFAULT_BUDGET) -> ActionCheckResult:
    """Check the nerve property at scale r for subsets of 2..k_max+1 orbits.

    Qualifying subsets are the simplices of the Cech complex of the quotient
    space (balls of radius r sharing a quotient sample point); each must have
    exactly one anchored lift tuple whose base balls share a base sample
    point.  On the exactly invariant `q.base` a quotient witness always
    lifts: if orbit c witnesses the subset, each orbit a_i has a member x_i
    with d(x_i, rep_c) equal to the quotient distance, and the element that
    anchors (x_1, ...) carries rep_c to a common point at bit-identical
    distances.  So the one failure mode is lift_not_unique.  For a free
    action, together with the doubled-point part, this is exactly the
    condition under which the quotient of the Cech complex matches the Cech
    complex of the quotient; a fixed point fails it at every r > 0.  It
    checks pairs of orbits alone, which decide every size (`_DECIDING_DIM`),
    and the budget bounds the quotient complex alone.
    """
    _check_k_max(k_max)
    q = quotient if quotient is not None else build_quotient(space, action)
    balls = ball_rows(q.base, r, convention)  # rejects an unknown convention up front

    def failure(orbits: np.ndarray, rows: np.ndarray) -> dict:
        common = np.bitwise_and.reduce(balls[rows[:4]], axis=1)
        witnesses = np.unpackbits(common, axis=1, bitorder="little").argmax(axis=1)
        return {"part": "sets", "mode": "lift_not_unique", "orbits": orbits.tolist(),
                "lifts": rows[:4].tolist(), "witnesses": witnesses.tolist()}

    witness, checked = _doubles_failure(q, r, ball=True, convention=convention), 0
    if witness is None:
        witness, checked = _first_failure(q, "cech", r, convention, k_max, budget, failure)
    return ActionCheckResult(kind="nerve", r=float(r), ok=witness is None, k_max=k_max,
                             convention=convention, witness=witness,
                             subsets_checked=checked)


def threshold_scan(space: FiniteMetricSpace, action: IsometricAction,
                   kind: str, k_max: int = DEFAULT_DIM_CAP,
                   convention: str = "lt",
                   budget: int = DEFAULT_BUDGET) -> ThresholdReport:
    """Bracket the largest scale at which a property of the action holds.

    distance and ball are computed exactly.  diameter and nerve are
    bracketed on the critical values of the base space `q.base` (every
    quotient distance is a base distance, so this grid sees every scale at
    which the qualifying subsets or their lifts can change), read from its
    q representative rows by `QuotientSpace.critical_values`: `q.base` is
    exactly invariant, so for a g with g x = rep every entry d(x, y) is the
    entry d(rep, g y) of a representative row, and the grid is the full
    matrix's bit for bit.  The bracket is the one an ascending walk that
    stops at the first failing check would give: fails_at is the first
    grid value whose check fails, passes_at its predecessor (0.0 if none).
    Both checks are monotone in r, the nerve check on the exact action of
    `q.base` (see nerve_action_check), so each fails exactly above the scale
    `_failure_scale` finds, without a search or a budget.  The one check,
    at fails_at, gives the witness; the budget bounds it alone.  Only the
    nerve scan reads the convention; the others report "lt", as their checks do.
    """
    if convention not in ("lt", "leq"):
        raise ValueError(f"convention must be one of ('leq', 'lt'), got {convention!r}")
    if kind == "distance":
        return distance_threshold(space, action)
    if kind == "ball":
        return ball_threshold(space, action)
    if kind not in ("diameter", "nerve"):
        raise ValueError(f"unknown threshold kind: {kind!r}")
    _check_k_max(k_max)
    convention = convention if kind == "nerve" else "lt"

    q = build_quotient(space, action)
    grid = q.critical_values()
    passes_at, fails_at = _bracket(grid, _failure_scale(q, kind, k_max), convention == "lt")
    witness = None
    if math.isfinite(fails_at):
        check = diameter_action_check if kind == "diameter" else \
            functools.partial(nerve_action_check, convention=convention)
        res = check(space, action, fails_at, k_max=k_max, quotient=q, budget=budget)
        if res.ok:
            raise AssertionError(f"{kind} check passes at {fails_at!r}, above its failure scale")
        witness = {**res.witness, "scale": fails_at}
    return ThresholdReport(kind=kind, k_max=k_max, convention=convention,
                           passes_at=passes_at, fails_at=fails_at, witness=witness,
                           resolution=(fails_at - passes_at) if math.isfinite(fails_at) else None,
                           scanned=int(math.isfinite(fails_at)),
                           provenance={"grid": "base-critical-values",
                                       "grid_size": len(grid),
                                       "search": "exact-minimum"})


def verify_witness(space: FiniteMetricSpace, action: IsometricAction,
                   kind: str, r: float, witness: dict,
                   convention: str = "lt") -> bool:
    """Replay a failure witness against the definitions, from scratch, on the
    exactly invariant base space of build_quotient.  A witness does not
    replay if its element g is not one of 1..|G|-1, a point x, g.x or y is
    out of range, or its orbits are not a sorted subset of the orbits."""
    if kind not in ("distance", "ball", "diameter", "nerve"):
        raise ValueError(f"unknown witness kind: {kind!r}")
    q = build_quotient(space, action)
    D, n = q.base.dist, q.base.n
    if kind in ("distance", "ball") or witness.get("part") == "doubles":
        g, x, y = witness["g"], witness["x"], witness.get("y", witness["x"])
        if not (0 < g < len(action.elements) and 0 <= x < n and 0 <= y < n):
            return False
        gx = int(action.element_arrays[g, x])
        if witness.get("gx", gx) != gx:
            return False
        if kind in ("distance", "diameter"):
            return float(D[x, gx]) < r
        if kind == "ball":
            return max(float(D[x, y]), float(D[gx, y])) < r
        balls = ball_rows(q.base, r, convention)
        return bool((balls[x] & balls[gx]).any())

    # the subset, of any size, must be a simplex of the quotient's VR ("lt")
    # or Cech complex
    orbits, members = tuple(witness["orbits"]), q.members
    if kind == "diameter":
        if not spans(q.space, "vr", r, "lt", len(orbits), orbits):
            return False
        qdiam = float(_diameters(q.space.dist, np.array([orbits]))[0])
        min_diam, achievers = anchored_min_diameter(D, members, orbits)
        equal = bool(min_diam <= qdiam)
        mode = witness["mode"]
        if mode == "no_equality_lift":
            return not equal
        if mode == "equality_not_unique":
            return equal and len(achievers) > 1
        if mode == "extra_lift_within_scale":
            within = anchored_lifts_within(D, members, orbits, r, strict=True)
            return equal and len(achievers) == 1 and len(within) > 1
        return False
    if not spans(q.space, "cech", r, convention, len(orbits), orbits):
        return False
    lifts = anchored_witnessed_lifts(ball_rows(q.base, r, convention), members, orbits)
    return witness["mode"] == "lift_not_unique" and len(lifts) > 1
