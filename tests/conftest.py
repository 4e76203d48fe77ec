"""Shared fixtures and brute-force oracles.

The brute-force oracles here recompute everything straight from definitions
with itertools-style enumeration and no shared code with the library internals
(no bitmasks, no clique expansion, no anchoring, no branch-and-bound), so
agreement is meaningful.  linear_scan is the exception: it is the search
oracle for threshold_scan and calls the library's per-scale checks, which the
brute-force oracles referee on their own.  homology_pivots is the boundary
(homology) reduction that the coboundary engine replaced, kept as its referee;
it shares no code with it.  quotient_orbits_oracle (the per-tuple orbit loop
that array orbit grouping replaced) and verify_isometric_oracle (the scan of
every group element, without the exact-generator shortcut) referee
quotient_complex and verify_isometric the same way, and validate_metric_oracle
(the scan of every middle point that the min-plus row check replaced)
referees validate_metric.  clique_oracle is the
tuple clique walker that the array walk of `complexes` replaced, kept
unchanged as its referee; `tuples` reads array rows as the vertex tuples the
oracles list.  subset_check_oracle is the per-subset loop of the diameter
and nerve checks that their forced-lift rule replaced: it decides each
quotient simplex by the recursive searches of `lifts`, and shares only the
quotient complex with the library checks; doubles_failure_oracle, the
double loop that the doubled-point array replaced, gives its doubled-point
part.  anchored_lifts_oracle reads every anchored lift off the base complex,
sharing no code with `complexes.edge_lifts`.
walk_failure_scale is the per-dimension lift walk that the diameter arrays
and the capped checks of `thresholds` replaced, kept as the referee of the
scan's failure scale; it calls only public functions.  full_iso_check is
iso_check's upstairs path on every input, the path that the downstairs
certificate replaced for isomorphic verdicts on free actions: the base
complex, its orbits and one tally per dimension, from public functions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from orbitrips.actions import (ISOMETRY_EPS, IsometricAction, IsometryReport,
                               build_quotient, close_group)
from orbitrips.complexes import (DEFAULT_BUDGET, DEFAULT_DIM_CAP,
                                 BudgetExceededError, SimplicialComplex,
                                 ball_rows, cech_complex, vr_complex)
from orbitrips.lifts import (anchored_lifts_within, anchored_min_diameter,
                             anchored_witnessed_lifts)
from orbitrips.quotient_iso import IsoCertificate, quotient_complex
from orbitrips.spaces import (TRIANGLE_EPS, FiniteMetricSpace, MetricValidation,
                              critical_values)
from orbitrips.thresholds import (ActionCheckResult, ThresholdReport,
                                  diameter_action_check, nerve_action_check)


# ---------------------------------------------------------------------------
# brute-force complexes


def tuples(rows) -> list[tuple[int, ...]]:
    """Vertex rows (an array or a list of tuples) as a list of tuples."""
    return [tuple(row) for row in np.asarray(rows, dtype=np.int64).tolist()]


def _cmp(value: float, r: float, convention: str) -> bool:
    return value < r if convention == "lt" else value <= r


def brute_vr(D: np.ndarray, r: float, convention: str, dim_cap: int) -> dict[int, list[tuple]]:
    n = D.shape[0]
    out: dict[int, list[tuple]] = {}
    for size in range(1, dim_cap + 2):
        simps = []
        for verts in itertools.combinations(range(n), size):
            if all(_cmp(D[a, b], r, convention)
                   for a, b in itertools.combinations(verts, 2)):
                simps.append(verts)
        out[size - 1] = simps
    return out


def brute_cech(D: np.ndarray, r: float, convention: str, dim_cap: int) -> dict[int, list[tuple]]:
    n = D.shape[0]
    out: dict[int, list[tuple]] = {}
    for size in range(1, dim_cap + 2):
        simps = []
        for verts in itertools.combinations(range(n), size):
            if any(all(_cmp(D[v, w], r, convention) for v in verts)
                   for w in range(n)):
                simps.append(verts)
        out[size - 1] = simps
    return out


def int_masks(space: FiniteMetricSpace, r: float, convention: str) -> list[int]:
    """The r-balls as int bit masks, straight from the distances: bit y of
    mask x is set iff d(x, y) is within r (a point's own bit included)."""
    inside = _cmp(space.dist, r, convention)
    return [sum(1 << int(y) for y in np.flatnonzero(row)) for row in inside]


# ---------------------------------------------------------------------------
# clique walk referee


def clique_oracle(n: int, adj_masks: list[int], dim_cap: int, budget: int,
                  child_state=None, root_state=None):
    """Ordered clique expansion over bitmask adjacency.

    Returns ({dim: [simplex tuples]}, {dim: [states]}), each dimension in lex
    order.  Bit v of adj_masks[u] marks an edge; a vertex's own bit is
    ignored.  Optional `root_state(v)` / `child_state(state, simplex, v)`
    thread extra per-simplex data (Cech witness masks, filtration values);
    child_state may return None to prune the child.  The states are kept,
    parallel to the simplices, only when child_state is given; otherwise the
    second dict is empty.  Every simplex, vertices included, counts against
    the budget.
    """
    simplices: dict[int, list[tuple[int, ...]]] = {0: [(i,) for i in range(n)]}
    count = n
    if count > budget:
        raise BudgetExceededError(budget, 0)
    roots = [None] * n if root_state is None else [root_state(i) for i in range(n)]
    kept: dict[int, list] = {} if child_state is None else {0: roots}
    # candidates start as neighbors above the vertex
    frontier = [((i,), adj_masks[i] & (-1 << (i + 1)), roots[i]) for i in range(n)]
    for dim in range(1, dim_cap + 1):
        nxt = []
        out = []
        states = []
        for simplex, cand, state in frontier:
            m = cand
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                if child_state is not None:
                    cstate = child_state(state, simplex, v)
                    if cstate is None:
                        continue
                    states.append(cstate)
                else:
                    cstate = None
                child = simplex + (v,)
                count += 1
                if count > budget:
                    raise BudgetExceededError(budget, dim)
                out.append(child)
                if dim < dim_cap:
                    nxt.append((child, cand & adj_masks[v] & (-1 << (v + 1)), cstate))
        if not out:
            break
        simplices[dim] = out
        if child_state is not None:
            kept[dim] = states
        frontier = nxt
    return simplices, kept


# ---------------------------------------------------------------------------
# brute-force action property checks (definition-level, no anchoring)


def brute_distance_ok(D: np.ndarray, action: IsometricAction, r: float) -> bool:
    return all(D[x, p[x]] >= r
               for p in action.elements[1:] for x in range(D.shape[0]))


def brute_ball_ok(D: np.ndarray, action: IsometricAction, r: float) -> bool:
    n = D.shape[0]
    for p in action.elements[1:]:
        for x in range(n):
            for y in range(n):
                if max(D[x, y], D[p[x], y]) < r:
                    return False
    return True


def _orbit_subsets(proj: np.ndarray, k_max: int):
    n_orbits = int(proj.max()) + 1
    for size in range(2, k_max + 2):
        yield from itertools.combinations(range(n_orbits), size)


def _tuple_classes(tuples: list[tuple], action: IsometricAction) -> int:
    """Number of action-orbits among point tuples (as sets of sorted images)."""
    remaining = set(tuples)
    classes = 0
    while remaining:
        t = remaining.pop()
        classes += 1
        for p in action.elements:
            img = tuple(sorted(p[v] for v in t))
            remaining.discard(img)
    return classes


def brute_diameter_ok(space: FiniteMetricSpace, action: IsometricAction,
                      r: float, k_max: int) -> bool:
    """Definition-level diameter property: doubles part + per-subset unique
    in-scale lift class achieving the quotient diameter."""
    D = space.dist
    n = space.n
    for p in action.elements[1:]:
        for x in range(n):
            if D[x, p[x]] < r:
                return False
    proj = _brute_proj(action)
    members = [sorted(np.flatnonzero(proj == a)) for a in range(proj.max() + 1)]
    qdist = _brute_qdist(D, members)
    for orbits in _orbit_subsets(proj, k_max):
        qdiam = max(qdist[a][b] for a, b in itertools.combinations(orbits, 2))
        if not qdiam < r:
            continue
        all_tuples = []
        diams = []
        for tup in itertools.product(*[members[a] for a in orbits]):
            diam = max(D[a, b] for a, b in itertools.combinations(tup, 2))
            all_tuples.append((diam, tuple(sorted(tup))))
            diams.append(diam)
        within = [t for d, t in all_tuples if d < r]
        if not within:
            return False
        if _tuple_classes(within, action) != 1:
            return False
        if min(diams) > qdiam:
            return False
        # the in-scale class must be the achieving one
        if min(d for d, t in all_tuples if t in set(within)) > qdiam:
            return False
    return True


def brute_nerve_ok(space: FiniteMetricSpace, action: IsometricAction,
                   r: float, k_max: int, convention: str = "lt") -> bool:
    D = space.dist
    n = space.n
    for p in action.elements[1:]:
        for x in range(n):
            for y in range(n):
                if _cmp(D[x, y], r, convention) and _cmp(D[p[x], y], r, convention):
                    return False
    proj = _brute_proj(action)
    members = [sorted(np.flatnonzero(proj == a)) for a in range(proj.max() + 1)]
    qdist = _brute_qdist(D, members)
    n_orbits = len(members)
    for orbits in _orbit_subsets(proj, k_max):
        if not any(all(_cmp(qdist[a][w], r, convention) for a in orbits)
                   for w in range(n_orbits)):
            continue
        witnessed = []
        for tup in itertools.product(*[members[a] for a in orbits]):
            if any(all(_cmp(D[v, w], r, convention) for v in tup) for w in range(n)):
                witnessed.append(tuple(sorted(tup)))
        if not witnessed:
            return False
        if _tuple_classes(witnessed, action) != 1:
            return False
    return True


def _brute_proj(action: IsometricAction) -> np.ndarray:
    n = action.n
    proj = np.full(n, -1, dtype=int)
    nxt = 0
    for i in range(n):
        if proj[i] >= 0:
            continue
        for p in action.elements:
            proj[p[i]] = nxt
        nxt += 1
    return proj


def _brute_qdist(D: np.ndarray, members: list[list[int]]) -> list[list[float]]:
    q = len(members)
    out = [[0.0] * q for _ in range(q)]
    for a in range(q):
        for b in range(q):
            if a != b:
                out[a][b] = min(D[x, y] for x in members[a] for y in members[b])
    return out


# ---------------------------------------------------------------------------
# per-subset action checks referee


def _diameter_subset_failure(Dl, Ql, members, orbits, r) -> dict | None:
    qdiam = max(Ql[a][b] for i, a in enumerate(orbits) for b in orbits[i + 1:])
    within = anchored_lifts_within(Dl, members, orbits, r)
    if within:
        min_diam = min(d for d, _ in within)
        achievers = [t for d, t in within if d == min_diam]
    else:  # the minimum is >= r; find it and its achievers
        min_diam, achievers = anchored_min_diameter(Dl, members, orbits)
    if min_diam > qdiam:
        return {"part": "sets", "mode": "no_equality_lift",
                "orbits": list(orbits), "qdiam": qdiam,
                "min_lift_diam": min_diam,
                "min_lifts": [list(t) for t in achievers[:4]]}
    if len(achievers) > 1:
        return {"part": "sets", "mode": "equality_not_unique",
                "orbits": list(orbits), "qdiam": qdiam,
                "lifts": [list(t) for t in achievers[:4]]}
    extras = [t for _, t in within if t != achievers[0]]
    if extras:
        return {"part": "sets", "mode": "extra_lift_within_scale",
                "orbits": list(orbits), "qdiam": qdiam,
                "lift": list(achievers[0]),
                "extra_lifts": [list(t) for t in extras[:4]]}
    return None


def _nerve_subset_failure(balls, members, orbits) -> dict | None:
    lifts = anchored_witnessed_lifts(balls, members, orbits)
    if len(lifts) == 1:
        return None
    return {"part": "sets", "mode": "lift_not_unique", "orbits": list(orbits),
            "lifts": [list(t) for t, _ in lifts[:4]],
            "witnesses": [w for _, w in lifts[:4]]}


def doubles_failure_oracle(q, r: float, ball: bool, masks: list[int]) -> dict | None:
    """The doubled-point part of the checks as the double loop over orbits,
    then nonidentity elements, with int ball masks, that the (orbit, g)
    array of `thresholds` replaced."""
    D = q.base.dist
    action = q.action
    for a, rep in enumerate(q.reps):
        for gi in range(1, len(action.elements)):
            img = int(action.element_arrays[gi][rep])
            if not ball:
                if D[rep, img] < r:
                    return {"part": "doubles", "orbit": a, "g": gi,
                            "x": rep, "gx": img, "moved": float(D[rep, img])}
            else:
                common = masks[rep] & masks[img]
                if common:
                    y = (common & -common).bit_length() - 1
                    return {"part": "doubles", "orbit": a, "g": gi,
                            "x": rep, "gx": img, "y": y,
                            "value": float(max(D[rep, y], D[img, y])),
                            "fixed_point": img == rep}
    return None


def subset_check_oracle(space: FiniteMetricSpace, action: IsometricAction,
                        kind: str, r: float, k_max: int = DEFAULT_DIM_CAP,
                        convention: str = "lt",
                        budget: int = DEFAULT_BUDGET) -> ActionCheckResult:
    """diameter_action_check ("diameter") or nerve_action_check ("nerve") as
    one loop over the quotient simplices of dimension >= 1, in (dimension,
    lex) order: each subset is decided by its own recursive lift search, and
    the first that fails gives the witness and subsets_checked."""
    q = build_quotient(space, action)
    if kind == "diameter":
        convention = "lt"
    result = dict(kind=kind, r=float(r), k_max=k_max, convention=convention)
    doubles = doubles_failure_oracle(q, r, kind == "nerve", int_masks(q.base, r, convention))
    if doubles is not None:
        return ActionCheckResult(ok=False, witness=doubles, **result)
    build = vr_complex if kind == "diameter" else cech_complex
    qcx = build(q.space, r, convention=convention, dim_cap=k_max, budget=budget)
    Dl = [memoryview(row) for row in q.base.dist]
    Ql = q.space.dist.tolist()
    balls = ball_rows(q.base, r, convention)
    checked = 0
    for dim in range(1, len(qcx.simplices)):
        for orbits in map(tuple, qcx.simplices[dim].tolist()):
            checked += 1
            if kind == "diameter":
                witness = _diameter_subset_failure(Dl, Ql, q.members, orbits, r)
            else:
                witness = _nerve_subset_failure(balls, q.members, orbits)
            if witness is not None:
                return ActionCheckResult(ok=False, witness=witness,
                                         subsets_checked=checked, **result)
    return ActionCheckResult(ok=True, subsets_checked=checked, **result)


def anchored_lifts_oracle(q, base_complex: SimplicialComplex, dim: int) -> list[tuple]:
    """The anchored lifts of every subset of dim + 1 orbits, read off a
    complex of the base: its dim-simplices whose points lie in distinct
    orbits and include the least point of their lowest orbit, each as a
    tuple in orbit order, in lex order."""
    lifts = []
    for simplex in tuples(base_complex.simplices.get(dim, [])):
        row = tuple(sorted(simplex, key=lambda v: q.proj[v]))
        orbits = [int(q.proj[v]) for v in row]
        if len(set(orbits)) == len(orbits) and row[0] == min(q.members[orbits[0]]):
            lifts.append(row)
    return sorted(lifts)


def walk_failure_scale(q, kind: str, k_max: int) -> float:
    """threshold_scan's failure scale T by the per-dimension lift walk that
    the arrays at representatives and the cap of the checks replaced: from
    the least doubled-point value, each dimension 1..k_max in turn reads the
    anchored lifts at the running T off the base complex, tallies them per
    quotient simplex, and lowers T to each subset's f(S).  Diameter:
    qdiam(S) when the least lift lies above it (or none lies below T) or two
    tie for least, else the second-least lift diameter.  Nerve: the
    second-least lift radius."""
    D, images = q.base.dist, q.action.element_arrays[1:]
    if kind == "diameter":
        doubled = [D[x, images[:, x]] for x in q.reps]
    else:
        doubled = [np.maximum(D[x], D[images[:, x]]).min(axis=1) for x in q.reps]
    t = float(np.concatenate([np.zeros(0)] + doubled).min(initial=math.inf))
    build = vr_complex if kind == "diameter" else cech_complex
    Q = q.space.dist
    for dim in range(1, k_max + 1 if math.isfinite(t) else 1):
        qcx = build(q.space, t, convention="lt", dim_cap=dim)
        if dim not in qcx.simplices:
            break
        base = build(q.base, t, convention="lt", dim_cap=dim)
        rows = np.array(anchored_lifts_oracle(q, base, dim), dtype=np.intp).reshape(-1, dim + 1)
        ranks, _ = qcx.tally(dim, q.proj[rows])
        lifts: dict[int, list[float]] = {}
        for s, row in zip(ranks.tolist(), rows.tolist()):
            if kind == "diameter":
                value = max(D[x, y] for x, y in itertools.combinations(row, 2))
            else:
                value = min(max(D[x, y] for x in row) for y in range(len(D)))
            lifts.setdefault(s, []).append(float(value))
        for s, simplex in enumerate(qcx.simplices[dim].tolist()):
            values = sorted(lifts.get(s, [])) + [math.inf, math.inf]
            f = values[1]
            if kind == "diameter":
                qdiam = max(Q[a, b] for a, b in itertools.combinations(simplex, 2))
                if values[0] > qdiam or values[1] == values[0]:
                    f = qdiam
            t = min(t, float(f))
    return t


def full_iso_check(space: FiniteMetricSpace, action: IsometricAction, r: float,
                   kind: str = "vr", convention: str = "lt",
                   dim_cap: int = DEFAULT_DIM_CAP,
                   budget: int = DEFAULT_BUDGET) -> IsoCertificate:
    """iso_check decided upstairs on every input: the base complex of the
    exactly invariant base, its simplex orbits (`quotient_complex`), and one
    `SimplicialComplex.tally` per dimension of the orbit images against the
    quotient complex, with the same counterexamples and evidence."""
    q = build_quotient(space, action)
    if kind not in ("vr", "cech"):
        raise ValueError(f"unknown complex kind: {kind!r}")
    build = vr_complex if kind == "vr" else cech_complex
    base = build(q.base, r, convention=convention, dim_cap=dim_cap, budget=budget)
    quot = build(q.space, r, convention=convention, dim_cap=dim_cap, budget=budget)
    qc = quotient_complex(base, action, q.proj)
    dims = range(dim_cap + 1)
    common = {"kind": kind, "r": float(r), "convention": convention, "dim_cap": dim_cap,
              "counts_base": {d: len(base.simplices.get(d, [])) for d in dims},
              "counts_orbits": {d: qc.counts().get(d, 0) for d in dims},
              "counts_quotient": {d: len(quot.simplices.get(d, [])) for d in dims},
              "provenance": {"group_order": len(action.elements), "n": space.n,
                             "n_orbits": q.space.n}}
    for dim in range(1, dim_cap + 1):
        flags = qc.degenerate.get(dim)
        if flags is not None and flags.any():
            cid = int(np.argmax(flags))
            ce = {"dim": dim, "simplex": qc.reps[dim][cid].tolist(),
                  "image": qc.images[dim][cid].tolist(),
                  "orbit_size": int(qc.sizes[dim][cid])}
            return IsoCertificate(verdict="degenerate", counterexample=ce, **common)
    tallies = [quot.tally(d, qc.images.get(d, np.zeros((0, d + 1), dtype=np.intp)))
               for d in dims]
    for dim, (_, count) in enumerate(tallies):
        if count.all():
            continue
        simplex = tuple(quot.simplices[dim][int(np.argmin(count))].tolist())
        if kind == "vr":
            min_diam, achievers = anchored_min_diameter(q.base.dist, q.members, simplex)
            evidence = {"min_lift_diam": float(min_diam),
                        "min_lifts": [list(t) for t in achievers[:4]]}
        else:
            lifts = anchored_witnessed_lifts(ball_rows(q.base, r, convention), q.members,
                                             simplex)
            evidence = {"witnessed_lifts": [list(t) for t, _ in lifts[:4]]}
        ce = {"dim": dim, "missing": list(simplex), **evidence}
        return IsoCertificate(verdict="not-surjective", counterexample=ce, **common)
    for dim, (ranks, count) in enumerate(tallies):
        if (count > 1).any():
            first = int(np.argmax(count > 1))
            ce = {"dim": dim, "image": quot.simplices[dim][first].tolist(),
                  "simplices": qc.reps[dim][np.flatnonzero(ranks == first)[:4]].tolist()}
            return IsoCertificate(verdict="not-injective", counterexample=ce, **common)
    return IsoCertificate(verdict="isomorphic", counterexample=None, **common)


# ---------------------------------------------------------------------------
# homology-side reduction referee


def homology_pivots(by_dim: dict[int, list[tuple[int, ...]]]) -> dict[int, dict[int, int]]:
    """Pivots of the boundary matrices by the textbook homology reduction.

    `by_dim[d]` lists the d-simplices in one order: the column order of
    dimension d and the row order of dimension d+1.  Dimensions run top
    first; each column is a bit set of its facets' indices, built from a
    face-index dict, its pivot is its latest facet, and columns whose index is
    a pivot row one dimension up are skipped (clearing).  Returns
    `pivots[d] = {pivot row: column}` for d >= 1, the contract of
    `persistence._reduce`, which reduces coboundaries instead and must agree.
    """
    pivots: dict[int, dict[int, int]] = {}
    for d in range(max(by_dim, default=0), 0, -1):
        cleared = pivots.get(d + 1, {})
        face_index = {verts: i for i, verts in enumerate(by_dim[d - 1])}
        reduced: dict[int, int] = {}
        owner = pivots[d] = {}
        for j, verts in enumerate(by_dim[d]):
            if j in cleared:
                continue
            col = 0
            for k in range(len(verts)):
                col |= 1 << face_index[verts[:k] + verts[k + 1:]]
            while col:
                low = col.bit_length() - 1
                other = reduced.get(low)
                if other is None:
                    reduced[low] = col
                    owner[low] = j
                    break
                col ^= other
    return pivots


# ---------------------------------------------------------------------------
# orbit grouping and isometry referees


def quotient_orbits_oracle(complex_: SimplicialComplex, action: IsometricAction,
                           proj: np.ndarray) -> tuple[dict, dict, dict, dict]:
    """The simplex orbits of an invariant complex, one orbit set per simplex.

    Returns (reps, sizes, images, degenerate) per dimension as lists: the
    lex-least member of each orbit in lex order, the orbit sizes, the sorted
    projected tuples and their repeat flags.  A complex that is not
    invariant raises ValueError naming the least missing simplex of the
    first simplex, in (dimension, lex) order, whose orbit leaves it.
    """
    arrays = action.element_arrays
    reps: dict[int, list[tuple[int, ...]]] = {}
    sizes: dict[int, list[int]] = {}
    images: dict[int, list[tuple[int, ...]]] = {}
    degenerate: dict[int, list[bool]] = {}

    for dim, rows in sorted(complex_.simplices.items()):
        simplices = tuples(rows)
        have = set(simplices)
        seen: set[tuple[int, ...]] = set()
        classes: list[tuple[tuple[int, ...], int]] = []
        for verts in simplices:
            if verts in seen:
                continue
            orbit = {tuple(sorted(int(arr[v]) for v in verts)) for arr in arrays}
            missing = orbit - have
            if missing:
                raise ValueError(
                    f"complex is not invariant: {min(missing)} missing from dim {dim}")
            seen |= orbit
            classes.append((min(orbit), len(orbit)))
        classes.sort()
        reps[dim] = [rep for rep, _ in classes]
        sizes[dim] = [size for _, size in classes]
        images[dim] = [tuple(sorted(int(proj[v]) for v in rep)) for rep in reps[dim]]
        degenerate[dim] = [len(set(img)) < len(img) for img in images[dim]]
    return reps, sizes, images, degenerate


def verify_isometric_oracle(space: FiniteMetricSpace,
                            action: IsometricAction) -> IsometryReport:
    """verify_isometric by scanning every group element, the worst pair kept."""
    D = space.dist
    worst = 0.0
    worst_at = None
    for gi, perm in enumerate(action.element_arrays):
        dev = np.abs(D[np.ix_(perm, perm)] - D)
        k = int(np.argmax(dev))
        x, y = divmod(k, space.n)
        if dev[x, y] > worst:
            worst = float(dev[x, y])
            worst_at = {"g": gi, "x": int(x), "y": int(y), "deviation": worst}
    ok = worst <= ISOMETRY_EPS
    return IsometryReport(ok=ok, max_deviation=worst, eps=ISOMETRY_EPS,
                          counterexample=None if ok else worst_at)


def validate_metric_oracle(space: FiniteMetricSpace) -> MetricValidation:
    """validate_metric by scanning every middle point of every triangle, with
    at most 100 violations reported in scan order."""
    D = space.dist
    n = space.n
    violations: list[dict] = []
    truncated = False

    def _add(kind, indices, value):
        nonlocal truncated
        if len(violations) >= 100:
            truncated = True
            return False
        violations.append({"kind": kind, "indices": list(indices), "value": float(value)})
        return True

    diag = np.flatnonzero(np.diag(D) != 0.0)
    for i in diag:
        if not _add("diagonal", (int(i),), D[i, i]):
            break

    if not truncated:
        asym = np.argwhere(D != D.T)
        for i, j in asym:
            if i < j and not _add("symmetry", (int(i), int(j)), D[i, j] - D[j, i]):
                break

    if not truncated:
        off = ~np.eye(n, dtype=bool)
        bad = np.argwhere((D <= 0.0) & off)
        for i, j in bad:
            if i < j and not _add("positivity", (int(i), int(j)), D[i, j]):
                break

    if not truncated:
        for j in range(n):
            slack = D[:, j][:, None] + D[j, :][None, :] + TRIANGLE_EPS
            bad = np.argwhere(D > slack)
            for i, k in bad:
                if not _add("triangle", (int(i), int(j), int(k)),
                            D[i, k] - slack[i, k] + TRIANGLE_EPS):
                    break
            if truncated:
                break

    return MetricValidation(ok=not violations, n=n, eps_triangle=TRIANGLE_EPS,
                            violations=violations, truncated=truncated)


# ---------------------------------------------------------------------------
# search oracle


def linear_scan(space: FiniteMetricSpace, action: IsometricAction, kind: str,
                k_max: int, convention: str = "lt",
                budget: int = DEFAULT_BUDGET) -> ThresholdReport:
    """threshold_scan for diameter/nerve by an ascending walk over the grid
    (the critical values of the exactly invariant base space that the checks
    run on) that stops at the first failing check; scanned is the number of
    checks."""
    q = build_quotient(space, action)
    grid = [float(v) for v in critical_values(q.base)]
    passes_at, fails_at, witness, scanned = 0.0, math.inf, None, 0
    for r in grid:
        scanned += 1
        if kind == "diameter":
            res = diameter_action_check(space, action, r, k_max=k_max,
                                        quotient=q, budget=budget)
        else:
            res = nerve_action_check(space, action, r, k_max=k_max,
                                     convention=convention, quotient=q,
                                     budget=budget)
        if res.ok:
            passes_at = r
        else:
            fails_at = r
            witness = dict(res.witness or {})
            witness["scale"] = r
            break
    return ThresholdReport(kind=kind, k_max=k_max, convention=convention,
                           passes_at=passes_at, fails_at=fails_at,
                           witness=witness, scanned=scanned)


def assert_same_bracket(rep: ThresholdReport, oracle: ThresholdReport) -> None:
    """The fields of a scan report that must equal the linear walk's."""
    assert (rep.passes_at, rep.fails_at, rep.witness) == \
        (oracle.passes_at, oracle.fails_at, oracle.witness)


# ---------------------------------------------------------------------------
# random space / action generators


def random_cloud_space(rng: np.random.Generator, n: int, dim: int = 3,
                       min_sep: float = 1e-3) -> FiniteMetricSpace:
    """Random Euclidean cloud; resamples until points are min_sep apart."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(n, dim))
        diff = pts[:, None, :] - pts[None, :, :]
        D = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(D, 0.0)
        off = D[~np.eye(n, dtype=bool)]
        if off.min() > min_sep:
            return FiniteMetricSpace(D, provenance={"kind": "random-cloud"})


def random_rotated_cloud(rng: np.random.Generator, m: int, k: int,
                         radius_lo: float = 0.5):
    """Base space = k copies of a random planar cloud rotated by 2*pi/k, with
    the cyclic shift action; distances are snapped over orbit pairs so the
    action is exactly isometric in floats.

    Returns (space, action).  Points stay at radius >= radius_lo from the
    center so the rotation is free.
    """
    while True:
        ang = rng.uniform(0, 2 * math.pi, size=m)
        rad = rng.uniform(radius_lo, 1.5, size=m)
        base = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        pts = np.empty((k * m, 2))
        for j in range(k):
            t = 2 * math.pi * j / k
            R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            pts[j * m:(j + 1) * m] = base @ R.T
        diff = pts[:, None, :] - pts[None, :, :]
        D = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(D, 0.0)
        n = k * m
        gen = [((i // m + 1) % k) * m + i % m for i in range(n)]
        action = close_group(n, [gen])
        # snap each orbit of index pairs to the value at its lex-least member
        snapped = D.copy()
        seen = np.zeros((n, n), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i, j]:
                    continue
                pairs = {(min(p[i], p[j]), max(p[i], p[j])) for p in action.elements}
                val = D[min(pairs)]
                for a, b in pairs:
                    snapped[a, b] = snapped[b, a] = val
                    seen[a, b] = True
        off = snapped[~np.eye(n, dtype=bool)]
        if off.min() <= 1e-3:
            continue
        space = FiniteMetricSpace(snapped, provenance={"kind": "rotated-cloud",
                                                       "m": m, "k": k})
        return space, action


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)
