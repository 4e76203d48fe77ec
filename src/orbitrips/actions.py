"""Finite isometric group actions and the quotient metric they induce.

Tolerance policy.  Float matrices built from coordinates are isometric under
an action only up to rounding, so each tolerance gates one input and none is
carried past it:

- `spaces.TRIANGLE_EPS` gates loading a space (the triangle inequality).
- `ISOMETRY_EPS` gates accepting an action, in `build_quotient`.  From then
  on every action-aware path runs on `QuotientSpace.base`, the pair-orbit
  minimum D'[x, y] = min over g of D[gx, gy], which every element preserves
  exactly (g -> gh permutes G); it is D itself when the generators already
  preserve D.  The quotient matrix is unchanged: its block minima already
  run over whole orbits.

Every comparison after these two gates is exact.  On D' the one lift of a
subset that passes the diameter check realizes its quotient diameter bit for
bit, so a slack there would only admit a subset with no lift below the scale.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaces import FiniteMetricSpace, MetricValidation, validate_metric

__all__ = [
    "ISOMETRY_EPS",
    "GROUP_CAP",
    "IsometricAction",
    "IsometryReport",
    "QuotientSpace",
    "GroupClosureError",
    "close_group",
    "verify_isometric",
    "build_quotient",
    "action_to_dict",
    "action_from_dict",
    "save_action",
    "load_action",
    "circle_rotation_generator",
    "antipodal_generator",
    "paired_swap_generator",
    "block_shift_generator",
    "torus_grid_shift_generators",
]

ISOMETRY_EPS = 1e-9
GROUP_CAP = 10000


class GroupClosureError(RuntimeError):
    """Raised when the generated group exceeds the element cap."""


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p o q)(i) = p[q[i]]: apply q first
    return tuple(p[i] for i in q)


class IsometricAction:
    """A finite permutation group acting on the points of a space.

    `elements[0]` is the identity; the element order is deterministic
    (breadth-first by word length in the generators, lexicographic within a
    level), so every derived artifact is reproducible.
    """

    def __init__(self, n: int, elements: list[tuple[int, ...]],
                 generator_indices: list[int]):
        self.n = n
        self.elements = elements
        self.generator_indices = generator_indices
        self.element_arrays = np.array(elements, dtype=np.intp)
        self._exact: tuple[weakref.ref, bool] | None = None

    def __len__(self):
        return len(self.elements)

    def preserves_exactly(self, dist: np.ndarray) -> bool:
        """Whether every generator maps the matrix to itself bit for bit.

        Then so does every element: exact equalities compose,
        d(ghx, ghy) = d(hx, hy) = d(x, y).  The answer for a read-only
        matrix that owns its data, such as a `FiniteMetricSpace`'s, is kept
        while that matrix lives, so loading a space with an action and then
        verifying the action compares the matrix once."""
        if self._exact is not None and self._exact[0]() is dist:
            return self._exact[1]
        exact = self._generators_preserve(dist)
        if not dist.flags.writeable and dist.flags.owndata:
            self._exact = (weakref.ref(dist), exact)
        return exact

    def _generators_preserve(self, dist: np.ndarray) -> bool:
        return all(np.array_equal(dist[np.ix_(p, p)], dist)
                   for p in self.element_arrays[self.generator_indices])

    @cached_property
    def representatives(self) -> np.ndarray:
        """The least point of each orbit, ascending.  The orbit of x is
        {g x : g in G}, so its least point is the column minimum."""
        least = self.element_arrays.min(axis=0)
        return np.flatnonzero(least == np.arange(self.n))


def _check_permutation(n: int, perm) -> tuple[int, ...]:
    p = tuple(int(v) for v in perm)
    if len(p) != n or sorted(p) != list(range(n)):
        raise ValueError("generator is not a permutation of range(n)")
    return p


def close_group(n: int, generators, cap: int = GROUP_CAP) -> IsometricAction:
    """Close a generator list under composition.

    Breadth-first by word length, lexicographic within a level, identity at
    index 0.  Finite sets of permutations closed under composition are groups,
    so no explicit inverses are needed.  Raises GroupClosureError past `cap`.
    """
    gens = [_check_permutation(n, g) for g in generators]
    identity = tuple(range(n))
    seen = {identity}
    elements = [identity]
    frontier = [identity]
    while frontier:
        level = set()
        for cur in frontier:
            for g in gens:
                nxt = _compose(cur, g)
                if nxt not in seen:
                    level.add(nxt)
        frontier = sorted(level)
        for p in frontier:
            seen.add(p)
            elements.append(p)
            if len(elements) > cap:
                raise GroupClosureError(f"group closure exceeded cap of {cap} elements")
    gen_idx = []
    index = {p: i for i, p in enumerate(elements)}
    for g in gens:
        gen_idx.append(index[g])
    return IsometricAction(n, elements, gen_idx)


@dataclass
class IsometryReport:
    ok: bool
    max_deviation: float
    eps: float
    counterexample: dict | None = None  # {"g": ..., "x": ..., "y": ..., "deviation": ...}


def verify_isometric(space: FiniteMetricSpace, action: IsometricAction) -> IsometryReport:
    """Check |d(gx, gy) - d(x, y)| <= ISOMETRY_EPS for every element, reporting
    the worst pair.

    When every generator preserves the matrix exactly, so does every element
    (IsometricAction.preserves_exactly).  Then every deviation is 0 and the
    report is read off the generators alone; otherwise all elements are
    scanned."""
    if action.n != space.n:
        raise ValueError("action and space sizes differ")
    D = space.dist
    if action.preserves_exactly(D):
        return IsometryReport(ok=True, max_deviation=0.0, eps=ISOMETRY_EPS)
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


class QuotientSpace:
    """The metric quotient of a space by an isometric action.

    qdist[a][b] = min d(x, y) over x in orbit a, y in orbit b, which realizes
    inf_g d(rep_a, g . rep_b); block minima keep the matrix exactly symmetric
    and every entry is an existing base distance (no new arithmetic).
    members[a] lists orbit a in ascending order; its first point is the
    orbit's representative reps[a].
    """

    def __init__(self, given: FiniteMetricSpace, action: IsometricAction,
                 proj: np.ndarray, members: list[list[int]], qdist: np.ndarray):
        self._given = given
        self.action = action
        self.proj = proj
        self.members = members
        self.reps = [m[0] for m in members]
        self.space = FiniteMetricSpace(
            qdist,
            labels=None,
            provenance={"kind": "quotient",
                        "base": given.provenance.get("kind", "explicit"),
                        "group_order": len(action),
                        "orbits": len(members)},
        )

    @cached_property
    def base(self) -> FiniteMetricSpace:
        """The given space's pair-orbit minimum D'[x, y] = min over g of
        D[gx, gy], which every element preserves exactly (g -> gh permutes
        G).  build_quotient sets it to the given space when the generators
        already preserve that.  Otherwise it is made on first read, so a
        quotient whose base is never read holds no copy, and its provenance
        records max |D - D'|."""
        D = self._given.dist
        least = D.copy()
        for perm in self.action.element_arrays[1:]:
            np.minimum(least, D[np.ix_(perm, perm)], out=least)
        shift = float(np.max(D - least))
        return FiniteMetricSpace(least, labels=self._given.labels, provenance={
            **self._given.provenance, "orbit_min_deviation": shift})

    def critical_values(self) -> np.ndarray:
        """The sorted distinct positive entries of `base`, the scales where
        anything changes, read from the q representative rows alone.  Exact,
        not approximate: `base` is exactly invariant, so each entry d(x, y)
        equals d(g x, g y) for a g with g x = rep, an entry of a
        representative row, and the grid is `spaces.critical_values(base)`
        bit for bit, for free and non-free actions alike."""
        values = np.unique(self.base.dist[self.reps])
        return values[values > 0.0]

    @cached_property
    def validation(self) -> MetricValidation:
        """The metric report of the quotient matrix, computed on first read."""
        return validate_metric(self.space)

    @property
    def n_orbits(self) -> int:
        return len(self.reps)


def build_quotient(space: FiniteMetricSpace, action: IsometricAction) -> QuotientSpace:
    """Build the quotient space; refuses actions that are not isometric.

    The infimum in the quotient metric is a minimum here: each qdist entry is
    realized by an actual pair of sample points.  A validation report for the
    quotient matrix is available as `validation`, computed on first read
    (non-fatal; callers may refuse bad reports).
    """
    iso = verify_isometric(space, action)
    if not iso.ok:
        raise ValueError(f"action is not isometric within {iso.eps}: {iso.counterexample}")
    n = space.n
    reps = action.representatives
    # each orbit is numbered by the rank of its least point
    proj = np.searchsorted(reps, action.element_arrays.min(axis=0))
    q = len(reps)
    members = [np.flatnonzero(proj == a) for a in range(q)]
    D = space.dist
    # row-stage then column-stage block minima: exact entries, exact symmetry
    rowmin = np.empty((q, n))
    for a in range(q):
        rowmin[a] = D[members[a]].min(axis=0)
    qdist = np.empty((q, q))
    for b in range(q):
        qdist[:, b] = rowmin[:, members[b]].min(axis=1)
    np.fill_diagonal(qdist, 0.0)
    quotient = QuotientSpace(space, action, proj, [m.tolist() for m in members], qdist)
    if iso.max_deviation == 0.0:
        quotient.base = space
    return quotient


# ---------------------------------------------------------------------------
# serialization and canonical generators for the built-in shapes


def action_to_dict(action: IsometricAction) -> dict:
    return {"n": action.n,
            "generators": [list(action.elements[i]) for i in action.generator_indices]}


def action_from_dict(data: dict) -> IsometricAction:
    if "n" not in data or "generators" not in data:
        raise ValueError("action document needs 'n' and 'generators'")
    return close_group(int(data["n"]), data["generators"])


def save_action(action: IsometricAction, path) -> None:
    with open(path, "w") as fh:
        json.dump(action_to_dict(action), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_action(path) -> IsometricAction:
    with open(path) as fh:
        return action_from_dict(json.load(fh))


def circle_rotation_generator(n: int, steps: int) -> list[int]:
    """Rotation of an n-point circle by `steps` grid steps."""
    return [(i + steps) % n for i in range(n)]


def antipodal_generator(n: int) -> list[int]:
    """The antipodal involution i -> i + n/2 on an even circle sample."""
    if n % 2:
        raise ValueError("antipodal involution needs an even point count")
    return circle_rotation_generator(n, n // 2)


def paired_swap_generator(m: int) -> list[int]:
    """The involution swapping x_i and -x_i in an antipodal-paired sample (offset m)."""
    return [(i + m) % (2 * m) for i in range(2 * m)]


def block_shift_generator(n_blocks: int, block: int) -> list[int]:
    """Cyclic shift of `n_blocks` equal blocks of size `block` (six-circles rotation)."""
    n = n_blocks * block
    return [(i + block) % n for i in range(n)]


def torus_grid_shift_generators(k: int) -> list[list[int]]:
    """Generators for the order-14 torus action: y-shift by 2*pi/7, x-shift by pi.

    Needs 14 | k so both shifts land on grid points.
    """
    if k % 14:
        raise ValueError("torus shifts need the grid size divisible by 14")
    idx = np.arange(k * k)
    ix, iy = idx // k, idx % k
    y_shift = (ix * k + (iy + k // 7) % k).tolist()
    x_shift = (((ix + k // 2) % k) * k + iy).tolist()
    return [y_shift, x_shift]
