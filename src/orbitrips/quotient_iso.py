"""Comparison of the quotient of a complex under a group action with the
complex of the quotient metric space, with replayable certificates.

For an isometric action the complex at any scale is invariant, so its simplex
set splits into group orbits.  Projecting vertices to their orbits sends each
simplex orbit to a candidate simplex of the quotient-space complex; this map
is well defined, and the check classifies it as an isomorphism or produces a
counterexample: a degenerate simplex (two vertices in one orbit), a
quotient-space simplex with no in-complex lift (not surjective), or two
simplex orbits with the same projection (not injective).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actions import IsometricAction, build_quotient
from .complexes import (DEFAULT_BUDGET, DEFAULT_DIM_CAP, SimplicialComplex,
                        ball_masks, cech_complex, vr_complex)
from .lifts import (anchored_lifts_within, anchored_min_diameter,
                    anchored_witnessed_lifts)
from .spaces import FiniteMetricSpace

__all__ = [
    "QuotientComplex",
    "IsoCertificate",
    "quotient_complex",
    "iso_check",
    "verify_certificate",
]


@dataclass
class QuotientComplex:
    """Simplex orbits of a group-invariant complex, with their projections.

    Per dimension: canonical representatives (lexicographically least in
    their orbit, listed in lex order), orbit sizes, projected vertex-orbit
    tuples (sorted, possibly with repeats), and degeneracy flags (repeat
    present).
    """

    dim_cap: int
    reps: dict[int, list[tuple[int, ...]]]
    sizes: dict[int, list[int]]
    images: dict[int, list[tuple[int, ...]]]
    degenerate: dict[int, list[bool]]

    def counts(self) -> dict[int, int]:
        return {d: len(v) for d, v in self.reps.items()}


def quotient_complex(complex_: SimplicialComplex, action: IsometricAction,
                     proj: np.ndarray) -> QuotientComplex:
    """Group the simplices of an invariant complex into orbits.

    proj[v] is the vertex-orbit id of base vertex v (as produced by
    build_quotient); projections and degeneracy are read off from it.
    """
    arrays = action.element_arrays
    reps: dict[int, list[tuple[int, ...]]] = {}
    sizes: dict[int, list[int]] = {}
    images: dict[int, list[tuple[int, ...]]] = {}
    degenerate: dict[int, list[bool]] = {}

    for dim, simplices in sorted(complex_.simplices.items()):
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

    return QuotientComplex(dim_cap=complex_.dim_cap, reps=reps, sizes=sizes,
                           images=images, degenerate=degenerate)


@dataclass
class IsoCertificate:
    """Verdict of iso_check with enough data to replay it.

    verdict: "isomorphic", "degenerate", "not-surjective", or "not-injective"
    (precedence in that order when several defects exist).  counts hold, per
    dimension: base simplices, simplex orbits, and quotient-space simplices.
    """

    verdict: str
    kind: str
    r: float
    convention: str
    dim_cap: int
    counts_base: dict[int, int]
    counts_orbits: dict[int, int]
    counts_quotient: dict[int, int]
    counterexample: dict | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == "isomorphic"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "kind": self.kind,
            "r": self.r,
            "convention": self.convention,
            "dim_cap": self.dim_cap,
            "counts_base": {str(d): v for d, v in sorted(self.counts_base.items())},
            "counts_orbits": {str(d): v for d, v in sorted(self.counts_orbits.items())},
            "counts_quotient": {str(d): v for d, v in sorted(self.counts_quotient.items())},
            "counterexample": self.counterexample,
            "provenance": self.provenance,
        }


def _build(kind: str, space: FiniteMetricSpace, r: float, convention: str,
           dim_cap: int, budget: int) -> SimplicialComplex:
    if kind == "vr":
        return vr_complex(space, r, convention=convention, dim_cap=dim_cap,
                          budget=budget)
    if kind == "cech":
        return cech_complex(space, r, convention=convention, dim_cap=dim_cap,
                            budget=budget)
    raise ValueError(f"unknown complex kind: {kind!r}")


def iso_check(space: FiniteMetricSpace, action: IsometricAction, r: float,
              kind: str = "vr", convention: str = "lt",
              dim_cap: int = DEFAULT_DIM_CAP,
              budget: int = DEFAULT_BUDGET) -> IsoCertificate:
    """Compare the simplex orbits of the base complex at scale r with the
    complex of the quotient metric space at the same scale.

    The projection sends each non-degenerate simplex orbit to a quotient-space
    simplex (quotient distances never exceed base distances, and a base ball
    witness projects to a quotient one).  The verdict is "isomorphic" exactly
    when no orbit is degenerate and the projection is a bijection per
    dimension; otherwise the first counterexample in (dimension, lex) order of
    the highest-precedence kind is certified.
    """
    q = build_quotient(space, action)
    base = _build(kind, space, r, convention, dim_cap, budget)
    quot = _build(kind, q.space, r, convention, dim_cap, budget)
    qc = quotient_complex(base, action, q.proj)

    counts_base = {d: len(base.simplices.get(d, [])) for d in range(dim_cap + 1)}
    counts_orbits = {d: len(qc.reps.get(d, [])) for d in range(dim_cap + 1)}
    counts_quotient = {d: len(quot.simplices.get(d, [])) for d in range(dim_cap + 1)}
    common = {"kind": kind, "r": float(r), "convention": convention,
              "dim_cap": dim_cap, "counts_base": counts_base,
              "counts_orbits": counts_orbits, "counts_quotient": counts_quotient,
              "provenance": {"group_order": len(action.elements), "n": space.n,
                             "n_orbits": q.space.n}}

    degenerate_ce = None
    for dim in range(1, dim_cap + 1):
        for cid, flag in enumerate(qc.degenerate.get(dim, [])):
            if flag:
                degenerate_ce = {"dim": dim, "simplex": list(qc.reps[dim][cid]),
                                 "image": list(qc.images[dim][cid]),
                                 "orbit_size": qc.sizes[dim][cid]}
                break
        if degenerate_ce:
            break
    if degenerate_ce:
        return IsoCertificate(verdict="degenerate",
                              counterexample=degenerate_ce, **common)

    image_index: dict[int, dict[tuple[int, ...], list[int]]] = {}
    for dim in range(dim_cap + 1):
        idx: dict[tuple[int, ...], list[int]] = {}
        for cid, img in enumerate(qc.images.get(dim, [])):
            idx.setdefault(img, []).append(cid)
        image_index[dim] = idx

    Dl = space.rows
    members = q.members
    for dim in range(dim_cap + 1):
        idx = image_index[dim]
        for simplex in quot.simplices.get(dim, []):
            if simplex in idx:
                continue
            evidence: dict = {}
            if kind == "vr":
                min_diam, achievers = anchored_min_diameter(Dl, members, simplex)
                evidence = {"min_lift_diam": min_diam,
                            "min_lifts": [list(t) for t in achievers[:4]]}
            else:
                masks = ball_masks(space, r, convention)
                lifts = anchored_witnessed_lifts(masks, members, simplex)
                evidence = {"witnessed_lifts": [list(t) for t, _ in lifts[:4]]}
            ce = {"dim": dim, "missing": list(simplex), **evidence}
            return IsoCertificate(verdict="not-surjective",
                                  counterexample=ce, **common)

    for dim in range(dim_cap + 1):
        for img, cids in sorted(image_index[dim].items()):
            if len(cids) > 1:
                ce = {"dim": dim, "image": list(img),
                      "simplices": [list(qc.reps[dim][c]) for c in cids[:4]]}
                return IsoCertificate(verdict="not-injective",
                                      counterexample=ce, **common)
        # injection established; surjection was checked above, so any count
        # mismatch would be an internal inconsistency
        if len(image_index[dim]) != counts_quotient.get(dim, 0):
            raise AssertionError(
                f"dim {dim}: {len(image_index[dim])} orbit images != "
                f"{counts_quotient.get(dim, 0)} quotient simplices")

    return IsoCertificate(verdict="isomorphic", counterexample=None, **common)


def verify_certificate(space: FiniteMetricSpace, action: IsometricAction,
                       cert: IsoCertificate) -> bool:
    """Replay a certificate's counterexample (or verdict) from definitions."""
    q = build_quotient(space, action)
    r, kind, convention = cert.r, cert.kind, cert.convention
    if cert.verdict == "isomorphic":
        redo = iso_check(space, action, r, kind=kind, convention=convention,
                         dim_cap=cert.dim_cap)
        return redo.verdict == "isomorphic"

    ce = cert.counterexample or {}
    base = _build(kind, space, r, convention, cert.dim_cap, DEFAULT_BUDGET)
    if cert.verdict == "degenerate":
        simplex = tuple(ce["simplex"])
        if not base.contains(simplex):
            return False
        img = [int(q.proj[v]) for v in simplex]
        return len(set(img)) < len(img)
    if cert.verdict == "not-surjective":
        missing = tuple(ce["missing"])
        quot = _build(kind, q.space, r, convention, cert.dim_cap, DEFAULT_BUDGET)
        if not quot.contains(missing):
            return False
        if kind == "vr":
            return not anchored_lifts_within(space.rows, q.members,
                                             missing, r, strict=convention == "lt")
        masks = ball_masks(space, r, convention)
        return not anchored_witnessed_lifts(masks, q.members, missing)
    if cert.verdict == "not-injective":
        simplices = [tuple(s) for s in ce["simplices"][:2]]
        if len(simplices) < 2 or simplices[0] == simplices[1]:
            return False
        imgs = []
        for s in simplices:
            if not base.contains(s):
                return False
            imgs.append(tuple(sorted(int(q.proj[v]) for v in s)))
        if imgs[0] != imgs[1] or len(set(imgs[0])) < len(imgs[0]):
            return False
        # the two simplices must lie in different orbits
        arrays = action.element_arrays
        orbit0 = {tuple(sorted(int(a[v]) for v in simplices[0])) for a in arrays}
        return simplices[1] not in orbit0
    raise ValueError(f"unknown verdict: {cert.verdict!r}")
