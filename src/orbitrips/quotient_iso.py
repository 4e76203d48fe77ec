"""Comparison of the quotient of a complex under a group action with the
complex of the quotient metric space, with replayable certificates.

For an isometric action the complex at any scale is invariant, so its simplex
set splits into group orbits.  Projecting vertices to their orbits sends each
simplex orbit to a candidate simplex of the quotient-space complex; this map
is well defined, and the check classifies it as an isomorphism or produces a
counterexample: a degenerate simplex (two vertices in one orbit), a
quotient-space simplex with no in-complex lift (not surjective), or two
simplex orbits with the same projection (not injective).

On a free action `iso_check` first certifies downstairs: there the diameter
(VR) or nerve (Cech) check of `thresholds` passes exactly when the complexes
are isomorphic, in every dimension, and a pass needs no upstairs complex.
VR under "leq" is VR under "lt" at the next float up (d <= r iff
d < nextafter(r, inf)).  Any other input is decided upstairs, with arrays
over `LexIndex` lex ranks and no per-simplex Python loop: orbits are
grouped one group element at a time (the least rank over an orbit is its
representative), and one `SimplicialComplex.tally` per dimension counts the
orbit images that land on each quotient-space simplex: a count of 0 is not
surjective, a count above 1 not injective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .actions import IsometricAction, build_quotient
from .complexes import (DEFAULT_BUDGET, DEFAULT_DIM_CAP, BudgetExceededError,
                        SimplicialComplex, ball_rows, cech_complex, spans,
                        vr_complex)
from .lifts import (anchored_lifts_within, anchored_min_diameter,
                    anchored_witnessed_lifts)
from .spaces import FiniteMetricSpace
from .thresholds import diameter_action_check, nerve_action_check

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

    Per dimension, one row per orbit, as arrays: `reps` the canonical
    representatives as an (k, d+1) vertex array (each lexicographically
    least in its orbit, rows in lex order), `sizes` the orbit sizes,
    `images` the projected vertex-orbit rows (sorted, possibly with
    repeats), and `degenerate` the flags of rows with a repeat.
    """

    dim_cap: int
    reps: dict[int, np.ndarray]
    sizes: dict[int, np.ndarray]
    images: dict[int, np.ndarray]
    degenerate: dict[int, np.ndarray]

    def counts(self) -> dict[int, int]:
        return {d: len(v) for d, v in self.reps.items()}


def quotient_complex(complex_: SimplicialComplex, action: IsometricAction,
                     proj: np.ndarray) -> QuotientComplex:
    """Group the simplices of an invariant complex into orbits.

    Each group element g maps the d-simplices, as rows of the complex's
    `LexIndex`, to sorted image rows, whose lex ranks are found in the same
    index; a simplex's representative is the least rank over its orbit, and
    the reps are the rows that are their own.  An image outside the complex
    raises ValueError, naming the least missing simplex of the first
    simplex, in (dimension, lex) order, whose orbit leaves the complex.
    proj[v] is the vertex-orbit id of base vertex v (as produced by
    build_quotient); projections and degeneracy are read off from it.
    """
    index = complex_.index
    reps: dict[int, np.ndarray] = {}
    sizes: dict[int, np.ndarray] = {}
    images: dict[int, np.ndarray] = {}
    degenerate: dict[int, np.ndarray] = {}

    for dim, S in enumerate(index.vertices):
        m = len(S)
        rep = np.arange(m)  # the identity, element 0, maps each row to itself
        inside = np.ones(m, dtype=bool)
        for perm in action.element_arrays[1:]:
            np.minimum(rep, index.rank(np.sort(perm[S], axis=1).T, inside), out=rep)
        if not inside.all():
            orbit = np.sort(action.element_arrays[:, S[np.argmin(inside)]], axis=1)
            found = np.ones(len(orbit), dtype=bool)
            index.rank(orbit.T, found)
            missing = min(map(tuple, orbit[~found].tolist()))
            raise ValueError(f"complex is not invariant: {missing} missing from dim {dim}")
        own = rep == np.arange(m)
        reps[dim] = S[own]
        sizes[dim] = np.bincount(rep, minlength=m)[own]
        images[dim] = np.sort(proj[reps[dim]], axis=1)
        degenerate[dim] = (images[dim][:, 1:] == images[dim][:, :-1]).any(axis=1)

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
    the highest-precedence kind is certified.  The base complex is built on
    build_quotient's exactly invariant base space, so it is invariant.

    A free action (n = |G| q) whose diameter (VR) or nerve (Cech) check
    passes at r is isomorphic without the base complex, which a budget then
    need not hold: counts_orbits = counts_quotient, counts_base |G| times
    them.  Every other input, a check over budget included, takes the
    base-complex path, whose certificates and errors are unchanged.
    """
    q = build_quotient(space, action)
    if kind not in ("vr", "cech"):
        raise ValueError(f"unknown complex kind: {kind!r}")
    build = vr_complex if kind == "vr" else cech_complex
    n_g = len(action.elements)
    common = {"kind": kind, "r": float(r), "convention": convention, "dim_cap": dim_cap,
              "provenance": {"group_order": n_g, "n": space.n, "n_orbits": q.space.n}}
    quot = None
    if space.n == n_g * q.space.n and convention in ("lt", "leq") and dim_cap >= 0:
        try:  # over budget, leave the error to the base complex, which is larger
            if kind == "vr":  # VR_leq(r) is VR_lt(nextafter(r))
                check = diameter_action_check(space, action, r if convention == "lt" else
                                              np.nextafter(r, np.inf), k_max=dim_cap,
                                              quotient=q, budget=budget)
            else:
                check = nerve_action_check(space, action, r, k_max=dim_cap,
                                           convention=convention, quotient=q, budget=budget)
            quot = build(q.space, r, convention=convention, dim_cap=dim_cap, budget=budget)
        except BudgetExceededError:
            check = None
        if check is not None and check.ok:
            counts = {d: len(quot.simplices.get(d, [])) for d in range(dim_cap + 1)}
            return IsoCertificate(verdict="isomorphic", counts_orbits=counts,
                                  counts_base={d: n_g * c for d, c in counts.items()},
                                  counts_quotient=dict(counts), **common)
    base = build(q.base, r, convention=convention, dim_cap=dim_cap, budget=budget)
    if quot is None:
        quot = build(q.space, r, convention=convention, dim_cap=dim_cap, budget=budget)
    qc = quotient_complex(base, action, q.proj)

    counts_base = {d: len(base.simplices.get(d, [])) for d in range(dim_cap + 1)}
    counts_orbits = {d: qc.counts().get(d, 0) for d in range(dim_cap + 1)}
    counts_quotient = {d: len(quot.simplices.get(d, [])) for d in range(dim_cap + 1)}
    common.update(counts_base=counts_base, counts_orbits=counts_orbits,
                  counts_quotient=counts_quotient)

    for dim in range(1, dim_cap + 1):
        flags = qc.degenerate.get(dim)
        if flags is not None and flags.any():
            cid = int(np.argmax(flags))
            ce = {"dim": dim, "simplex": qc.reps[dim][cid].tolist(),
                  "image": qc.images[dim][cid].tolist(),
                  "orbit_size": int(qc.sizes[dim][cid])}
            return IsoCertificate(verdict="degenerate", counterexample=ce, **common)

    # the number of simplex orbits whose image is each quotient simplex
    tallies = [quot.tally(d, qc.images.get(d, np.zeros((0, d + 1), dtype=np.intp)))
               for d in range(dim_cap + 1)]
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


def verify_certificate(space: FiniteMetricSpace, action: IsometricAction,
                       cert: IsoCertificate) -> bool:
    """Replay a certificate's counterexample from definitions, on the base
    space of build_quotient, as iso_check does: its simplices are checked
    against the definitions of the complexes, with no clique walk and no
    budget.  An isomorphic verdict is replayed by rerunning iso_check, so on
    a free action by the same downstairs check, not independently."""
    q = build_quotient(space, action)
    r, kind, convention, dim_cap = cert.r, cert.kind, cert.convention, cert.dim_cap
    if cert.verdict == "isomorphic":
        redo = iso_check(space, action, r, kind=kind, convention=convention,
                         dim_cap=dim_cap)
        return redo.verdict == "isomorphic"

    ce = cert.counterexample or {}
    if cert.verdict == "degenerate":
        simplex = tuple(ce["simplex"])
        if not spans(q.base, kind, r, convention, dim_cap, simplex):
            return False
        img = [int(q.proj[v]) for v in simplex]
        return len(set(img)) < len(img)
    if cert.verdict == "not-surjective":
        missing = tuple(ce["missing"])
        if not spans(q.space, kind, r, convention, dim_cap, missing):
            return False
        if kind == "vr":
            return not anchored_lifts_within(q.base.dist, q.members,
                                             missing, r, strict=convention == "lt")
        return not anchored_witnessed_lifts(ball_rows(q.base, r, convention), q.members,
                                            missing)
    if cert.verdict == "not-injective":
        simplices = [tuple(s) for s in ce["simplices"][:2]]
        if len(simplices) < 2 or simplices[0] == simplices[1]:
            return False
        imgs = []
        for s in simplices:
            if not spans(q.base, kind, r, convention, dim_cap, s):
                return False
            imgs.append(tuple(sorted(int(q.proj[v]) for v in s)))
        if imgs[0] != imgs[1] or len(set(imgs[0])) < len(imgs[0]):
            return False
        # the two simplices must lie in different orbits
        orbit0 = np.sort(action.element_arrays[:, simplices[0]], axis=1)
        return not (orbit0 == simplices[1]).all(axis=1).any()
    raise ValueError(f"unknown verdict: {cert.verdict!r}")
