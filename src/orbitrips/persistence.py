"""Z/2 persistent homology of VR filtrations, fixed-scale Betti numbers, and
an independent dense-elimination homology oracle for cross-checking."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import (DEFAULT_BUDGET, DEFAULT_DIM_CAP, SimplicialComplex,
                        VRFiltration, vr_complex)
from .spaces import FiniteMetricSpace

__all__ = [
    "ORACLE_LIMIT",
    "Barcode",
    "BettiVector",
    "reduce_filtration",
    "betti_at",
    "homology_oracle",
    "format_barcode_tsv",
    "read_barcode_tsv",
]

ORACLE_LIMIT = 20000


@dataclass
class Barcode:
    """Persistence intervals per homology dimension 0..dim_cap-1.

    `intervals[d]` holds (birth, death) with death = inf for essential classes;
    zero-length bars are dropped there but the raw simplex pairing is kept in
    `pairs` for verification.
    """

    dim_cap: int
    intervals: dict[int, list[tuple[float, float]]]
    pairs: dict[int, list[tuple[tuple, tuple | None]]] = field(repr=False, default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def bars(self, dim: int) -> list[tuple[float, float]]:
        return self.intervals.get(dim, [])

    def betti_alive_at(self, r: float, convention: str = "leq") -> tuple[int, ...]:
        """Number of bars containing r: birth cmp r < death (bars are [birth, death))."""
        if convention not in ("leq", "lt"):
            raise ValueError(f"convention must be one of ('leq', 'lt'), got {convention!r}")
        out = []
        for d in range(self.dim_cap):
            if convention == "leq":
                alive = sum(1 for b, dd in self.intervals.get(d, []) if b <= r < dd)
            else:
                alive = sum(1 for b, dd in self.intervals.get(d, []) if b < r <= dd)
            out.append(alive)
        return tuple(out)


def _filtration_hash(filtration: VRFiltration) -> str:
    h = hashlib.sha256()
    h.update(f"{filtration.n}:{filtration.dim_cap}:{len(filtration.entries)}".encode())
    if filtration.entries:
        vals = np.array([v for v, _ in filtration.entries], dtype=np.float64)
        verts = np.array([i for _, s in filtration.entries for i in s], dtype=np.int64)
        h.update(vals.tobytes())
        h.update(verts.tobytes())
    return h.hexdigest()


def _reduce(by_dim: dict[int, list[tuple[int, ...]]]) -> dict[int, dict[int, int]]:
    """Z/2 column reduction of every boundary matrix of a graded complex, with clearing.

    `by_dim[d]` lists the d-simplices in one order, which serves both as the
    column order of the matrix of dimension d and the row order of dimension
    d+1; the pivot of a column is its face latest in that order.  Dimensions
    are reduced top first, and each column is built only when it is reached,
    from a face-index dict of the dimension below.  A row that is a pivot of
    dimension d+1 marks the matching column of dimension d as reducing to
    zero (clearing; Chen & Kerber 2011), so that column is skipped.

    Returns `pivots[d] = {pivot row: column}` for d >= 1.  The pivot rows are
    those of the standard reduction, so `len(pivots[d])` is the rank of the
    boundary matrix of dimension d in any order consistent across dimensions.
    """
    pivots: dict[int, dict[int, int]] = {}
    for d in range(max(by_dim, default=0), 0, -1):
        cleared = pivots.get(d + 1, {})
        face_index = {verts: i for i, verts in enumerate(by_dim[d - 1])}
        reduced: dict[int, int] = {}  # pivot row -> bit-packed reduced column
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


def reduce_filtration(filtration: VRFiltration) -> Barcode:
    """Persistence barcode of a VR filtration over Z/2.

    The simplices of each dimension go to `_reduce` in filtration order.  A
    column that owns pivot row i is negative and kills the class born at
    simplex i; every other simplex of a dimension below dim_cap is positive
    and gives a bar, essential when no column owns its row.
    """
    values: dict[int, list[float]] = {}
    simplices: dict[int, list[tuple[int, ...]]] = {}
    for value, verts in filtration.entries:
        values.setdefault(len(verts) - 1, []).append(value)
        simplices.setdefault(len(verts) - 1, []).append(verts)
    pivots = _reduce(simplices)

    intervals: dict[int, list[tuple[float, float]]] = {}
    pairs: dict[int, list[tuple[tuple, tuple | None]]] = {}
    for d in range(filtration.dim_cap):
        negative = set(pivots.get(d, {}).values())
        killer = pivots.get(d + 1, {})
        bars = []
        raw = []
        for i, (birth, verts) in enumerate(zip(values.get(d, []), simplices.get(d, []))):
            if i in negative:
                continue  # negative simplex: kills a (d-1)-class, creates nothing
            j = killer.get(i)
            if j is None:
                bars.append((birth, math.inf))
                raw.append(((birth, verts), None))
            else:
                dval = values[d + 1][j]
                raw.append(((birth, verts), (dval, simplices[d + 1][j])))
                if dval != birth:
                    bars.append((birth, dval))
        bars.sort()
        intervals[d] = bars
        pairs[d] = raw

    return Barcode(
        dim_cap=filtration.dim_cap,
        intervals=intervals,
        pairs=pairs,
        provenance={"field": "Z/2", "n_simplices": len(filtration.entries),
                    "filtration_hash": _filtration_hash(filtration)},
    )


@dataclass
class BettiVector:
    """Z/2 Betti numbers b_0..b_{dim_cap-1} of a fixed-scale complex."""

    r: float
    convention: str
    dim_cap: int
    values: tuple[int, ...]
    provenance: dict = field(default_factory=dict)


def betti_at(space: FiniteMetricSpace, r: float, convention: str = "leq",
             dim_cap: int = DEFAULT_DIM_CAP, budget: int = DEFAULT_BUDGET) -> BettiVector:
    """Betti numbers of VR(space, r) over Z/2 from boundary-operator ranks.

    b_k = nullity(d_k) - rank(d_{k+1}), where rank(d_k) is the number of
    pivots `_reduce` finds with the complex's simplices in lex order.  The
    barcode reduces other matrices (the full filtration, in filtration order)
    with the same engine; reading it at r must agree (asserted in the test
    suite, not here), and `homology_oracle` referees both.
    """
    cx = vr_complex(space, r, convention=convention, dim_cap=dim_cap, budget=budget)
    counts = [len(cx.simplices.get(d, [])) for d in range(dim_cap + 1)]
    pivots = _reduce(cx.simplices)
    ranks = [len(pivots.get(d, {})) for d in range(dim_cap + 2)]
    values = tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim_cap))

    top_nonempty = max((d for d in range(dim_cap + 1) if counts[d]), default=0)
    provenance = {"counts": counts, "kind": "vr"}
    if top_nonempty < dim_cap:
        chi_simplices = sum((-1) ** d * counts[d] for d in range(dim_cap + 1))
        chi_betti = sum((-1) ** k * values[k] for k in range(dim_cap))
        if chi_simplices != chi_betti:
            raise AssertionError(
                f"Euler characteristic mismatch: {chi_simplices} != {chi_betti}")
        provenance["euler"] = "verified"
    else:
        provenance["euler"] = "skipped"
    return BettiVector(r=float(r), convention=convention, dim_cap=dim_cap,
                       values=values, provenance=provenance)


def homology_oracle(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Betti numbers by dense Z/2 Gaussian elimination on each boundary matrix.

    Deliberately naive and structurally unrelated to the reduction code above;
    refuses complexes with more than ORACLE_LIMIT simplices.
    """
    if complex_.total > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_LIMIT} simplices, got {complex_.total}")
    dim_cap = complex_.dim_cap
    counts = [len(complex_.simplices.get(d, [])) for d in range(dim_cap + 1)]
    ranks = [0] * (dim_cap + 2)
    for d in range(1, dim_cap + 1):
        rows, cols = counts[d - 1], counts[d]
        if not rows or not cols:
            continue
        index = {verts: i for i, verts in enumerate(complex_.simplices[d - 1])}
        M = np.zeros((rows, cols), dtype=np.uint8)
        for j, verts in enumerate(complex_.simplices[d]):
            for k in range(len(verts)):
                M[index[verts[:k] + verts[k + 1:]], j] = 1
        ranks[d] = _dense_rank_gf2(M)
    return tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(dim_cap))


def _dense_rank_gf2(M: np.ndarray) -> int:
    M = M.copy()
    rows, cols = M.shape
    rank = 0
    for c in range(cols):
        hits = np.flatnonzero(M[rank:, c])
        if hits.size == 0:
            continue
        p = rank + int(hits[0])
        if p != rank:
            M[[rank, p]] = M[[p, rank]]
        others = np.flatnonzero(M[:, c])
        others = others[others != rank]
        if others.size:
            M[others] ^= M[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def format_barcode_tsv(barcode: Barcode, header_lines: list[str] | None = None) -> str:
    lines = [f"# {line}" for line in header_lines or []]
    lines.append("# dim\tbirth\tdeath")
    for d in range(barcode.dim_cap):
        for birth, death in barcode.intervals.get(d, []):
            dtxt = "inf" if math.isinf(death) else repr(death)
            lines.append(f"{d}\t{birth!r}\t{dtxt}")
    return "\n".join(lines) + "\n"


def read_barcode_tsv(path) -> dict[int, list[tuple[float, float]]]:
    out: dict[int, list[tuple[float, float]]] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            dim, birth, death = line.split("\t")
            out.setdefault(int(dim), []).append(
                (float(birth), math.inf if death == "inf" else float(death)))
    return out
