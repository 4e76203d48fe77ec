"""Z/2 persistent homology of VR filtrations, fixed-scale Betti numbers, and
an independent dense-elimination homology oracle for cross-checking.

One engine, `_reduce`, serves both the barcode (`reduce_filtration`) and the
Betti numbers (`betti_at`).  It reduces coboundary matrices, after U. Bauer,
"Ripser: efficient computation of Vietoris-Rips persistence barcodes"
(J. Appl. Comput. Topol. 2021):

- columns are the simplices of one dimension in reverse order, rows their
  cofaces, and a column's pivot is its earliest coface;
- dimension 0 is union-find: the edges, walked in filtration order, pair
  by the elder rule, an edge that joins two components killing the one
  whose least vertex is larger;
- dimensions run upward, and clearing goes with them: a simplex that is the
  pivot of a column one dimension down reduces to zero and is skipped, so the
  top-dimension simplices are never columns at all;
- one coface key for every dimension: the coface of a d-simplex is named by
  value rank * span_d + (lex rank of its first d+1 vertices) * n + (its last
  vertex), span_d being n times the number of d-simplices, so keys sort like
  (value, lex) and are computed from the filtration's rank matrix.  The top
  dimension is implicit: `VRFiltration` counts its simplices but stores
  none, and a top key decodes to its death value, so no top simplex is
  stored, ranked or hashed.  A stored dimension's pivot keys become indices
  with one search per dimension;
- emergent pairs: the earliest coface of every simplex is one argmin over
  the n candidate vertices, and a column whose earliest coface is not owned
  yet is paired without building its coboundary; the few remaining
  coboundaries are one n-candidate row each;
- a column is a sorted array of keys: its pivot is its first entry, and
  adding a column is a symmetric difference of sorted arrays.

The filtration hash in a barcode's provenance is taken over the inputs that
determine the filtration (the rank matrix, the value table, n, dim_cap and
the cut), not over its simplices.

Persistent homology and cohomology pair the same simplices (de Silva, Morozov
& Vejdemo-Johansson, "Dualities in persistent (co)homology", Inverse Problems
2011): the pivot pairs of a matrix reduction depend only on the ranks of its
lower-left submatrices, and the coboundary matrix in reverse order is the
boundary matrix turned about its anti-diagonal.  So the pairs, and with them
the bars and ranks, are those of the textbook boundary reduction.
`homology_oracle` is the dense referee that shares no code with the engine.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .complexes import (DEFAULT_BUDGET, DEFAULT_DIM_CAP, LexIndex,
                        SimplicialComplex, VRFiltration)
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
_CHUNK = 1 << 18  # coface candidates (simplices times n) ranked at a time
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class Barcode:
    """Persistence intervals per homology dimension 0..dim_cap-1.

    `intervals[d]` holds (birth, death) with death = inf for essential
    classes; zero-length bars are dropped.  A bar is a positive d-simplex and
    the (d+1)-simplex that kills it (the pairing of the boundary reduction;
    the engine gets it from the coboundary side), but only the values are
    kept: the killers of the top bars are the implicit top simplices.
    `provenance["filtration_hash"]` is the sha256 of the filtration's inputs
    (see `_filtration_hash`).
    """

    dim_cap: int
    intervals: dict[int, list[tuple[float, float]]]
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
    """sha256 of the inputs that determine the filtration: n, dim_cap, the
    cut, then the rank matrix and the value table."""
    h = hashlib.sha256()
    h.update(f"{filtration.n}:{filtration.dim_cap}:{filtration.cut}".encode())
    h.update(filtration.rank.tobytes())
    h.update(filtration.table.tobytes())
    return h.hexdigest()


def _components(n: int, edges: np.ndarray) -> dict[int, int]:
    """Dimension 0 by union-find: walk the edges, (m, 2) vertex rows in
    filtration order, and pair by the elder rule: an edge that joins two
    components kills the one whose least vertex is larger.  Returns
    {vertex: edge position}; the vertices are their own indices."""
    least = list(range(n))  # a union-find forest whose roots are least vertices
    pairs: dict[int, int] = {}
    for e, (u, v) in enumerate(edges.tolist()):
        while u != least[u]:
            least[u] = u = least[least[u]]  # path halving
        while v != least[v]:
            least[v] = v = least[least[v]]
        if u != v:
            u, v = min(u, v), max(u, v)
            least[v] = u
            pairs[v] = e
            if len(pairs) == n - 1:
                break
    return pairs


def _reduce(filtration: VRFiltration) -> dict[int, dict[int, int]]:
    """Z/2 reduction of the coboundary matrices of a filtration, with
    clearing and emergent pairs (see the module docstring).

    The columns of dimension d = 0 .. top-1, top = dim_cap, are the stored
    d-simplices, last first; their rows are their cofaces, and a column's
    pivot is its earliest coface.  Clearing runs upward: a d-simplex already
    paired with a (d-1)-simplex reduces to zero and is skipped.  Dimension 0
    is union-find over the edges (`_components`), which pairs the same
    simplices.

    The cofaces of a d-simplex s are s + {x} over the n vertices x.  Such a
    coface is in the filtration iff its value rank, the larger of the rank
    of s and max over u in s of rank[u, x], is at most the cut, and among
    the cofaces of s the (value, lex) order is the order of (value rank, x).
    So the earliest coface of every simplex is one argmin over an (m, n)
    rank matrix, taken in chunks, and a coboundary is one (n,) row of it.
    Every coface is named by its key, value rank * span + prefix * n + last
    vertex, where prefix is the lex rank of its first d+1 vertices among the
    d-simplices and span = (number of d-simplices) * n, so keys sort like
    (value, lex).  Keys are int64 while every key of the dimension fits, and
    Python ints past that.  A column is a sorted array of keys: its pivot is
    its first entry, and adding a column is a symmetric difference.
    Coboundaries are built only for columns that are not emergent, and for
    the owners they must add.  A stored dimension's pivot keys become
    indices with one search among the keys of its simplices.

    Returns `pivots[d] = {(d-1)-simplex: d-simplex}` for d = 1 .. top, as
    indices into `simplices`, except that the d-simplices of `pivots[top]`
    are keys.  Homology and cohomology pair the same simplices, so these are
    the pairs of the standard reduction of the boundary matrices in the same
    orders, and `len(pivots[d])` is the rank of the boundary matrix of
    dimension d.
    """
    n, top, cut, rank = filtration.n, filtration.dim_cap, filtration.cut, filtration.rank
    pivots: dict[int, dict[int, int]] = {}
    if top == 0:
        return pivots
    index = LexIndex(n, {d: filtration.simplices.get(d, ()) for d in range(top)})
    absent = np.iinfo(rank.dtype).max  # above every rank, so past the cut
    for d in range(top):
        S = index.vertices[d]
        m = len(S)
        span = m * n
        wide = (cut + 1) * span - 1 > _INT64_MAX

        def name(rows: np.ndarray, x: np.ndarray, vals: np.ndarray) -> np.ndarray:
            """The keys of the cofaces rows[i] + {x[i]} of value ranks vals."""
            coface = np.empty((len(x), d + 2), dtype=np.int32)
            coface[:, :-1] = rows
            coface[:, -1] = x
            coface.sort(axis=1)
            lex = index.rank(coface[:, :-1].T) * n + coface[:, -1]
            return vals.astype(object if wide else np.int64) * span + lex

        def coface_ranks(rows: np.ndarray) -> np.ndarray:
            """The value ranks of rows[i] + {x}, absent where x is in rows[i]."""
            vals = rank[rows[:, 0]]
            for c in range(1, d + 1):
                np.maximum(vals, rank[rows[:, c]], out=vals)
            # a vertex's own entry is 0, so column u of vals, u in the row,
            # is the largest rank from u to the rest of the row
            at = (np.arange(len(rows))[:, None], rows)
            np.maximum(vals, vals[at].max(axis=1, keepdims=True), out=vals)
            vals[at] = absent
            return vals

        def coboundary(j: int) -> np.ndarray:
            """The keys of the cofaces of column j, sorted."""
            s = S[j]
            vals = rank[s].max(axis=0)
            np.maximum(vals, vals[s].max(), out=vals)
            vals[s] = absent
            x = (vals <= cut).nonzero()[0]
            keys = name(s, x, vals[x])
            keys.sort()
            return keys

        owner: dict[int, int] = {}  # pivot coface key -> column
        if d == 0:
            if top > 1:
                edges = index.vertices[1]
            else:  # the implicit top: edges within the cut, in (value, lex) order
                u, v = np.nonzero(np.triu(rank <= cut, 1))
                edges = np.stack((u, v), axis=1)[np.argsort(rank[u, v], kind="stable")]
            dead = _components(n, edges)
            e = edges[list(dead.values())]
            owner = dict(zip(name(e[:, :1], e[:, 1], rank[e[:, 0], e[:, 1]]).tolist(), dead))
        else:
            earliest = np.full(m, -1, dtype=object if wide else np.int64)
            step = max(1, _CHUNK // max(n, 1))
            for lo in range(0, m, step):
                rows = S[lo:lo + step]
                vals = coface_ranks(rows)
                x = vals.argmin(axis=1)
                vals = vals[np.arange(len(rows)), x]
                has = vals <= cut
                earliest[lo:lo + step][has] = name(rows[has], x[has], vals[has])
            cleared = set(pivots[d].values())
            reduced: dict[int, np.ndarray] = {}  # pivot -> reduced column
            first = earliest.tolist()
            for j in range(m - 1, -1, -1):
                if j in cleared or first[j] < 0:
                    continue
                if first[j] not in owner:
                    owner[first[j]] = j  # emergent pair
                    continue
                col = coboundary(j)
                while len(col):
                    low = int(col[0])
                    other = owner.get(low)
                    if other is None:
                        owner[low] = j
                        reduced[low] = col
                        break
                    if low not in reduced:
                        reduced[low] = coboundary(other)
                    col = np.setxor1d(col, reduced[low], assume_unique=True)
        if d + 1 == top:
            pivots[top] = dict(zip(owner.values(), owner))
            break
        T = index.vertices[d + 1]  # stored, so its keys sort like its rows
        values = filtration.values.get(d + 1, np.zeros(0))
        keys = name(T[:, :-1], T[:, -1], filtration.table.searchsorted(values))
        at = keys.searchsorted(np.array(list(owner), dtype=keys.dtype))
        pivots[d + 1] = dict(zip(owner.values(), at.tolist()))
    return pivots


def reduce_filtration(filtration: VRFiltration) -> Barcode:
    """Persistence barcode of a VR filtration over Z/2.

    `_reduce` pairs the simplices of each dimension in filtration order.  A
    simplex paired with a face one dimension down is negative and creates
    nothing; every other simplex of a dimension below dim_cap is positive and
    gives a bar, killed by the simplex it is paired with one dimension up, or
    essential when it has none.  A top killer is a key, and its value rank
    is the key divided by the span.
    """
    values, top = filtration.values, filtration.dim_cap
    pivots = _reduce(filtration)

    intervals: dict[int, list[tuple[float, float]]] = {}
    for d in range(top):
        births = values.get(d, np.zeros(0))
        positive = np.ones(len(births), dtype=bool)
        positive[list(pivots.get(d, {}).values())] = False
        killed = pivots.get(d + 1, {})
        ends = np.full(len(births), math.inf)
        if killed:
            if d + 1 < top:
                dead = values[d + 1][list(killed.values())]
            else:
                span = len(births) * filtration.n  # see `_reduce`
                dead = filtration.table[[key // span for key in killed.values()]]
            ends[list(killed)] = dead
        births, ends = births[positive], ends[positive]
        bar = ends != births
        intervals[d] = sorted(zip(births[bar].tolist(), ends[bar].tolist()))

    return Barcode(
        dim_cap=top,
        intervals=intervals,
        provenance={"field": "Z/2", "n_simplices": filtration.total,
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


def _lex_complex(space: FiniteMetricSpace, r: float, convention: str,
                 dim_cap: int, budget: int) -> VRFiltration:
    """VR(space, r) as the one-step filtration of ranks 0 (within r) and 1
    (past it), cut at 0: its simplices come in lex order."""
    if convention not in ("leq", "lt"):
        raise ValueError(f"convention must be one of ('leq', 'lt'), got {convention!r}")
    within = np.less_equal if convention == "leq" else np.less
    outside = np.logical_not(within(space.dist, r)).view(np.uint8)
    return VRFiltration(outside, np.array([float(r)]), 0, dim_cap, budget)


def betti_at(space: FiniteMetricSpace, r: float, convention: str = "leq",
             dim_cap: int = DEFAULT_DIM_CAP, budget: int = DEFAULT_BUDGET) -> BettiVector:
    """Betti numbers of VR(space, r) over Z/2 from boundary-operator ranks.

    b_k = nullity(d_k) - rank(d_{k+1}), where rank(d_k) is the number of
    pivots `_reduce` finds with the complex's simplices in lex order: the
    complex is the one-step filtration of ranks 0 (within r) and 1 (past
    it), cut at 0, so its top simplices stay implicit too, and a coface
    exists where x is within r of every vertex.  The barcode reduces other
    matrices (the full filtration, in filtration order) with the same
    engine; reading it at r must agree (asserted in the test suite, not
    here), and `homology_oracle` referees both.
    """
    cx = _lex_complex(space, r, convention, dim_cap, budget)
    counts = [len(cx.simplices.get(d, ())) for d in range(dim_cap)] + [cx.top_count]
    pivots = _reduce(cx)
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
        index = {verts: i for i, verts in enumerate(map(tuple, complex_.simplices[d - 1].tolist()))}
        M = np.zeros((rows, cols), dtype=np.uint8)
        for j, verts in enumerate(map(tuple, complex_.simplices[d].tolist())):
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
