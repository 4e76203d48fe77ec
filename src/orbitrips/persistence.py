"""Z/2 persistent homology of VR filtrations, fixed-scale Betti numbers, and
an independent dense-elimination homology oracle for cross-checking.

One engine, `_reduce`, serves both the barcode (`reduce_filtration`) and the
Betti numbers (`betti_at`).  It reduces coboundary matrices, after U. Bauer,
"Ripser: efficient computation of Vietoris-Rips persistence barcodes"
(J. Appl. Comput. Topol. 2021):

- columns are the simplices of one dimension in reverse order, rows their
  cofaces, and a column's pivot is its earliest coface;
- dimensions run upward, and clearing goes with them: a simplex that is the
  pivot of a column one dimension down reduces to zero and is skipped, so the
  top-dimension simplices are never columns at all;
- emergent pairs: the earliest coface of every simplex is computed at once,
  and a column whose earliest coface is not owned yet is paired without
  building its coboundary; the few remaining coboundaries are built on demand
  from sorted simplex keys, with no per-simplex dict.

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
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .complexes import (DEFAULT_BUDGET, DEFAULT_DIM_CAP, LexIndex,
                        SimplicialComplex, VRFiltration, vr_complex)
from .spaces import FiniteMetricSpace

__all__ = [
    "ORACLE_LIMIT",
    "Barcode",
    "BettiVector",
    "SimplexPairs",
    "reduce_filtration",
    "betti_at",
    "homology_oracle",
    "format_barcode_tsv",
    "read_barcode_tsv",
]

ORACLE_LIMIT = 20000


class SimplexPairs(Sequence):
    """The simplex pairs of one homology dimension d, held as arrays.

    Item i reads `((birth, simplex), None)` for an essential class and
    `((birth, simplex), (death, killer))` otherwise, with the values as
    floats and the simplices as vertex tuples.  Storage: `births` and
    `deaths` (NaN where essential) are float arrays, `simplices` an (m, d+1)
    and `killers` an (m, d+2) vertex array (rows of -1 where essential).
    """

    def __init__(self, births: np.ndarray, simplices: np.ndarray,
                 deaths: np.ndarray, killers: np.ndarray):
        self.births = births
        self.simplices = simplices
        self.deaths = deaths
        self.killers = killers

    def __len__(self) -> int:
        return len(self.births)

    def __getitem__(self, i: int):
        killer = self.killers[i].tolist()
        return ((float(self.births[i]), tuple(self.simplices[i].tolist())),
                None if killer[0] < 0 else (float(self.deaths[i]), tuple(killer)))


@dataclass
class Barcode:
    """Persistence intervals per homology dimension 0..dim_cap-1.

    `intervals[d]` holds (birth, death) with death = inf for essential classes;
    zero-length bars are dropped there but the raw simplex pairing is kept in
    `pairs` for verification: `pairs[d]` lists every positive d-simplex with
    its value, and the (d+1)-simplex that kills its class (None if none
    does), as a `SimplexPairs` of arrays.  The pairing is the one the
    boundary reduction gives; the engine gets it from the coboundary side.
    """

    dim_cap: int
    intervals: dict[int, list[tuple[float, float]]]
    pairs: dict[int, SimplexPairs] = field(repr=False, default_factory=dict)
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
    """sha256 of the filtration's size, then in entry order its float64
    values and the int64 vertices of its simplices, one after another."""
    order = filtration.order()
    h = hashlib.sha256()
    h.update(f"{filtration.n}:{filtration.dim_cap}:{len(order)}".encode())
    if len(order):
        h.update(np.concatenate(list(filtration.values.values()))[order].tobytes())
        top = max(filtration.simplices)  # rows padded with -1 to the widest
        rows = np.take(np.concatenate([np.pad(s, ((0, 0), (0, top - d)), constant_values=-1)
                                       for d, s in filtration.simplices.items()]), order, axis=0)
        h.update(rows[rows >= 0].astype(np.int64).tobytes())
    return h.hexdigest()


def _reduce(n: int, by_dim: dict[int, np.ndarray]) -> dict[int, dict[int, int]]:
    """Z/2 reduction of the coboundary matrices of a graded complex on
    range(n), with clearing and emergent pairs (see the module docstring).

    `by_dim[d]` holds the d-simplices as an (m, d+1) int32 vertex array in
    one order, the same for every use of dimension d.  For d = 0 .. top-1
    the columns are the d-simplices, last first, and a column's pivot is its
    earliest coface.  Clearing runs upward: a d-simplex already paired with
    a (d-1)-simplex reduces to zero and is skipped.  The earliest coface of
    every d-simplex comes from one vectorised pass over the facets of the
    (d+1)-simplices, ranked in a `LexIndex` that adopts the arrays.
    Coboundaries are built only for columns that are not emergent, and for
    the owners they must add, by searching each candidate coface in the
    same index; no tuple per simplex is built.

    Returns `pivots[d] = {(d-1)-simplex: d-simplex}` for d >= 1, indices into
    `by_dim`.  Homology and cohomology pair the same simplices, so these are
    the pairs of the standard reduction of the boundary matrices in the same
    orders, and `len(pivots[d])` is the rank of the boundary matrix of
    dimension d.
    """
    top = max(by_dim, default=0)
    pivots: dict[int, dict[int, int]] = {}
    if top == 0:
        return pivots
    index = LexIndex(n, by_dim)
    S, keys, order = index.vertices, index.keys, index.order
    vertices = S[0][:, 0]
    for d in range(top):
        cofaces = S[d + 1]
        m, mc = len(S[d]), len(cofaces)
        # earliest coface of each d-simplex; facet k of a coface drops vertex
        # k, so it shares `prefix`, the rank of the first k vertices.  A key
        # over n is its simplex's prefix rank, so the prefixes come from the
        # coface keys downward, one gather per level.
        lex_rank = np.empty(mc, dtype=np.int64)
        lex_rank[order[d + 1]] = np.arange(mc)
        prefix = keys[d + 1][lex_rank] // n
        del lex_rank
        earliest = np.full(m, mc, dtype=np.int64)
        indices = np.arange(mc, dtype=np.int64)
        for k in range(d + 1, -1, -1):
            rank = index.rank(cofaces[:, k + 1:].T, rank=prefix, level=k)
            np.minimum.at(earliest, order[d][rank], indices)
            prefix = keys[k - 1][prefix] // n if k > 1 else None
        del rank, indices

        def coboundary(j: int) -> set[int]:
            simplex = S[d][j]
            outside = np.ones(n, dtype=bool)
            outside[simplex] = False
            cand = vertices[outside[vertices]]
            rows = np.empty((len(cand), d + 2), dtype=np.int32)
            rows[:, :-1] = simplex
            rows[:, -1] = cand
            rows.sort(axis=1)
            found = np.ones(len(rows), dtype=bool)
            rank = index.rank(rows.T, found)
            return set(order[d + 1][rank[found]].tolist())

        cleared = set(pivots.get(d, {}).values())
        owner: dict[int, int] = {}  # pivot coface -> column
        reduced: dict[int, set[int]] = {}  # pivot -> reduced column
        first = earliest.tolist()
        for j in range(m - 1, -1, -1):
            if j in cleared or first[j] == mc:
                continue
            if first[j] not in owner:
                owner[first[j]] = j  # emergent pair
                continue
            col = coboundary(j)
            while col:
                low = min(col)
                other = owner.get(low)
                if other is None:
                    owner[low] = j
                    reduced[low] = col
                    break
                if low not in reduced:
                    reduced[low] = coboundary(other)
                col ^= reduced[low]
        pivots[d + 1] = {j: e for e, j in owner.items()}
    return pivots


def reduce_filtration(filtration: VRFiltration) -> Barcode:
    """Persistence barcode of a VR filtration over Z/2.

    The simplices of each dimension go to `_reduce` in filtration order.  A
    simplex paired with a face one dimension down is negative and creates
    nothing; every other simplex of a dimension below dim_cap is positive and
    gives a bar, killed by the simplex it is paired with one dimension up, or
    essential when it has none.
    """
    digest = _filtration_hash(filtration)
    values, simplices = filtration.values, filtration.simplices
    pivots = _reduce(filtration.n, simplices)

    intervals: dict[int, list[tuple[float, float]]] = {}
    pairs: dict[int, SimplexPairs] = {}
    for d in range(filtration.dim_cap):
        rows = simplices.get(d, np.zeros((0, d + 1), dtype=np.int32))
        positive = np.ones(len(rows), dtype=bool)
        positive[list(pivots.get(d, {}).values())] = False
        killed = pivots.get(d + 1, {})
        partner = np.full(len(rows), -1, dtype=np.int64)
        partner[list(killed)] = list(killed.values())
        index = np.flatnonzero(positive)
        births = values.get(d, np.zeros(0))[index]
        partner = partner[index]
        essential = partner < 0
        deaths = np.full(len(index), math.nan)
        deaths[~essential] = values.get(d + 1, np.zeros(0))[partner[~essential]]
        killers = np.full((len(index), d + 2), -1, dtype=np.int32)
        if d + 1 in simplices:
            killers[~essential] = simplices[d + 1][partner[~essential]]
        pairs[d] = SimplexPairs(births, rows[index], deaths, killers)
        ends = np.where(essential, math.inf, deaths)
        bar = essential | (ends != births)
        intervals[d] = sorted(zip(births[bar].tolist(), ends[bar].tolist()))

    return Barcode(
        dim_cap=filtration.dim_cap,
        intervals=intervals,
        pairs=pairs,
        provenance={"field": "Z/2", "n_simplices": filtration.total,
                    "filtration_hash": digest},
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
    pivots = _reduce(cx.n, cx.simplices)
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
