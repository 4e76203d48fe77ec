"""Vietoris-Rips and Cech complexes of finite metric spaces, the VR filtration
and the edge lifts of a quotient.  Everything is built from two primitives:
the r-balls of the points as packed bit rows, and one ordered clique walk
that extends a whole dimension at once, as (m, d+1) int32 vertex arrays in
(dimension, lex) order.  `LexIndex` ranks vertex rows among the simplices
of a complex; orbit grouping, action checks and the reduction search it."""

from __future__ import annotations

import math

import numpy as np

from .spaces import FiniteMetricSpace

__all__ = [
    "DEFAULT_BUDGET",
    "DEFAULT_DIM_CAP",
    "BudgetExceededError",
    "LexIndex",
    "SimplicialComplex",
    "VRFiltration",
    "ball_rows",
    "edge_lifts",
    "vr_complex",
    "cech_complex",
    "spans",
    "vr_filtration",
]

DEFAULT_BUDGET = 10_000_000
DEFAULT_DIM_CAP = 3

_CONVENTIONS = ("leq", "lt")
_END = np.iinfo(np.int64).max  # closes every sorted key array of a LexIndex
_NO_KEYS = np.array([_END])  # the keys of a dimension the index does not hold
_CHUNK_BYTES = 1 << 17  # packed candidate bytes the clique walk scans at a time
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little")
_POPCOUNT = _BITS.sum(axis=1, dtype=np.uint8)


class BudgetExceededError(RuntimeError):
    """Raised when simplex enumeration would exceed the configured budget."""

    def __init__(self, budget: int, dim_reached: int):
        self.budget = budget
        self.dim_reached = dim_reached
        super().__init__(f"simplex budget {budget} exceeded at dimension {dim_reached}")


def ball_rows(space: FiniteMetricSpace, r: float, convention: str) -> np.ndarray:
    """The r-balls as an (n, ceil(n/8)) uint8 array of little-endian bit rows:
    bit y of row x is set iff d(x, y) <= r ("leq") or d(x, y) < r ("lt").  A
    point's own bit is set iff 0 passes the comparison, so every row is empty
    for r < 0, and for r = 0 under "lt"."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")
    within = np.less_equal if convention == "leq" else np.less
    inside = within(space.dist, r)
    np.fill_diagonal(inside, within(0, r))
    return np.packbits(inside, axis=1, bitorder="little")


class LexIndex:
    """Lex ranks of vertex rows among the simplices of a graded complex.

    `by_dim[d]` holds the d-simplices of dimension 0 .. top as an (m, d+1)
    int32 vertex array in any order, a missing dimension being empty; n
    exceeds every vertex.  Per dimension d the index holds:

    - `vertices[d]`: that array, adopted without a copy;
    - `keys[d]`: their keys, sorted and closed by the sentinel _END, so the
      position of a key is the lex rank of its simplex.

    The key of a vertex is the vertex; the key of a d-simplex, d >= 1, is the
    lex rank of its first d vertices among the (d-1)-simplices times n plus
    its last vertex.  Keys stay below (number of simplices + 1) * n for
    every n and dimension, so they never overflow int64, and sorting them
    sorts the simplices lexicographically.
    """

    def __init__(self, n: int, by_dim: dict[int, np.ndarray]):
        self.n = n
        self.vertices: list[np.ndarray] = []
        self.keys: list[np.ndarray] = []
        for d in range(max(by_dim, default=-1) + 1):
            rows = np.asarray(by_dim.get(d, ()), dtype=np.int32).reshape(-1, d + 1)
            if d == 0:
                keys = rows[:, 0].astype(np.int64)
            else:
                keys = self.rank(rows[:, :-1].T) * n + rows[:, -1]
            self.vertices.append(rows)
            self.keys.append(np.append(np.sort(keys), _END))

    def rank(self, columns, found: np.ndarray | None = None) -> np.ndarray:
        """Lex ranks of vertex rows, given column by column.

        Each column of `columns` appends a vertex to every row, and the rank
        of the longer prefix is found by searching its key.  Rows whose
        prefixes are all simplices get their exact ranks.  Given `found`,
        rows with a prefix that is not a simplex (a dimension the index does
        not hold included) are cleared there; their ranks are meaningless but
        index `keys`.  Vertices must lie in range(n): a larger or negative
        one can alias another prefix's key.
        """
        rank, level = None, 0
        for col in columns:
            keys = col if level == 0 else rank * self.n + col
            sk = self.keys[level] if level < len(self.keys) else _NO_KEYS
            rank = sk.searchsorted(keys)
            if found is not None:
                found &= sk[rank] == keys
            level += 1
        return rank


class SimplicialComplex:
    """A fixed-scale complex: dict of dimension -> lex-sorted (m, d+1) int32
    array of vertex rows.

    `index` is its `LexIndex`, built on first use; a simplex's lex rank is
    its row in `simplices[d]`.
    """

    def __init__(self, n: int, kind: str, convention: str, r: float,
                 dim_cap: int, simplices: dict[int, np.ndarray]):
        self.n = n
        self.kind = kind
        self.convention = convention
        self.r = r
        self.dim_cap = dim_cap
        self.simplices = simplices
        self._index: LexIndex | None = None

    @property
    def index(self) -> LexIndex:
        if self._index is None:
            self._index = LexIndex(self.n, self.simplices)
        return self._index

    @property
    def counts(self) -> dict[int, int]:
        return {d: len(s) for d, s in self.simplices.items()}

    def tally(self, dim: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lex ranks of sorted vertex rows, an (m, dim+1) array, among the
        dim-simplices, and the number of rows that land on each simplex.
        Raises AssertionError if a row is not a simplex."""
        found = np.ones(len(rows), dtype=bool)
        ranks = self.index.rank(rows.T, found)
        if not found.all():
            raise AssertionError(f"{rows[np.argmin(found)].tolist()} is no {dim}-simplex")
        return ranks, np.bincount(ranks, minlength=len(self.simplices.get(dim, ())))

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.simplices.values())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "convention": self.convention,
            "r": self.r,
            "dim_cap": self.dim_cap,
            "n": self.n,
            "counts": {str(d): len(s) for d, s in self.simplices.items()},
            "simplices": {str(d): s.tolist() for d, s in self.simplices.items()},
        }

    def __repr__(self):
        return (f"SimplicialComplex(kind={self.kind!r}, r={self.r}, "
                f"convention={self.convention!r}, counts={self.counts})")


def _and_rows(a, ia, b, ib, step):
    """The packed rows a[ia] & b[ib], built `step` rows at a time."""
    out = np.empty((len(ia), a.shape[1]), dtype=np.uint8)
    for lo in range(0, len(ia), step):
        np.bitwise_and(np.take(a, ia[lo:lo + step], axis=0),
                       np.take(b, ib[lo:lo + step], axis=0), out=out[lo:lo + step])
    return out


def _cliques(n: int, adj: np.ndarray, dim_cap: int, budget: int,
             witness: np.ndarray | None = None, rank: np.ndarray | None = None,
             count_top: bool = False):
    """Ordered clique walk over packed adjacency rows, a dimension at a time.

    Bit v of row u of `adj` marks an edge (a vertex's own bit is ignored).
    Each simplex carries its candidates, the common neighbours above its
    last vertex, as a packed row; `np.nonzero` lists children by parent,
    then by vertex, so each dimension comes out in lex order.  `witness`
    (packed ball rows) keeps a child while its vertices' balls share a point
    (Cech); `rank` gives each simplex the maximum of rank[v, u] over its
    vertices.  Returns {dim: (m, dim+1) int32 rows} and {dim: maxima} up to
    the first empty dimension, and the number of simplices walked but not
    stored.  Children are counted against the budget, _CHUNK_BYTES of
    candidates at a time, before their dimension is stored.  With
    `count_top` (and no `witness`) the dim_cap-simplices are only counted, a
    popcount of each chunk of candidates, and never stored.
    """
    if dim_cap < 0:
        raise ValueError(f"dim_cap must be nonnegative, got {dim_cap}")
    if n > budget:
        raise BudgetExceededError(budget, 0)
    if count_top and dim_cap == 0:
        return {}, {}, n
    rows = np.arange(n, dtype=np.int32).reshape(-1, 1)
    simplices, count = {0: rows}, n
    maxima = {} if rank is None else {0: np.zeros(n, dtype=rank.dtype)}
    cand = up = adj & np.packbits(rows.T > rows, axis=1, bitorder="little")  # v above u
    common = witness
    step = max(1, _CHUNK_BYTES // max(adj.shape[1], 1))
    for dim in range(1, dim_cap + 1):
        implicit = count_top and dim == dim_cap
        children, stored = [], count
        for lo in range(0, len(rows), step):
            chunk = cand[lo:lo + step]
            if implicit:
                count += int(_POPCOUNT[chunk].sum())
            else:
                p, byte = np.nonzero(chunk)  # only the nonzero bytes are unpacked
                at, bit = np.nonzero(_BITS[chunk[p, byte]])
                p, v = p[at] + lo, byte[at] * 8 + bit
                if witness is not None:
                    keep = _and_rows(common, p, witness, v, step).any(axis=1)
                    p, v = p[keep], v[keep]
                count += len(p)
                children.append((p, v))
            if count > budget:
                raise BudgetExceededError(budget, dim)
        if implicit:
            return simplices, maxima, count - stored
        if count == stored:
            break
        p, v = map(np.concatenate, zip(*children))
        parent = np.take(rows, p, axis=0)
        simplices[dim] = rows = np.concatenate((parent, v[:, None].astype(np.int32)), axis=1)
        if rank is not None:
            maxima[dim] = top = maxima[dim - 1][p]
            for k in range(dim):
                np.maximum(top, rank.ravel()[v * n + parent[:, k]], out=top)
        if dim < dim_cap:
            cand = _and_rows(cand, p, up, v, step)
            if witness is not None:
                common = _and_rows(common, p, witness, v, step)
    return simplices, maxima, 0


def _walk_rows(space: FiniteMetricSpace, r: float, kind: str,
               convention: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The packed adjacency rows of a `kind` complex's clique walk at scale r
    (for Cech, `_witness_graph`), and for Cech the ball rows as witness rows."""
    if kind not in ("vr", "cech"):
        raise ValueError(f"unknown complex kind: {kind!r}")
    balls = ball_rows(space, r, convention)  # bit y of row i: y witnesses i's ball
    if kind == "vr":
        return balls, None
    return _witness_graph(balls), balls


def spans(space: FiniteMetricSpace, kind: str, r: float, convention: str,
          dim_cap: int, simplex) -> bool:
    """Whether the vertex sequence, sorted and of at most dim_cap + 1 points,
    spans a simplex of the `kind` complex at r, by definition: for VR every
    pair is within r, for Cech the vertices' balls share a sample point.
    Unsorted, repeated or out-of-range vertices span nothing."""
    if kind not in ("vr", "cech"):
        raise ValueError(f"unknown complex kind: {kind!r}")
    balls, v = ball_rows(space, r, convention), list(simplex)
    if not 0 < len(v) <= dim_cap + 1 or v != sorted(set(v)) or v[0] < 0 or v[-1] >= space.n:
        return False
    if kind == "cech":
        return bool(np.bitwise_and.reduce(balls[v]).any())
    inside = np.unpackbits(balls[v], axis=1, count=space.n, bitorder="little")[:, v]
    return bool(inside[np.triu_indices(len(v), 1)].all())


def vr_complex(space: FiniteMetricSpace, r: float, convention: str = "leq",
               dim_cap: int = DEFAULT_DIM_CAP, budget: int = DEFAULT_BUDGET) -> SimplicialComplex:
    """Vietoris-Rips complex at scale r: the clique complex of the r-balls,
    edges at d <= r ("leq") or d < r ("lt"), simplices of dimension at most
    dim_cap, at most `budget` of them in all (else BudgetExceededError)."""
    simplices, _, _ = _cliques(space.n, ball_rows(space, r, convention), dim_cap, budget)
    return SimplicialComplex(space.n, "vr", convention, float(r), dim_cap, simplices)


def _witness_graph(balls: np.ndarray) -> np.ndarray:
    """Pairwise-witness graph of packed ball rows: bit j of row i is set iff
    balls i and j share a point.

    Row i is the OR of balls[y] over the witnesses y in balls[i].  That is the
    pairwise test only when y in ball(j) iff j in ball(y), i.e. when the
    distances are exactly symmetric.  Row i also carries its own bit whenever
    its ball is nonempty; the clique walk ignores it.
    """
    graph, step = np.zeros_like(balls), max(1, _CHUNK_BYTES // max(balls.size, 1))
    for lo in range(0, len(balls), step):  # _CHUNK_BYTES of gathered rows at a time
        x, y = np.nonzero(np.unpackbits(balls[lo:lo + step], axis=1, count=len(balls),
                                        bitorder="little"))
        rows, starts = np.unique(x, return_index=True)  # reduceat gives an empty ball a row
        graph[lo + rows] = np.bitwise_or.reduceat(balls[y], starts, axis=0)
    return graph


def cech_complex(space: FiniteMetricSpace, r: float, convention: str = "leq",
                 dim_cap: int = DEFAULT_DIM_CAP, budget: int = DEFAULT_BUDGET) -> SimplicialComplex:
    """Cech complex with sample-point witnesses.

    A simplex enters iff some sample point y lies within r of every member
    (strictly for "lt"), i.e. the balls around the members share a witness in
    the sample itself.  Vertices are always present.  Candidate cliques are
    pruned by the pairwise-witness graph, a refinement of the VR graph at 2r,
    built by `_witness_graph`, which assumes the distance matrix is exactly
    symmetric (as `load_space`, `build_quotient` and the generators ensure).
    """
    adj, balls = _walk_rows(space, r, "cech", convention)
    simplices, _, _ = _cliques(space.n, adj, dim_cap, budget, witness=balls)
    return SimplicialComplex(space.n, "cech", convention, float(r), dim_cap, simplices)


def edge_lifts(space: FiniteMetricSpace, proj: np.ndarray, r: float, kind: str = "vr",
               convention: str = "leq") -> np.ndarray:
    """The anchored lifts at r of every orbit pair: (m, 2) int32 rows (a, y)
    in lex order, a an orbit's least point and y a point of a higher orbit
    joined to a in the graph of the `kind` complex (VR: the r-balls; Cech:
    the pairwise-witness graph), orbit proj[v] of v numbered by least point
    as in `build_quotient`.  At most q n rows, so no budget applies."""
    adj, _ = _walk_rows(space, r, kind, convention)
    roots = np.unique(proj, return_index=True)[1]  # the least point of each orbit
    near = np.unpackbits(adj[roots], axis=1, count=space.n, bitorder="little").view(bool)
    a, y = np.nonzero(near & (proj > proj[roots][:, None]))
    return np.stack((roots[a], y), axis=1).astype(np.int32)


class VRFiltration:
    """The VR filtration of a value-rank matrix, up to dim_cap, with its top
    dimension implicit.

    `rank` is an (n, n) symmetric matrix of value ranks (its diagonal is set
    to 0) and `table[k]` the value of rank k.  A simplex's value rank is the
    largest rank among its edges, and the simplices are the cliques of the
    graph `rank <= cut`.  `vr_filtration` builds one from exact distance
    ranks; `betti_at` reads a fixed-scale complex as the one-step filtration
    whose ranks are 0 within the scale and 1 past it, cut at 0.

    Per dimension d below dim_cap, `simplices[d]` is an (m, d+1) int32 vertex
    array and `values[d]` its float64 values, sorted by (value, lex).  The
    dim_cap-simplices are never columns of the reduction, so they are
    counted against the budget, chunk by chunk, and not stored: `top_count`
    is their number, and the reduction names them from `rank`, `table` and
    `cut`.  `entries` walks every dimension again and lists the entry order
    (value, dimension, lex), a valid filtration order (no face after its
    cofaces), as (value, vertex tuple) pairs.
    """

    def __init__(self, rank: np.ndarray, table: np.ndarray, cut: int, dim_cap: int,
                 budget: int = DEFAULT_BUDGET):
        np.fill_diagonal(rank, 0)
        self.n = len(rank)
        self.dim_cap = dim_cap
        self.rank = rank
        self.table = table
        self.cut = cut
        self.simplices, self.values, self.top_count = self._walk(budget, count_top=True)

    def _walk(self, budget: int, count_top: bool):
        adj = np.packbits(self.rank <= self.cut, axis=1, bitorder="little")
        simplices, maxima, top = _cliques(self.n, adj, self.dim_cap, budget,
                                          rank=self.rank, count_top=count_top)
        values = {}
        for d, ranks in maxima.items():
            o = np.argsort(ranks, kind="stable")
            simplices[d] = np.take(simplices[d], o, axis=0)
            values[d] = self.table[ranks[o]]
        return simplices, values, top

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.values.values()) + self.top_count

    @property
    def entries(self) -> list[tuple[float, tuple[int, ...]]]:
        simplices, values, _ = self._walk(self.total, count_top=False)
        flat = np.concatenate(list(values.values()))
        rows = [tuple(s) for d in simplices for s in simplices[d].tolist()]
        order = np.argsort(flat, kind="stable").tolist()
        flat = flat.tolist()
        return [(flat[k], rows[k]) for k in order]


def vr_filtration(space: FiniteMetricSpace, dim_cap: int = DEFAULT_DIM_CAP,
                  budget: int = DEFAULT_BUDGET,
                  max_scale: float | None = None) -> VRFiltration:
    """VR filtration: every simplex of <= dim_cap+1 points, valued at its diameter.

    With max_scale, the walk enumerates only the simplices of diameter
    <= max_scale (the filtration cut at that scale), and the budget counts
    those simplices alone.  Without it every subset is kept, and their
    binomial count is checked against the budget before the walk starts.
    Each dimension, walked in lex order, is then sorted stably by value.
    """
    n = space.n
    if max_scale is not None and not max_scale >= 0:
        raise ValueError(f"max_scale must be nonnegative, got {max_scale!r}")
    if max_scale is None:
        total = sum(math.comb(n, k + 1) for k in range(min(dim_cap, n - 1) + 1))
        if total > budget:
            raise BudgetExceededError(budget, dim_cap)
        max_scale = math.inf
    # the walk takes maxima of exact distance ranks; rank 0 is +0.0, a vertex's
    # value, and lower distances count as 0.0, as a running max from 0.0 would.
    # The rank type holds one more than the largest rank, which the reduction
    # uses to mark a vertex that is no candidate.
    values, rank = np.unique(np.append(space.dist.ravel(), 0.0), return_inverse=True)
    values, rank = values[rank[-1]:], (rank[:-1] - rank[-1]).clip(0)
    values[0] = 0.0
    rank = rank.astype(np.min_scalar_type(len(values))).reshape(n, n)
    cut = int(np.searchsorted(values, max_scale, side="right")) - 1
    return VRFiltration(rank, values, cut, dim_cap, budget)
