"""Vietoris-Rips and Cech complexes of finite metric spaces, plus the VR
filtration.  Everything is built from two primitives: the r-balls of the
points as bitmasks (ball_masks), and one ordered clique walk over bitmask
adjacency, so output order is deterministic (dimension, then lex).
`LexIndex` ranks vertex rows among the simplices of a complex; membership
tests, orbit grouping and the reduction engine all search it."""

from __future__ import annotations

import itertools
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
    "ball_masks",
    "vertex_array",
    "vr_complex",
    "cech_complex",
    "vr_filtration",
]

DEFAULT_BUDGET = 10_000_000
DEFAULT_DIM_CAP = 3

_CONVENTIONS = ("leq", "lt")
_END = np.iinfo(np.int64).max  # closes every sorted key array of a LexIndex
_NO_KEYS = np.array([_END])  # the keys of a dimension the index does not hold


class BudgetExceededError(RuntimeError):
    """Raised when simplex enumeration would exceed the configured budget."""

    def __init__(self, budget: int, dim_reached: int):
        self.budget = budget
        self.dim_reached = dim_reached
        super().__init__(f"simplex budget {budget} exceeded at dimension {dim_reached}")


def ball_masks(space: FiniteMetricSpace, r: float,
               convention: str = "leq") -> list[int]:
    """Row bitmasks of the r-balls: bit y of mask x is set iff d(x, y) <= r
    ("leq") or d(x, y) < r ("lt").  A point's own bit is set iff 0 passes the
    comparison, so every row is empty for r < 0, and for r = 0 under "lt"."""
    if convention not in _CONVENTIONS:
        raise ValueError(f"convention must be one of {_CONVENTIONS}, got {convention!r}")
    D = space.dist
    if convention == "leq":
        inside = D <= r
        np.fill_diagonal(inside, r >= 0)
    else:
        inside = D < r
        np.fill_diagonal(inside, r > 0)
    packed = np.packbits(inside, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def vertex_array(simplices: list[tuple[int, ...]], d: int) -> np.ndarray:
    """The d-simplices as an (m, d+1) int32 array (a space of 2^31 points
    would not fit its distance matrix in memory)."""
    flat = itertools.chain.from_iterable(simplices)
    return np.fromiter(flat, dtype=np.int32, count=len(simplices) * (d + 1)).reshape(-1, d + 1)


class LexIndex:
    """Lex ranks of vertex rows among the simplices of a graded complex.

    `by_dim[d]` lists the d-simplices (sorted vertex tuples) of dimension
    0 .. top in any order, a missing dimension being empty; n exceeds every
    vertex.  Per dimension d the index holds:

    - `vertices[d]`: the d-simplices as a `vertex_array`, in that order;
    - `keys[d]`: their keys, sorted and closed by the sentinel _END, so the
      position of a key is the lex rank of its simplex;
    - `order[d]`: the row in `by_dim[d]` of each lex rank (the identity when
      the list is in lex order, as every `SimplicialComplex` is).

    The key of a vertex is the vertex; the key of a d-simplex, d >= 1, is the
    lex rank of its first d vertices among the (d-1)-simplices times n plus
    its last vertex.  Keys stay below (number of simplices + 1) * n for
    every n and dimension, so they never overflow int64, and sorting them
    sorts the simplices lexicographically.
    """

    def __init__(self, n: int, by_dim: dict[int, list[tuple[int, ...]]]):
        self.n = n
        self.vertices: list[np.ndarray] = []
        self.keys: list[np.ndarray] = []
        self.order: list[np.ndarray] = []
        for d in range(max(by_dim, default=-1) + 1):
            rows = vertex_array(by_dim.get(d, []), d)
            if d == 0:
                keys = rows[:, 0].astype(np.int64)
            else:
                keys = self.rank(rows[:, :-1].T) * n + rows[:, -1]
            o = np.argsort(keys, kind="stable")
            self.vertices.append(rows)
            self.keys.append(np.append(keys[o], _END))
            self.order.append(o)

    def rank(self, columns, found: np.ndarray | None = None,
             rank: np.ndarray | None = None, level: int = 0) -> np.ndarray:
        """Lex ranks of vertex rows, given column by column.

        Each column of `columns` appends a vertex to every row, and the rank
        of the longer prefix is found by searching its key.  `rank` holds
        the lex ranks of the rows' first `level` vertices among the
        (level-1)-simplices, for a search that starts part way (None at
        level 0).  Rows whose prefixes are all simplices get their exact
        ranks.  Given `found`, rows with a prefix that is not a simplex
        (a dimension the index does not hold included) are cleared there;
        their ranks are meaningless but index `keys`.  Vertices must lie in
        range(n): a larger or negative one can alias another prefix's key.
        """
        for col in columns:
            keys = col if level == 0 else rank * self.n + col
            sk = self.keys[level] if level < len(self.keys) else _NO_KEYS
            rank = sk.searchsorted(keys)
            if found is not None:
                found &= sk[rank] == keys
            level += 1
        return rank


class SimplicialComplex:
    """A fixed-scale complex: dict of dimension -> lex-sorted vertex tuples.

    `index` is its `LexIndex`, built on first use; since each list is in
    lex order, a simplex's lex rank is its position in `simplices[d]`.
    """

    def __init__(self, n: int, kind: str, convention: str, r: float,
                 dim_cap: int, simplices: dict[int, list[tuple[int, ...]]]):
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

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.simplices.values())

    def contains(self, simplex: tuple[int, ...]) -> bool:
        """Whether the vertex tuple is a simplex (sorted, as listed) here."""
        if not simplex or not all(0 <= v < self.n for v in simplex):
            return False
        found = np.ones(1, dtype=bool)
        self.index.rank(np.array([simplex], dtype=np.int64).T, found)
        return bool(found[0])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "convention": self.convention,
            "r": self.r,
            "dim_cap": self.dim_cap,
            "n": self.n,
            "counts": {str(d): len(s) for d, s in self.simplices.items()},
            "simplices": {str(d): [list(s) for s in simps]
                          for d, simps in self.simplices.items()},
        }

    def __repr__(self):
        return (f"SimplicialComplex(kind={self.kind!r}, r={self.r}, "
                f"convention={self.convention!r}, counts={self.counts})")


def _expand_cliques(n: int, adj_masks: list[int], dim_cap: int, budget: int,
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


def vr_complex(space: FiniteMetricSpace, r: float, convention: str = "leq",
               dim_cap: int = DEFAULT_DIM_CAP, budget: int = DEFAULT_BUDGET) -> SimplicialComplex:
    """Vietoris-Rips complex at scale r: the clique complex of the r-balls.

    Parameters
    ----------
    space : FiniteMetricSpace
    r : float
        Scale.
    convention : {"leq", "lt"}
        Whether edges require d <= r or d < r.
    dim_cap : int
        Highest simplex dimension enumerated.
    budget : int
        Total simplex cap; overflow raises BudgetExceededError.
    """
    masks = ball_masks(space, r, convention)
    simplices, _ = _expand_cliques(space.n, masks, dim_cap, budget)
    return SimplicialComplex(space.n, "vr", convention, float(r), dim_cap, simplices)


def _witness_graph(balls: list[int]) -> list[int]:
    """Pairwise-witness graph: bit j of row i is set iff balls i and j share a point.

    Row i is the OR of balls[y] over the witnesses y in balls[i].  That is the
    pairwise test only when y in ball(j) iff j in ball(y), i.e. when the
    distances are exactly symmetric.  Row i also carries its own bit whenever
    its ball is nonempty; the clique walker ignores it.
    """
    graph = []
    for mask in balls:
        row = 0
        while mask:
            low = mask & -mask
            row |= balls[low.bit_length() - 1]
            mask ^= low
        graph.append(row)
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
    balls = ball_masks(space, r, convention)  # bit y of mask i: y witnesses i's ball

    def child_state(state, simplex, v):
        w = state & balls[v]
        return w if w else None

    simplices, _ = _expand_cliques(space.n, _witness_graph(balls), dim_cap, budget,
                                   child_state=child_state,
                                   root_state=balls.__getitem__)
    return SimplicialComplex(space.n, "cech", convention, float(r), dim_cap, simplices)


class VRFiltration:
    """Simplices up to dim_cap with their VR appearance values.

    Entries are sorted by (value, dimension, lexicographic vertices), which is
    a valid filtration order: faces never come after cofaces.
    """

    def __init__(self, n: int, dim_cap: int, entries: list[tuple[float, tuple[int, ...]]]):
        self.n = n
        self.dim_cap = dim_cap
        self.entries = entries


def vr_filtration(space: FiniteMetricSpace, dim_cap: int = DEFAULT_DIM_CAP,
                  budget: int = DEFAULT_BUDGET,
                  max_scale: float | None = None) -> VRFiltration:
    """VR filtration: every simplex of <= dim_cap+1 points, valued at its diameter.

    With max_scale, the walk enumerates only the simplices of diameter
    <= max_scale (the filtration cut at that scale), and the budget counts
    those simplices alone.  Without it every subset is kept, and their
    binomial count is checked against the budget before the walk starts.
    """
    n = space.n
    if max_scale is not None and not max_scale >= 0:
        raise ValueError(f"max_scale must be nonnegative, got {max_scale!r}")
    if max_scale is None:
        total = sum(math.comb(n, k + 1) for k in range(min(dim_cap, n - 1) + 1))
        if total > budget:
            raise BudgetExceededError(budget, dim_cap)
        max_scale = math.inf
    Dl = space.dist.tolist()

    def child_state(value, simplex, v):
        row = Dl[v]
        for u in simplex:
            duv = row[u]
            if duv > value:
                value = duv
        return value

    masks = ball_masks(space, max_scale, "leq")
    simplices, values = _expand_cliques(n, masks, dim_cap, budget,
                                        child_state=child_state,
                                        root_state=lambda v: 0.0)
    entries = [e for d in simplices for e in zip(values[d], simplices[d])]
    entries.sort(key=lambda e: (e[0], len(e[1]), e[1]))
    return VRFiltration(n, dim_cap, entries)
