"""Finite metric spaces: validation, deterministic generators, serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from .actions import IsometricAction

__all__ = [
    "TRIANGLE_EPS",
    "FiniteMetricSpace",
    "ShapeSpec",
    "MetricValidation",
    "SpaceValidationError",
    "validate_metric",
    "validated",
    "critical_values",
    "generate_space",
    "space_to_dict",
    "space_from_dict",
    "save_space",
    "load_space",
    "space_from_csv",
    "twelve_circles_action_generators",
]

# Absolute slack for the triangle inequality; distances are float64 and every
# other axiom is checked exactly.
TRIANGLE_EPS = 1e-9
_TILE_BYTES = 1 << 18  # bytes of each row tile the triangle check holds at a time

_SHAPE_KINDS = (
    "evenly-spaced-circle",
    "geodesic-sphere",
    "flat-torus-grid",
    "six-circles",
    "twelve-circles",
    "explicit-matrix",
)


class FiniteMetricSpace:
    """A finite metric space given by a dense symmetric float64 matrix.

    The matrix is frozen (read-only) on construction; all derived objects
    (quotients, complexes, filtrations) treat spaces as immutable values.
    """

    def __init__(self, dist, labels=None, provenance=None):
        dist = np.array(dist, dtype=np.float64)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValueError("distance matrix must be square")
        dist.setflags(write=False)
        self.dist = dist
        self.n = int(dist.shape[0])
        self.labels = list(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length does not match point count")
        self.provenance = dict(provenance) if provenance else {}

    def __repr__(self):
        kind = self.provenance.get("kind", "explicit")
        return f"FiniteMetricSpace(n={self.n}, kind={kind!r})"


@dataclass
class ShapeSpec:
    """Recipe for a deterministic sample space; `params` are per-kind."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None


@dataclass
class MetricValidation:
    """Result of checking the metric axioms; violations are data, not errors."""

    ok: bool
    n: int
    eps_triangle: float
    violations: list[dict] = field(default_factory=list)
    truncated: bool = False


class SpaceValidationError(ValueError):
    """Raised when a space read from disk fails the metric axioms."""

    def __init__(self, report: MetricValidation):
        self.report = report
        first = report.violations[0] if report.violations else {}
        super().__init__(f"invalid metric: {len(report.violations)} violation(s), first={first}")


def validate_metric(space: FiniteMetricSpace,
                    action: IsometricAction | None = None) -> MetricValidation:
    """Check symmetry, zero diagonal, positivity, and the triangle inequality.

    Symmetry, the diagonal, and positivity are exact comparisons; the triangle
    inequality gets TRIANGLE_EPS of absolute slack.  At most 100 offending
    index tuples are reported (the scan stops once the cap is hit).

    The verdict comes from a running min-plus product: row i violates the
    triangle inequality iff d(i,k) > fl(min_j fl(d(i,j) + d(j,k)) + eps) for
    some k.  Rounding is monotone, so fl(m + eps) for the minimum m is the
    least of the per-j slacks fl(fl(d(i,j) + d(j,k)) + eps) that the report
    compares against, and the verdict is the same.  Only a space that fails
    is scanned one middle point at a time to build the report.

    `action`, when it preserves the matrix exactly (every generator maps it
    to itself bit for bit: `IsometricAction.preserves_exactly`, the test
    `verify_isometric` also uses), narrows the triangle check to rows at
    orbit representatives: a triangle (i, j, k) and its image (gi, gj, gk)
    carry bit-identical distances, and some g takes i to its representative.
    Any other action, or none, gets the full check.  The action changes no
    verdict and no report.
    """
    D = space.dist
    n = space.n
    off = ~np.eye(n, dtype=bool)
    if (np.any(np.diag(D) != 0.0) or np.any(D != D.T)
            or np.any((D <= 0.0) & off)):
        return _metric_report(D)
    exact = action is not None and action.n == n and action.preserves_exactly(D)
    rows = action.representatives if exact else np.arange(n)
    if not _triangle_rows_fail(D, rows, every_row=not exact):
        return MetricValidation(ok=True, n=n, eps_triangle=TRIANGLE_EPS)
    return _metric_report(D)


def _triangle_rows_fail(D: np.ndarray, rows: np.ndarray, every_row: bool) -> bool:
    """Whether some triangle (i, j, k) with i in `rows` has
    d(i,k) > d(i,j) + d(j,k) + TRIANGLE_EPS.

    D must be symmetric with a zero diagonal and positive entries elsewhere,
    so no sum is NaN.  Rows go _TILE_BYTES at a time through one running
    min-plus buffer.  When `every_row` is set, a tile starting at row s reads
    only columns k >= s: a triangle (i, j, k) with k < i has the distances of
    (k, j, i), which row k checks.
    """
    n = D.shape[0]
    step = max(1, _TILE_BYTES // (8 * max(n, 1)))
    for start in range(0, len(rows), step):
        tile = rows[start:start + step]
        cols = D[:, int(tile[0]):] if every_row else D
        left = D[tile]
        best = np.full((len(tile), cols.shape[1]), np.inf)
        tmp = np.empty_like(best)
        for j in range(n):
            np.add(left[:, j, None], cols[j], out=tmp)
            np.minimum(best, tmp, out=best)
        best += TRIANGLE_EPS
        if np.any(cols[tile] > best):
            return True
    return False


def _metric_report(D: np.ndarray) -> MetricValidation:
    """The violations of D in report order, scanned one middle point at a time."""
    n = D.shape[0]
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
        # d(i,k) <= d(i,j) + d(j,k) + eps, scanned one middle point at a time
        for j in range(n):
            slack = D[:, j][:, None] + D[j, :][None, :] + TRIANGLE_EPS
            bad = np.argwhere(D > slack)
            for i, k in bad:
                if not _add("triangle", (int(i), int(j), int(k)), D[i, k] - slack[i, k] + TRIANGLE_EPS):
                    break
            if truncated:
                break

    return MetricValidation(ok=not violations, n=n, eps_triangle=TRIANGLE_EPS,
                            violations=violations, truncated=truncated)


def critical_values(space: FiniteMetricSpace) -> np.ndarray:
    """Sorted distinct positive pairwise distances (the scales where anything changes)."""
    vals = space.dist[np.triu_indices(space.n, k=1)]
    vals = vals[vals > 0.0]
    return np.unique(vals)


# ---------------------------------------------------------------------------
# generators


def _euclidean_matrix(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    D = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(D, 0.0)
    return D


def _require_distinct(D: np.ndarray, kind: str) -> None:
    # an entry <= 0 off the diagonal, counted without gathering the off-diagonal
    if np.count_nonzero(D <= 0.0) > np.count_nonzero(np.diag(D) <= 0.0):
        raise ValueError(f"{kind}: generated coincident points")


def _circle_space(n: int, circumference: float) -> np.ndarray:
    k = np.arange(n)
    fwd = (k[None, :] - k[:, None]) % n
    arc = np.minimum(fwd, n - fwd)
    np.fill_diagonal(arc, 0)
    # multiply before dividing so integer-valued numerators stay exact
    return (arc * float(circumference)) / n


def _sphere_space(dim: int, count: int, paired: bool, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, dim + 1))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    if paired:
        pts = np.vstack([pts, -pts])
    dots = np.clip(pts @ pts.T, -1.0, 1.0)
    D = np.arccos(dots) / (2.0 * math.pi)  # great circles have circumference 1
    np.fill_diagonal(D, 0.0)
    return D


def _torus_grid_space(k: int) -> np.ndarray:
    steps = np.arange(k)
    fwd = (steps[None, :] - steps[:, None]) % k
    arc = np.minimum(fwd, k - fwd) * (2.0 * math.pi / k)
    # point i k + j is (i, j): D[i k + j, x k + y] = hypot(arc[i, x], arc[j, y]),
    # built k rows at a time, so no second k^2 x k^2 operand exists
    across, along = np.repeat(arc, k, axis=1), np.tile(arc, k)
    D = np.empty((k * k, k * k))
    for i in range(k):
        np.hypot(across[i], along, out=D[i * k:(i + 1) * k])
    np.fill_diagonal(D, 0.0)
    return D


def _six_circles_points(m: int) -> np.ndarray:
    # six unit circles whose centers sit on a radius-4 hexagon; the sample is
    # invariant under rotation by 60 degrees (block t of circle j+1 is the
    # rotated image of block t of circle j)
    pts = np.empty((6 * m, 2))
    for j in range(6):
        base = j * math.pi / 3.0
        t = np.arange(m)
        ang = base + 2.0 * math.pi * t / m
        pts[j * m:(j + 1) * m, 0] = 4.0 * math.cos(base) + np.cos(ang)
        pts[j * m:(j + 1) * m, 1] = 4.0 * math.sin(base) + np.sin(ang)
    return pts


_TETRA_VERTS = np.array([
    [0.5, 0.0, -math.sqrt(2.0) / 4.0],
    [-0.5, 0.0, -math.sqrt(2.0) / 4.0],
    [0.0, 0.5, math.sqrt(2.0) / 4.0],
    [0.0, -0.5, math.sqrt(2.0) / 4.0],
])


def _perm_parity(perm) -> int:
    inv = sum(1 for a in range(4) for b in range(a + 1, 4) if perm[a] > perm[b])
    return inv % 2


def _a4_rotations() -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The 12 rotations of the regular tetrahedron, keyed by even vertex permutations."""
    base = _TETRA_VERTS[:3].T
    inv = np.linalg.inv(base)
    out = []
    for perm in permutations(range(4)):
        if _perm_parity(perm):
            continue
        R = _TETRA_VERTS[list(perm[:3])].T @ inv
        assert abs(np.linalg.det(R) - 1.0) < 1e-9
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-9
        assert np.abs(R @ _TETRA_VERTS[3] - _TETRA_VERTS[perm[3]]).max() < 1e-9
        out.append((perm, R))
    out.sort(key=lambda pr: pr[0])  # identity first, then lexicographic
    return out


def _twelve_circles_points(m: int) -> np.ndarray:
    center = np.array([5.0 / 8.0, 3.0 / 8.0, -math.sqrt(2.0) / 8.0])
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)  # spans the plane with normal (1,1,0)
    w = np.array([0.0, 0.0, -1.0])
    phi = 2.0 * math.pi * np.arange(m) / m
    ring = center + 0.2 * (np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * w)
    blocks = [ring @ R.T for _, R in _a4_rotations()]
    return np.vstack(blocks)


def twelve_circles_action_generators(m: int) -> list[list[int]]:
    """Index permutations generating the order-12 rotation action on twelve-circles(m)."""
    rots = _a4_rotations()
    index_of = {perm: i for i, (perm, _) in enumerate(rots)}
    gens = []
    for gen in ((1, 2, 0, 3), (1, 0, 3, 2)):  # a 3-cycle and a double transposition
        perm = [0] * (12 * m)
        for gi, (g, _) in enumerate(rots):
            hg = tuple(gen[g[i]] for i in range(4))
            for t in range(m):
                perm[gi * m + t] = index_of[hg] * m + t
        gens.append(perm)
    return gens


def generate_space(spec: ShapeSpec) -> FiniteMetricSpace:
    """Build one of the deterministic sample spaces.

    Kinds
    -----
    evenly-spaced-circle : params n (>=3), circumference (default 1.0)
    geodesic-sphere      : params dim, count (>=3), paired (bool); geodesic
                           metric normalized so great circles have circumference 1
    flat-torus-grid      : params k (>=3); k x k grid on [0, 2*pi)^2
    six-circles          : params m (>=3 points per circle)
    twelve-circles       : params m (>=3 points per circle)
    explicit-matrix      : params n, matrix (lower-triangular row-major)

    Identical specs (seed included) reproduce bit-identical matrices.
    """
    kind = spec.kind
    p = dict(spec.params)
    if kind not in _SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}")

    if kind == "evenly-spaced-circle":
        n = int(p.get("n", 0))
        circumference = float(p.get("circumference", 1.0))
        if n < 3:
            raise ValueError("evenly-spaced-circle: need n >= 3")
        if circumference <= 0:
            raise ValueError("evenly-spaced-circle: circumference must be positive")
        D = _circle_space(n, circumference)
    elif kind == "geodesic-sphere":
        dim = int(p.get("dim", 2))
        count = int(p.get("count", 0))
        paired = bool(p.get("paired", False))
        if dim < 1:
            raise ValueError("geodesic-sphere: need dim >= 1")
        if count < 3:
            raise ValueError("geodesic-sphere: need count >= 3")
        seed = 0 if spec.seed is None else int(spec.seed)
        D = _sphere_space(dim, count, paired, seed)
    elif kind == "flat-torus-grid":
        k = int(p.get("k", 0))
        if k < 3:
            raise ValueError("flat-torus-grid: need k >= 3")
        D = _torus_grid_space(k)
    elif kind == "six-circles":
        m = int(p.get("m", 0))
        if m < 3:
            raise ValueError("six-circles: need m >= 3")
        D = _euclidean_matrix(_six_circles_points(m))
    elif kind == "twelve-circles":
        m = int(p.get("m", 0))
        if m < 3:
            raise ValueError("twelve-circles: need m >= 3")
        D = _euclidean_matrix(_twelve_circles_points(m))
    else:  # explicit-matrix
        n = int(p.get("n", 0))
        matrix = p.get("matrix")
        if n < 1 or matrix is None:
            raise ValueError("explicit-matrix: need n and matrix")
        D = _unpack_lower_triangular(n, matrix)

    _require_distinct(D, kind)
    provenance = {"kind": kind, "params": p, "seed": spec.seed}
    return FiniteMetricSpace(D, provenance=provenance)


# ---------------------------------------------------------------------------
# serialization


def _pack_lower_triangular(D: np.ndarray) -> list[float]:
    # row-major below the diagonal: d(1,0), d(2,0), d(2,1), d(3,0), ...
    return D[np.tril_indices(D.shape[0], -1)].tolist()


def _unpack_lower_triangular(n: int, flat) -> np.ndarray:
    flat = list(flat)
    if len(flat) != n * (n - 1) // 2:
        raise ValueError(f"expected {n * (n - 1) // 2} entries for n={n}, got {len(flat)}")
    D = np.zeros((n, n))
    lower = np.tril_indices(n, -1)
    # every entry goes through float(), which raises on a malformed one
    D[lower] = np.fromiter(map(float, flat), dtype=np.float64, count=len(flat))
    D.T[lower] = D[lower]
    return D


def space_to_dict(space: FiniteMetricSpace) -> dict:
    out = {"n": space.n, "matrix": _pack_lower_triangular(space.dist)}
    if space.labels is not None:
        out["labels"] = list(space.labels)
    out["provenance"] = space.provenance
    return out


def validated(space: FiniteMetricSpace,
              action: IsometricAction | None = None) -> FiniteMetricSpace:
    """`space`, if `validate_metric` passes it, else SpaceValidationError;
    `action` only speeds up the check."""
    report = validate_metric(space, action)
    if not report.ok:
        raise SpaceValidationError(report)
    return space


def space_from_dict(data: dict, validate: bool = True) -> FiniteMetricSpace:
    """A space from its JSON document, `validated` unless `validate` is false."""
    n = int(data["n"])
    D = _unpack_lower_triangular(n, data["matrix"])
    space = FiniteMetricSpace(D, labels=data.get("labels"), provenance=data.get("provenance"))
    return validated(space) if validate else space


def save_space(space: FiniteMetricSpace, path) -> None:
    with open(path, "w") as fh:
        json.dump(space_to_dict(space), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_space(path, validate: bool = True) -> FiniteMetricSpace:
    with open(path) as fh:
        return space_from_dict(json.load(fh), validate)


def space_from_csv(path, validate: bool = True) -> FiniteMetricSpace:
    """Read a lower-triangular CSV: line i holds the i distances d(i,0..i-1)."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rows.append([float(tok) for tok in line.split(",")])
    n = len(rows) + 1
    for i, row in enumerate(rows, start=1):
        if len(row) != i:
            raise ValueError(f"csv row {i} should hold {i} entries, got {len(row)}")
    flat = [v for row in rows for v in row]
    space = FiniteMetricSpace(_unpack_lower_triangular(n, flat),
                              provenance={"kind": "explicit-matrix", "source": "csv"})
    return validated(space) if validate else space
