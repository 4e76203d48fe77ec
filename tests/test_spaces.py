import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitrips.actions import (circle_rotation_generator, close_group,
                               torus_grid_shift_generators, verify_isometric)
from orbitrips.spaces import (TRIANGLE_EPS, FiniteMetricSpace, MetricValidation,
                              ShapeSpec, SpaceValidationError, critical_values,
                              generate_space, load_space, save_space,
                              space_from_csv, space_from_dict, space_to_dict,
                              twelve_circles_action_generators,
                              validate_metric)

from conftest import random_cloud_space, random_rotated_cloud, validate_metric_oracle

ALL_SPECS = [
    ShapeSpec("evenly-spaced-circle", {"n": 7}),
    ShapeSpec("evenly-spaced-circle", {"n": 36, "circumference": 3.0}),
    ShapeSpec("geodesic-sphere", {"dim": 2, "count": 20, "paired": True}, seed=1),
    ShapeSpec("geodesic-sphere", {"dim": 1, "count": 15, "paired": False}, seed=2),
    ShapeSpec("flat-torus-grid", {"k": 6}),
    ShapeSpec("six-circles", {"m": 5}),
    ShapeSpec("twelve-circles", {"m": 4}),
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.kind)
def test_generators_produce_metrics(spec):
    space = generate_space(spec)
    report = validate_metric(space)
    assert report.ok, report.violations[:3]
    assert space.dist.flags.writeable is False
    D = space.dist
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0)


def test_circle_distances_are_exact_rationals():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    D = space.dist
    for k in range(1, 7):
        assert D[0, k] == k / 12  # single rounding: (k * 1.0) / 12
    assert D[0, 2] == 1 / 6
    assert D[3, 9] == 0.5


def test_circle_circumference_scales_distances():
    space = generate_space(ShapeSpec("evenly-spaced-circle",
                                     {"n": 36, "circumference": 3.0}))
    assert space.dist[0, 1] == 3.0 / 36
    assert space.dist[0, 18] == 1.5


def test_sphere_paired_antipodes_at_half():
    space = generate_space(ShapeSpec("geodesic-sphere",
                                     {"dim": 2, "count": 10, "paired": True}, seed=3))
    D = space.dist
    assert space.n == 20
    # dot(p, -p) = -(p . p) with p . p = 1 up to normalization rounding, so the
    # antipodal geodesic is 0.5 only up to ~sqrt(eps) after arccos
    for i in range(10):
        assert abs(D[i, i + 10] - 0.5) <= 1e-7
    assert D.max() <= 0.5


def test_sphere_seed_reproducible_and_varies():
    a = generate_space(ShapeSpec("geodesic-sphere", {"dim": 2, "count": 8}, seed=5))
    b = generate_space(ShapeSpec("geodesic-sphere", {"dim": 2, "count": 8}, seed=5))
    c = generate_space(ShapeSpec("geodesic-sphere", {"dim": 2, "count": 8}, seed=6))
    assert np.array_equal(a.dist, b.dist)
    assert not np.array_equal(a.dist, c.dist)


def test_torus_grid_neighbor_distances():
    space = generate_space(ShapeSpec("flat-torus-grid", {"k": 6}))
    D = space.dist
    step = 2 * math.pi / 6
    assert space.n == 36
    # index i = ix*6 + iy
    assert math.isclose(D[0, 1], step)          # y-neighbor
    assert math.isclose(D[0, 6], step)          # x-neighbor
    assert math.isclose(D[0, 7], math.hypot(step, step))
    assert math.isclose(D[0, 3], 3 * step)      # wraps: max arc on 6-cycle


def test_six_circles_layout():
    space = generate_space(ShapeSpec("six-circles", {"m": 8}))
    assert space.n == 48
    D = space.dist
    # same circle: diameter 2; different circles: at least gap 2 (= 4 - 1 - 1)
    same = D[:8, :8]
    assert same.max() <= 2.0 + 1e-12
    other = D[:8, 8:16]
    assert other.min() >= 2.0 - 1e-12


def test_six_circles_rotation_invariance():
    space = generate_space(ShapeSpec("six-circles", {"m": 8}))
    D = space.dist
    perm = [(i + 8) % 48 for i in range(48)]
    assert np.allclose(D[np.ix_(perm, perm)], D, atol=1e-12)


def test_twelve_circles_generators_are_valid_permutations():
    gens = twelve_circles_action_generators(4)
    for g in gens:
        assert sorted(g) == list(range(48))


def test_critical_values_sorted_unique_positive():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    cv = critical_values(space)
    assert list(cv) == sorted(set(cv))
    assert cv[0] > 0
    assert len(cv) == 6  # k/12 for k=1..6


def test_validate_metric_reports_violations():
    D = np.array([[0.0, 1.0, 3.0],
                  [1.0, 0.0, 1.0],
                  [3.0, 1.0, 0.0]])  # 3 > 1 + 1: triangle violation
    space = FiniteMetricSpace(D)
    report = validate_metric(space)
    assert not report.ok
    assert any(v["kind"] == "triangle" for v in report.violations)


def test_validate_metric_asymmetry_and_negative():
    D = np.array([[0.0, 1.0], [2.0, 0.0]])
    report = validate_metric(FiniteMetricSpace(D))
    assert not report.ok
    assert any(v["kind"] == "symmetry" for v in report.violations)
    D2 = np.array([[0.0, -1.0], [-1.0, 0.0]])
    report2 = validate_metric(FiniteMetricSpace(D2))
    assert not report2.ok


def test_explicit_matrix_kind():
    space = generate_space(ShapeSpec("explicit-matrix",
                                     {"n": 3, "matrix": [1.0, 1.0, 1.0]}))
    assert space.n == 3
    assert space.dist[0, 1] == 1.0


def test_generate_rejects_bad_params():
    with pytest.raises(ValueError):
        generate_space(ShapeSpec("evenly-spaced-circle", {"n": 2}))
    with pytest.raises(ValueError):
        generate_space(ShapeSpec("no-such-shape", {}))
    with pytest.raises(ValueError):
        generate_space(ShapeSpec("evenly-spaced-circle", {"n": 5, "circumference": -1}))


def test_json_roundtrip(tmp_path):
    space = generate_space(ShapeSpec("six-circles", {"m": 4}))
    path = tmp_path / "space.json"
    save_space(space, path)
    back = load_space(path)
    assert np.array_equal(back.dist, space.dist)
    assert back.provenance["kind"] == "six-circles"


def test_json_rejects_invalid_metric(tmp_path):
    doc = {"n": 3, "matrix": [1.0, 3.0, 1.0]}  # d(2,0)=3 > 1+1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpaceValidationError):
        load_space(path)


def test_csv_roundtrip(tmp_path):
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 5}))
    path = tmp_path / "space.csv"
    n = space.n
    lines = ["# lower-triangular distances"]
    for i in range(1, n):
        lines.append(",".join(repr(float(space.dist[i, j])) for j in range(i)))
    path.write_text("\n".join(lines) + "\n")
    back = space_from_csv(path)
    assert np.array_equal(back.dist, space.dist)


def test_space_dict_roundtrip_preserves_bits():
    space = generate_space(ShapeSpec("flat-torus-grid", {"k": 4}))
    back = space_from_dict(space_to_dict(space))
    assert np.array_equal(back.dist, space.dist)


# ---------------------------------------------------------------------------
# validate_metric against the scan of every middle point

# (kind, whether its action preserves the matrix exactly)
BASES = {"random": False, "cloud": False, "circle": True, "torus": True,
         "rotated": True, "jittered": False}
PLANTS = ["none", "diagonal", "symmetry", "positivity", "triangle", "many",
          "orbit", "boundary", "nan"]


def _base(kind: str, rng: np.random.Generator):
    """A distance matrix and an action on its points."""
    if kind == "random":  # symmetric, positive, a metric or not
        n = int(rng.integers(3, 14))
        A = rng.uniform(0.1, 2.0, size=(n, n))
        D = np.triu(A, 1) + np.triu(A, 1).T
    elif kind == "cloud":
        D = random_cloud_space(rng, n=int(rng.integers(3, 14))).dist.copy()
    elif kind == "circle":
        m, t = int(rng.integers(2, 6)), int(rng.integers(3, 9))
        D = generate_space(ShapeSpec("evenly-spaced-circle", {"n": m * t})).dist.copy()
        return D, close_group(m * t, [circle_rotation_generator(m * t, t)])
    elif kind == "torus":
        D = generate_space(ShapeSpec("flat-torus-grid", {"k": 14})).dist.copy()
        return D, close_group(196, torus_grid_shift_generators(14))
    else:
        space, action = random_rotated_cloud(rng, m=int(rng.integers(2, 5)),
                                             k=int(rng.integers(2, 5)))
        D = space.dist.copy()
        if kind == "jittered":  # isometric within ISOMETRY_EPS, not exactly
            J = np.triu(rng.uniform(-1e-13, 1e-13, size=D.shape), 1)
            D += J + J.T
        return D, action
    n = D.shape[0]  # a cyclic shift of the points, not an isometry
    return D, close_group(n, [np.roll(np.arange(n), 1).tolist()])


def _plant(D: np.ndarray, plant: str, action, rng: np.random.Generator) -> None:
    n = D.shape[0]
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    big = 3.0 * float(D.max()) + 1.0
    if plant == "diagonal":
        D[i, i] = 0.25
    elif plant == "symmetry":
        D[i, j] += 1e-6
    elif plant == "positivity":
        D[i, j] = D[j, i] = float(rng.choice([0.0, -0.0, -0.5]))
    elif plant == "triangle":
        D[i, j] = D[j, i] = big
    elif plant == "many":  # cubed distances: an exact action stays exact, and
        D **= 3            # from a dozen points on, over 100 triangles fail
    elif plant == "orbit":  # one pair orbit stretched: an exact action stays exact
        for p in action.element_arrays:
            D[p[i], p[j]] = D[p[j], p[i]] = big
    elif plant == "boundary":  # d(i,k) at the rounded slack of i-j-k, or 1 ulp above
        k = int(rng.choice([v for v in range(n) if v not in (i, j)]))
        slack = (D[i, j] + D[j, k]) + TRIANGLE_EPS
        D[i, k] = D[k, i] = slack if rng.random() < 0.5 else np.nextafter(slack, math.inf)
    elif plant == "nan":
        D[i, j] = D[j, i] = math.nan


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9), kind=st.sampled_from(sorted(BASES)),
       plant=st.sampled_from(PLANTS))
def test_validate_metric_matches_oracle(seed, kind, plant):
    rng = np.random.default_rng(seed)
    D, action = _base(kind, rng)
    _plant(D, plant, action, rng)
    space = FiniteMetricSpace(D)
    if BASES[kind] and plant in ("none", "orbit", "many"):
        assert action.preserves_exactly(space.dist)
    oracle = repr(validate_metric_oracle(space))  # repr: NaN values compare equal
    assert repr(validate_metric(space)) == oracle
    assert repr(validate_metric(space, action)) == oracle
    if plant == "many" and space.n >= 12:
        assert validate_metric(space).truncated


def test_validate_metric_ignores_an_action_of_another_size():
    space = FiniteMetricSpace([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    action = close_group(4, [[1, 2, 3, 0]])
    assert validate_metric(space, action) == validate_metric_oracle(space)


def test_orbit_reduced_check_catches_triangles_off_the_representatives():
    # stretch d(x, y) over its pair orbit for two non-representatives x, y of
    # the torus: every violating triangle found by the scan is then checked
    # again, through its image, at a representative row
    space = generate_space(ShapeSpec("flat-torus-grid", {"k": 14}))
    action = close_group(196, torus_grid_shift_generators(14))
    reps = set(action.representatives.tolist())
    D = space.dist.copy()
    for p in action.element_arrays:
        D[p[3], p[20]] = D[p[20], p[3]] = 100.0
    bad = FiniteMetricSpace(D)
    assert verify_isometric(bad, action).max_deviation == 0.0
    report = validate_metric(bad, action)
    assert not report.ok
    assert report == validate_metric_oracle(bad)
    assert any(v["indices"][0] not in reps for v in report.violations)


@pytest.mark.parametrize("above", [False, True])
def test_triangle_slack_boundary(above):
    # d(0,2) and d(6,8) at the rounded slack of 0-1-2 (a pass) or one ulp
    # above it (a violation), on the 12-gon with its antipodal map kept exact
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [circle_rotation_generator(12, 6)])
    D = space.dist.copy()
    slack = (D[0, 1] + D[1, 2]) + TRIANGLE_EPS
    value = np.nextafter(slack, math.inf) if above else slack
    D[0, 2] = D[2, 0] = D[6, 8] = D[8, 6] = value
    bad = FiniteMetricSpace(D)
    assert action.preserves_exactly(bad.dist)
    oracle = validate_metric_oracle(bad)
    assert oracle.ok is not above
    assert validate_metric(bad) == oracle
    assert validate_metric(bad, action) == oracle


def test_pack_order_and_float_entries():
    space = generate_space(ShapeSpec("geodesic-sphere", {"dim": 2, "count": 6}, seed=4))
    D = space.dist
    flat = space_to_dict(space)["matrix"]
    assert flat == [float(D[i, j]) for i in range(1, space.n) for j in range(i)]
    assert all(type(v) is float for v in flat)
    # every entry still goes through float(): strings convert, bad entries raise
    assert space_from_dict({"n": 3, "matrix": ["1", "1", 1]}).dist[2, 0] == 1.0
    with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
        space_from_dict({"n": 3, "matrix": [1.0, "x", 1.0]})
    with pytest.raises(TypeError):
        space_from_dict({"n": 3, "matrix": [1.0, None, 1.0]})
    with pytest.raises(ValueError, match="expected 3 entries"):
        space_from_dict({"n": 3, "matrix": [1.0, 1.0]})
