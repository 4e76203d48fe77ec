import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitrips.actions import (ISOMETRY_EPS, GroupClosureError,
                               action_from_dict,
                               action_to_dict, antipodal_generator,
                               block_shift_generator, build_quotient,
                               circle_rotation_generator, close_group,
                               load_action, paired_swap_generator,
                               save_action, torus_grid_shift_generators,
                               verify_isometric)
from orbitrips.complexes import ball_rows, cech_complex
from orbitrips.lifts import anchored_witnessed_lifts
from orbitrips.spaces import (FiniteMetricSpace, ShapeSpec, critical_values,
                              generate_space, twelve_circles_action_generators,
                              validate_metric)

from conftest import (_brute_proj, _brute_qdist, grid_case, random_rotated_cloud,
                      verify_isometric_oracle)


def test_close_group_orders():
    assert len(close_group(12, [circle_rotation_generator(12, 1)])) == 12
    assert len(close_group(12, [antipodal_generator(12)])) == 2
    assert len(close_group(48, [block_shift_generator(6, 8)])) == 6
    assert len(close_group(14 * 14, torus_grid_shift_generators(14))) == 14
    assert len(close_group(48, twelve_circles_action_generators(4))) == 12
    assert len(close_group(5, [])) == 1  # trivial group


def test_identity_first_and_deterministic():
    a = close_group(12, [circle_rotation_generator(12, 5)])
    b = close_group(12, [circle_rotation_generator(12, 5)])
    assert a.elements[0] == tuple(range(12))
    assert a.elements == b.elements


def test_group_table_consistency():
    action = close_group(48, twelve_circles_action_generators(4))
    elements = set(action.elements)
    identity = action.elements[0]

    def compose(p, q):  # apply q, then p
        return tuple(p[i] for i in q)

    for p in action.elements:
        inv = [0] * action.n
        for a, b in enumerate(p):
            inv[b] = a
        inv = tuple(inv)
        assert inv in elements
        assert compose(p, inv) == identity
        assert compose(inv, p) == identity
    # closure: the multiplication table never leaves the element list
    for p, q in itertools.product(action.elements, repeat=2):
        assert compose(p, q) in elements


def test_closure_cap_raises():
    with pytest.raises(GroupClosureError):
        close_group(12, [circle_rotation_generator(12, 1)], cap=5)


def test_bad_generator_rejected():
    with pytest.raises(ValueError):
        close_group(3, [[0, 0, 1]])
    with pytest.raises(ValueError):
        close_group(3, [[0, 1]])


def test_verify_isometric_accepts_rotation():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [circle_rotation_generator(12, 1)])
    report = verify_isometric(space, action)
    assert report.ok
    assert report.max_deviation == 0.0  # index permutation of exact arc values


def test_verify_isometric_rejects_transposition():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 5}))
    swap01 = [1, 0, 2, 3, 4]
    action = close_group(5, [swap01])
    report = verify_isometric(space, action)
    assert not report.ok
    assert report.counterexample is not None
    g = report.counterexample["g"]
    x, y = report.counterexample["x"], report.counterexample["y"]
    p = action.elements[g]
    dev = abs(space.dist[p[x], p[y]] - space.dist[x, y])
    assert dev == report.max_deviation > 1e-9


def test_build_quotient_rejects_non_isometric():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 5}))
    action = close_group(5, [[1, 0, 2, 3, 4]])
    with pytest.raises(ValueError):
        build_quotient(space, action)


def test_orbits_partition_and_reps_are_minima():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [antipodal_generator(12)])
    q = build_quotient(space, action)
    assert q.n_orbits == 6
    assert sorted(v for mem in q.members for v in mem) == list(range(12))
    for a, rep in enumerate(q.reps):
        assert q.members[a][0] == rep == min(int(p[rep]) for p in action.elements)
        assert list(np.flatnonzero(q.proj == a)) == q.members[a]
        assert all(q.proj[v] == a for v in q.members[a])
    assert q.reps == sorted(q.reps)


def test_quotient_matches_brute_minima(rng):
    from conftest import random_rotated_cloud
    space, action = random_rotated_cloud(rng, m=4, k=3)
    q = build_quotient(space, action)
    proj = _brute_proj(action)
    assert np.array_equal(proj, q.proj)
    members = [sorted(np.flatnonzero(proj == a)) for a in range(q.n_orbits)]
    brute = _brute_qdist(space.dist, members)
    assert np.array_equal(q.space.dist, np.array(brute))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9),
       case=st.sampled_from(["circle", "cloud", "jittered"]),
       convention=st.sampled_from(["lt", "leq"]))
def test_base_is_the_exactly_invariant_pair_orbit_minimum(seed, case,
                                                          convention):
    rng = np.random.default_rng(seed)
    if case == "circle":  # evenly spaced circle mod Z/m, exact by construction
        m = int(rng.integers(2, 5))
        n = m * int(rng.integers(3, 7))
        space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": n}))
        action = close_group(n, [circle_rotation_generator(n, n // m)])
    else:
        space, action = random_rotated_cloud(rng, m=int(rng.integers(2, 5)),
                                             k=int(rng.integers(2, 4)))
        if case == "jittered":  # isometric within ISOMETRY_EPS, not exactly
            noise = np.triu(rng.uniform(-1e-10, 1e-10, size=space.dist.shape), 1)
            space = FiniteMetricSpace(space.dist + noise + noise.T)
    q = build_quotient(space, action)
    if case == "jittered":
        least = np.min([space.dist[np.ix_(p, p)] for p in action.element_arrays],
                       axis=0)
        assert np.array_equal(q.base.dist, least)
        for gi in action.generator_indices:
            p = action.element_arrays[gi]
            assert np.array_equal(q.base.dist[np.ix_(p, p)], q.base.dist)
        shift = q.base.provenance["orbit_min_deviation"]
        assert shift == np.max(np.abs(space.dist - q.base.dist))
        assert 0.0 < shift <= ISOMETRY_EPS
    else:
        assert q.base is space
    proj = _brute_proj(action)
    members = [sorted(np.flatnonzero(proj == a)) for a in range(q.n_orbits)]
    assert np.array_equal(q.space.dist, np.array(_brute_qdist(space.dist, members)))
    # every quotient Cech simplex has an anchored lift with a common witness
    grid = critical_values(q.base)
    for r in rng.choice(grid, size=min(3, len(grid)), replace=False):
        balls = ball_rows(q.base, float(r), convention)
        qcx = cech_complex(q.space, float(r), convention=convention, dim_cap=3)
        for dim in range(1, len(qcx.simplices)):
            for simplex in qcx.simplices[dim].tolist():
                assert anchored_witnessed_lifts(balls, q.members, tuple(simplex))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9),
       case=st.sampled_from(["circle", "reflection", "jittered", "torus", "trivial", "tiny"]))
def test_quotient_grid_is_the_full_base_grid_bit_for_bit(seed, case):
    # the representative rows hold every value of the exactly invariant base,
    # for free and non-free, exact and float-built actions
    space, action = grid_case(np.random.default_rng(seed), case)
    q = build_quotient(space, action)
    got, full = q.critical_values(), critical_values(q.base)
    assert got.dtype == full.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), full.view(np.uint64))
    if case == "jittered":
        assert q.base is not space


def test_quotient_entries_are_base_entries_and_symmetric():
    space = generate_space(ShapeSpec("six-circles", {"m": 7}))
    action = close_group(42, [block_shift_generator(6, 7)])
    q = build_quotient(space, action)
    Q = q.space.dist
    assert np.array_equal(Q, Q.T)
    base_vals = set(space.dist.ravel().tolist())
    assert all(v in base_vals for v in Q.ravel().tolist())
    assert q.validation.ok


def test_quotient_contraction_and_realization():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 36, "circumference": 3.0}))
    action = close_group(36, [circle_rotation_generator(36, 12)])
    q = build_quotient(space, action)
    D, Q = space.dist, q.space.dist
    for x in range(36):
        for y in range(36):
            assert Q[q.proj[x], q.proj[y]] <= D[x, y]
    for a in range(q.n_orbits):
        for b in range(q.n_orbits):
            if a == b:
                continue
            realized = min(D[x, y] for x in q.members[a] for y in q.members[b])
            assert Q[a, b] == realized


def test_circle_quotient_is_smaller_circle():
    # 12-point circle mod antipodal map = 6-point circle of circumference 1/2
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [antipodal_generator(12)])
    q = build_quotient(space, action)
    expected = generate_space(ShapeSpec("evenly-spaced-circle",
                                        {"n": 6, "circumference": 0.5}))
    assert np.array_equal(q.space.dist, expected.dist)


def test_fixed_points_allowed():
    # reflection of a 4-point path metric fixing the middle: orbits {0,2}, {1}
    D = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 1.0],
                  [2.0, 1.0, 0.0]])
    space = FiniteMetricSpace(D)
    action = close_group(3, [[2, 1, 0]])
    q = build_quotient(space, action)
    assert q.n_orbits == 2
    assert q.members == [[0, 2], [1]]
    assert q.space.dist[0, 1] == 1.0


def test_action_roundtrip(tmp_path):
    action = close_group(48, twelve_circles_action_generators(4))
    path = tmp_path / "action.json"
    save_action(action, path)
    back = load_action(path)
    assert back.elements == action.elements
    again = action_from_dict(action_to_dict(action))
    assert again.elements == action.elements


def test_sphere_paired_swap_isometric_within_eps():
    space = generate_space(ShapeSpec("geodesic-sphere",
                                     {"dim": 2, "count": 30, "paired": True}, seed=0))
    action = close_group(60, [paired_swap_generator(30)])
    report = verify_isometric(space, action)
    assert report.ok
    assert report.max_deviation < 1e-12  # BLAS rounding only


def _isometry_case(case: str, rng):
    """(space, action, exact) for the shortcut-versus-full-scan referee."""
    if case == "torus14":
        space = generate_space(ShapeSpec("flat-torus-grid", {"k": 14}))
        return space, close_group(196, torus_grid_shift_generators(14)), True
    if case == "circle48/Z3":
        space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 48}))
        return space, close_group(48, [circle_rotation_generator(48, 16)]), True
    if case == "sphere30":
        space = generate_space(ShapeSpec("geodesic-sphere",
                                         {"dim": 2, "count": 30, "paired": True}, seed=0))
        return space, close_group(60, [paired_swap_generator(30)]), False
    # a rotated cloud, exact by construction, with symmetric jitter of the
    # given size: 1e-13 stays within ISOMETRY_EPS, 1e-6 does not
    space, action = random_rotated_cloud(rng, m=4, k=3)
    noise = np.triu(rng.uniform(-1.0, 1.0, size=space.dist.shape), 1)
    jitter = float(case.split("@")[1])
    return FiniteMetricSpace(space.dist + jitter * (noise + noise.T)), action, False


@pytest.mark.parametrize("case", ["torus14", "circle48/Z3", "sphere30",
                                  "jittered@1e-13", "jittered@1e-6"])
def test_verify_isometric_equals_full_scan(case, rng):
    space, action, exact = _isometry_case(case, rng)
    report = verify_isometric(space, action)
    assert report == verify_isometric_oracle(space, action)
    assert (report.max_deviation == 0.0) == exact
    assert report.ok == (case != "jittered@1e-6")


def test_twelve_circles_action_isometric():
    space = generate_space(ShapeSpec("twelve-circles", {"m": 5}))
    action = close_group(60, twelve_circles_action_generators(5))
    report = verify_isometric(space, action)
    assert report.ok
    q = build_quotient(space, action)
    assert q.n_orbits == 5
    assert validate_metric(q.space).ok
