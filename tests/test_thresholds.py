import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitrips.actions import (antipodal_generator, block_shift_generator,
                               build_quotient, circle_rotation_generator,
                               close_group, paired_swap_generator,
                               torus_grid_shift_generators)
from orbitrips.cli import main
from orbitrips.complexes import (BudgetExceededError, cech_complex, vr_complex,
                                 vr_filtration)
from orbitrips.persistence import reduce_filtration
from orbitrips.quotient_iso import iso_check
from orbitrips.spaces import (FiniteMetricSpace, ShapeSpec, critical_values,
                              generate_space, twelve_circles_action_generators)
from orbitrips.thresholds import (ball_threshold, diameter_action_check,
                                  distance_threshold, nerve_action_check,
                                  threshold_scan, verify_witness)

from conftest import (assert_same_bracket, brute_ball_ok, brute_diameter_ok,
                      brute_distance_ok, brute_nerve_ok, full_iso_check, linear_scan,
                      random_rotated_cloud, subset_check_oracle,
                      walk_failure_scale)


def _circle12_antipodal():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [antipodal_generator(12)])
    return space, action


def test_distance_threshold_antipodal_circle():
    space, action = _circle12_antipodal()
    rep = distance_threshold(space, action)
    assert rep.passes_at == 0.5          # every point moves half the circle
    assert math.isinf(rep.fails_at)      # no larger critical value exists
    assert not rep.vacuous
    assert verify_witness(space, action, "distance", 0.5 + 1e-9, rep.witness)


def test_distance_threshold_small_rotation():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [circle_rotation_generator(12, 1)])
    rep = distance_threshold(space, action)
    assert rep.passes_at == 1 / 12
    assert rep.fails_at == 2 / 12
    assert rep.resolution == rep.fails_at - rep.passes_at


def test_ball_threshold_antipodal_circle():
    space, action = _circle12_antipodal()
    rep = ball_threshold(space, action)
    assert rep.passes_at == 0.25         # y halfway between x and x + 6
    assert rep.fails_at == 1 / 3
    assert verify_witness(space, action, "ball", 0.25 + 1e-9, rep.witness)


def test_trivial_group_is_vacuous():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 5}))
    action = close_group(5, [])
    for kind in ("distance", "ball"):
        rep = threshold_scan(space, action, kind)
        assert rep.vacuous
        assert math.isinf(rep.passes_at)


def test_diameter_scan_antipodal_circle_pinned():
    space, action = _circle12_antipodal()
    rep = threshold_scan(space, action, "diameter", k_max=3)
    assert rep.passes_at == 1 / 6
    assert rep.fails_at == 0.25
    assert rep.scanned == 1
    w = rep.witness
    assert w["mode"] == "no_equality_lift"
    assert w["orbits"] == [0, 2, 4]
    assert w["qdiam"] == 1 / 6
    assert w["min_lift_diam"] == 1 / 3
    assert len(w["min_lifts"]) == 4      # all four anchored lifts tie at 1/3
    assert verify_witness(space, action, "diameter", w["scale"], w) is True


def test_diameter_scan_threefold_circle_pinned():
    space = generate_space(ShapeSpec("evenly-spaced-circle",
                                     {"n": 36, "circumference": 3.0}))
    action = close_group(36, [circle_rotation_generator(36, 12)])
    rep = threshold_scan(space, action, "diameter", k_max=3)
    assert rep.passes_at == 1 / 3
    assert rep.fails_at == 5 / 12
    assert verify_witness(space, action, "diameter", rep.witness["scale"], rep.witness)


def test_nerve_scan_threefold_circle_pinned():
    space = generate_space(ShapeSpec("evenly-spaced-circle",
                                     {"n": 36, "circumference": 3.0}))
    action = close_group(36, [circle_rotation_generator(36, 12)])
    rep = threshold_scan(space, action, "nerve", k_max=3)
    assert rep.passes_at == 0.25
    assert rep.fails_at == 1 / 3
    w = rep.witness
    assert w["mode"] == "lift_not_unique"
    assert w["orbits"] == [0, 6]
    assert w["lifts"] == [[0, 6], [0, 30]]
    assert w["witnesses"] == [3, 33]
    assert verify_witness(space, action, "nerve", w["scale"], w) is True


def test_nerve_scan_antipodal_circle48_pinned():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 48}))
    action = close_group(48, [antipodal_generator(48)])
    rep = threshold_scan(space, action, "nerve", k_max=3)
    assert rep.passes_at == 6 / 48
    assert rep.fails_at == 7 / 48
    assert verify_witness(space, action, "nerve", rep.witness["scale"], rep.witness)


def test_antipodal_circle_passes_exactly_at_one_sixth():
    # circle(6k) of circumference 1 mod the antipodal map is RP^1 of
    # circumference 1/2, whose VR complex first changes at a third of that
    # (Adamaszek & Adams, "The Vietoris-Rips complexes of a circle", Pacific
    # J. Math. 2017): the diameter property holds up to exactly 1/6
    for k in range(2, 11):
        space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6 * k}))
        action = close_group(6 * k, [antipodal_generator(6 * k)])
        assert threshold_scan(space, action, "diameter").passes_at == 1 / 6, k


@pytest.mark.parametrize("count, seed", [(40, 0), (60, 0), (60, 3), (80, 0)])
def test_rp2_diameter_threshold_is_the_death_of_the_longest_h1_bar(count, seed):
    # a paired 2-sphere mod its swap samples RP^2; the diameter property
    # holds up to the scale where the quotient's longest H1 bar dies, which
    # is never below RP^1's 1/6
    space = generate_space(ShapeSpec("geodesic-sphere",
                                     {"dim": 2, "count": count, "paired": True}, seed=seed))
    action = close_group(2 * count, [paired_swap_generator(count)])
    rep = threshold_scan(space, action, "diameter")
    q = build_quotient(space, action)
    bars = reduce_filtration(vr_filtration(q.space, dim_cap=2, max_scale=0.2)).bars(1)
    assert rep.passes_at == max(bars, key=lambda bar: bar[1] - bar[0])[1]
    assert rep.passes_at >= 1 / 6


@pytest.mark.parametrize("dim, count, passes_at", [
    (1, 50, 0.16732744346863376), (1, 80, 0.16732744346863376),
    (3, 60, 0.17144926401119603)])
def test_rp1_and_rp3_diameter_threshold_is_the_death_of_the_longest_h1_bar(
        dim, count, passes_at):
    # random samples of RP^1 and RP^3 (seed 0) behave as RP^2's do: the
    # diameter property holds up to the death of the longest H1 bar
    space = generate_space(ShapeSpec("geodesic-sphere",
                                     {"dim": dim, "count": count, "paired": True}))
    action = close_group(2 * count, [paired_swap_generator(count)])
    rep = threshold_scan(space, action, "diameter")
    q = build_quotient(space, action)
    bars = reduce_filtration(vr_filtration(q.space, dim_cap=2, max_scale=0.2)).bars(1)
    assert rep.passes_at == max(bars, key=lambda bar: bar[1] - bar[0])[1] == passes_at


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(3, 30))
def test_rp2_diameter_threshold_is_never_below_one_sixth(seed, count):
    # RP^2 of great-circle circumference 1/2 has the circle bound of
    # Adamaszek & Adams (Pacific J. Math. 2017): doubled points lie 1/2
    # apart, a second lift of an edge below 1/6 is longer than 1/3, and a
    # triangle below 1/6 lifts with its quotient sides.  The least over
    # seeds 0-39 and 3 to 30 pairs read 0.1672395545448708 (seed 28, 21 pairs).
    space = generate_space(ShapeSpec("geodesic-sphere",
                                     {"dim": 2, "count": count, "paired": True}, seed=seed))
    action = close_group(2 * count, [paired_swap_generator(count)])
    assert threshold_scan(space, action, "diameter").passes_at >= 1 / 6


def test_fixed_point_fails_doubles_part_everywhere():
    D = np.array([[0.0, 1.0, 2.0],
                  [1.0, 0.0, 1.0],
                  [2.0, 1.0, 0.0]])
    space = FiniteMetricSpace(D)
    action = close_group(3, [[2, 1, 0]])  # reflection fixing point 1
    res = diameter_action_check(space, action, 0.5)
    assert not res.ok
    assert res.witness["part"] == "doubles"
    assert res.witness["moved"] == 0.0
    nres = nerve_action_check(space, action, 0.5)
    assert not nres.ok
    assert nres.witness["part"] == "doubles"
    assert nres.witness["fixed_point"]
    rep = threshold_scan(space, action, "diameter")
    assert rep.passes_at == 0.0
    assert rep.fails_at == 1.0


def test_unknown_convention_rejected_by_nerve_check_and_replay():
    space, action = _circle12_antipodal()
    res = nerve_action_check(space, action, 0.3, convention="leq")
    assert res.witness["part"] == "doubles"
    with pytest.raises(ValueError):
        nerve_action_check(space, action, 0.3, convention="le")
    with pytest.raises(ValueError):
        verify_witness(space, action, "nerve", 0.3, res.witness,
                       convention="bogus")
    with pytest.raises(ValueError):  # a scan that runs no check, nothing failing
        threshold_scan(space, close_group(12, []), "nerve", convention="le")


def test_every_scan_rejects_an_unknown_convention_and_reports_the_one_it_used():
    # the distance, ball and diameter scans compare strictly whatever the
    # convention asked for, so they report "lt", as their checks do
    space, action = _circle12_antipodal()
    for kind in ("distance", "ball", "diameter"):
        strict = threshold_scan(space, action, kind)
        assert strict.convention == "lt"
        assert threshold_scan(space, action, kind, convention="leq") == strict
    for kind in ("distance", "ball", "diameter", "nerve"):
        with pytest.raises(ValueError):
            threshold_scan(space, action, kind, convention="bogus")


def test_malformed_witnesses_do_not_replay():
    # circle(12) mod a third of a turn: a negative element, point or orbit
    # index aliases a valid one, and one past the end must not raise
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [circle_rotation_generator(12, 4)])
    assert not verify_witness(space, action, "distance", 0.5, {"g": -1, "x": 0})
    points = [{"g": -1}, {"g": 0}, {"g": 3}, {"x": -1}, {"x": 12}, {"gx": 5}, {"gx": 12}]
    for kind, witness in (("distance", threshold_scan(space, action, "distance").witness),
                          ("ball", threshold_scan(space, action, "ball").witness),
                          ("diameter", diameter_action_check(space, action, 0.5).witness),
                          ("nerve", nerve_action_check(space, action, 0.5).witness)):
        assert verify_witness(space, action, kind, 0.5, witness), kind
        for bad in points + ([{"y": -1}, {"y": 12}] if "y" in witness else []):
            assert not verify_witness(space, action, kind, 0.5, {**witness, **bad}), (kind, bad)
    for kind in ("diameter", "nerve"):
        w = threshold_scan(space, action, kind).witness
        assert w["orbits"] == [0, 2] and verify_witness(space, action, kind, w["scale"], w)
        for orbits in ([-4, -2], [2, 0], [0, 0], [0, 1, 99], []):
            bad = {**w, "orbits": orbits}
            assert not verify_witness(space, action, kind, w["scale"], bad), (kind, orbits)


def test_unknown_kind_rejected():
    space, action = _circle12_antipodal()
    with pytest.raises(ValueError):
        threshold_scan(space, action, "perimeter")


def test_distance_and_ball_match_brute(rng):
    for _ in range(5):
        space, action = random_rotated_cloud(rng, m=4, k=3)
        for kind, brute in (("distance", brute_distance_ok),
                            ("ball", brute_ball_ok)):
            rep = threshold_scan(space, action, kind)
            r_lo = rep.passes_at * 0.999
            assert brute(space.dist, action, r_lo)
            assert brute(space.dist, action, rep.passes_at)  # holds at the min itself
            if math.isfinite(rep.fails_at):
                assert not brute(space.dist, action, rep.fails_at * 1.001)


def test_diameter_check_matches_brute(rng):
    for _ in range(4):
        space, action = random_rotated_cloud(rng, m=3, k=3)
        cv = critical_values(space)
        picks = sorted(rng.choice(len(cv), size=min(6, len(cv)), replace=False))
        for i in picks:
            r = float(cv[i])
            res = diameter_action_check(space, action, r, k_max=3)
            assert res.ok == brute_diameter_ok(space, action, r, 3), r
            if not res.ok:
                assert verify_witness(space, action, "diameter", r, res.witness)


def test_nerve_check_matches_brute(rng):
    for _ in range(4):
        space, action = random_rotated_cloud(rng, m=3, k=3)
        cv = critical_values(space)
        picks = sorted(rng.choice(len(cv), size=min(6, len(cv)), replace=False))
        for i in picks:
            r = float(cv[i])
            res = nerve_action_check(space, action, r, k_max=3)
            assert res.ok == brute_nerve_ok(space, action, r, 3), r
            if not res.ok:
                assert verify_witness(space, action, "nerve", r, res.witness)


@pytest.mark.parametrize("kind", ["diameter", "nerve"])
def test_scan_brackets_match_brute_transition(rng, kind):
    brute = brute_diameter_ok if kind == "diameter" else brute_nerve_ok
    for _ in range(3):
        space, action = random_rotated_cloud(rng, m=3, k=2)
        rep = threshold_scan(space, action, kind, k_max=3)
        grid = [float(v) for v in critical_values(space)]
        first_fail = next((r for r in grid if not brute(space, action, r, 3)),
                          math.inf)
        assert rep.fails_at == first_fail
        if math.isfinite(first_fail):
            idx = grid.index(first_fail)
            expected_pass = grid[idx - 1] if idx else 0.0
            assert rep.passes_at == expected_pass


def test_six_circles_extra_lift_mode():
    space = generate_space(ShapeSpec("six-circles", {"m": 12}))
    action = close_group(72, [block_shift_generator(6, 12)])
    res = diameter_action_check(space, action, 2.5, k_max=3)
    assert not res.ok
    assert res.witness["part"] == "sets"
    assert res.witness["mode"] == "extra_lift_within_scale"
    assert verify_witness(space, action, "diameter", 2.5, res.witness)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9), m=st.integers(2, 4), k=st.integers(2, 3),
       kind=st.sampled_from(["diameter", "nerve"]),
       convention=st.sampled_from(["lt", "leq"]), k_max=st.integers(1, 3),
       jitter=st.booleans())
def test_scan_matches_linear_oracle(seed, m, k, kind, convention, k_max,
                                    jitter):
    rng = np.random.default_rng(seed)
    space, action = random_rotated_cloud(rng, m=m, k=k)
    if jitter:
        # break the snapped ties by far less than ISOMETRY_EPS: the action
        # stays acceptable but is no longer exact, so the scan and the oracle
        # run on the pair-orbit minimum that build_quotient makes of it
        noise = np.triu(rng.uniform(-1e-10, 1e-10, size=(space.n, space.n)), 1)
        space = FiniteMetricSpace(space.dist + noise + noise.T)
    rep = threshold_scan(space, action, kind, k_max=k_max,
                         convention=convention)
    oracle = linear_scan(space, action, kind, k_max=k_max,
                         convention=convention)
    assert_same_bracket(rep, oracle)


SHIPPED_SHAPES = {
    "circle12": (ShapeSpec("evenly-spaced-circle", {"n": 12}),
                 lambda n: [antipodal_generator(n)]),
    "circle48": (ShapeSpec("evenly-spaced-circle", {"n": 48}),
                 lambda n: [antipodal_generator(n)]),
    "sphere12": (ShapeSpec("geodesic-sphere", {"dim": 2, "count": 12, "paired": True}),
                 lambda n: [paired_swap_generator(n // 2)]),
    "six-circles12": (ShapeSpec("six-circles", {"m": 12}),
                      lambda n: [block_shift_generator(6, n // 6)]),
    "twelve-circles4": (ShapeSpec("twelve-circles", {"m": 4}),
                        lambda n: twelve_circles_action_generators(n // 12)),
    "torus14": (ShapeSpec("flat-torus-grid", {"k": 14}),
                lambda n: torus_grid_shift_generators(14)),
}


@pytest.mark.parametrize("shape", sorted(SHIPPED_SHAPES))
def test_scan_matches_linear_oracle_on_shipped_shapes(shape):
    # the shapes the CLI generates, at k_max 0 (the doubled-point scale
    # alone) and 3, in both kinds and both conventions
    spec, generators = SHIPPED_SHAPES[shape]
    space = generate_space(spec)
    action = close_group(space.n, generators(space.n))
    for kind in ("diameter", "nerve"):
        for convention in ("lt", "leq"):
            for k_max in (0, 3):
                rep = threshold_scan(space, action, kind, k_max=k_max,
                                     convention=convention)
                assert_same_bracket(rep, linear_scan(space, action, kind, k_max=k_max,
                                                     convention=convention))
    # at k_max 0 only the doubled points count: the distance and ball brackets
    for kind, exact in (("diameter", distance_threshold(space, action)),
                        ("nerve", ball_threshold(space, action))):
        rep = threshold_scan(space, action, kind, k_max=0)
        assert (rep.passes_at, rep.fails_at) == (exact.passes_at, exact.fails_at)


def test_diameter_scan_finds_the_least_lift_of_a_subset_just_below_the_bound():
    # orbits A = {0, 3}, B = {1, 4}, C = {2, 5} under the swap; every distance
    # lies in [1, 2], so this is a metric.  The doubled point (0, 3) sets the
    # bound 1 + 2e-10 of the triangle walk, where ABC (qdiam 1.0) has no lift
    # below it; its least lift (0, 1, 2) lies 5e-10 above qdiam, so ABC fails
    # above 1.0, where its triangle is missing from the quotient complex
    up, near, far = 1.0 + 2e-10, 1.0 + 5e-10, 2.0
    D = np.full((6, 6), far)
    np.fill_diagonal(D, 0.0)
    for x, y, d in [(0, 3, up), (0, 1, 1.0), (0, 2, 1.0), (1, 2, near), (1, 5, 1.0)]:
        D[x, y] = D[y, x] = D[(x + 3) % 6, (y + 3) % 6] = D[(y + 3) % 6, (x + 3) % 6] = d
    space, action = FiniteMetricSpace(D), close_group(6, [[3, 4, 5, 0, 1, 2]])
    rep = threshold_scan(space, action, "diameter", k_max=2)
    assert (rep.passes_at, rep.fails_at) == (1.0, up)
    assert (rep.witness["mode"], rep.witness["orbits"]) == ("no_equality_lift", [0, 1, 2])
    assert (rep.witness["qdiam"], rep.witness["min_lift_diam"]) == (1.0, near)
    assert verify_witness(space, action, "diameter", rep.fails_at, rep.witness)
    assert_same_bracket(rep, linear_scan(space, action, "diameter", k_max=2))
    assert full_iso_check(space, action, rep.passes_at, "vr", "lt", dim_cap=2).verdict == \
        "isomorphic"
    assert iso_check(space, action, rep.fails_at, "vr", "lt", dim_cap=2).verdict == \
        "not-surjective"


def _planar(radii, angles, m):
    """Planar points at (radius, angle), with cos, sin and the distances
    computed in floats, and the shift by n/m places: a free action,
    isometric only up to rounding, when it turns the points by 1/m."""
    P = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    diff = P[:, None, :] - P[None, :, :]
    D = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(D, 0.0)
    n = len(P)
    return FiniteMetricSpace(D), close_group(n, [[(i + n // m) % n for i in range(n)]])


def _turned(radii, angles, m):
    """`_planar` of m copies of the points, turned by 2 pi j / m."""
    return _planar(np.tile(radii, m),
                   np.concatenate([angles + 2 * np.pi * j / m for j in range(m)]), m)


def _float_circle(n, m):
    """The n-gon of the unit circle mod the rotation by a 1/m turn."""
    return _planar(np.ones(n), 2 * np.pi * np.arange(n) / n, m)


def test_float_circle_diameter_bracket_is_exact():
    # the float-built 12-gon mod a third of a turn: the triangle of orbits
    # [0, 1, 2] has quotient diameter 0.9999999999999996 and least lift
    # 0.9999999999999999, so it fails above the former; a 1e-9 slack used to
    # pass it up to 0.9999999999999999, where iso_check is not surjective
    space, action = _float_circle(12, 3)
    rep = threshold_scan(space, action, "diameter", k_max=2)
    assert (rep.passes_at, rep.fails_at) == (0.9999999999999996, 0.9999999999999997)
    w = rep.witness
    assert (w["mode"], w["orbits"], w["qdiam"], w["min_lift_diam"]) == \
        ("no_equality_lift", [0, 1, 2], 0.9999999999999996, 0.9999999999999999)
    assert verify_witness(space, action, "diameter", rep.fails_at, w)
    assert_same_bracket(rep, linear_scan(space, action, "diameter", k_max=2))
    assert full_iso_check(space, action, rep.passes_at, "vr", "lt", dim_cap=2).verdict == \
        "isomorphic"
    cert = iso_check(space, action, rep.fails_at, "vr", "lt", dim_cap=2)
    assert (cert.verdict, cert.counterexample["missing"]) == ("not-surjective", [0, 1, 2])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9),
       shape=st.sampled_from(["circle", "perturbed", "two-circles", "cloud"]),
       m=st.integers(2, 4), k_max=st.integers(2, 3),
       convention=st.sampled_from(["lt", "leq"]))
def test_checks_pass_iff_quotient_is_isomorphic_on_free_actions(
        seed, shape, m, k_max, convention):
    # on a free action the diameter and nerve properties are exactly the VR
    # and Cech quotient isomorphisms, with every comparison exact, at every
    # critical value; the isomorphism is decided upstairs by the referee, and
    # iso_check, which answers a pass downstairs, must give its certificate
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 16 // m + 1))  # points per turned copy
    if shape == "circle":
        space, action = _float_circle(m * k, m)
    elif shape == "perturbed":
        angles = 2 * np.pi * (np.arange(k) + rng.uniform(-0.4, 0.4, k)) / (m * k)
        space, action = _turned(np.ones(k), angles, m)
    elif shape == "two-circles":
        half = -(-k // 2)
        angles = np.tile(2 * np.pi * np.arange(half) / (m * half), 2)
        space, action = _turned(np.repeat([1.0, 0.5], half), angles, m)
    else:
        space, action = _turned(rng.uniform(0.5, 1.5, k), rng.uniform(0, 2 * np.pi, k), m)
    q = build_quotient(space, action)
    for r in critical_values(q.base).tolist():
        iso = full_iso_check(space, action, r, "vr", "lt", dim_cap=k_max)
        assert diameter_action_check(space, action, r, k_max=k_max, quotient=q).ok == iso.ok, r
        assert iso_check(space, action, r, "vr", "lt", dim_cap=k_max).to_dict() == \
            iso.to_dict(), r
        iso = full_iso_check(space, action, r, "cech", convention, dim_cap=k_max)
        assert nerve_action_check(space, action, r, k_max=k_max, convention=convention,
                                  quotient=q).ok == iso.ok, r
        assert iso_check(space, action, r, "cech", convention, dim_cap=k_max).to_dict() == \
            iso.to_dict(), r


def test_nerve_scan_of_one_point_space_on_empty_grid():
    # no critical values at all, so the grid is empty and nothing is checked
    space, action = FiniteMetricSpace([[0.0]]), close_group(1, [])
    rep = threshold_scan(space, action, "nerve")
    assert_same_bracket(rep, linear_scan(space, action, "nerve", k_max=3))
    assert rep.passes_at == 0.0
    assert rep.fails_at == math.inf


def _paired_sphere30():
    space = generate_space(ShapeSpec(
        "geodesic-sphere", {"dim": 2, "count": 30, "paired": True}, seed=0))
    return space, close_group(60, [paired_swap_generator(30)])


def _relabelled(space, action, order):
    """The same space and action with point order[i] renamed i."""
    inverse = np.argsort(order)
    gens = [inverse[np.asarray(action.elements[i])[order]]
            for i in action.generator_indices]
    return (FiniteMetricSpace(space.dist[np.ix_(order, order)]),
            close_group(space.n, gens))


def test_sphere30_nerve_bracket_is_label_free():
    # the swap on this float-built sphere is isometric only up to rounding;
    # on the exactly invariant base every nerve check below the bracket
    # passes, and the bracket does not move when the points are renamed
    space, action = _paired_sphere30()
    rep = threshold_scan(space, action, "nerve", k_max=2)
    assert (rep.passes_at, rep.fails_at) == (0.13760794434874604,
                                             0.1378677762113696)
    assert rep.witness["mode"] == "lift_not_unique"
    assert rep.provenance == {"grid": "base-critical-values",
                              "grid_size": 875, "search": "exact-minimum"}
    assert_same_bracket(rep, linear_scan(space, action, "nerve", k_max=2))
    rng = np.random.default_rng(15)
    for _ in range(3):
        moved_space, moved_action = _relabelled(space, action,
                                                rng.permutation(space.n))
        moved = threshold_scan(moved_space, moved_action, "nerve", k_max=2)
        assert (moved.passes_at, moved.fails_at, moved.witness["mode"]) == \
            (rep.passes_at, rep.fails_at, "lift_not_unique")
        assert verify_witness(moved_space, moved_action, "nerve",
                              moved.fails_at, moved.witness)


def test_scan_budget_overrun_above_the_threshold_is_not_fatal():
    space, action = _circle12_antipodal()
    grid = [float(v) for v in critical_values(space)]
    q = build_quotient(space, action)
    # the largest complex the linear walk builds is the one at fails_at
    budget = vr_complex(q.space, 0.25, convention="lt", dim_cap=3).total
    oracle = linear_scan(space, action, "diameter", k_max=3, budget=budget)
    assert oracle.fails_at == 0.25
    # a check beyond fails_at would overrun this budget
    assert grid.index(0.25) == 2
    with pytest.raises(BudgetExceededError):
        vr_complex(q.space, grid[3], convention="lt", dim_cap=3, budget=budget)
    rep = threshold_scan(space, action, "diameter", k_max=3, budget=budget)
    assert_same_bracket(rep, oracle)


def test_scan_budget_overrun_below_the_threshold_raises():
    space, action = _circle12_antipodal()
    with pytest.raises(BudgetExceededError):
        linear_scan(space, action, "diameter", k_max=3, budget=10)
    with pytest.raises(BudgetExceededError):
        threshold_scan(space, action, "diameter", k_max=3, budget=10)


def test_scan_whose_doubled_points_fix_the_bracket_walks_no_lifts():
    # under leq the torus's doubled-point scale is the first grid value, so
    # fails_at is that value whatever the edges' lifts give, and the check
    # there fails on its doubled points before any budgeted walk: at budget
    # 10 the scan reports what the default budget does
    spec, generators = SHIPPED_SHAPES["torus14"]
    space = generate_space(spec)
    action = close_group(space.n, generators(space.n))
    for k_max in (2, 3):
        rep = threshold_scan(space, action, "nerve", k_max=k_max, convention="leq")
        assert rep.fails_at == float(critical_values(space)[0])
        assert rep.witness["part"] == "doubles"
        small = threshold_scan(space, action, "nerve", k_max=k_max, convention="leq",
                               budget=10)
        assert small.to_dict() == rep.to_dict()


def _threefold_circle36():
    space = generate_space(ShapeSpec("evenly-spaced-circle",
                                     {"n": 36, "circumference": 3.0}))
    return space, close_group(36, [circle_rotation_generator(36, 12)])


def _free_action(rng, shape):
    """A random rotated cloud, a circle mod a rotation, or a paired sphere
    mod its swap: small free actions, exact or built in floats."""
    if shape == "cloud":
        return random_rotated_cloud(rng, m=int(rng.integers(2, 5)), k=int(rng.integers(2, 4)))
    if shape == "circle":
        m, per = int(rng.integers(2, 5)), int(rng.integers(3, 7))
        space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": m * per}))
        return space, close_group(m * per, [circle_rotation_generator(m * per, per)])
    count = int(rng.choice([6, 8, 12]))
    space = generate_space(ShapeSpec(
        "geodesic-sphere", {"dim": 2, "count": count, "paired": True},
        seed=int(rng.integers(0, 4))))
    return space, close_group(2 * count, [paired_swap_generator(count)])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), shape=st.sampled_from(["cloud", "circle", "sphere"]),
       where=st.floats(0.0, 1.0), k_max=st.integers(0, 4),
       convention=st.sampled_from(["lt", "leq"]))
def test_checks_match_subset_oracle(seed, shape, where, k_max, convention):
    # the forced-lift rule against the per-subset searches it replaced, at a
    # critical value of the base the checks run on: verdict and witness
    # equal those of the searches over every dimension up to k_max, and
    # subsets_checked those of the searches up to the capped dimension (2
    # for diameter, 1 for nerve), the last the check decides
    space, action = _free_action(np.random.default_rng(seed), shape)
    grid = critical_values(build_quotient(space, action).base)
    r = float(grid[int(where * (len(grid) - 1))])
    for got, cap in ((diameter_action_check(space, action, r, k_max=k_max), 2),
                     (nerve_action_check(space, action, r, k_max=k_max,
                                         convention=convention), 1)):
        oracle = subset_check_oracle(space, action, got.kind, r, k_max, got.convention)
        assert {**got.to_dict(), "subsets_checked": 0} == \
            {**oracle.to_dict(), "subsets_checked": 0}
        capped = subset_check_oracle(space, action, got.kind, r, min(k_max, cap),
                                     got.convention)
        assert got.subsets_checked == capped.subsets_checked


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), shape=st.sampled_from(["cloud", "circle", "sphere"]),
       k_max=st.integers(0, 4), kind=st.sampled_from(["diameter", "nerve"]),
       convention=st.sampled_from(["lt", "leq"]))
def test_scan_brackets_equal_the_per_dimension_walks(seed, shape, k_max, kind, convention):
    # the failure scale from the arrays at representatives (diameter) and
    # the edges' walk (nerve) against the walk of every dimension up to
    # k_max that they replaced: the same bracket on the grid
    space, action = _free_action(np.random.default_rng(seed), shape)
    rep = threshold_scan(space, action, kind, k_max=k_max, convention=convention)
    q = build_quotient(space, action)
    grid = critical_values(q.base).tolist()
    t = walk_failure_scale(q, kind, k_max)
    strict = kind == "diameter" or convention == "lt"
    i = int(np.searchsorted(grid, t, side="right" if strict else "left"))
    assert (rep.passes_at, rep.fails_at) == (grid[i - 1] if i else 0.0,
                                             grid[i] if i < len(grid) else math.inf)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9), shape=st.sampled_from(["cloud", "circle", "sphere"]),
       where=st.floats(0.0, 1.0))
def test_a_pass_certifies_every_dimension_on_free_actions(seed, shape, where):
    # edges and triangles decide the diameter check, and edges the nerve
    # check, in every dimension: a pass at the capped k_max gives isomorphic
    # complexes up to dimension q - 1, every subset of the q orbits, at the
    # scan's passes_at and at one more critical value.  The referee decides
    # upstairs; iso_check, which answers such a pass downstairs, must agree
    space, action = _free_action(np.random.default_rng(seed), shape)
    q = build_quotient(space, action)
    grid = critical_values(q.base)
    for kind, complex_kind, convention in (("diameter", "vr", "lt"), ("nerve", "cech", "lt"),
                                           ("nerve", "cech", "leq")):
        k_max = 2 if kind == "diameter" else 1
        rep = threshold_scan(space, action, kind, k_max=k_max, convention=convention)
        for r in {rep.passes_at, float(grid[int(where * (len(grid) - 1))])}:
            if kind == "diameter":
                check = diameter_action_check(space, action, r, k_max=2, quotient=q)
            else:
                check = nerve_action_check(space, action, r, k_max=1, convention=convention,
                                           quotient=q)
            if check.ok:
                cert = full_iso_check(space, action, r, complex_kind, convention,
                                      dim_cap=len(q.reps) - 1)
                assert cert.verdict == "isomorphic", (kind, convention, r)
                assert iso_check(space, action, r, complex_kind, convention,
                                 dim_cap=len(q.reps) - 1).to_dict() == cert.to_dict()


def test_passing_checks_fit_the_budget_of_their_quotient_complex():
    # the budget bounds the quotient complex that a check decides, and no
    # lift search
    space, action = _circle12_antipodal()
    q = build_quotient(space, action)
    budget = vr_complex(q.space, 1 / 6, convention="lt", dim_cap=3).total
    assert diameter_action_check(space, action, 1 / 6, k_max=3, budget=budget).ok
    space, action = _threefold_circle36()
    q = build_quotient(space, action)
    budget = cech_complex(q.space, 0.25, convention="lt", dim_cap=3).total
    assert nerve_action_check(space, action, 0.25, k_max=3, budget=budget).ok


def test_a_failing_check_needs_the_budget_of_its_quotient_complex_alone(tmp_path):
    # at 1/3 orbits {0, 6} have two witnessed lifts, so the nerve check
    # fails on an edge; it builds the quotient Cech complex up to the edges,
    # the last dimension it decides, and the edges' lifts count against no
    # budget, so a budget that holds that complex gives the same result and
    # one simplex less raises
    space, action = _threefold_circle36()
    q = build_quotient(space, action)
    budget = cech_complex(q.space, 1 / 3, convention="lt", dim_cap=1).total
    expected = nerve_action_check(space, action, 1 / 3, k_max=3)
    assert not expected.ok and expected.witness["orbits"] == [0, 6]
    assert nerve_action_check(space, action, 1 / 3, k_max=3, budget=budget) == expected
    with pytest.raises(BudgetExceededError):
        nerve_action_check(space, action, 1 / 3, k_max=3, budget=budget - 1)
    space_path, action_path = tmp_path / "space.json", tmp_path / "action.json"
    assert main(["generate", "--shape", "circle", "--param", "n=36",
                 "--param", "circumference=3.0", "--out", str(space_path)]) == 0
    assert main(["action", "--kind", "rotation", "--steps", "12",
                 "--space", str(space_path), "--out", str(action_path)]) == 0
    argv = ["check", "--kind", "nerve", "--space", str(space_path),
            "--action", str(action_path), "--scale", "1/3",
            "--out", str(tmp_path / "check.json")]
    assert main(argv + ["--budget", str(budget)]) == 0
    assert main(argv + ["--budget", str(budget - 1)]) == 4
