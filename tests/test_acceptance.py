"""Acceptance suite: eight end-to-end criteria, one test (and one pytest -v
pass/fail line) per criterion, each at its stated tolerance.

1. hexagon Betti ladder through its four homotopy stages (exact)
2. antipodal 12-circle: diameter threshold 1/6 (|err| <= 1e-12), witness, and
   the isomorphic / not-surjective certificate pair around it
3. 42x42 flat torus mod Z/14: diameter threshold 2*pi/21 (|err| <= 1e-9),
   under 2 minutes
4. six-circles(20): isomorphic quotient at 1.0 with per-component collapse
   of the Betti vector, breakdown by 2.5
5. paired 2-spheres (count 150, seeds 0..4): all isomorphic at 0.12, and the
   (1, 1, 1) projective-plane signature on a 0.08..0.13 sweep for >= 4 seeds,
   under 5 minutes per seed
6. nerve thresholds bracket 1/4 within 1/12 (threefold 36-circle) and 1/8
   within 1/48 (antipodal 48-circle)
7. 200 random clouds (<= 25 points): rank-based Betti vectors equal the dense
   elimination oracle at 3 random critical scales each (zero mismatches)
8. 200 random rotated clouds: distance-at-2r implies ball-at-r, and a passing
   diameter check implies an isomorphic certificate with matching per-dim
   counts (zero violations)
"""

import math
import time

import numpy as np

from orbitrips.actions import (antipodal_generator, block_shift_generator,
                               build_quotient, circle_rotation_generator,
                               close_group, paired_swap_generator,
                               torus_grid_shift_generators)
from orbitrips.complexes import vr_complex, vr_filtration
from orbitrips.persistence import betti_at, homology_oracle, reduce_filtration
from orbitrips.quotient_iso import iso_check
from orbitrips.spaces import ShapeSpec, critical_values, generate_space
from orbitrips.thresholds import (ball_threshold, diameter_action_check,
                                  distance_threshold, threshold_scan)

from conftest import full_iso_check, random_cloud_space, random_rotated_cloud


def test_criterion_1_hexagon_betti_ladder():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    ladder = [(0.1, (6, 0, 0)), (1 / 6, (1, 1, 0)),
              (1 / 3, (1, 0, 1)), (0.5, (1, 0, 0))]
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    for r, expected in ladder:
        assert betti_at(space, r, "leq", dim_cap=3).values == expected, r
        assert bc.betti_alive_at(r, "leq") == expected, r
    print("criterion 1: PASS - hexagon ladder (6,0,0)->(1,1,0)->(1,0,1)->(1,0,0)")


def test_criterion_2_antipodal_circle_threshold_and_certificates():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [antipodal_generator(12)])

    scan = threshold_scan(space, action, "diameter", k_max=3)
    assert abs(scan.passes_at - 1 / 6) <= 1e-12
    assert scan.fails_at == 0.25
    assert scan.witness["mode"] == "no_equality_lift"
    assert scan.witness["orbits"] == [0, 2, 4]

    good = iso_check(space, action, 0.16, "vr", "lt")
    assert good.verdict == "isomorphic"
    bad = iso_check(space, action, 1 / 6, "vr", "leq")
    assert bad.verdict == "not-surjective"
    assert bad.counterexample["missing"] == [0, 2, 4]
    print("criterion 2: PASS - diameter threshold 1/6, certificates flip at it")


def test_criterion_3_torus_z14_threshold():
    t0 = time.monotonic()
    space = generate_space(ShapeSpec("flat-torus-grid", {"k": 42}))
    action = close_group(42 * 42, torus_grid_shift_generators(42))
    assert len(action.elements) == 14
    scan = threshold_scan(space, action, "diameter", k_max=3)
    expected_pass = 2 * math.pi / 21
    expected_fail = math.sqrt(5) * math.pi / 21
    assert abs(scan.passes_at - expected_pass) <= 1e-9
    assert abs(scan.fails_at - expected_fail) <= 1e-9
    assert scan.witness["orbits"] == [0, 2, 4]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 3: PASS - torus threshold 2*pi/21 in {elapsed:.1f}s")


def test_criterion_4_six_circles_collapse():
    space = generate_space(ShapeSpec("six-circles", {"m": 20}))
    action = close_group(120, [block_shift_generator(6, 20)])

    cert = iso_check(space, action, 1.0, "vr", "lt", dim_cap=2)
    assert cert.verdict == "isomorphic"
    assert cert.counts_base == {0: 120, 1: 360, 2: 360}
    assert cert.counts_quotient == {0: 20, 1: 60, 2: 60}
    assert betti_at(space, 1.0, "lt", dim_cap=2).values == (6, 6)
    q = build_quotient(space, action)
    assert betti_at(q.space, 1.0, "lt", dim_cap=2).values == (1, 1)

    assert betti_at(space, 2.5, "lt", dim_cap=2).values[0] < 6
    broken = iso_check(space, action, 2.5, "vr", "lt", dim_cap=2)
    assert broken.verdict != "isomorphic"
    print("criterion 4: PASS - six loops fold to one, breakdown by 2.5")


def test_criterion_5_projective_plane_from_paired_spheres():
    isomorphic = 0
    signature_hits = 0
    worst = 0.0
    for seed in range(5):
        t0 = time.monotonic()
        space = generate_space(ShapeSpec(
            "geodesic-sphere", {"dim": 2, "count": 150, "paired": True}, seed=seed))
        action = close_group(300, [paired_swap_generator(150)])
        cert = iso_check(space, action, 0.12, "vr", "lt")
        if cert.verdict == "isomorphic":
            isomorphic += 1
        q = build_quotient(space, action)
        found = False
        for r in (0.08, 0.09, 0.10, 0.11, 0.12, 0.13):
            if betti_at(q.space, r, "lt", dim_cap=3).values == (1, 1, 1):
                found = True
                break
        signature_hits += found
        elapsed = time.monotonic() - t0
        worst = max(worst, elapsed)
        assert elapsed < 300.0, f"seed {seed} took {elapsed:.0f}s"
    assert isomorphic == 5
    assert signature_hits >= 4
    print(f"criterion 5: PASS - 5/5 isomorphic at 0.12, {signature_hits}/5 show "
          f"(1,1,1), worst seed {worst:.1f}s")


def test_criterion_6_nerve_thresholds_bracket():
    space36 = generate_space(ShapeSpec("evenly-spaced-circle",
                                       {"n": 36, "circumference": 3.0}))
    act3 = close_group(36, [circle_rotation_generator(36, 12)])
    scan36 = threshold_scan(space36, act3, "nerve", k_max=3)
    assert scan36.passes_at <= 0.25 <= scan36.fails_at
    assert scan36.fails_at - scan36.passes_at <= 1 / 12 + 1e-12
    assert scan36.passes_at == 0.25 and scan36.fails_at == 1 / 3

    space48 = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 48}))
    act2 = close_group(48, [antipodal_generator(48)])
    scan48 = threshold_scan(space48, act2, "nerve", k_max=3)
    assert scan48.passes_at <= 1 / 8 <= scan48.fails_at
    assert scan48.fails_at - scan48.passes_at <= 1 / 48 + 1e-12
    assert scan48.passes_at == 6 / 48 and scan48.fails_at == 7 / 48
    print("criterion 6: PASS - nerve brackets 1/4 (+/- 1/12) and 1/8 (+/- 1/48)")


def test_criterion_7_betti_against_dense_oracle():
    rng = np.random.default_rng(7)
    mismatches = 0
    checks = 0
    for _ in range(200):
        n = int(rng.integers(5, 26))
        space = random_cloud_space(rng, n=n)
        cv = critical_values(space)
        for i in rng.choice(len(cv), size=3, replace=False):
            r = float(cv[i])
            values = betti_at(space, r, "leq", dim_cap=3).values
            oracle = homology_oracle(vr_complex(space, r, "leq", dim_cap=3))
            checks += 1
            if values != oracle:
                mismatches += 1
    assert mismatches == 0
    print(f"criterion 7: PASS - {checks} oracle comparisons, 0 mismatches")


def test_criterion_8_implication_chain_on_random_actions():
    rng = np.random.default_rng(8)
    ball_violations = 0
    iso_violations = 0
    diameter_passes = 0
    for _ in range(200):
        m = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        space, action = random_rotated_cloud(rng, m=m, k=k)
        dist = distance_threshold(space, action)
        ball = ball_threshold(space, action)
        cv = critical_values(space)
        r = float(cv[int(rng.integers(0, len(cv)))])
        # distance property at 2r forces the ball property at r
        if 2 * r <= dist.passes_at and not r <= ball.passes_at:
            ball_violations += 1
        if ball.passes_at < dist.passes_at / 2 - 1e-12:
            ball_violations += 1
        # a passing diameter check certifies the VR quotient isomorphism, decided
        # upstairs: iso_check itself answers such a pass from the check
        if diameter_action_check(space, action, r, k_max=3).ok:
            diameter_passes += 1
            cert = full_iso_check(space, action, r, "vr", "lt")
            if cert.verdict != "isomorphic":
                iso_violations += 1
            elif cert.counts_orbits != cert.counts_quotient:
                iso_violations += 1
    assert ball_violations == 0
    assert iso_violations == 0
    assert diameter_passes > 20  # the implication must actually get exercised
    print(f"criterion 8: PASS - 200 actions, {diameter_passes} diameter passes, "
          f"0 violations")
