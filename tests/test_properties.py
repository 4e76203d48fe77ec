import itertools
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from orbitrips.actions import build_quotient
from orbitrips.cli import parse_scale
from orbitrips.complexes import cech_complex, vr_complex, vr_filtration
from orbitrips.persistence import betti_at, homology_oracle, reduce_filtration
from orbitrips.spaces import critical_values, validate_metric
from orbitrips.thresholds import (ball_threshold, diameter_action_check,
                                  distance_threshold)

from conftest import (brute_cech, brute_vr, full_iso_check, random_cloud_space,
                      random_rotated_cloud, tuples)

SEEDS = st.integers(min_value=0, max_value=10**9)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(4, 7), pick=st.floats(0.05, 0.95))
def test_vr_and_cech_match_brute(seed, n, pick):
    space = random_cloud_space(np.random.default_rng(seed), n=n)
    cv = critical_values(space)
    r = float(cv[int(pick * (len(cv) - 1))])
    for convention in ("leq", "lt"):
        vr = vr_complex(space, r, convention, dim_cap=3)
        assert {d: tuples(s) for d, s in vr.simplices.items()} == \
            {d: s for d, s in brute_vr(space.dist, r, convention, 3).items() if s}
        ce = cech_complex(space, r, convention, dim_cap=3)
        assert {d: tuples(s) for d, s in ce.simplices.items()} == \
            {d: s for d, s in brute_cech(space.dist, r, convention, 3).items() if s}


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(4, 9), pick=st.floats(0.0, 1.0))
def test_betti_at_matches_dense_oracle(seed, n, pick):
    # betti_at shares its reduction engine with the barcode, so the dense
    # elimination is its independent referee, under both conventions
    space = random_cloud_space(np.random.default_rng(seed), n=n)
    cv = critical_values(space)
    r = float(cv[int(pick * (len(cv) - 1))])
    for convention in ("leq", "lt"):
        assert betti_at(space, r, convention, 3).values == \
            homology_oracle(vr_complex(space, r, convention, 3)), (r, convention)


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, m=st.integers(2, 4), k=st.integers(2, 4))
def test_quotient_metric_properties(seed, m, k):
    space, action = random_rotated_cloud(np.random.default_rng(seed), m=m, k=k)
    q = build_quotient(space, action)
    D, Q = space.dist, q.space.dist
    assert np.array_equal(Q, Q.T)
    assert validate_metric(q.space).ok
    # contraction: the projection never increases distances
    for x in range(space.n):
        for y in range(space.n):
            assert Q[q.proj[x], q.proj[y]] <= D[x, y]
    # realization: every quotient distance is an actual base distance
    base_vals = set(D.ravel().tolist())
    assert all(v in base_vals for v in Q.ravel().tolist())


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, m=st.integers(2, 4), k=st.integers(2, 4))
def test_ball_passes_at_least_half_of_distance(seed, m, k):
    # balls around x and g.x meeting at y force d(x, g.x) < 2r, so the ball
    # property at r follows from the distance property at 2r
    space, action = random_rotated_cloud(np.random.default_rng(seed), m=m, k=k)
    dist = distance_threshold(space, action)
    ball = ball_threshold(space, action)
    assert ball.passes_at >= dist.passes_at / 2 - 1e-12


@settings(max_examples=12, deadline=None)
@given(seed=SEEDS, pick=st.floats(0.05, 0.95))
def test_diameter_pass_forces_iso(seed, pick):
    space, action = random_rotated_cloud(np.random.default_rng(seed), m=3, k=2)
    cv = critical_values(space)
    r = float(cv[int(pick * (len(cv) - 1))])
    if diameter_action_check(space, action, r, k_max=3).ok:
        cert = full_iso_check(space, action, r, "vr", "lt")
        assert cert.verdict == "isomorphic"


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, n=st.integers(5, 9))
def test_barcode_invariants(seed, n):
    space = random_cloud_space(np.random.default_rng(seed), n=n)
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    below = float(critical_values(space)[0]) / 2
    assert bc.betti_alive_at(below) == (n, 0, 0)
    top = float(space.dist.max())
    assert bc.betti_alive_at(top) == (1, 0, 0)
    for d in range(bc.dim_cap):
        bars = bc.bars(d)
        assert bars == sorted(bars)
        for birth, death in bars:
            assert 0.0 <= birth < death


@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, n=st.integers(5, 8), pick=st.floats(0.1, 0.9))
def test_barcode_matches_oracle(seed, n, pick):
    space = random_cloud_space(np.random.default_rng(seed), n=n)
    cv = critical_values(space)
    r = float(cv[int(pick * (len(cv) - 1))])
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    cx = vr_complex(space, r, "leq", dim_cap=3)
    assert bc.betti_alive_at(r, "leq") == homology_oracle(cx)


@settings(max_examples=25, deadline=None)
@given(num=st.integers(1, 999), den=st.integers(1, 999))
def test_parse_scale_fractions(num, den):
    assert parse_scale(f"{num}/{den}") == num / den
    assert parse_scale(f"{num}pi/{den}") == num * math.pi / den


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, n=st.integers(4, 8), pick=st.floats(0.05, 0.95))
def test_complex_inclusions(seed, n, pick):
    space = random_cloud_space(np.random.default_rng(seed), n=n)
    cv = critical_values(space)
    r = float(cv[int(pick * (len(cv) - 1))])
    vr_lt = vr_complex(space, r, "lt", dim_cap=3)
    vr_leq = vr_complex(space, r, "leq", dim_cap=3)
    ce_lt = cech_complex(space, r, "lt", dim_cap=3)
    vr_2r = vr_complex(space, 2 * r, "lt", dim_cap=3)
    for d in range(4):
        lt = set(tuples(vr_lt.simplices.get(d, [])))
        assert lt <= set(tuples(vr_leq.simplices.get(d, [])))
        assert lt <= set(tuples(ce_lt.simplices.get(d, [])))
        assert set(tuples(ce_lt.simplices.get(d, []))) <= set(tuples(vr_2r.simplices.get(d, [])))
