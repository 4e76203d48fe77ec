import itertools
import math

import numpy as np
import pytest

from orbitrips.complexes import (BudgetExceededError, _witness_graph, ball_masks,
                                 cech_complex, vr_complex, vr_filtration)
from orbitrips.spaces import (ShapeSpec, critical_values, generate_space)

from conftest import brute_cech, brute_vr, random_cloud_space


def _assert_same(cx, brute):
    dims = set(cx.simplices) | {d for d, s in brute.items() if s}
    for d in dims:
        assert cx.simplices.get(d, []) == brute.get(d, []), f"dim {d} differs"


@pytest.mark.parametrize("convention", ["leq", "lt"])
def test_vr_matches_brute_on_random_spaces(rng, convention):
    for _ in range(8):
        space = random_cloud_space(rng, n=9)
        cv = critical_values(space)
        for r in [cv[2], cv[len(cv) // 2], cv[-2], float(cv[0]) / 2]:
            cx = vr_complex(space, float(r), convention, dim_cap=3)
            _assert_same(cx, brute_vr(space.dist, float(r), convention, 3))


@pytest.mark.parametrize("convention", ["leq", "lt"])
def test_cech_matches_brute_on_random_spaces(rng, convention):
    for _ in range(8):
        space = random_cloud_space(rng, n=9)
        cv = critical_values(space)
        for r in [cv[2], cv[len(cv) // 2], cv[-2]]:
            cx = cech_complex(space, float(r), convention, dim_cap=3)
            _assert_same(cx, brute_cech(space.dist, float(r), convention, 3))


@pytest.mark.parametrize("convention", ["leq", "lt"])
def test_witness_graph_equals_pairwise_double_loop(rng, convention):
    for _ in range(8):
        space = random_cloud_space(rng, n=int(rng.integers(2, 14)))
        n = space.n
        for r in [float(v) for v in critical_values(space)] + [0.0]:
            balls = ball_masks(space, r, convention)
            pairs = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if balls[i] & balls[j]:
                        pairs[i] |= 1 << j
                        pairs[j] |= 1 << i
            graph = _witness_graph(balls)
            # off the diagonal the rows agree; a row's own bit is set iff its ball is nonempty
            assert [row & ~(1 << i) for i, row in enumerate(graph)] == pairs
            assert [bool(row >> i & 1) for i, row in enumerate(graph)] == [b != 0 for b in balls]


def test_conventions_differ_exactly_at_critical_values():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 8}))
    r = 1 / 8
    leq = vr_complex(space, r, "leq")
    lt = vr_complex(space, r, "lt")
    assert len(leq.simplices[1]) == 8   # edges at exactly 1/8 included
    assert 1 not in lt.simplices        # and excluded strictly below


def test_downward_closure_and_lex_order(rng):
    space = random_cloud_space(rng, n=10)
    r = float(np.median(space.dist))
    for cx in (vr_complex(space, r, "leq", dim_cap=4),
               cech_complex(space, r, "leq", dim_cap=4)):
        for d, simps in cx.simplices.items():
            assert simps == sorted(simps)
            assert len(set(simps)) == len(simps)
            for s in simps:
                assert list(s) == sorted(s)
                if d > 0:
                    for face in itertools.combinations(s, d):
                        assert cx.contains(face)


def test_lt_subset_of_leq_and_monotone_in_r(rng):
    space = random_cloud_space(rng, n=9)
    cv = critical_values(space)
    r1, r2 = float(cv[len(cv) // 3]), float(cv[2 * len(cv) // 3])
    for build in (vr_complex, cech_complex):
        lt = build(space, r1, "lt")
        leq = build(space, r1, "leq")
        small = build(space, r1, "leq")
        big = build(space, r2, "leq")
        for d in lt.simplices:
            assert set(lt.simplices[d]) <= set(leq.simplices.get(d, []))
        for d in small.simplices:
            assert set(small.simplices[d]) <= set(big.simplices.get(d, []))


def test_vr_cech_vr_sandwich(rng):
    # VR_lt(r) <= Cech_lt(r): any vertex of a VR simplex witnesses it;
    # Cech_lt(r) <= VR_lt(2r): triangle inequality through the witness
    for _ in range(4):
        space = random_cloud_space(rng, n=10)
        r = float(np.quantile(space.dist, 0.4))
        vr1 = vr_complex(space, r, "lt")
        ce = cech_complex(space, r, "lt")
        vr2 = vr_complex(space, 2 * r, "lt")
        for d in vr1.simplices:
            assert set(vr1.simplices[d]) <= set(ce.simplices.get(d, []))
        for d in ce.simplices:
            assert set(ce.simplices[d]) <= set(vr2.simplices.get(d, []))


def test_cech_circle6_just_past_first_critical():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    cx = cech_complex(space, 1 / 6 + 1e-9, "lt", dim_cap=3)
    assert cx.counts == {0: 6, 1: 12, 2: 6}
    assert cx.contains((0, 1, 2))       # witnessed by 1
    assert not cx.contains((0, 2, 4))   # pairwise-intersecting balls, empty triple


def test_contains_answers_only_listed_simplices():
    # circle(12) at 0.2: edges join points one or two steps apart, and
    # triangles span two steps; no tetrahedra
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    cx = vr_complex(space, 0.2, "leq", dim_cap=3)
    listed = [s for d in cx.simplices for s in cx.simplices[d]]
    assert all(cx.contains(s) for s in listed)
    assert cx.contains((1, 2)) and cx.contains((0, 1, 2))
    assert not cx.contains((2, 1))            # unsorted
    assert not cx.contains((0, 3))            # not an edge
    assert not cx.contains((0, 14))           # its key would read as (1, 2)
    assert not cx.contains((-1, 0))
    assert not cx.contains(())
    assert not cx.contains((0, 1, 2, 3))      # above the top dimension


def test_cech_sees_farther_than_vr_at_same_scale():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    r = 1 / 6 + 1e-9
    vr = vr_complex(space, r, "lt")
    ce = cech_complex(space, r, "lt")
    assert vr.counts[1] == 6            # only the 6 nearest-neighbor edges
    assert ce.counts[1] == 12           # ball overlaps reach two steps


def test_budget_exceeded(rng):
    space = random_cloud_space(rng, n=12)
    big_r = float(space.dist.max()) * 2
    with pytest.raises(BudgetExceededError) as ei:
        vr_complex(space, big_r, "leq", dim_cap=3, budget=11)
    assert ei.value.dim_reached == 0
    with pytest.raises(BudgetExceededError) as ei:
        vr_complex(space, big_r, "leq", dim_cap=3, budget=20)
    assert ei.value.dim_reached == 1
    with pytest.raises(BudgetExceededError):
        cech_complex(space, big_r, "leq", dim_cap=3, budget=20)
    with pytest.raises(BudgetExceededError):
        vr_filtration(space, dim_cap=3, budget=20)


def test_bad_convention_rejected(rng):
    space = random_cloud_space(rng, n=5)
    with pytest.raises(ValueError):
        vr_complex(space, 1.0, "le")
    with pytest.raises(ValueError):
        cech_complex(space, 1.0, "<=")


def _mask_rows(masks, n):
    return np.array([[bool(m >> y & 1) for y in range(n)] for m in masks])


def test_ball_masks_match_distance_comparisons(rng):
    for _ in range(6):
        space = random_cloud_space(rng, n=int(rng.integers(2, 12)))
        D, n = space.dist, space.n
        off = ~np.eye(n, dtype=bool)
        for r in [float(v) for v in critical_values(space)] + [float(D.max()) * 2]:
            for convention, inside in (("leq", D <= r), ("lt", D < r)):
                rows = _mask_rows(ball_masks(space, r, convention), n)
                assert np.array_equal(rows[off], inside[off])
                own = r > 0 or convention == "leq"
                assert np.array_equal(rows.diagonal(), np.full(n, own))


def test_ball_masks_at_zero_and_below(rng):
    space = random_cloud_space(rng, n=7)
    assert ball_masks(space, 0.0, "leq") == [1 << x for x in range(7)]
    assert ball_masks(space, 0.0, "lt") == [0] * 7
    for convention in ("leq", "lt"):
        assert ball_masks(space, -0.5, convention) == [0] * 7
    with pytest.raises(ValueError):
        ball_masks(space, 1.0, "le")


def test_filtration_values_are_diameters(rng):
    space = random_cloud_space(rng, n=8)
    filt = vr_filtration(space, dim_cap=3)
    assert len(filt.entries) == sum(math.comb(8, k) for k in range(1, 5))
    D = space.dist
    for value, verts in filt.entries:
        if len(verts) == 1:
            assert value == 0.0
        else:
            diam = max(D[a, b] for a, b in itertools.combinations(verts, 2))
            assert value == diam
    keys = [(v, len(s), s) for v, s in filt.entries]
    assert keys == sorted(keys)
    assert max(v for v, _ in filt.entries) == float(D.max())


def test_filtration_faces_precede_cofaces(rng):
    space = random_cloud_space(rng, n=7)
    filt = vr_filtration(space, dim_cap=3)
    position = {verts: i for i, (_, verts) in enumerate(filt.entries)}
    for _, verts in filt.entries:
        if len(verts) > 1:
            for face in itertools.combinations(verts, len(verts) - 1):
                assert position[face] < position[verts]


def test_cut_filtration_matches_fixed_scale_complex(rng):
    space = random_cloud_space(rng, n=8)
    cv = critical_values(space)
    full = vr_filtration(space, dim_cap=3)
    for r in [float(cv[3]), float(cv[len(cv) // 2])]:
        cut = vr_filtration(space, dim_cap=3, max_scale=r)
        assert cut.entries == [e for e in full.entries if e[0] <= r]
        cx = vr_complex(space, r, "leq", dim_cap=3)
        by_dim: dict[int, set] = {}
        for _, verts in cut.entries:
            by_dim.setdefault(len(verts) - 1, set()).add(verts)
        for d in set(by_dim) | set(cx.simplices):
            assert by_dim.get(d, set()) == set(cx.simplices.get(d, []))
    below = vr_filtration(space, dim_cap=3, max_scale=float(cv[0]) / 2)
    assert below.entries == [(0.0, (i,)) for i in range(space.n)]
    top = vr_filtration(space, dim_cap=3, max_scale=float(space.dist.max()))
    assert top.entries == full.entries
    with pytest.raises(ValueError):
        vr_filtration(space, dim_cap=3, max_scale=-0.1)


def test_cut_filtration_budget_counts_only_the_cut(rng):
    space = random_cloud_space(rng, n=12)
    r = float(critical_values(space)[5])
    cut = vr_filtration(space, dim_cap=3, max_scale=r)
    budget = len(cut.entries)
    assert vr_filtration(space, dim_cap=3, budget=budget, max_scale=r).entries == cut.entries
    with pytest.raises(BudgetExceededError):
        vr_filtration(space, dim_cap=3, budget=budget - 1, max_scale=r)
    with pytest.raises(BudgetExceededError):
        vr_filtration(space, dim_cap=3, budget=budget)
