import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitrips import complexes
from orbitrips.actions import antipodal_generator, close_group
from orbitrips.complexes import (BudgetExceededError, _witness_graph, ball_rows,
                                 cech_complex, simplex_counts, vr_complex, vr_filtration)
from orbitrips.persistence import betti_at
from orbitrips.spaces import (FiniteMetricSpace, ShapeSpec, critical_values,
                              generate_space)
from orbitrips.thresholds import diameter_action_check, nerve_action_check

from conftest import (brute_cech, brute_vr, clique_oracle, int_masks,
                      random_cloud_space, tuples)


def _assert_same(cx, brute):
    dims = set(cx.simplices) | {d for d, s in brute.items() if s}
    for d in dims:
        assert tuples(cx.simplices.get(d, [])) == brute.get(d, []), f"dim {d} differs"


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


def _graph_masks(space, r, convention) -> list[int]:
    """The packed rows of the pairwise-witness graph at r, read as int masks."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in _witness_graph(ball_rows(space, r, convention))]


@pytest.mark.parametrize("convention", ["leq", "lt"])
def test_witness_graph_equals_pairwise_double_loop(rng, convention):
    for _ in range(8):
        space = random_cloud_space(rng, n=int(rng.integers(2, 14)))
        n = space.n
        for r in [float(v) for v in critical_values(space)] + [0.0]:
            balls = int_masks(space, r, convention)
            pairs = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if balls[i] & balls[j]:
                        pairs[i] |= 1 << j
                        pairs[j] |= 1 << i
            graph = _graph_masks(space, r, convention)
            with mock.patch.object(complexes, "_CHUNK_BYTES", 1):  # a row at a time
                assert _graph_masks(space, r, convention) == graph
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
        for d, rows in cx.simplices.items():
            simps = tuples(rows)
            assert simps == sorted(simps)
            assert len(set(simps)) == len(simps)
            for s in simps:
                assert list(s) == sorted(s)
                if d > 0:
                    faces = set(tuples(cx.simplices[d - 1]))
                    for face in itertools.combinations(s, d):
                        assert face in faces


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
            assert set(tuples(lt.simplices[d])) <= set(tuples(leq.simplices.get(d, [])))
        for d in small.simplices:
            assert set(tuples(small.simplices[d])) <= set(tuples(big.simplices.get(d, [])))


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
            assert set(tuples(vr1.simplices[d])) <= set(tuples(ce.simplices.get(d, [])))
        for d in ce.simplices:
            assert set(tuples(ce.simplices[d])) <= set(tuples(vr2.simplices.get(d, [])))


def test_cech_circle6_just_past_first_critical():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    cx = cech_complex(space, 1 / 6 + 1e-9, "lt", dim_cap=3)
    assert cx.counts == {0: 6, 1: 12, 2: 6}
    triangles = tuples(cx.simplices[2])
    assert (0, 1, 2) in triangles       # witnessed by 1
    assert (0, 2, 4) not in triangles   # pairwise-intersecting balls, empty triple


def test_lex_index_finds_only_listed_simplices():
    # circle(12) at 0.2: edges join points one or two steps apart, and
    # triangles span two steps; no tetrahedra
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    cx = vr_complex(space, 0.2, "leq", dim_cap=3)

    def found(rows):
        hit = np.ones(len(rows), dtype=bool)
        ranks = cx.index.rank(np.array(rows).T, hit)
        return hit, ranks

    for d, rows in cx.simplices.items():
        hit, ranks = found(rows)
        assert hit.all() and np.array_equal(ranks, np.arange(len(rows)))
    assert found([(2, 1), (0, 3)])[0].tolist() == [False, False]  # unsorted; not an edge
    assert not found([(0, 1, 2, 3)])[0][0]                         # above the top dimension


def test_tally_counts_rows_per_simplex_and_rejects_non_simplices():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    cx = vr_complex(space, 0.2, "leq", dim_cap=3)
    edges = cx.simplices[1]
    ranks, count = cx.tally(1, edges[[3, 0, 3]])
    assert ranks.tolist() == [3, 0, 3]
    assert count.tolist() == [1, 0, 0, 2] + [0] * (len(edges) - 4)
    ranks, count = cx.tally(3, np.zeros((0, 4), dtype=np.int32))  # no tetrahedra
    assert len(ranks) == len(count) == 0
    for dim, rows in ((1, [(2, 1)]), (1, [(0, 3)]), (3, [(0, 1, 2, 3)])):
        with pytest.raises(AssertionError):  # unsorted; not an edge; no tetrahedra
            cx.tally(dim, np.array(rows))


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


def _unpacked(rows, n):
    return np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(bool)


def test_ball_rows_match_distance_comparisons(rng):
    for _ in range(6):
        space = random_cloud_space(rng, n=int(rng.integers(2, 12)))
        D, n = space.dist, space.n
        off = ~np.eye(n, dtype=bool)
        for r in [float(v) for v in critical_values(space)] + [float(D.max()) * 2]:
            for convention, inside in (("leq", D <= r), ("lt", D < r)):
                rows = _unpacked(ball_rows(space, r, convention), n)
                assert np.array_equal(rows[off], inside[off])
                own = r > 0 or convention == "leq"
                assert np.array_equal(rows.diagonal(), np.full(n, own))


def test_ball_rows_at_zero_and_below(rng):
    space = random_cloud_space(rng, n=7)
    assert np.array_equal(_unpacked(ball_rows(space, 0.0, "leq"), 7), np.eye(7, dtype=bool))
    assert not ball_rows(space, 0.0, "lt").any()
    for convention in ("leq", "lt"):
        assert not ball_rows(space, -0.5, convention).any()
    with pytest.raises(ValueError):
        ball_rows(space, 1.0, "le")


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
            assert by_dim.get(d, set()) == set(tuples(cx.simplices.get(d, [])))
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


def test_negative_dim_cap_and_k_max_rejected():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [antipodal_generator(12)])
    for build in (vr_complex, cech_complex):
        with pytest.raises(ValueError):
            build(space, 0.2, "leq", dim_cap=-1)
        assert build(space, 0.2, "leq", dim_cap=0).counts == {0: 12}
    for max_scale in (None, 0.2):
        with pytest.raises(ValueError):
            vr_filtration(space, dim_cap=-2, max_scale=max_scale)
        assert vr_filtration(space, dim_cap=0, max_scale=max_scale).total == 12
    with pytest.raises(ValueError):
        betti_at(space, 0.2, "leq", dim_cap=-1)
    assert betti_at(space, 0.2, "leq", dim_cap=0).values == ()
    # 0.6 fails the doubled-point part, which is checked before any subset
    for r in (0.2, 0.6):
        for check in (diameter_action_check, nerve_action_check):
            with pytest.raises(ValueError):
                check(space, action, r, k_max=-1)
    assert diameter_action_check(space, action, 0.2, k_max=0).ok
    assert not nerve_action_check(space, action, 0.6, k_max=0).ok


# ---------------------------------------------------------------------------
# the array walk against the tuple walker it replaced (conftest.clique_oracle),
# through the pre-array wrappers: complexes, their order, filtration values
# bit for bit, and the dimension a budget overflows at


def _oracle_vr(space, r, convention, dim_cap, budget):
    return clique_oracle(space.n, int_masks(space, r, convention), dim_cap, budget)[0]


def _oracle_cech(space, r, convention, dim_cap, budget):
    balls = int_masks(space, r, convention)

    def child_state(state, simplex, v):
        w = state & balls[v]
        return w if w else None

    return clique_oracle(space.n, _graph_masks(space, r, convention), dim_cap, budget,
                         child_state=child_state, root_state=balls.__getitem__)[0]


def _oracle_filtration(space, dim_cap, budget, max_scale):
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

    simplices, values = clique_oracle(n, int_masks(space, max_scale, "leq"), dim_cap,
                                      budget, child_state=child_state,
                                      root_state=lambda v: 0.0)
    entries = [e for d in simplices for e in zip(values[d], simplices[d])]
    entries.sort(key=lambda e: (e[0], len(e[1]), e[1]))
    return entries


def _outcome(fn):
    """("ok", result), ("budget", dim_reached) or ("invalid", None)."""
    try:
        return "ok", fn()
    except BudgetExceededError as exc:
        return "budget", exc.dim_reached
    except ValueError:
        return "invalid", None


def _array_walk(kind, space, r, convention, dim_cap, budget):
    """The library's result in the oracle's terms: complexes as tuple lists
    per dimension, filtrations as entries with values as float.hex."""
    if kind in ("vr", "cech"):
        build = vr_complex if kind == "vr" else cech_complex
        cx = build(space, r, convention, dim_cap=dim_cap, budget=budget)
        return {d: tuples(s) for d, s in cx.simplices.items()}
    filt = vr_filtration(space, dim_cap, budget, max_scale=r if kind == "cut" else None)
    return [(value.hex(), verts) for value, verts in filt.entries]


def _tuple_walk(kind, space, r, convention, dim_cap, budget):
    if kind == "vr":
        return _oracle_vr(space, r, convention, dim_cap, budget)
    if kind == "cech":
        return _oracle_cech(space, r, convention, dim_cap, budget)
    entries = _oracle_filtration(space, dim_cap, budget, r if kind == "cut" else None)
    return [(value.hex(), verts) for value, verts in entries]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.sampled_from([0, 1, 2, 5, 9, 17, 65, 130]),
       shape=st.sampled_from(["cloud", "circle"]), dim_cap=st.integers(0, 4),
       where=st.floats(-0.2, 1.2), chunk=st.sampled_from([1, 20, 1 << 17]))
def test_array_walk_matches_clique_oracle(seed, n, shape, dim_cap, where, chunk):
    if n <= 1:
        space = FiniteMetricSpace(np.zeros((n, n)))
    elif shape == "circle" and n >= 3:
        space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": n}))
    else:
        space = random_cloud_space(np.random.default_rng(seed), n)
    cv = critical_values(space)
    if where < 0:
        r = -0.5  # every ball empty
    elif where > 1 or not len(cv):
        r = 2.0 * float(space.dist.max(initial=0.0))
    else:
        r = float(cv[int(where * (len(cv) - 1))])
    cases = [("vr", "leq"), ("vr", "lt"), ("cech", "leq"), ("cech", "lt"),
             ("filtration", "leq"), ("cut", "leq")]
    with mock.patch.object(complexes, "_CHUNK_BYTES", chunk):
        for kind, convention in cases:
            args = (kind, space, r, convention, dim_cap)
            got = _outcome(lambda: _array_walk(*args, budget=20_000))
            assert got == _outcome(lambda: _tuple_walk(*args, budget=20_000)), kind
            if got[0] != "ok":
                continue
            # budgets on both sides of every dimension boundary
            if kind in ("vr", "cech"):
                sizes = [len(got[1][d]) for d in sorted(got[1])]
            else:
                sizes = np.bincount([len(verts) - 1 for _, verts in got[1]]).tolist()
            for boundary in np.cumsum(sizes).tolist():
                for budget in (boundary - 1, boundary):
                    assert _outcome(lambda: _array_walk(*args, budget=budget)) == \
                        _outcome(lambda: _tuple_walk(*args, budget=budget)), (kind, budget)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.sampled_from([0, 1, 2, 5, 9, 17, 65]),
       shape=st.sampled_from(["cloud", "circle"]), dim_cap=st.integers(0, 4),
       chunk=st.sampled_from([1, 20, 1 << 17]))
def test_simplex_counts_match_the_built_complexes(seed, n, shape, dim_cap, chunk):
    # the top dimension counted, not stored, chunk by chunk: the same counts
    # as the complexes hold, and the same overruns at every budget on both
    # sides of each dimension boundary, at critical values across the range
    if n <= 1:
        space = FiniteMetricSpace(np.zeros((n, n)))
    elif shape == "circle" and n >= 3:
        space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": n}))
    else:
        space = random_cloud_space(np.random.default_rng(seed), n)
    cv = critical_values(space).tolist() or [1.0]
    scales = [cv[int(where * (len(cv) - 1))] for where in (0.1, 0.3, 0.5, 0.7)]
    with mock.patch.object(complexes, "_CHUNK_BYTES", chunk):
        for (kind, build), r, convention in itertools.product(
                (("vr", vr_complex), ("cech", cech_complex)), scales, ("leq", "lt")):
            built = _outcome(lambda: build(space, r, convention, dim_cap, 20_000))
            assert _outcome(lambda: simplex_counts(
                space, kind, r, convention, dim_cap, 20_000))[0] == built[0]
            if built[0] != "ok":
                continue
            sizes = [len(built[1].simplices.get(d, ())) for d in range(dim_cap + 1)]
            assert simplex_counts(space, kind, r, convention, dim_cap) == \
                dict(enumerate(sizes))
            for boundary in np.cumsum(sizes).tolist():
                for budget in (boundary - 1, boundary):
                    counted = _outcome(lambda: simplex_counts(
                        space, kind, r, convention, dim_cap, budget))
                    capped = _outcome(lambda: build(space, r, convention, dim_cap, budget))
                    assert counted[0] == capped[0]
                    if capped[0] == "budget":
                        assert counted[1] == capped[1], (kind, budget)
