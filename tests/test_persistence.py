import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitrips.complexes import SimplicialComplex, vr_complex, vr_filtration
from orbitrips.persistence import (ORACLE_LIMIT, _reduce, betti_at,
                                   format_barcode_tsv, homology_oracle,
                                   read_barcode_tsv, reduce_filtration)
from orbitrips.spaces import (FiniteMetricSpace, ShapeSpec, critical_values,
                              generate_space)

from conftest import homology_pivots, random_cloud_space, tuples


def test_hexagon_barcode_is_the_octahedron_story():
    # VR of the 6-point circle: hexagon cycle at 1/6, octahedron sphere at 1/3,
    # cone at 1/2
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    assert bc.bars(0) == [(0.0, 1 / 6)] * 5 + [(0.0, math.inf)]
    assert bc.bars(1) == [(1 / 6, 1 / 3)]
    assert bc.bars(2) == [(1 / 3, 0.5)]
    assert bc.betti_alive_at(0.1) == (6, 0, 0)
    assert bc.betti_alive_at(1 / 6) == (1, 1, 0)
    assert bc.betti_alive_at(1 / 3) == (1, 0, 1)
    assert bc.betti_alive_at(0.5) == (1, 0, 0)


def test_alive_conventions_straddle_critical_values():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    # bars are [birth, death): "lt" at a critical value sees the complex just below
    assert bc.betti_alive_at(1 / 6, "lt") == (6, 0, 0)
    assert bc.betti_alive_at(1 / 3, "lt") == (1, 1, 0)
    assert bc.betti_alive_at(0.5, "lt") == (1, 0, 1)


@pytest.mark.parametrize("convention", ["le", "bogus"])
def test_alive_rejects_unknown_conventions(convention):
    # read as "lt", "le" would give (6, 0, 0) at 1/6, where "leq" gives (1, 1, 0)
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    with pytest.raises(ValueError):
        bc.betti_alive_at(1 / 6, convention)


@pytest.mark.parametrize("convention", ["leq", "lt"])
def test_barcode_agrees_with_rank_betti(rng, convention):
    for _ in range(6):
        space = random_cloud_space(rng, n=10)
        bc = reduce_filtration(vr_filtration(space, dim_cap=3))
        cv = critical_values(space)
        picks = [float(cv[i]) for i in rng.integers(0, len(cv), size=3)]
        picks += [float(cv[0]) / 2, float((cv[3] + cv[4]) / 2)]
        for r in picks:
            bv = betti_at(space, r, convention, dim_cap=3)
            assert bc.betti_alive_at(r, convention) == bv.values, (r, convention)


def test_barcode_agrees_with_dense_oracle(rng):
    for _ in range(6):
        space = random_cloud_space(rng, n=9)
        bc = reduce_filtration(vr_filtration(space, dim_cap=3))
        cv = critical_values(space)
        for r in [float(cv[len(cv) // 4]), float(cv[len(cv) // 2]), float(cv[-3])]:
            cx = vr_complex(space, r, "leq", dim_cap=3)
            assert bc.betti_alive_at(r, "leq") == homology_oracle(cx)


def test_no_zero_length_bars_but_pairs_keep_them(rng):
    space = random_cloud_space(rng, n=10)
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    for d in range(bc.dim_cap):
        for birth, death in bc.bars(d):
            assert birth < death
        for (birth, _), death in bc.pairs[d]:
            if death is not None:
                assert birth <= death[0]
    # every dropped bar corresponds to a same-value pair
    for d in range(bc.dim_cap):
        dropped = sum(1 for (b, _), dd in bc.pairs[d]
                      if dd is not None and dd[0] == b)
        assert len(bc.pairs[d]) == len(bc.bars(d)) + dropped


def test_pairing_is_graded_and_ordered(rng):
    space = random_cloud_space(rng, n=8)
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    for d in range(bc.dim_cap):
        for (birth, verts), death in bc.pairs[d]:
            assert len(verts) == d + 1
            if death is not None:
                dval, dverts = death
                assert len(dverts) == d + 2  # killers live one dimension up
                assert dval >= birth


def test_essential_classes_count_matches_components(rng):
    space = random_cloud_space(rng, n=9)
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    essentials = [sum(1 for _, dd in bc.bars(d) if math.isinf(dd))
                  for d in range(3)]
    # past the max distance everything is a simplex: one component, nothing else
    assert essentials == [1, 0, 0]


def test_betti_at_euler_provenance():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    assert betti_at(space, 1 / 6, "leq").provenance["euler"] == "verified"
    assert betti_at(space, 0.5, "leq").provenance["euler"] == "skipped"


def test_oracle_refuses_oversized_complexes():
    n = ORACLE_LIMIT + 1
    cx = SimplicialComplex(n, "vr", "leq", 0.0, 0, {0: [(i,) for i in range(n)]})
    with pytest.raises(ValueError):
        homology_oracle(cx)


def test_filtration_hash_keys_the_input(rng):
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 7}))
    h1 = reduce_filtration(vr_filtration(space, dim_cap=2)).provenance["filtration_hash"]
    h2 = reduce_filtration(vr_filtration(space, dim_cap=2)).provenance["filtration_hash"]
    other = random_cloud_space(rng, n=7)
    h3 = reduce_filtration(vr_filtration(other, dim_cap=2)).provenance["filtration_hash"]
    assert h1 == h2 != h3


def test_barcode_tsv_roundtrip(tmp_path):
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 6}))
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    path = tmp_path / "bars.tsv"
    path.write_text(format_barcode_tsv(bc, header_lines=["hexagon barcode"]))
    back = read_barcode_tsv(path)
    for d in range(3):
        assert back.get(d, []) == bc.bars(d)
    text = path.read_text()
    assert text.startswith("# hexagon barcode\n# dim\tbirth\tdeath\n")
    assert "inf" in text


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(3, 11), dim_cap=st.integers(1, 4),
       shape=st.sampled_from(["cloud", "circle"]),
       source=st.sampled_from(["filtration", "cut", "leq", "lt"]),
       pick=st.floats(0.0, 1.0), empty_top=st.booleans())
def test_coboundary_pivots_equal_homology_reduction(seed, n, dim_cap, shape, source,
                                                    pick, empty_top):
    # full filtrations, max_scale cuts (cofaces missing) and lex-ordered
    # complexes; the circle's tied distances exercise the lex tie-breaks
    if shape == "cloud":
        space = random_cloud_space(np.random.default_rng(seed), n)
    else:
        space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": n}))
    cv = critical_values(space)
    r = float(cv[int(pick * (len(cv) - 1))])
    if source in ("filtration", "cut"):
        filt = vr_filtration(space, dim_cap, max_scale=r if source == "cut" else None)
        by_dim = dict(filt.simplices)
        # the arrays list each dimension in entry order
        entries: dict[int, list] = {}
        for _, verts in filt.entries:
            entries.setdefault(len(verts) - 1, []).append(verts)
        assert {d: tuples(s) for d, s in by_dim.items()} == entries
    else:
        by_dim = dict(vr_complex(space, r, source, dim_cap).simplices)
    if empty_top:
        top = max(by_dim) + 1
        by_dim[top] = np.zeros((0, top + 1), dtype=np.int32)
    assert _reduce(space.n, by_dim) == homology_pivots({d: tuples(s) for d, s in by_dim.items()})


def _cross_polytope(k: int) -> np.ndarray:
    """The 2k points +-e_i of R^k; their VR complex at 1.5 is a (k-1)-sphere."""
    return np.concatenate([np.eye(k), -np.eye(k)])


def test_betti_at_is_exact_where_base_n_keys_overflow_int64():
    # 2,000 points and dim_cap 6: the base-n key of a 6-simplex would need
    # n**7 > 2**63.  Spheres of dimensions 1..5 and a solid 7-simplex sit on
    # shuffled labels among isolated points, so b = (components, 1, 1, 1, 1, 1).
    n, dim = 2000, 6
    hexagon = np.array([[math.cos(t), math.sin(t)] for t in np.arange(6) * math.pi / 3])
    clusters = [hexagon] + [_cross_polytope(k) for k in (3, 4, 5, 6)]
    clusters.append(np.random.default_rng(0).uniform(0.0, 0.1, size=(8, dim)))
    pts = np.zeros((n, dim))
    row = 0
    for c, cluster in enumerate(clusters):
        pts[row:row + len(cluster), :cluster.shape[1]] = cluster
        pts[row:row + len(cluster), 0] += 100.0 * (c + 1)
        row += len(cluster)
    grid = np.arange(n - row)
    pts[row:, 0] = -10.0 * (grid % 50) - 100.0
    pts[row:, 1] = 10.0 * (grid // 50)
    pts = pts[np.random.default_rng(1).permutation(n)]
    D = np.zeros((n, n))
    for k in range(dim):
        D += (pts[:, k, None] - pts[None, :, k]) ** 2
    space = FiniteMetricSpace(np.sqrt(D))
    r, dim_cap = 1.5, 6
    cx = vr_complex(space, r, "leq", dim_cap)
    assert len(cx.simplices[6]) == 8
    assert n ** 7 > 2 ** 63
    expected = (n - row + len(clusters), 1, 1, 1, 1, 1)
    assert betti_at(space, r, "leq", dim_cap).values == homology_oracle(cx) == expected
