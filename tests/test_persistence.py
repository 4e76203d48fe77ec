import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitrips import persistence
from orbitrips.complexes import (DEFAULT_BUDGET, SimplicialComplex, vr_complex,
                                 vr_filtration)
from orbitrips.persistence import (ORACLE_LIMIT, _lex_complex, _reduce, betti_at,
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


def test_no_zero_length_bars(rng):
    space = random_cloud_space(rng, n=10)
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    for d in range(bc.dim_cap):
        for birth, death in bc.bars(d):
            assert birth < death


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


def _top_killer(filt, key):
    """A top coface key as (value, vertex tuple): value rank * span + lex
    rank of the first dim_cap vertices among the (dim_cap-1)-simplices * n +
    the last vertex, span = (number of (dim_cap-1)-simplices) * n."""
    below = sorted(tuples(filt.simplices[filt.dim_cap - 1]))
    rank, rest = divmod(key, len(below) * filt.n)
    prefix, last = divmod(rest, filt.n)
    return float(filt.table[rank]), below[prefix] + (last,)


def _vertex_pairs(filt, pivots):
    """`_reduce`'s pivots as {d: {face tuple: (killer value, killer tuple)}}."""
    out = {}
    for d, pairs in pivots.items():
        if not pairs:
            continue
        faces = tuples(filt.simplices[d - 1])
        if d < filt.dim_cap:
            cofaces = tuples(filt.simplices[d])
            out[d] = {faces[i]: (float(filt.values[d][j]), cofaces[j]) for i, j in pairs.items()}
        else:
            out[d] = {faces[i]: _top_killer(filt, key) for i, key in pairs.items()}
    return out


def _filtration_and_entries(space, dim_cap, source, r):
    """A full filtration ("filtration"), one cut at r ("cut"), or the
    lex-ordered complex at r ("leq", "lt"), and its (value, vertex tuple)
    entries in entry order, top dimension included."""
    if source in ("filtration", "cut"):
        filt = vr_filtration(space, dim_cap, max_scale=r if source == "cut" else None)
        return filt, filt.entries
    filt = _lex_complex(space, r, source, dim_cap, DEFAULT_BUDGET)
    return filt, [(r, s) for d, rows in sorted(vr_complex(space, r, source, dim_cap).simplices.items())
                  for s in tuples(rows)]


def _assert_pivots_equal_homology_reduction(filt, entries, barcode):
    """`_reduce`'s pairs equal `homology_pivots` on the full complex, and
    with `barcode` the barcode is that pairing without zero-length bars."""
    dim_cap = filt.dim_cap
    # the full complex, every dimension in entry order, which the stored
    # dimensions below the top follow
    full: dict[int, list] = {}
    value = {}
    for v, verts in entries:
        full.setdefault(len(verts) - 1, []).append(verts)
        value[verts] = v
    assert {d: tuples(s) for d, s in filt.simplices.items()} == \
        {d: s for d, s in full.items() if d < dim_cap}
    assert filt.top_count == len(full.get(dim_cap, []))
    assert filt.total == len(entries)

    want = {d: {full[d - 1][i]: full[d][j] for i, j in pairs.items()}
            for d, pairs in homology_pivots(full).items()}
    got = _vertex_pairs(filt, _reduce(filt))
    assert {d: pairs for d, pairs in got.items() if pairs} == \
        {d: {face: (value[k], k) for face, k in pairs.items()}
         for d, pairs in want.items() if pairs}
    # killers live one dimension up and never come before their simplex
    for d, pairs in got.items():
        for face, (death, killer) in pairs.items():
            assert len(face) == d and len(killer) == d + 1
            assert death >= value[face]
    if barcode:
        # the barcode is the pairing with its zero-length bars dropped
        paired = {face: death for pairs in got.values() for face, (death, _) in pairs.items()}
        killers = {killer for pairs in got.values() for _, killer in pairs.values()}
        bars = {}
        for v, verts in entries:
            d = len(verts) - 1
            if d < dim_cap and verts not in killers and paired.get(verts) != v:
                bars.setdefault(d, []).append((v, paired.get(verts, math.inf)))
        bc = reduce_filtration(filt)
        assert {d: b for d, b in bc.intervals.items() if b} == \
            {d: sorted(b) for d, b in bars.items()}


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9), n=st.integers(3, 11), dim_cap=st.integers(1, 4),
       shape=st.sampled_from(["cloud", "circle"]),
       source=st.sampled_from(["filtration", "cut", "leq", "lt"]),
       pick=st.floats(0.0, 1.0), empty_top=st.booleans())
def test_coboundary_pivots_equal_homology_reduction(seed, n, dim_cap, shape, source,
                                                    pick, empty_top):
    # full filtrations, max_scale cuts (cofaces missing) and lex-ordered
    # complexes; the circle's tied distances exercise the lex tie-breaks.
    # With empty_top, dim_cap = n, so the implicit top dimension is empty.
    if shape == "cloud":
        space = random_cloud_space(np.random.default_rng(seed), n)
    else:
        space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": n}))
    if empty_top:
        dim_cap = n
    cv = critical_values(space)
    r = float(cv[int(pick * (len(cv) - 1))])
    filt, entries = _filtration_and_entries(space, dim_cap, source, r)
    _assert_pivots_equal_homology_reduction(filt, entries, source in ("filtration", "cut"))


@pytest.mark.parametrize("source", ["filtration", "leq"])
@pytest.mark.parametrize("dim_cap", [1, 2])
@pytest.mark.parametrize("shape", ["circle24", "cloud40"])
def test_coboundary_pivots_equal_homology_reduction_at_larger_n(shape, dim_cap, source):
    # past the property test's n <= 11: the 24-gon's tied distances put the
    # union-find of dimension 0 through lex tie-breaks, and at dim_cap 1 its
    # pairs are top keys; the lex complex is read at a third of the scales
    if shape == "circle24":
        space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 24}))
    else:
        space = random_cloud_space(np.random.default_rng(40), 40)
    cv = critical_values(space)
    filt, entries = _filtration_and_entries(space, dim_cap, source, float(cv[len(cv) // 3]))
    _assert_pivots_equal_homology_reduction(filt, entries, source == "filtration")


def test_top_coface_keys_past_int64_agree(rng):
    # the keys of a dimension stay int64 while (cut + 1) * span - 1 fits and
    # are Python ints past that; a bound lowered below the largest key of
    # every dimension forces Python ints in all of them, stored cofaces too
    for space in (random_cloud_space(rng, n=9),
                  generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))):
        for dim_cap in (1, 2, 3):
            filt = vr_filtration(space, dim_cap)
            largest = [(filt.cut + 1) * len(filt.simplices[d]) * filt.n - 1
                       for d in range(dim_cap)]
            with mock.patch.object(persistence, "_INT64_MAX", min(largest) - 1):
                wide = _reduce(filt)
                barcode = reduce_filtration(filt)
            assert wide == _reduce(filt)
            assert barcode.intervals == reduce_filtration(filt).intervals


def test_top_coface_keys_on_2000_points():
    # a 5-sphere and a solid 7-simplex among 1,980 isolated points: the top
    # keys name 6-simplices with n = 2000, where base-n keys would need n**7
    n = 2000
    cluster = np.random.default_rng(0).uniform(0.0, 0.1, size=(8, 6))
    pts = np.zeros((n, 6))
    pts[:12] = _cross_polytope(6)
    pts[12:20] = cluster + [100.0, 0, 0, 0, 0, 0]
    pts[20:, 0] = -10.0 * np.arange(n - 20) - 100.0
    pts = pts[np.random.default_rng(1).permutation(n)]
    space = FiniteMetricSpace(np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)))
    filt = vr_filtration(space, dim_cap=6, max_scale=1.5)
    assert filt.top_count == 8
    assert (filt.cut + 1) * len(filt.simplices[5]) * n < 2 ** 63 < n ** 7
    bc = reduce_filtration(filt)
    expected = (n - 12 - 8 + 2, 0, 0, 0, 0, 1)
    assert bc.betti_alive_at(1.5) == betti_at(space, 1.5, "leq", 6).values == expected
    # the cluster's 5-simplices die at 6-simplices, no later than 0.1 * sqrt(6)
    assert sum(1 for _, death in bc.bars(5) if math.isinf(death)) == 1
    assert all(death < 0.25 for _, death in bc.bars(5) if not math.isinf(death))


@pytest.mark.parametrize("n", [9, 12, 18, 24, 30])
def test_circle_barcode_is_the_closed_form(n):
    # Adamaszek & Adams, "The Vietoris-Rips complexes of a circle" (2017): the
    # n-cycle's VR complex at k steps is a circle for 3k < n and a wedge of
    # n/3 - 1 two-spheres at 3k = n, so with d_k = d(0, k) H1 is one bar
    # [d_1, d_{n/3}) and H2 is n/3 - 1 bars [d_{n/3}, d_{n/3+1}), killed by
    # tetrahedra, the implicit top dimension
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": n}))
    d = space.dist[0].tolist()
    k = n // 3
    bc = reduce_filtration(vr_filtration(space, dim_cap=3))
    assert bc.bars(1) == [(d[1], d[k])]
    assert bc.bars(2) == [(d[k], d[k + 1])] * (k - 1)
    for r in (d[1], d[k], d[k + 1]):
        for convention in ("leq", "lt"):
            values = betti_at(space, r, convention, dim_cap=3).values
            assert values == bc.betti_alive_at(r, convention)
            assert values == homology_oracle(vr_complex(space, r, convention, dim_cap=3))
    assert betti_at(space, d[k], "leq", dim_cap=3).values == (1, 0, k - 1)


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
