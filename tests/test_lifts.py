"""The three anchored lift searches, and the edge lifts of
`complexes.edge_lifts`, against an itertools.product brute force.

The oracle fixes the anchor (the least member of the first orbit), takes every
choice of one member from each other orbit in lexicographic order, reads
diameters straight from the distance matrix and builds ball masks from the
definition of a ball, sharing no code with the searches.
"""

import itertools
from collections import defaultdict

import numpy as np
import pytest

from orbitrips.actions import (circle_rotation_generator, close_group,
                               torus_grid_shift_generators)
from orbitrips.complexes import edge_lifts
from orbitrips.lifts import (anchored_lifts_within, anchored_min_diameter,
                             anchored_witnessed_lifts)
from orbitrips.spaces import ShapeSpec, critical_values, generate_space

from conftest import random_rotated_cloud


def _members(action) -> list[list[int]]:
    """Orbits as ascending member lists, ordered by their least member."""
    orbits = {tuple(sorted({p[x] for p in action.elements})) for x in range(action.n)}
    return [list(o) for o in sorted(orbits)]


def _anchored(members, orbits):
    """Every anchored lift tuple, in lexicographic order."""
    anchor = members[orbits[0]][0]
    return [(anchor,) + rest
            for rest in itertools.product(*[members[a] for a in orbits[1:]])]


def _anchored_tuples(D, members, orbits):
    """(diameter, tuple) for every anchored lift, in lexicographic order."""
    return [(max((D[x][y] for i, x in enumerate(t) for y in t[i + 1:]), default=0.0), t)
            for t in _anchored(members, orbits)]


def _brute_within(D, members, orbits, bound, strict):
    return [(d, t) for d, t in _anchored_tuples(D, members, orbits)
            if (d < bound if strict else d <= bound)]


def _brute_min(D, members, orbits):
    lifts = _anchored_tuples(D, members, orbits)
    best = min(d for d, _ in lifts)
    return best, [t for d, t in lifts if d == best]


def _definition_masks(D, r, strict):
    n = len(D)
    return [sum(1 << y for y in range(n) if (D[x][y] < r if strict else D[x][y] <= r))
            for x in range(n)]


def _packed(masks, n):
    """Int ball masks as the packed bit rows the witnessed search reads."""
    bits = [[masks[x] >> y & 1 for y in range(n)] for x in range(len(masks))]
    return np.packbits(np.array(bits, dtype=np.uint8).reshape(-1, n), axis=1,
                       bitorder="little")


def _brute_witnessed(masks, members, orbits):
    out = []
    for t in _anchored(members, orbits):
        common = [w for w in range(len(masks)) if all(masks[x] >> w & 1 for x in t)]
        if common:
            out.append((t, min(common)))
    return out


def _check_all(space, action, subsets, scales):
    D = space.dist.tolist()
    members = _members(action)
    for orbits in subsets:
        best, achievers = anchored_min_diameter(D, members, orbits)
        assert (best, achievers) == _brute_min(D, members, orbits), orbits
        for r in scales:
            for strict in (True, False):
                assert anchored_lifts_within(D, members, orbits, r, strict=strict) \
                    == _brute_within(D, members, orbits, r, strict), (orbits, r, strict)
                masks = _definition_masks(D, r, strict)
                assert anchored_witnessed_lifts(_packed(masks, len(D)), members, orbits) \
                    == _brute_witnessed(masks, members, orbits), (orbits, r, strict)


def _scales(space, count):
    """Critical values spread over the range, each hit exactly by some distance."""
    cv = critical_values(space)
    return [float(cv[i]) for i in np.linspace(0, len(cv) - 1, count).astype(int)]


def test_circle_mod_rotation_exact_ties():
    # evenly spaced circle: every distance is hit by many pairs, so the
    # minimum has several achievers and bounds sit exactly on lift diameters
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 24}))
    action = close_group(24, [circle_rotation_generator(24, 8)])
    members = _members(action)
    subsets = [s for k in (2, 3, 4)
               for s in itertools.combinations(range(len(members)), k)][::5]
    _check_all(space, action, subsets, _scales(space, 6))
    # a tie the brute force sees: orbits {0, 8, 16} and {4, 12, 20}
    best, achievers = anchored_min_diameter(space.dist.tolist(), members, (0, 4))
    assert best == 1 / 6 and achievers == [(0, 4), (0, 20)]


def test_torus_mod_z14_three_orbits():
    space = generate_space(ShapeSpec("flat-torus-grid", {"k": 14}))
    action = close_group(196, torus_grid_shift_generators(14))
    members = _members(action)
    assert len(action.elements) == 14 and len(members) == 14
    rng = np.random.default_rng(5)
    subsets = sorted({tuple(sorted(rng.choice(14, size=3, replace=False).tolist()))
                      for _ in range(6)})
    _check_all(space, action, subsets, _scales(space, 4))
    assert any(len(anchored_min_diameter(space.dist.tolist(), members, s)[1]) > 1
               for s in subsets)


@pytest.mark.parametrize("m,k", [(3, 2), (3, 3), (4, 3)])
def test_random_rotated_clouds(rng, m, k):
    for _ in range(3):
        space, action = random_rotated_cloud(rng, m=m, k=k)
        subsets = [s for size in (2, 3, 4)
                   for s in itertools.combinations(range(m), size)]
        _check_all(space, action, subsets, _scales(space, 5))


def test_witness_is_lowest_common_bit():
    # the witness is the lowest index in the AND of the tuple's balls
    members = [[0, 1], [2, 3]]
    masks = [0b1111000, 0b0000110, 0b1110000, 0b0000011]
    assert anchored_witnessed_lifts(_packed(masks, 7), members, (0, 1)) == [((0, 2), 4)]
    assert anchored_witnessed_lifts(_packed([0] + masks[1:], 7), members, (0, 1)) == []


def _edge_lifts(space, members, r, kind, convention):
    """edge_lifts grouped by image: orbit pair -> lift tuples, in their
    order."""
    proj = np.empty(space.n, dtype=np.intp)
    for a, orbit in enumerate(members):
        proj[orbit] = a
    groups = defaultdict(list)
    for row in edge_lifts(space, proj, r, kind, convention).tolist():
        groups[tuple(proj[row].tolist())].append(tuple(row))
    return groups


@pytest.mark.parametrize("m,k", [(3, 2), (3, 3), (4, 3)])
def test_edge_lifts_match_product_referee(rng, m, k):
    cases = [random_rotated_cloud(rng, m=m, k=k) for _ in range(2)]
    circle = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 24}))
    cases.append((circle, close_group(24, [circle_rotation_generator(24, 8)])))
    for space, action in cases:
        D = space.dist.tolist()
        members = _members(action)
        pairs = list(itertools.combinations(range(len(members)), 2))
        for r in _scales(space, 5):
            for strict, convention in ((True, "lt"), (False, "leq")):
                vr = _edge_lifts(space, members, r, "vr", convention)
                cech = _edge_lifts(space, members, r, "cech", convention)
                masks = _definition_masks(D, r, strict)
                for orbits in pairs:
                    assert vr.get(orbits, []) == \
                        [t for _, t in _brute_within(D, members, orbits, r, strict)]
                    assert cech.get(orbits, []) == \
                        [t for t, _ in _brute_witnessed(masks, members, orbits)]
                assert set(vr) | set(cech) <= set(pairs)
