import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitrips.actions import (antipodal_generator, block_shift_generator,
                               build_quotient, circle_rotation_generator,
                               close_group)
from orbitrips.complexes import (BudgetExceededError, SimplicialComplex,
                                 cech_complex, vr_complex)
from orbitrips import quotient_iso
from orbitrips.quotient_iso import (iso_check, quotient_complex,
                                    verify_certificate)
from orbitrips.spaces import ShapeSpec, critical_values, generate_space

from conftest import (_brute_proj, full_iso_check, quotient_orbits_oracle,
                      random_cloud_space, random_rotated_cloud)


def _circle12_antipodal():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [antipodal_generator(12)])
    return space, action


def test_quotient_complex_structure():
    space, action = _circle12_antipodal()
    q = build_quotient(space, action)
    cx = vr_complex(space, 0.2, "leq", dim_cap=3)
    qc = quotient_complex(cx, action, q.proj)
    for rows in (qc.reps, qc.images):  # array rows as tuples, values as lists
        rows.update({d: [tuple(row) for row in v.tolist()] for d, v in rows.items()})
    for values in (qc.sizes, qc.degenerate):
        values.update({d: v.tolist() for d, v in values.items()})
    arrays = action.element_arrays
    for dim, reps in qc.reps.items():
        base = cx.simplices[dim]
        assert sum(qc.sizes[dim]) == len(base)
        assert reps == sorted(reps)
        for cid, rep in enumerate(reps):
            orbit = {tuple(sorted(int(a[v]) for v in rep)) for a in arrays}
            assert rep == min(orbit)
            assert qc.sizes[dim][cid] == len(orbit)
            expected_img = tuple(sorted(int(q.proj[v]) for v in rep))
            assert qc.images[dim][cid] == expected_img
            assert qc.degenerate[dim][cid] == (len(set(expected_img)) < dim + 1)


def test_quotient_complex_guards_invariance():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 4}))
    action = close_group(4, [circle_rotation_generator(4, 1)])
    broken = SimplicialComplex(4, "vr", "leq", 0.25, 1,
                               {0: [(i,) for i in range(4)], 1: [(0, 1)]})
    with pytest.raises(ValueError):
        quotient_complex(broken, action, build_quotient(space, action).proj)


def test_not_invariant_message_names_least_missing_simplex():
    # the orbit of the edge (0, 1) under the 4-cycle is the four sides of
    # the square; (0, 3) is the least of the three that are missing
    action = close_group(4, [circle_rotation_generator(4, 1)])
    broken = SimplicialComplex(4, "vr", "leq", 0.25, 1,
                               {0: [(i,) for i in range(4)], 1: [(0, 1)]})
    message = "complex is not invariant: (0, 3) missing from dim 1"
    for group in (quotient_complex, quotient_orbits_oracle):
        with pytest.raises(ValueError) as err:
            group(broken, action, _brute_proj(action))
        assert str(err.value) == message


def _orbit_case(case: str, rng: np.random.Generator):
    """A space and a permutation action on it, isometric unless the case
    says "not-invariant"."""
    if case == "rotated-cloud":
        return random_rotated_cloud(rng, m=int(rng.integers(2, 6)),
                                    k=int(rng.integers(2, 5)))
    if case == "cloud-not-invariant":
        space = random_cloud_space(rng, int(rng.integers(6, 13)), dim=2)
        shift = int(rng.integers(1, space.n))
        return space, close_group(space.n, [circle_rotation_generator(space.n, shift)])
    n = int(rng.choice([12, 16, 18, 24]))
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": n}))
    reflection = [(-i) % n for i in range(n)]  # fixes 0 (and n/2): not free
    if case == "circle-mod":
        m = int(rng.choice([d for d in (2, 3, 4, 6) if n % d == 0]))
        return space, close_group(n, [circle_rotation_generator(n, n // m)])
    if case == "circle-reflection":
        return space, close_group(n, [reflection])
    return space, close_group(n, [reflection, circle_rotation_generator(n, n // 2)])


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["rotated-cloud", "cloud-not-invariant", "circle-mod",
                             "circle-reflection", "circle-dihedral"]),
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["vr", "cech"]),
       convention=st.sampled_from(["lt", "leq"]), where=st.floats(0.0, 0.6))
def test_quotient_complex_matches_orbit_oracle(case, seed, kind, convention, where):
    space, action = _orbit_case(case, np.random.default_rng(seed))
    cv = critical_values(space)
    r = float(cv[int(where * (len(cv) - 1))])
    build = vr_complex if kind == "vr" else cech_complex
    cx = build(space, r, convention, dim_cap=3)
    proj = _brute_proj(action)
    try:
        expected = quotient_orbits_oracle(cx, action, proj)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            quotient_complex(cx, action, proj)
        assert str(got.value) == str(err)
        return
    qc = quotient_complex(cx, action, proj)
    assert qc.counts() == {d: len(reps) for d, reps in expected[0].items()}
    assert ({d: [tuple(row) for row in v.tolist()] for d, v in qc.reps.items()},
            {d: v.tolist() for d, v in qc.sizes.items()},
            {d: [tuple(row) for row in v.tolist()] for d, v in qc.images.items()},
            {d: v.tolist() for d, v in qc.degenerate.items()}) == expected


def test_antipodal_circle_isomorphic_below_threshold():
    space, action = _circle12_antipodal()
    cert = iso_check(space, action, 0.16, "vr", "lt")
    assert cert.verdict == "isomorphic"
    assert cert.counts_base[0] == 12 and cert.counts_base[1] == 12
    assert cert.counts_orbits[0] == 6 and cert.counts_orbits[1] == 6
    assert cert.counts_quotient == cert.counts_orbits
    assert verify_certificate(space, action, cert)


def test_antipodal_circle_not_surjective_at_closed_scale():
    # at d <= 1/6 the quotient gains the triangle {0,2,4}, whose smallest
    # lift has diameter 1/3: the projection misses it
    space, action = _circle12_antipodal()
    cert = iso_check(space, action, 1 / 6, "vr", "leq")
    assert cert.verdict == "not-surjective"
    ce = cert.counterexample
    assert ce == {"dim": 2, "missing": [0, 2, 4], "min_lift_diam": 1 / 3,
                  "min_lifts": [[0, 2, 4], [0, 2, 10], [0, 8, 4], [0, 8, 10]]}
    assert cert.counts_orbits[2] == 6 and cert.counts_quotient[2] == 8
    assert verify_certificate(space, action, cert) is True


def test_transitive_action_degenerate_once_edges_appear():
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [circle_rotation_generator(12, 1)])
    below = iso_check(space, action, 0.05, "vr", "lt")
    assert below.verdict == "isomorphic"    # single vertex on both sides
    assert below.counts_orbits == {0: 1, 1: 0, 2: 0, 3: 0}
    above = iso_check(space, action, 0.1, "vr", "lt")
    assert above.verdict == "degenerate"
    assert above.counterexample["image"] == [0, 0]
    assert verify_certificate(space, action, above)


def test_six_circles_verdict_ladder():
    space = generate_space(ShapeSpec("six-circles", {"m": 12}))
    action = close_group(72, [block_shift_generator(6, 12)])
    # avoid r=1.0 for m=12: the 2-step chord is exactly 1.0 in real
    # arithmetic and rounds to either side of it per circle
    iso = iso_check(space, action, 0.9, "vr", "lt")
    assert iso.verdict == "isomorphic"
    assert verify_certificate(space, action, iso)

    # every point moves by >= 3 under the rotation, so at 2.5 nothing is
    # degenerate yet, but distinct orbit pairs already project onto one
    # quotient edge
    ni = iso_check(space, action, 2.5, "vr", "lt")
    assert ni.verdict == "not-injective"
    ce = ni.counterexample
    assert len(ce["simplices"]) >= 2
    assert verify_certificate(space, action, ni)

    # past the minimal displacement, degeneracy takes precedence
    dg = iso_check(space, action, 3.5, "vr", "lt")
    assert dg.verdict == "degenerate"
    assert dg.counterexample["dim"] == 1
    assert dg.counterexample["orbit_size"] == 6
    img = dg.counterexample["image"]
    assert img[0] == img[1]
    assert verify_certificate(space, action, dg)


@pytest.mark.parametrize("r,convention,verdict,counterexample", [
    (2.4786273498549503, "leq", "not-injective",
     {"dim": 1, "image": [3, 7], "simplices": [[3, 7], [3, 19]]}),
    (3.6523616965130428, "lt", "degenerate",
     {"dim": 1, "simplex": [4, 16], "image": [4, 4], "orbit_size": 6}),
])
def test_six_circles_certificates_at_rounded_ties(r, convention, verdict,
                                                  counterexample):
    # at these critical values the float-built rotation maps some edge to a
    # pair one ulp longer, so the complex of the given matrix is not
    # invariant; the pair-orbit minimum that build_quotient makes of it is
    space = generate_space(ShapeSpec("six-circles", {"m": 12}))
    action = close_group(72, [block_shift_generator(6, 12)])
    cert = iso_check(space, action, r, "vr", convention, dim_cap=3)
    assert (cert.verdict, cert.counterexample) == (verdict, counterexample)
    assert verify_certificate(space, action, cert)


def test_certificate_replay_builds_no_complex(monkeypatch):
    # membership is decided from the definitions, so the replay of a
    # 4,944-simplex counterexample does not touch the simplex budget
    space = generate_space(ShapeSpec("six-circles", {"m": 12}))
    action = close_group(72, [block_shift_generator(6, 12)])
    cert = iso_check(space, action, 2.4786273498549503, "vr", "leq", dim_cap=3)
    assert cert.verdict == "not-injective"
    assert sum(cert.counts_base.values()) == 4944
    monkeypatch.setattr(quotient_iso, "DEFAULT_BUDGET", 1000)
    assert verify_certificate(space, action, cert)


def test_tampered_counterexamples_do_not_replay():
    space, action = _circle12_antipodal()
    cert = iso_check(space, action, 1 / 6, "vr", "leq")
    assert cert.verdict == "not-surjective" and verify_certificate(space, action, cert)
    for missing in ([2, 0, 4], [0, 0, 2], [0, 2, 14], [-1, 0, 2], [], [0, 1, 2, 3, 4],
                    [0, 3]):  # unsorted, repeated, out of range, empty, too long, no simplex
        bad = dataclasses.replace(cert, counterexample={**cert.counterexample,
                                                        "missing": missing})
        assert not verify_certificate(space, action, bad), missing
    for kind in ("vr", "cech"):
        cert = iso_check(space, action, 0.6, kind, "lt")
        assert cert.verdict == "degenerate" and verify_certificate(space, action, cert)
        simplex = cert.counterexample["simplex"]
        for moved in (simplex[::-1], [simplex[0], 12]):
            bad = dataclasses.replace(cert, counterexample={**cert.counterexample,
                                                            "simplex": moved})
            assert not verify_certificate(space, action, bad), (kind, moved)


def test_tampered_not_injective_and_cech_not_surjective_do_not_replay():
    # circle(12) mod a third of a turn at 1/6 (Cech, lt): the edge orbits of
    # (0, 2) and (0, 10) both project to the quotient edge [0, 2]
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 12}))
    action = close_group(12, [circle_rotation_generator(12, 4)])
    cert = iso_check(space, action, 1 / 6, "cech", "lt")
    assert cert.verdict == "not-injective" and verify_certificate(space, action, cert)
    assert cert.counterexample["simplices"] == [[0, 2], [0, 10]]
    for simplices in ([[0, 2]], [[0, 2], [0, 2]], [[0, 2], [0, 5]], [[0, 1], [0, 2]]):
        # one simplex, two equal ones, one outside the base complex, two images
        bad = dataclasses.replace(cert, counterexample={**cert.counterexample,
                                                        "simplices": simplices})
        assert not verify_certificate(space, action, bad), simplices
    # every quotient Cech simplex lifts on the exact base, so iso_check never
    # emits this certificate, and its replay finds the lifts
    bad = dataclasses.replace(cert, verdict="not-surjective",
                              counterexample={"dim": 1, "missing": [0, 2]})
    assert not verify_certificate(space, action, bad)


def test_cech_iso_and_not_surjective():
    space = generate_space(ShapeSpec("evenly-spaced-circle",
                                     {"n": 36, "circumference": 3.0}))
    action = close_group(36, [circle_rotation_generator(36, 12)])
    good = iso_check(space, action, 0.25, "cech", "lt")
    assert good.verdict == "isomorphic"
    assert verify_certificate(space, action, good)
    bad = iso_check(space, action, 1 / 3 + 1e-9, "cech", "lt")
    assert bad.verdict != "isomorphic"
    assert verify_certificate(space, action, bad)


def test_verdicts_replay_on_random_clouds(rng):
    for _ in range(4):
        space, action = random_rotated_cloud(rng, m=3, k=3)
        cv = critical_values(space)
        for i in (2, len(cv) // 2, len(cv) - 2):
            r = float(cv[i])
            for kind in ("vr", "cech"):
                cert = iso_check(space, action, r, kind, "lt")
                assert verify_certificate(space, action, cert), (kind, r, cert.verdict)
                if cert.verdict == "isomorphic":
                    assert cert.counts_orbits == cert.counts_quotient


def test_bad_kind_rejected():
    space, action = _circle12_antipodal()
    with pytest.raises(ValueError):
        iso_check(space, action, 0.1, kind="alpha")


def _circle_mod(n: int, case: str):
    """circle(n) mod a free rotation by a third or a fifth (n = 15) or a
    half or a quarter (n = 16) of a turn, by the reflection i -> -i, which
    fixes 0 (and n/2 when n is even), or by the dihedral group it generates
    with a unit turn."""
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": n}))
    if case in ("third-or-half", "fifth-or-quarter"):
        parts = {15: (3, 5), 16: (2, 4)}[n][case != "third-or-half"]
        return space, close_group(n, [circle_rotation_generator(n, n // parts)])
    generators = [[(-i) % n for i in range(n)]]
    if case == "dihedral":
        generators.append(circle_rotation_generator(n, 1))
    return space, close_group(n, generators)


@settings(max_examples=150, deadline=None)
@given(case=st.sampled_from(["rotated-cloud", "third-or-half", "fifth-or-quarter",
                             "reflection", "dihedral"]),
       n=st.sampled_from([15, 16]), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["vr", "cech"]), convention=st.sampled_from(["lt", "leq"]),
       dim_cap=st.integers(0, 3), where=st.one_of(st.none(), st.floats(0.0, 0.7)))
def test_iso_check_matches_the_upstairs_referee(case, n, seed, kind, convention, dim_cap,
                                                where):
    # free rotations take the downstairs certificate wherever it passes
    # (evenly spaced circles have ties at every critical value, where lt and
    # leq differ); actions with fixed points and failing inputs go upstairs
    if case == "rotated-cloud":
        rng = np.random.default_rng(seed)
        space, action = random_rotated_cloud(rng, m=int(rng.integers(2, 6)),
                                             k=int(rng.integers(2, 5)))
    else:
        space, action = _circle_mod(n, case)
    cv = critical_values(space)
    r = 0.0 if where is None else float(cv[int(where * (len(cv) - 1))])
    assert iso_check(space, action, r, kind, convention, dim_cap).to_dict() == \
        full_iso_check(space, action, r, kind, convention, dim_cap).to_dict()


def _no_upstairs(*args):
    raise AssertionError("the upstairs complex was grouped into orbits")


@pytest.mark.parametrize("kind,convention", [("vr", "lt"), ("vr", "leq"), ("cech", "lt"),
                                             ("cech", "leq")])
def test_free_isomorphic_inputs_group_no_upstairs_orbits(monkeypatch, kind, convention):
    space, action = _circle12_antipodal()
    expected = full_iso_check(space, action, 0.16, kind, convention).to_dict()
    monkeypatch.setattr(quotient_iso, "quotient_complex", _no_upstairs)
    cert = iso_check(space, action, 0.16, kind, convention)
    assert cert.verdict == "isomorphic" and cert.to_dict() == expected


@pytest.mark.parametrize("kind", ["vr", "cech"])
def test_fixed_points_keep_the_upstairs_counts_at_zero(kind):
    # both checks pass vacuously at 0, but the reflection fixes 0 and 8, so
    # there are 16 points upstairs, not |G| q = 2 * 9
    space, action = _circle_mod(16, "reflection")
    cert = iso_check(space, action, 0.0, kind, "lt")
    assert cert.verdict == "isomorphic"
    assert cert.counts_base == {0: 16, 1: 0, 2: 0, 3: 0}
    assert cert.counts_orbits == cert.counts_quotient == {0: 9, 1: 0, 2: 0, 3: 0}


@pytest.mark.parametrize("r,edges", [(0.0625, 0), (0.125, 16)])
def test_fixed_points_stay_isomorphic_through_the_upstairs_path(monkeypatch, r, edges):
    # the diameter check fails on the fixed point 0, so these isomorphic
    # verdicts come from grouping the upstairs complex into orbits
    space, action = _circle_mod(16, "reflection")
    grouped = []
    monkeypatch.setattr(quotient_iso, "quotient_complex",
                        lambda *args: grouped.append(1) or quotient_complex(*args))
    cert = iso_check(space, action, r, "vr", "lt")
    assert grouped and cert.verdict == "isomorphic"
    assert cert.counts_base == {0: 16, 1: edges, 2: 0, 3: 0}
    assert cert.counts_orbits == cert.counts_quotient == {0: 9, 1: edges // 2, 2: 0, 3: 0}


@pytest.mark.parametrize("kind", ["vr", "cech"])
def test_bad_convention_and_dim_cap_rejected(kind):
    # an unknown convention is not read as "leq", nor a negative dim_cap as 0
    space, action = _circle12_antipodal()
    with pytest.raises(ValueError, match="convention must be one of"):
        iso_check(space, action, 0.1, kind, convention="bogus")
    with pytest.raises(ValueError, match="dim_cap must be nonnegative"):
        iso_check(space, action, 0.1, kind, dim_cap=-1)


@pytest.mark.parametrize("kind,budget,dim", [("vr", 120, 1), ("cech", 120, 1),
                                             ("cech", 400, 1)])
def test_an_overrun_downstairs_leaves_the_error_to_the_upstairs_path(kind, budget, dim):
    # circle(48) mod antipodal at 0.1 passes both checks, with 24 + 96 + 144
    # + 96 quotient simplices (VR) and 48 + 192 base simplices below
    # dimension 2: the check overruns 120 at dimension 2, and the Cech
    # quotient complex 400 at dimension 2 after its check passes; each time
    # the base complex reports the overrun it always reported
    space = generate_space(ShapeSpec("evenly-spaced-circle", {"n": 48}))
    action = close_group(48, [antipodal_generator(48)])
    with pytest.raises(BudgetExceededError) as err:
        iso_check(space, action, 0.1, kind, "lt", budget=budget)
    assert str(err.value) == f"simplex budget {budget} exceeded at dimension {dim}"
