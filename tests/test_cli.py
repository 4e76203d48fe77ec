import json
import math
from importlib import resources
from unittest import mock

import jsonschema
import pytest

from orbitrips import cli, spaces
from orbitrips.actions import (IsometricAction, close_group,
                               torus_grid_shift_generators)
from orbitrips.cli import main, parse_scale
from orbitrips.persistence import read_barcode_tsv
from orbitrips.spaces import (FiniteMetricSpace, ShapeSpec, SpaceValidationError,
                              generate_space, load_space, save_space)

from conftest import validate_metric_oracle


def _schema(name: str) -> dict:
    path = resources.files("orbitrips") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def _check(doc: dict, schema_name: str) -> None:
    jsonschema.validate(doc, _schema(schema_name))


@pytest.mark.parametrize("text,value", [
    ("0.25", 0.25),
    ("1/6", 1 / 6),
    ("2pi/21", 2 * math.pi / 21),
    ("2*pi/21", 2 * math.pi / 21),
    ("pi", math.pi),
    ("PI/4", math.pi / 4),
    ("π/2", math.pi / 2),
    ("1e-3", 1e-3),
    ("3", 3.0),
])
def test_parse_scale_accepts(text, value):
    assert parse_scale(text) == value


@pytest.mark.parametrize("text", ["", "abc", "-1", "1/-6", "/6", "pi pi", "1/0x3",
                                  "1/0", "pi/0"])
def test_parse_scale_rejects(text):
    with pytest.raises(ValueError):
        parse_scale(text)


@pytest.fixture
def circle12(tmp_path):
    path = tmp_path / "space.json"
    rc = main(["generate", "--shape", "circle", "--param", "n=12",
               "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture
def antipodal12(tmp_path, circle12):
    path = tmp_path / "action.json"
    rc = main(["action", "--kind", "antipodal", "--space", str(circle12),
               "--out", str(path)])
    assert rc == 0
    return path


def test_generate_output_shape(circle12):
    doc = json.loads(circle12.read_text())
    _check(doc, "space")
    assert doc["n"] == 12
    assert len(doc["matrix"]) == 66
    assert doc["provenance"]["kind"] == "evenly-spaced-circle"
    m = doc["manifest"]
    assert m["tool"] == "orbitrips" and m["subcommand"] == "generate"
    assert "time" not in m and "wall" not in str(sorted(m))


def test_action_output_shape(antipodal12):
    doc = json.loads(antipodal12.read_text())
    _check(doc, "action")
    assert doc["group_order"] == 2
    assert len(doc["generators"]) == 1
    assert sorted(doc["generators"][0]) == list(range(12))
    assert len(doc["manifest"]["inputs"]) == 1  # digest of the space file


def test_quotient_subcommand(tmp_path, circle12, antipodal12):
    out = tmp_path / "quot.json"
    rc = main(["quotient", "--space", str(circle12), "--action", str(antipodal12),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _check(doc, "space")
    assert doc["n"] == 6
    assert doc["reps"] == [0, 1, 2, 3, 4, 5]
    assert doc["proj"] == [0, 1, 2, 3, 4, 5] * 2


def test_check_subcommand_pass_and_fail(tmp_path, circle12, antipodal12):
    out = tmp_path / "check.json"
    rc = main(["check", "--kind", "diameter", "--scale", "1/6",
               "--space", str(circle12), "--action", str(antipodal12),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _check(doc, "check_result")
    assert doc["ok"] is True

    rc = main(["check", "--kind", "diameter", "--scale", "0.25",
               "--space", str(circle12), "--action", str(antipodal12),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _check(doc, "check_result")
    assert doc["ok"] is False
    assert doc["witness"]["mode"] == "no_equality_lift"

    for kind, scale, ok in (("distance", "0.5", True), ("distance", "0.51", False),
                            ("ball", "0.25", True), ("ball", "0.3", False)):
        rc = main(["check", "--kind", kind, "--scale", scale,
                   "--space", str(circle12), "--action", str(antipodal12),
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        _check(doc, "check_result")
        assert doc["ok"] is ok, (kind, scale)


def test_thresholds_subcommand(tmp_path, circle12, antipodal12):
    out = tmp_path / "scan.json"
    rc = main(["thresholds", "--kind", "diameter", "--space", str(circle12),
               "--action", str(antipodal12), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _check(doc, "threshold_report")
    assert doc["passes_at"] == 1 / 6
    assert doc["fails_at"] == 0.25
    assert doc["witness"]["orbits"] == [0, 2, 4]

    rc = main(["thresholds", "--kind", "distance", "--space", str(circle12),
               "--action", str(antipodal12), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _check(doc, "threshold_report")
    assert doc["passes_at"] == 0.5
    assert doc["fails_at"] == "inf"


def test_complex_subcommand(tmp_path, circle12):
    out = tmp_path / "cx.json"
    rc = main(["complex", "--kind", "vr", "--scale", "0.16", "--convention", "lt",
               "--space", str(circle12), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _check(doc, "complex")
    assert doc["counts"] == {"0": 12, "1": 12}
    assert "simplices" not in doc
    rc = main(["complex", "--kind", "vr", "--scale", "0.16", "--convention", "lt",
               "--space", str(circle12), "--full", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _check(doc, "complex")
    assert doc["simplices"]["1"][0] == [0, 1]


def test_iso_check_subcommand(tmp_path, circle12, antipodal12):
    out = tmp_path / "iso.json"
    rc = main(["iso-check", "--kind", "vr", "--scale", "0.16", "--convention", "lt",
               "--space", str(circle12), "--action", str(antipodal12),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _check(doc, "iso_certificate")
    assert doc["verdict"] == "isomorphic"

    rc = main(["iso-check", "--kind", "vr", "--scale", "1/6", "--convention", "leq",
               "--space", str(circle12), "--action", str(antipodal12),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    _check(doc, "iso_certificate")
    assert doc["verdict"] == "not-surjective"
    assert doc["counterexample"]["missing"] == [0, 2, 4]


def test_persistence_subcommand(tmp_path):
    space = tmp_path / "c6.json"
    assert main(["generate", "--shape", "circle", "--param", "n=6",
                 "--out", str(space)]) == 0
    out = tmp_path / "bars.tsv"
    assert main(["persistence", "--space", str(space), "--out", str(out)]) == 0
    bars = read_barcode_tsv(out)
    assert bars[1] == [(1 / 6, 1 / 3)]
    assert bars[2] == [(1 / 3, 0.5)]
    assert (0.0, math.inf) in bars[0]
    first = out.read_text().splitlines()[0]
    manifest = json.loads(first.lstrip("# "))
    assert manifest["subcommand"] == "persistence"

    cut = tmp_path / "bars-cut.tsv"
    assert main(["persistence", "--space", str(space), "--max-scale", "0.2",
                 "--out", str(cut)]) == 0
    tb = read_barcode_tsv(cut)
    assert tb[1] == [(1 / 6, math.inf)]  # the loop never fills in by 0.2


def test_persistence_max_scale_fits_a_budget_the_full_filtration_exceeds(
        tmp_path, circle12):
    # the full filtration of 12 points up to dimension 3 has 793 simplices;
    # at 0.2 only 12 vertices, 24 edges and 12 triangles remain
    argv = ["persistence", "--space", str(circle12)]
    free = tmp_path / "free.tsv"
    cut = tmp_path / "cut.tsv"
    assert main(argv + ["--max-scale", "0.2", "--out", str(free)]) == 0
    assert main(argv + ["--max-scale", "0.2", "--budget", "100",
                        "--out", str(cut)]) == 0
    assert read_barcode_tsv(cut) == read_barcode_tsv(free)
    assert main(argv + ["--budget", "100", "--out", str(tmp_path / "full.tsv")]) == 4


def test_betti_subcommand(tmp_path, capsys):
    space = tmp_path / "c6.json"
    assert main(["generate", "--shape", "circle", "--param", "n=6",
                 "--out", str(space)]) == 0
    assert main(["betti", "--space", str(space), "--scale", "1/6",
                 "--convention", "leq"]) == 0
    doc = json.loads(capsys.readouterr().out)
    _check(doc, "betti")
    assert doc["betti"] == [1, 1, 0]


def test_report_subcommand(capsys):
    assert main(["report"]) == 0
    text = capsys.readouterr().out
    assert "demonstration report" in text
    assert "(1, 1, 0)" in text
    assert "isomorphic" in text


def test_reruns_are_byte_identical(tmp_path, circle12, antipodal12):
    out = tmp_path / "scan.json"
    argv = ["thresholds", "--kind", "nerve", "--space", str(circle12),
            "--action", str(antipodal12), "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def test_csv_space_input(tmp_path):
    csv = tmp_path / "space.csv"
    csv.write_text("1.0\n1.0,1.0\n")
    assert main(["betti", "--space", str(csv), "--scale", "1.5",
                 "--out", str(tmp_path / "b.json")]) == 0
    doc = json.loads((tmp_path / "b.json").read_text())
    assert doc["betti"][0] == 1


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["check", "--kind", "bogus", "--space", "x", "--action", "y",
              "--scale", "1"])
    assert ei.value.code == 2


def test_validation_errors_exit_3(tmp_path, circle12, antipodal12):
    assert main(["generate", "--shape", "circle", "--param", "n=2"]) == 3
    assert main(["generate", "--shape", "nonagon"]) == 3
    assert main(["betti", "--space", str(tmp_path / "missing.json"),
                 "--scale", "1"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "matrix": [1.0, 3.0, 1.0]}))
    assert main(["betti", "--space", str(bad), "--scale", "1"]) == 3
    assert main(["action", "--kind", "rotation", "--n", "12"]) == 3  # no --steps
    assert main(["check", "--kind", "diameter", "--space", str(circle12),
                 "--action", str(antipodal12), "--scale", "QQQ"]) == 3
    assert main(["betti", "--space", str(circle12), "--scale", "1/0"]) == 3
    # a space document is not an action document
    assert main(["check", "--kind", "diameter", "--space", str(circle12),
                 "--action", str(circle12), "--scale", "0.1"]) == 3


@pytest.mark.parametrize("argv,verdict", [
    (["--convention", "leq", "--scale", "2.4786273498549503"], "not-injective"),
    (["--convention", "lt", "--scale", "3.6523616965130428"], "degenerate"),
])
def test_six_circles_iso_check_at_rounded_ties(tmp_path, argv, verdict):
    space, act, out = (tmp_path / name for name in ("six.json", "act.json", "iso.json"))
    assert main(["generate", "--shape", "six-circles", "--param", "m=12",
                 "--out", str(space)]) == 0
    assert main(["action", "--kind", "block-shift", "--blocks", "6",
                 "--space", str(space), "--out", str(act)]) == 0
    assert main(["iso-check", "--kind", "vr", "--dim-cap", "3", *argv,
                 "--space", str(space), "--action", str(act), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    _check(doc, "iso_certificate")
    assert doc["verdict"] == verdict


@pytest.mark.parametrize("argv", [
    ["thresholds", "--kind", "distance"],
    ["thresholds", "--kind", "ball"],
    ["check", "--kind", "distance", "--scale", "0.1"],
    ["check", "--kind", "ball", "--scale", "0.1"],
])
def test_distance_and_ball_refuse_non_isometric_action(tmp_path, capsys, circle12,
                                                       argv):
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps({"n": 12, "generators": [[1, 0] + list(range(2, 12))]}))
    capsys.readouterr()
    assert main([*argv, "--space", str(circle12), "--action", str(swap)]) == 3
    assert "not isometric" in capsys.readouterr().err


def _metric_error(space) -> str:
    return f"error: {SpaceValidationError(validate_metric_oracle(space))}"


def _thresholds_error(capsys, space_path, action_path) -> str:
    capsys.readouterr()
    assert main(["thresholds", "--kind", "diameter", "--space", str(space_path),
                 "--action", str(action_path)]) == 3
    return capsys.readouterr().err.splitlines()[0]


def test_exact_action_space_rejected_through_representatives(tmp_path, capsys):
    # stretch d(3, 20) over its pair orbit on the torus: the action stays
    # exactly isometric, 3 and 20 are not representatives, and the violating
    # triangles are caught at their images in representative rows
    space = generate_space(ShapeSpec("flat-torus-grid", {"k": 14}))
    action = close_group(196, torus_grid_shift_generators(14))
    assert not {3, 20} & set(action.representatives.tolist())
    D = space.dist.copy()
    for p in action.element_arrays:
        D[p[3], p[20]] = D[p[20], p[3]] = 100.0
    bad = FiniteMetricSpace(D, provenance=space.provenance)
    save_space(bad, tmp_path / "torus.json")
    act = tmp_path / "act.json"
    assert main(["action", "--kind", "torus-z14", "--n", "196", "--out", str(act)]) == 0
    assert _thresholds_error(capsys, tmp_path / "torus.json", act) == _metric_error(bad)


def test_nearly_isometric_action_space_rejected_off_representatives(
        tmp_path, capsys, circle12, antipodal12):
    # on the 12-gon mod the antipodal map (representatives 0..5), make the
    # triangle 7-8-9 fail by 1.8e-9 while moving no distance by more than
    # ISOMETRY_EPS: its only violating triangles start at 7 and 9, and their
    # antipodal images pass, so only the full check can catch them
    D = load_space(circle12).dist.copy()
    for (a, b), delta in (((7, 9), 6e-10), ((7, 8), -6e-10), ((8, 9), -6e-10)):
        D[a, b] = D[b, a] = D[a, b] + delta
    bad = FiniteMetricSpace(D)
    report = validate_metric_oracle(bad)
    assert {tuple(v["indices"]) for v in report.violations} == {(7, 8, 9), (9, 8, 7)}
    save_space(bad, tmp_path / "bad.json")
    assert main(["action", "--kind", "antipodal", "--space", str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "act.json")]) == 3  # invalid metric first
    assert _thresholds_error(capsys, tmp_path / "bad.json", antipodal12) == _metric_error(bad)


def test_thresholds_compares_the_matrix_under_the_action_once(tmp_path):
    # the load validates with the action, and every quotient build verifies
    # it again; both read one answer for the loaded matrix
    space, act = tmp_path / "torus.json", tmp_path / "act.json"
    assert main(["generate", "--shape", "torus-grid", "--param", "k=14",
                 "--out", str(space)]) == 0
    assert main(["action", "--kind", "torus-z14", "--space", str(space),
                 "--out", str(act)]) == 0
    compare = IsometricAction._generators_preserve
    with mock.patch.object(IsometricAction, "_generators_preserve", autospec=True,
                           side_effect=compare) as spy:
        assert main(["thresholds", "--kind", "diameter", "--space", str(space),
                     "--action", str(act), "--out", str(tmp_path / "t.json")]) == 0
    assert spy.call_count == 1


def _torus14_at_passes_at(tmp_path) -> list[str]:
    """iso-check arguments for the 14x14 torus mod Z/14 at its diameter
    passes_at, where the base VR complex (lt) has 196 vertices and no edge,
    and the quotient complex and the anchored lifts 14 vertices each."""
    space, act, t = tmp_path / "torus.json", tmp_path / "act.json", tmp_path / "t.json"
    assert main(["generate", "--shape", "torus-grid", "--param", "k=14",
                 "--out", str(space)]) == 0
    assert main(["action", "--kind", "torus-z14", "--space", str(space),
                 "--out", str(act)]) == 0
    assert main(["thresholds", "--kind", "diameter", "--space", str(space),
                 "--action", str(act), "--out", str(t)]) == 0
    scale = repr(json.loads(t.read_text())["passes_at"])
    return ["iso-check", "--kind", "vr", "--scale", scale, "--space", str(space),
            "--action", str(act), "--out", str(tmp_path / "iso.json")]


def test_iso_check_passes_within_a_budget_the_base_complex_overruns(tmp_path):
    # the isomorphic verdict is certified downstairs, so the 196 base
    # vertices are never walked; this exited 4 while the base complex was
    # built for every verdict
    assert main(_torus14_at_passes_at(tmp_path) + ["--budget", "100"]) == 0
    doc = json.loads((tmp_path / "iso.json").read_text())
    assert doc["verdict"] == "isomorphic"
    assert doc["counts_base"] == {d: 14 * c for d, c in doc["counts_quotient"].items()}
    assert doc["counts_orbits"] == doc["counts_quotient"] == {"0": 14, "1": 0, "2": 0,
                                                               "3": 0}


def test_iso_check_over_a_budget_the_quotient_overruns_exits_4(tmp_path, capsys):
    argv = _torus14_at_passes_at(tmp_path)
    capsys.readouterr()
    assert main(argv + ["--budget", "10"]) == 4
    assert capsys.readouterr().err.startswith(
        "error: simplex budget 10 exceeded at dimension 0\n")
    assert not (tmp_path / "iso.json").exists()


def test_metric_error_precedes_action_errors(tmp_path, capsys, circle12):
    bad = FiniteMetricSpace([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    save_space(bad, tmp_path / "bad.json")
    actions = {"cycle.json": {"n": 3, "generators": [[1, 2, 0]]},  # not isometric
               "nogens.json": {"n": 3},
               "wrong_n.json": {"n": 12, "generators": [list(range(12))]},
               "notjson.json": None}
    for name, doc in actions.items():
        (tmp_path / name).write_text("{" if doc is None else json.dumps(doc))
        assert _thresholds_error(capsys, tmp_path / "bad.json", tmp_path / name) == \
            _metric_error(bad)
    # a valid space with a malformed action reports the action
    assert "action document needs" in _thresholds_error(capsys, circle12,
                                                        tmp_path / "nogens.json")


def test_action_space_is_validated_at_orbit_representatives(tmp_path):
    # the action of --kind is built before the space is validated, so the
    # triangle check of the torus runs on the 14 representative rows alone
    space, act = tmp_path / "torus.json", tmp_path / "act.json"
    assert main(["generate", "--shape", "torus-grid", "--param", "k=14",
                 "--out", str(space)]) == 0
    with mock.patch.object(spaces, "_triangle_rows_fail", autospec=True,
                           side_effect=spaces._triangle_rows_fail) as spy:
        assert main(["action", "--kind", "torus-z14", "--space", str(space),
                     "--out", str(act)]) == 0
    assert spy.call_count == 1
    assert len(spy.call_args.args[1]) == 14
    assert spy.call_args.kwargs == {"every_row": False}


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_action_reports_a_bad_metric_before_bad_kind_arguments(tmp_path, capsys,
                                                              suffix):
    def write(space):
        path = tmp_path / f"space{suffix}"
        if suffix == ".csv":
            path.write_text("".join(",".join(map(str, space.dist[i, :i])) + "\n"
                                    for i in range(1, space.n)))
        else:
            save_space(space, path)
        return path

    bad = FiniteMetricSpace([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
    path = write(bad)
    for argv in (["--kind", "rotation"], ["--kind", "paired-swap"],
                 ["--kind", "block-shift", "--blocks", "2"], ["--kind", "torus-z14"],
                 ["--kind", "rotation", "--steps", "1"]):  # the last is well formed
        capsys.readouterr()
        assert main(["action", *argv, "--space", str(path)]) == 3
        assert capsys.readouterr().err.splitlines()[0] == _metric_error(bad), argv
    # a valid space with bad kind arguments reports the arguments
    path = write(FiniteMetricSpace([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]))
    capsys.readouterr()
    assert main(["action", "--kind", "paired-swap", "--space", str(path)]) == 3
    assert "paired-swap needs an even point count" in capsys.readouterr().err


@pytest.mark.parametrize("blocks", ["0", "-3"])
def test_block_shift_refuses_a_block_count_below_one(tmp_path, capsys, blocks):
    # zero blocks used to raise ZeroDivisionError, and -3 blocks to write a
    # group of order 3
    out = tmp_path / "action.json"
    assert main(["action", "--kind", "block-shift", "--blocks", blocks, "--n", "12",
                 "--out", str(out)]) == 3
    assert "positive --blocks" in capsys.readouterr().err
    assert not out.exists()


def test_thresholds_budget_exit_4(tmp_path, circle12, antipodal12):
    # the diameter check at the second critical value already needs more
    # than ten simplices, long before the scan reaches its threshold
    argv = ["thresholds", "--kind", "diameter", "--space", str(circle12),
            "--action", str(antipodal12), "--out", str(tmp_path / "t.json")]
    assert main(argv + ["--budget", "10"]) == 4
    assert main(argv + ["--budget", "100000"]) == 0


def test_budget_exit_4_and_env(tmp_path, circle12, monkeypatch):
    argv = ["complex", "--scale", "0.5", "--convention", "leq",
            "--space", str(circle12), "--out", str(tmp_path / "cx.json")]
    assert main(argv + ["--budget", "10"]) == 4
    monkeypatch.setenv("ORBITRIPS_BUDGET", "10")
    assert main(argv) == 4
    assert main(argv + ["--budget", "100000"]) == 0  # flag beats environment
    monkeypatch.setenv("ORBITRIPS_BUDGET", "notanumber")
    assert main(argv) == 3


@pytest.mark.parametrize("argv", [
    ["complex", "--scale", "0.2"],
    ["complex", "--scale", "0.2", "--kind", "cech"],
    ["betti", "--scale", "0.2"],
    ["persistence"],
    ["iso-check", "--scale", "0.2"],
    ["check", "--kind", "diameter", "--scale", "0.2"],
    ["check", "--kind", "nerve", "--scale", "0.6"],
    ["thresholds", "--kind", "diameter"],
    ["thresholds", "--kind", "nerve"],
])
def test_negative_dim_cap_and_k_max_exit_3(tmp_path, circle12, antipodal12, argv):
    inputs = ["--space", str(circle12), "--out", str(tmp_path / "out")]
    if argv[0] not in ("complex", "betti", "persistence"):
        inputs += ["--action", str(antipodal12)]
    flag = "--k-max" if argv[0] in ("check", "thresholds") else "--dim-cap"
    for bad in ("-1", "-2"):
        assert main(argv + inputs + [flag, bad]) == 3
        assert not (tmp_path / "out").exists()
    assert main(argv + inputs + [flag, "0"]) == 0


# argv -> whether the full parser accepts it; SPACE and ACTION stand for the
# circle12 and antipodal12 files
PARSE_CORPUS = [
    (["generate", "--shape", "circle", "--param", "n=12", "--seed", "3"], True),
    (["generate", "--shape", "circle", "--param", "n=8", "--param", "n=12"], True),
    (["generate", "--sha", "circle", "--para", "n=8", "--out", "o.json"], True),
    (["action", "--kind", "rotation", "--n", "12", "--steps", "4"], True),
    (["action", "--kind", "block-shift", "--blocks", "6", "--space", "SPACE"], True),
    (["quotient", "--space", "SPACE", "--action", "ACTION", "--out", "q.json"], True),
    (["check", "--kind", "nerve", "--scale", "1/6", "--space", "SPACE",
      "--action", "ACTION", "--conv", "leq", "--k-max", "2", "--budget", "100"], True),
    (["thresholds", "--kind", "diameter", "--space", "SPACE", "--action", "ACTION"], True),
    (["thresholds", "--kind=nerve", "--space=SPACE", "--action=ACTION", "--k-m", "2"], True),
    (["complex", "--space", "SPACE", "--scale", "0.3", "--full", "--kind", "cech",
      "--dim", "2"], True),
    (["iso-check", "--space", "SPACE", "--action", "ACTION", "--scale", "0.16",
      "--convention", "leq", "--dim-cap", "2"], True),
    (["persistence", "--space", "SPACE", "--dim-cap", "2", "--max", "0.4"], True),
    (["betti", "--space", "SPACE", "--scale", "1/6", "--scale", "0.2"], True),
    (["betti", "--space", "SPACE", "--scale=-h"], True),
    (["report", "--out", "r.txt"], True),
    (["report"], True),
    ([], False),
    (["-h"], False),
    (["--version"], False),
    (["bogus", "--space", "SPACE"], False),
    (["--", "betti", "--space", "SPACE", "--scale", "1"], False),
    (["thresholds", "--kind", "diameter", "--space", "SPACE"], False),
    (["check", "--kind", "bogus", "--space", "SPACE", "--action", "ACTION",
      "--scale", "1"], False),
    (["complex", "--space", "SPACE", "--scale", "0.3", "--dim-cap", "two"], False),
    (["thresholds", "--k", "diameter", "--space", "SPACE", "--action", "ACTION"], False),
    (["generate", "--shape", "circle", "--param"], False),
    (["betti", "--space", "SPACE", "--scale", "-h"], False),
    (["betti", "--space", "SPACE", "--scale", "1", "--bogus"], False),
    (["betti", "--space", "SPACE", "--scale", "1", "--version"], False),
    (["betti", "--space", "SPACE", "--scale", "1", "extra"], False),
    (["betti", "-h"], False),
    (["betti", "--he"], False),
    (["betti", "--space", "SPACE", "--help"], False),
    (["report", "-h"], False),
    (["betti", "--", "--space", "SPACE", "--scale", "1"], False),
    (["betti", "--space", "SPACE", "--scale", "1", "--"], False),
]


def _exit_and_output(parse, argv, capsys):
    with pytest.raises(SystemExit) as ei:
        parse(argv)
    return ei.value.code, capsys.readouterr()


@pytest.mark.parametrize("argv,accepted", PARSE_CORPUS)
def test_subcommand_parser_agrees_with_the_full_parser(argv, accepted, capsys,
                                                       circle12, antipodal12):
    argv = [a.replace("SPACE", str(circle12)).replace("ACTION", str(antipodal12))
            for a in argv]
    capsys.readouterr()  # the fixtures' messages
    if accepted:
        assert cli.parse_args(argv) == cli.build_parser().parse_args(argv)
        assert capsys.readouterr() == ("", "")
    else:
        assert _exit_and_output(main, argv, capsys) == \
            _exit_and_output(cli.build_parser().parse_args, argv, capsys)
