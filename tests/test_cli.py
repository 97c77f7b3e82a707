import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import acutesphere
from acutesphere import cli, fixtures, realization, triangulation
from acutesphere.cli import main
from acutesphere.triangulation import (AbstractTriangulation, double,
                                       is_flag_no_separating_square, is_flag_no_square,
                                       maehara_cap, serialize)
from conftest import random_flips, remove_stars, triangle_strip


def fixture_file(name):
    return str(fixtures.fixture_path(name))


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    report = json.loads(out) if out.strip() else None
    return code, report, err


def test_check_icosahedron(capsys):
    code, report, err = run(capsys, ["check", fixture_file("icosahedron")])
    assert code == 0
    assert report["verdicts"]["acute_realizable"]
    assert report["verdicts"]["flag_no_square"]
    assert report["verdicts"]["itoh_face_count"]
    assert "acute-realizable" in err


def test_check_obstructed_double(capsys):
    code, report, err = run(capsys, ["check", fixture_file("square_disk_a_double")])
    assert code == 1
    assert not report["verdicts"]["acute_realizable"]
    kinds = {w["kind"] for w in report["witnesses"]}
    assert "separating-4-cycle" in kinds


def test_check_report_independent_of_hash_seed():
    # the region search walks sets of faces; the report must not depend on
    # the order in which the string hash seed makes it find the regions: on
    # the octahedron, on a planar cap whose boundary cycles all get the
    # region search, and on an obstructed double with separating witnesses
    src = str(Path(acutesphere.__file__).resolve().parents[1])
    for name, code, hash_seeds in (("octahedron", 1, ("1", "2", "3")),
                                   ("maehara_cap_8", 0, ("0", "5")),
                                   ("square_disk_a_double", 1, ("0", "5"))):
        outputs = set()
        for hash_seed in hash_seeds:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "acutesphere.cli", "check", fixture_file(name)],
                env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == code, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, name


def test_realize_positions_independent_of_hash_seed():
    # the solve indexes vertices by id and faces in their oriented order,
    # never by set order, so it is the same under every hash seed
    src = str(Path(acutesphere.__file__).resolve().parents[1])
    positions = set()
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "acutesphere.cli", "realize", fixture_file("sphere_28")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        positions.add(json.dumps(json.loads(proc.stdout)["realization"]["vertices"]))
    assert len(positions) == 1


def test_realize_report_independent_of_hash_seed():
    # the Tutte start adds each vertex's pinned neighbours in name order; in
    # set order, the vertices of square_disk_b with three or more pinned
    # neighbours summed them differently under other string hash seeds
    src = str(Path(acutesphere.__file__).resolve().parents[1])
    outputs = set()
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "acutesphere.cli", "realize", fixture_file("square_disk_b")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


@pytest.mark.parametrize("name", ["sphere_34", "maehara_cap_5"])
def test_realize_output_does_not_depend_on_seed(tmp_path, capsys, name):
    # the circle pattern is unique and solved without randomness, so realize
    # takes no --seed: passing one is a usage error, and the report's seed
    # reads null, as for check and dual
    with pytest.raises(SystemExit) as exc:
        main(["realize", fixture_file(name), "--out", str(tmp_path), "--seed", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
    assert not tmp_path.joinpath(f"{name}.off").exists()
    code, report, _ = run(capsys, ["realize", fixture_file(name)])
    assert code == 0 and report["seed"] is None


def test_realize_validates_once(tmp_path, capsys, monkeypatch):
    # the report's acuteness and pattern residuals come from the one
    # validation pass of the solve: it builds the non-adjacent pairs and
    # measures the corner angles once, on the 110-vertex double
    calls = []
    for name in ("_nonedge_pairs", "_all_corner_angles"):
        def counted(*args, worker=getattr(realization, name), name=name):
            calls.append(name)
            return worker(*args)
        monkeypatch.setattr(realization, name, counted)
    path = tmp_path / "double12.json"
    path.write_text(serialize(double(maehara_cap(12))))
    code, report, _ = run(capsys, ["realize", str(path)])
    assert code == 0 and report["verdicts"]["acute"]
    assert sorted(calls) == ["_all_corner_angles", "_nonedge_pairs"]


def test_check_enumerates_cycles_once(capsys, monkeypatch):
    # has_chordless_square, separating_cycles, ideal_allright_conditions and
    # first_obstruction all read the cycles cached on the one triangulation,
    # and both is_flag calls and cmd_check read its cached 4-cliques; each
    # cycle gets at most one region search, whichever predicates ask for it
    calls = []
    names = ("_enumerate_four_cliques", "_enumerate_four_cycles", "_enumerate_triangles")
    for name in names:
        def counted(tri, worker=getattr(triangulation, name), name=name):
            calls.append(name)
            return worker(tri)
        monkeypatch.setattr(triangulation, name, counted)
    searched = []

    def region_search(tri, cycle, worker=triangulation._region_interiors):
        searched.append(tuple(cycle))
        return worker(tri, cycle)

    monkeypatch.setattr(triangulation, "_region_interiors", region_search)
    for fixture in ("icosahedron", "octahedron", "square_disk_a_double", "maehara_cap_8"):
        calls.clear()
        searched.clear()
        run(capsys, ["check", fixture_file(fixture), "--labels"])
        assert sorted(calls) == list(names), fixture
        assert len(set(searched)) == len(searched), fixture
        if fixture in ("octahedron", "square_disk_a_double"):
            assert searched, fixture


def test_check_planar_verdict_matches_predicate(tmp_path, capsys):
    # the planar verdict is read off the separating-cycle list; it must agree
    # with the standalone predicate, also on a flag disk whose chordless
    # 4-cycles separate through its boundary vertices
    disk = AbstractTriangulation(
        ["x", "u", "v", "y", "a", "b"],
        [("x", "u", "v"), ("u", "y", "v"), ("x", "u", "a"),
         ("u", "a", "y"), ("x", "v", "b"), ("v", "b", "y")])
    inputs = {"disk": disk}
    inputs.update((name, fixtures.load(name)) for name in fixtures.FIXTURE_NAMES)
    verdicts = {}
    for name, tri in inputs.items():
        if tri.is_closed:
            continue
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(tri))
        _, report, _ = run(capsys, ["check", str(path)])
        verdicts[name] = report["verdicts"]["flag_no_separating_square"]
        assert verdicts[name] == is_flag_no_separating_square(tri), name
    assert verdicts["disk"] is False and verdicts["square_disk_a"] is True


def test_planar_faces_through_two_boundary_vertices_do_not_separate(tmp_path, capsys):
    # the icosahedron minus the stars of v0 and a vertex two steps away, and
    # the 12-vertex strip: their faces and chorded squares through two
    # boundary vertices do not separate, so check accepts and realize delivers
    ico = fixtures.load("icosahedron")
    inputs = {f"ico-v0-{v}": remove_stars(ico, ("v0", v))
              for v in ("v3", "v4", "v8", "v10", "v11")}
    inputs["strip"] = triangle_strip(6)
    for name, tri in inputs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(serialize(tri))
        code, report, _ = run(capsys, ["check", str(path)])
        assert code == 0 and report["verdicts"]["flag_no_separating_square"], name
        code, report, _ = run(capsys, ["realize", str(path)])
        assert code == 0 and report["verdicts"]["acute"], name


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    with pytest.raises(SystemExit) as exc:
        run(capsys, ["check", str(bad)])
    assert exc.value.code == 2


@pytest.mark.parametrize("doc", [
    {"vertices": [], "faces": []},
    {"vertices": ["a", "b", "c"], "faces": [1]},
    {"vertices": 5, "faces": [["a", "b", "c"]]},
    {"vertices": None, "faces": [["a", "b", "c"]]},
], ids=["empty", "face-not-a-list", "vertices-a-number", "vertices-null"])
def test_check_malformed_document(tmp_path, capsys, doc):
    # well-formed JSON of the wrong shape is an input error, not a traceback
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["check", str(path)])
    assert exc.value.code == 2
    assert "input error" in capsys.readouterr().err


def test_boundary_triangle_checks_but_is_not_realized(tmp_path, capsys):
    # a boundary 3-cycle passes the combinatorial criterion, but no cap or
    # wheel closes it, so realize refuses it as an input error
    path = tmp_path / "face.json"
    path.write_text(serialize(AbstractTriangulation(["a", "b", "c"], [("a", "b", "c")])))
    code, report, _ = run(capsys, ["check", str(path)])
    assert code == 0 and report["verdicts"]["acute_realizable"]
    code, report, err = run(capsys, ["realize", str(path)])
    assert code == 2 and report is None
    assert "boundary 3-cycles are not supported by the capping pipeline" in err


def test_chorded_boundary_square_checks_but_is_not_realized(tmp_path, capsys):
    # the two-face square disk passes the combinatorial criterion, but a
    # wheel on its boundary square would close a 3-cycle with the chord
    # that bounds no face, so realize refuses it as an input error
    path = tmp_path / "square.json"
    path.write_text(serialize(AbstractTriangulation(
        ["a", "b", "c", "d"], [("a", "b", "c"), ("a", "c", "d")])))
    code, report, _ = run(capsys, ["check", str(path)])
    assert code == 0 and report["verdicts"]["acute_realizable"]
    code, report, err = run(capsys, ["realize", str(path)])
    assert code == 2 and report is None
    assert "boundary squares with a chord are not supported by the capping pipeline" in err


def test_check_labeled(capsys):
    code, report, _ = run(capsys, ["check", fixture_file("icosahedron"), "--labels"])
    assert code == 0
    assert report["verdicts"]["coxeter_one_ended"]
    assert report["verdicts"]["faces_induce_finite_groups"]


def test_realize_writes_outputs(tmp_path, capsys):
    code, report, err = run(capsys, [
        "realize", fixture_file("icosahedron"), "--out", str(tmp_path)])
    assert code == 0
    assert report["verdicts"]["acute"]
    assert report["metrics"]["edge_residual"] < 1e-9
    # the solve's residual and the validation pass's are one formula
    assert report["metrics"]["max_pattern_residual"] == report["metrics"]["edge_residual"]
    stem = "icosahedron"
    assert (tmp_path / f"{stem}.off").exists()
    assert (tmp_path / f"{stem}.svg").exists()
    data = json.loads((tmp_path / f"{stem}.realization.json").read_text())
    assert set(data["vertices"]) == set(fixtures.load("icosahedron").vertices)
    off = (tmp_path / f"{stem}.off").read_text().splitlines()
    assert off[0] == "OFF" and off[1].split()[0] == "12"


def test_realize_out_is_a_file(tmp_path, capsys, monkeypatch):
    # an unusable --out is an input error, found before the solve
    def no_solve(*args, **kwargs):
        raise AssertionError("realize solved before checking --out")

    monkeypatch.setattr(cli, "realize_sphere", no_solve)
    taken = tmp_path / "taken"
    taken.write_text("")
    with pytest.raises(SystemExit) as exc:
        run(capsys, ["realize", fixture_file("icosahedron"), "--out", str(taken)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("input error: cannot create output directory")


def test_realize_refusal_exit_code(capsys):
    code, report, err = run(capsys, ["realize", fixture_file("square_disk_a_double")])
    assert code == 1
    assert not report["verdicts"]["realized"]
    assert report["witnesses"]


@pytest.mark.parametrize("command", ["check", "realize"])
def test_obstruction_svg_draws_the_witness(tmp_path, capsys, command):
    code, report, _ = run(capsys, [command, fixture_file("octahedron"), "--out", str(tmp_path)])
    assert code == 1
    cycle = report["witnesses"][0]["cycle"]
    svg = (tmp_path / "obstruction.svg").read_text()
    red_edges = [line for line in svg.splitlines()
                 if line.startswith("<line") and 'stroke="red"' in line]
    red_vertices = [line for line in svg.splitlines()
                    if line.startswith("<circle") and 'fill="red"' in line]
    assert len(red_edges) == len(cycle) == len(red_vertices) == 4


def test_removed_options_are_rejected(capsys):
    for argv in (["check", fixture_file("octahedron"), "--format", "svg"],
                 ["invariants", fixture_file("icosahedron"), "--out", "unused"],
                 ["check", fixture_file("octahedron"), "--seed", "1"],
                 ["check", fixture_file("octahedron"), "--tol", "1e-9"],
                 ["dual", "--triangle", "1,0.5,0.6", "--target", "2,3,5",
                  "--grid-step", "1e-4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("command", ["realize", "invariants"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_tol_must_be_finite_and_positive(capsys, command, tol):
    # NaN and inf would pass every residual, and a bound at or below zero
    # would reject every pattern as if the pattern were at fault
    with pytest.raises(SystemExit) as exc:
        main([command, fixture_file("icosahedron"), "--tol", tol])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tol: must be a finite number above 0, not '{tol}'" in err


def test_realize_planar_euclidean_export(tmp_path, capsys):
    code, report, _ = run(capsys, [
        "realize", fixture_file("maehara_cap_5"), "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "maehara_cap_5.euclidean.svg").exists()


def test_dual_absence(capsys):
    code, report, err = run(capsys, ["dual", "--triangle", "1,0.5,0.6",
                                     "--target", "2,3,5"])
    assert code == 1
    assert report["absence"]["reason"] == "sign-constant"
    assert report["absence"]["grid_step"] <= 1e-4


def test_dual_witness(capsys):
    code, report, err = run(capsys, ["dual", "--triangle", "1.1,1.1,1.1",
                                     "--target", "2,2,2"])
    assert code == 0
    w = report["witness"]
    assert 0 < w["x"] < 1
    assert report["cube"]["vertices"]["O'"]
    assert report["cube"]["volume"] > 0
    assert report["metrics"]["cube_volume"] == report["cube"]["volume"]


def test_dual_labels_keep_their_corners(capsys):
    # the labels give pi/p at A, pi/q at B and pi/r at C, so the 5 of a
    # (2,2,5) target fits this triangle at B and nowhere else
    code, report, _ = run(capsys, ["dual", "--triangle", "0.4,1.45,1.3",
                                   "--target", "2,5,2"])
    assert code == 0
    assert report["cube"]["volume"] > 0
    w = report["witness"]
    assert w["link_at_opposite"]["angles"] == pytest.approx(
        [math.pi / 2, math.pi / 5, math.pi / 2], abs=1e-12)
    assert max(abs(r) for r in w["sigma_residuals"]) <= 1e-10
    x, y, z = w["x"], w["y"], w["z"]
    a, b, c = w["link_at_O"]["sides"]
    A, B, C = w["link_at_opposite"]["angles"]
    for side, angle, u, v in ((a, A, y, z), (b, B, z, x), (c, C, x, y)):
        sigma = (math.cos(angle) * math.sqrt((1 - u * u) * (1 - v * v))
                 - u * v + math.cos(side))
        assert abs(sigma) <= 1e-10
    for target in ("5,2,2", "2,2,5"):
        code, report, err = run(capsys, ["dual", "--triangle", "0.4,1.45,1.3",
                                         "--target", target])
        assert code == 1
        assert report["absence"]["reason"] == "necessary-condition"
        assert "necessary-condition" in err


def test_dual_invalid_sides(capsys):
    code, _, err = run(capsys, ["dual", "--triangle", "0.9,0.9,2.0",
                                "--target", "2,2,2"])
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("argv", [
    ["--triangle", "1,0.5,x", "--target", "2,3,5"],
    ["--triangle", "1,0.5,0.6", "--target", "2,3,x"],
    ["--triangle", "1,0.5,0.6", "--target", "2,3,4.5"],
    ["--triangle", "1.1,1.1,1.1", "--target-triangle", "1.5,1.5,y"],
])
def test_dual_malformed_triple(capsys, argv):
    code, report, err = run(capsys, ["dual", *argv])
    assert code == 2
    assert report is None
    assert err.startswith("input error: expected three")


@pytest.mark.parametrize("targets", [
    [],
    ["--target", "2,2,2", "--target-triangle", "1.5,1.5,1.5"],
], ids=["neither", "both"])
def test_dual_needs_exactly_one_target(capsys, targets):
    with pytest.raises(SystemExit) as exc:
        main(["dual", "--triangle", "1.1,1.1,1.1", *targets])
    assert exc.value.code == 2
    assert "--target" in capsys.readouterr().err


def test_dual_target_triangle(capsys):
    code, report, _ = run(capsys, ["dual", "--triangle", "1.1,1.1,1.1",
                                   "--target-triangle",
                                   f"{math.pi/2},{math.pi/2},{math.pi/2}"])
    assert code == 0


def test_invariants_icosahedron(capsys):
    code, report, err = run(capsys, [
        "invariants", fixture_file("icosahedron"), "--seed", "1"])
    assert code == 0
    assert abs(report["metrics"]["alpha"] - 2 * math.pi / 5) <= 1e-9
    assert report["metrics"]["alpha_valid_realization"]
    assert abs(report["metrics"]["beta"] - 4.306207600730809) < 1e-10


def test_invariants_realizes_once(capsys, monkeypatch):
    # alpha is seeded from the circle-pattern realization and beta reuses it
    solve = realization.realize_sphere
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(realization, "realize_sphere", counted)
    monkeypatch.setattr(cli, "realize_sphere", counted)
    code, report, _ = run(capsys, ["invariants", fixture_file("icosahedron")])
    assert code == 0
    assert abs(report["metrics"]["beta"] - 4.306207600730809) < 1e-10
    assert len(calls) == 1


def test_invariants_beta_refused_when_obstructed(capsys, monkeypatch):
    estimates = []

    def recorded(*args, **kwargs):
        estimates.append(realization.alpha_estimate(*args, **kwargs))
        return estimates[-1]

    monkeypatch.setattr(cli, "alpha_estimate", recorded)
    code, report, err = run(capsys, [
        "invariants", fixture_file("square_disk_a_double")])
    assert code == 0
    assert "beta" not in report["metrics"]
    assert any("beta refused" in n for n in report["notes"])
    assert report["metrics"]["alpha"] >= math.pi / 2
    assert err.strip() == f"alpha={report['metrics']['alpha']:.6f}, beta refused"
    # with --seed 2 every end point of this input folds (alpha 1.563561);
    # the summary says so instead of printing the value as an alpha
    folded = dataclasses.replace(estimates[0], value=1.5635607124217696, valid=False)
    monkeypatch.setattr(cli, "alpha_estimate", lambda *args, **kwargs: folded)
    code, report, err = run(capsys, [
        "invariants", fixture_file("square_disk_a_double"), "--seed", "2"])
    assert code == 0
    assert report["metrics"]["alpha_valid_realization"] is False
    assert err.strip() == "alpha=1.563561 (no valid realization), beta refused"


def test_invariants_deterministic(capsys):
    _, r1, _ = run(capsys, ["invariants", fixture_file("icosahedron"), "--seed", "3"])
    _, r2, _ = run(capsys, ["invariants", fixture_file("icosahedron"), "--seed", "3"])
    assert r1["metrics"] == r2["metrics"]


def test_construct_cap_and_double(tmp_path, capsys):
    out = tmp_path / "cap5.json"
    code, _, err = run(capsys, ["construct", "cap", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["faces"]) == 45
    code2, _, err2 = run(capsys, ["construct", "double", str(out)])
    assert code2 == 0


def test_construct_flip_boundary_edge_fails(tmp_path, capsys):
    out = tmp_path / "cap5.json"
    run(capsys, ["construct", "cap", "5", "--out", str(out)])
    code, _, err = run(capsys, ["construct", "flip", str(out), "--edge", "b0,b1"])
    assert code == 2
    assert "input error" in err


def test_construct_out_under_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken / "cap5.json", tmp_path):
        code, report, err = run(capsys, ["construct", "cap", "5", "--out", str(out)])
        assert code == 2
        assert err.startswith("input error: cannot write")
    assert taken.read_text() == ""


def test_construct_cap_too_small(capsys):
    code, _, err = run(capsys, ["construct", "cap", "4"])
    assert code == 2


def test_check_and_realize_agree_on_verdicts(capsys):
    # the combinatorial checker and the realizer never disagree, over the
    # whole shipped corpus: both read one verdict, so an obstructed input
    # gets the same first witness, or the same reason when there is none
    for name in fixtures.FIXTURE_NAMES:
        path = fixture_file(name)
        check_code, check, check_err = run(capsys, ["check", path])
        realize_code, real, _ = run(capsys, ["realize", path])
        assert (check_code == 0) == (realize_code == 0), name
        if realize_code:
            if real["witnesses"]:
                assert check["witnesses"][0] == real["witnesses"][0], name
            else:
                assert real["verdicts"]["refusal"] in check_err, name


def test_check_and_realize_agree_on_flip_walks(tmp_path, capsys):
    # 20 seeded walks of diagonal flips that stay flag no-square, from the
    # icosahedron (which has no such flip) and the n = 5 and n = 8 doubles;
    # each walk's end must realize, and one more unrestricted flip of it
    # (mostly obstructed) must get the same verdict from both commands: an
    # acute pattern when realizable, else refusals with the same witness kind
    rng = random.Random(20261019)
    bases = [fixtures.load("icosahedron"), double(maehara_cap(5)), double(maehara_cap(8))]
    outcomes = {0: 0, 1: 0}
    for k in range(20):
        walk = random_flips(bases[k % 3], rng, rng.randint(1, 12), keep=is_flag_no_square)
        for step, tri in enumerate((walk, random_flips(walk, rng, 1))):
            path = tmp_path / f"walk_{k}_{step}.json"
            path.write_text(serialize(tri))
            check_code, check, _ = run(capsys, ["check", str(path)])
            realize_code, real, _ = run(capsys, ["realize", str(path)])
            assert check_code == realize_code, (k, step)
            assert step == 1 or check_code == 0, k
            outcomes[check_code] += 1
            if check_code == 0:
                assert check["verdicts"]["itoh_face_count"], (k, step)
                verdicts, metrics = real["verdicts"], real["metrics"]
                assert verdicts["acute"] and verdicts["coinciding_perpendiculars"], (k, step)
                assert metrics["edge_residual"] <= 1e-11, (k, step)
                assert metrics["margin"] > 0 and metrics["min_nonedge_clearance"] > 0, (k, step)
            else:
                assert real["witnesses"][0]["kind"] == check["witnesses"][0]["kind"], k
    assert outcomes[1] >= 10, outcomes


def test_main_calls_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process; successive calls on different
    # subcommands, with usage errors between them, must behave as if each
    # ran alone
    assert cli.build_parser() is cli.build_parser()
    src = str(Path(acutesphere.__file__).resolve().parents[1])
    runs = (["check", fixture_file("icosahedron")],
            ["check"],
            ["construct", "cap", "5"],
            ["dual", "--triangle", "0.7,0.8,0.9", "--target", "2,2,2"],
            ["invariants", fixture_file("tetrahedron"), "--seed", "x"],
            ["--version"])
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "acutesphere.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
