"""The package namespace: lazy public names and what each entry point loads."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

import acutesphere
from acutesphere import cli, fixtures, klein, realization, triangulation

SRC = str(Path(acutesphere.__file__).resolve().parents[1])

PUBLIC_NAMES = sorted((
    "AbsenceCertificate", "AbstractTriangulation", "AcuteSphereError", "AlphaEstimate",
    "CirclePatternResidual", "CombinatorialRefusal", "CornerMap", "CycleWitness",
    "DualSolveResult", "DualityWitness", "EdgeLabeling", "EuclideanRealization",
    "GeodesicRealization", "GeometryError", "InternalInconsistency", "ParseError",
    "RealizationResult", "SigmaCurve", "SlantedCubeModel", "SolveError",
    "SphericalTriangle", "ValidationError", "acute_sides_property", "alpha_estimate",
    "area", "beta", "build_slanted_cube", "coxeter_face_finite", "coxeter_one_ended",
    "diagonal_flip", "double", "empty_3cycle_obstruction", "fatter", "foot_parameter",
    "from_angles", "from_sides", "has_chordless_square", "ideal_allright_conditions",
    "is_acute", "is_flag", "is_flag_no_separating_square", "is_flag_no_square",
    "is_strongly_obtuse", "is_subordinate", "itoh_face_predicate", "maehara_cap",
    "orthocenter", "parse_document", "parse_file", "pattern_residuals", "polar_dual",
    "project_euclidean", "realize_sphere", "separating_cycles", "serialize", "sigma",
    "slimmer", "solve_dual_22p", "solve_dual_general", "square_wheel",
    "tessellation_22p", "triangle_pqr", "verify_acute", "verify_coinciding_perpendiculars",
    "volume",
))
SUBMODULES = ("duality", "errors", "klein", "pattern", "realization", "spherical",
              "triangulation")


def fresh(code):
    """Run ``code`` in a new interpreter on this checkout; its last stdout line
    is JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_neither_numpy_nor_scipy():
    loaded = fresh("import json, sys, acutesphere\n"
                   "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))")
    assert "numpy" not in loaded
    assert "scipy" not in loaded


def test_check_command_does_not_load_scipy():
    path = str(fixtures.fixture_path("icosahedron"))
    out = fresh("import contextlib, io, json, sys\n"
                "from acutesphere import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main(['check', {path!r}])\n"
                "print(json.dumps([code, 'scipy' in sys.modules]))")
    assert out == [0, False]


def test_realize_command_does_not_load_scipy(tmp_path):
    # the Moebius normalization is numpy Newton steps, so realizing and its
    # exports need no scipy
    path = str(fixtures.fixture_path("icosahedron"))
    out = fresh("import contextlib, io, json, sys\n"
                "from acutesphere import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    code = cli.main(['realize', {path!r}, '--out', {str(tmp_path)!r}])\n"
                "print(json.dumps([code, 'scipy' in sys.modules]))")
    assert out == [0, False]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "icosahedron.off", "icosahedron.realization.json", "icosahedron.svg"]


def test_submodule_resolves_after_bare_import():
    out = fresh("import json, acutesphere\n"
                "print(json.dumps([acutesphere.pattern.__name__,\n"
                "                  callable(acutesphere.pattern.solve_pattern)]))")
    assert out == ["acutesphere.pattern", True]


def test_public_names_are_the_submodules_objects():
    assert sorted(acutesphere.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 65
    for name in PUBLIC_NAMES:
        obj = getattr(acutesphere, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    listed = set(dir(acutesphere))
    assert listed >= set(PUBLIC_NAMES) | set(SUBMODULES)
    namespace = {}
    exec("from acutesphere import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        acutesphere.no_such_name
    assert not hasattr(acutesphere, "fixture_path")
    with pytest.raises(ImportError):
        exec("from acutesphere import no_such_name", {})


def test_alpha_estimate_calls_through_module_minimize(monkeypatch):
    calls = []
    original = realization.minimize

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result.nfev)
        return result

    monkeypatch.setattr(realization, "minimize", counted)
    realization.alpha_estimate(fixtures.load("octahedron"), starts=1)
    # one start (the octahedron is not flag no-square, so no seeding
    # realization) runs the three-temperature schedule
    assert len(calls) == 3
    assert all(n > 0 for n in calls)


def test_clausen_coefficients_match_zeta_formula():
    two_k = np.arange(48, 0, -2)
    expected = 2.0 * zeta(two_k) / ((2.0 * math.pi) ** two_k * two_k * (two_k + 1))
    assert np.array_equal(klein._clausen_coefficients(), expected)
    assert klein._clausen_coefficients() is klein._clausen_coefficients()


def _perfbench_tracer():
    """perfbench/tracer.py loaded as a module of its own, not installed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    # the traced benchmark reports a function it cannot find as an absent
    # layer; each one it wraps or counts must exist in the package
    tracer = _perfbench_tracer()
    targets = [(module, attr) for _, module, attr in tracer.LAYERS]
    targets += [(module, attr) for _, module, attr, _ in tracer.COUNTERS]
    assert [t for t in targets if tracer._lookup(*t) is None] == []


@pytest.mark.parametrize("closed", [True, False], ids=["double_12", "cap_12"])
def test_check_names_only_returned_witnesses(tmp_path, capsys, monkeypatch, closed):
    # the predicates scan the 4-cycles by id; the named enumeration is for
    # callers and tests only
    def unreachable(tri):
        raise AssertionError("check called four_cycles")

    monkeypatch.setattr(triangulation, "four_cycles", unreachable)
    tri = triangulation.maehara_cap(12)
    if closed:
        tri = triangulation.double(tri)
    path = tmp_path / "input.json"
    path.write_text(triangulation.serialize(tri))
    assert cli.main(["check", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdicts"]["acute_realizable"]
