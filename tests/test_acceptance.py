"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import time

import numpy as np
import pytest

from acutesphere import fixtures
from acutesphere.cli import main as cli_main
from acutesphere.duality import SigmaCurve, solve_dual_22p, solve_dual_general
from acutesphere.klein import beta, build_slanted_cube
from acutesphere.realization import (CombinatorialRefusal, alpha_estimate,
                                     project_euclidean, realize_sphere,
                                     verify_acute)
from acutesphere.spherical import from_angles, from_sides, polar_dual, triangle_pqr
from acutesphere.triangulation import (double, empty_three_cycles, four_cliques,
                                       has_chordless_square, is_flag,
                                       itoh_face_predicate, separating_cycles,
                                       square_wheel)

from conftest import (cube_edge_lengths, cube_links, euclidean_corner_angles,
                      euclidean_orthogonality_residual,
                      euclidean_perpendicular_ratio_deviation, random_acute_triangle,
                      reference_solve_y_grid)

# frozen from scripts/dodecahedron_volume_oracle.py before the build
DODECAHEDRON_VOLUME = 4.306207600730809

CORPUS = ("tetrahedron", "octahedron", "icosahedron", "square_disk_a_double",
          "square_disk_b_double", "sphere_28", "sphere_34")


def _ok(n, msg):
    print(f"criterion {n}: PASS - {msg}")


def test_criterion_1_formulation_equivalence_sweep():
    t0 = time.perf_counter()
    corpus = [fixtures.load(name) for name in CORPUS]
    corpus.append(double(square_wheel()))
    for n in (5, 6, 7, 8):
        corpus.append(double(fixtures.load(f"maehara_cap_{n}")))
    for tri in corpus:
        clique_form = is_flag(tri) and has_chordless_square(tri) is None
        # separating formulation; the four-clique guard only matters for K4,
        # where no 3- or 4-cycle separates
        separating_form = (not separating_cycles(tri)
                           and not empty_three_cycles(tri)
                           and not four_cliques(tri))
        assert clique_form == separating_form, tri
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"sweep took {dt:.2f}s"
    _ok(1, f"two flag-no-square formulations agree on {len(corpus)} fixtures "
           f"in {dt * 1000:.0f} ms")


def test_criterion_2_published_triangle_numerics():
    R = from_sides(1.0, 0.5, 0.6)
    assert R.A == pytest.approx(2.318, abs=1e-3)
    assert R.B == pytest.approx(0.431, abs=1e-3)
    assert R.C == pytest.approx(0.514, abs=1e-3)
    S = from_angles(math.pi / 2, math.pi / 3, math.pi / 5)
    assert S.a == pytest.approx(0.652, abs=1e-3)
    assert S.b == pytest.approx(0.553, abs=1e-3)
    assert S.c == pytest.approx(0.364, abs=1e-3)
    res = solve_dual_general(R, triangle_pqr(2, 3, 5))
    assert not res.found
    assert res.certificate.reason == "sign-constant"
    assert res.certificate.grid_step <= 1e-4
    _ok(2, "triangle solvers match the printed values to 1e-3 and the "
           "(2,3,5) duality is certified absent by its end signs")


def test_criterion_3_closed_form_duality_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_param = 0.0
    worst_link = 0.0
    for _ in range(1000):
        R = random_acute_triangle(rng)
        w = solve_dual_22p(R, 2)
        ca, cb, cc = (math.cos(s) for s in R.sides())
        x = math.sqrt(cb * cc / ca)
        y = math.sqrt(cc * ca / cb)
        z = math.sqrt(ca * cb / cc)
        worst_param = max(worst_param, abs(w.x - x), abs(w.y - y), abs(w.z - z))
        link_O, link_opposite = cube_links(build_slanted_cube(w))
        for measured, expected in ((link_O, (R.angles(), R.sides())),
                                   (link_opposite,
                                    (triangle_pqr(2, 2, 2).angles(),
                                     triangle_pqr(2, 2, 2).sides()))):
            for ms, es in zip(measured, expected):
                for m, e in zip(ms, es):
                    worst_link = max(worst_link, abs(m - e))
    dt = time.perf_counter() - t0
    assert worst_param < 1e-10
    assert worst_link < 1e-8
    assert dt < 5.0, f"took {dt:.2f}s"
    _ok(3, f"1000 random acute triangles: solver vs closed form {worst_param:.2e}, "
           f"link reconstruction {worst_link:.2e}, {dt:.2f}s")


def test_criterion_4_realization():
    t0 = time.perf_counter()
    ico = realize_sphere(fixtures.load("icosahedron"), seed=0)
    expected_r = math.acos(5 ** -0.25)
    for v in ico.realization.parent.vertices:
        assert abs(ico.realization.radii[v] - expected_r) < 1e-8
    for _, _, ang in ico.realization.corner_angles():
        assert abs(ang - 2 * math.pi / 5) < 1e-6
    t_ico = time.perf_counter() - t0
    assert t_ico < 30.0

    margins = {}
    for name in ("sphere_28", "sphere_34"):
        t1 = time.perf_counter()
        res = realize_sphere(fixtures.load(name), seed=0)
        assert res.residual < 1e-9
        assert verify_acute(res.realization).max_angle < math.pi / 2 - 1e-3
        margins[name] = res.margin
        assert time.perf_counter() - t1 < 30.0

    with pytest.raises(CombinatorialRefusal) as exc:
        realize_sphere(fixtures.load("square_disk_a_double"))
    assert exc.value.witness.kind == "separating-4-cycle"
    _ok(4, f"icosahedron exact to 1e-8/1e-6 in {t_ico:.2f}s; margins "
           f"{margins['sphere_28']:.4f}/{margins['sphere_34']:.4f}; "
           "square-disk double refused with a separating square")


def test_criterion_5_itoh_predicate_and_fixtures(capsys):
    table = {20: True, 22: False, 24: True, 28: True, 34: True,
             19: False, 100: True}
    for n, expected in table.items():
        assert itoh_face_predicate(n) == expected
    for name in ("sphere_28", "sphere_34"):
        code = cli_main(["check", str(fixtures.fixture_path(name))])
        capsys.readouterr()
        assert code == 0
    _ok(5, "face-count characterization and 28-/34-face fixtures check out")


def test_criterion_6_planar_pipeline():
    disk = realize_sphere(fixtures.load("square_disk_a"), seed=0)
    assert verify_acute(disk.realization).passed
    with pytest.raises(CombinatorialRefusal):
        project_euclidean(disk)

    cap = realize_sphere(fixtures.load("maehara_cap_5"), seed=0)
    eu = project_euclidean(cap)
    deviation = euclidean_perpendicular_ratio_deviation(eu)
    assert deviation < 1e-8
    assert euclidean_orthogonality_residual(eu) < 1e-8
    assert all(ang < math.pi / 2 for _, _, ang in euclidean_corner_angles(eu))
    _ok(6, "square-boundary disk acute in S^2 but refused in E^2; capped "
           f"pentagon projects with ratio deviation {deviation:.2e}")


def test_criterion_7_beta_volume():
    t0 = time.perf_counter()
    res = realize_sphere(fixtures.load("icosahedron"), seed=0)
    value = beta(res.realization)
    dt = time.perf_counter() - t0
    rel = abs(value - DODECAHEDRON_VOLUME) / DODECAHEDRON_VOLUME
    assert rel < 0.01, f"beta {value} vs {DODECAHEDRON_VOLUME} ({rel:.3%})"
    assert rel <= 1e-10, f"beta {value!r} vs {DODECAHEDRON_VOLUME!r} (relative {rel:.2e})"
    assert dt < 60.0, f"took {dt:.1f}s"
    _ok(7, f"beta = {value:.12f} vs dodecahedron {DODECAHEDRON_VOLUME:.12f} "
           f"(relative {rel:.1e}) in {dt:.1f}s")


def test_criterion_8_alpha_estimates():
    a_ico = alpha_estimate(fixtures.load("icosahedron"), seed=0)
    assert abs(a_ico.value - 2 * math.pi / 5) <= 1e-9
    assert a_ico.valid
    a_obs = alpha_estimate(fixtures.load("square_disk_a_double"), seed=0, starts=2)
    assert a_obs.value >= math.pi / 2
    _ok(8, f"alpha(icosahedron) = {a_ico.value:.6f}, "
           f"alpha(square-disk double) = {a_obs.value:.6f} >= pi/2")


def test_criterion_9_property_suites():
    rng = np.random.default_rng(11)
    # polar-dual involution and law-of-cosines residuals
    from conftest import random_triangle
    for _ in range(500):
        R = random_triangle(rng)
        assert R.law_of_cosines_residual() < 1e-12
        RR = polar_dual(polar_dual(R))
        assert max(abs(a - b) for a, b in
                   zip(RR.angles() + RR.sides(), R.angles() + R.sides())) < 1e-12
    # sigma-curve monotonicity
    for _ in range(30):
        c = rng.uniform(0.1, math.pi - 0.2)
        gamma = rng.uniform(0.05, min(math.pi / 2, math.pi - c - 0.05))
        curve = SigmaCurve(c, gamma)
        lo, hi = curve.x_domain()
        ys = reference_solve_y_grid(curve, np.linspace(lo + 1e-6, hi - 1e-6, 300))
        assert np.all(np.diff(ys) < 0)
    # duality symmetry: swapped solves succeed with isometric cubes
    for _ in range(10):
        R = random_acute_triangle(rng)
        fwd = solve_dual_general(R, triangle_pqr(2, 2, 2))
        rev = solve_dual_general(triangle_pqr(2, 2, 2), R)
        assert fwd.found and rev.found
        e1 = cube_edge_lengths(build_slanted_cube(fwd.witness))
        e2 = cube_edge_lengths(build_slanted_cube(rev.witness))
        assert abs(e1[("O", "X")] - e2[("O'", "X'")]) < 1e-8
        assert abs(e1[("O'", "Y'")] - e2[("O", "Y")]) < 1e-8
        assert abs(e1[("X", "Z'")] - e2[("Z", "X'")]) < 1e-8
    # acute sides and orthocenter concurrency on 1000 random acute triangles
    from acutesphere.spherical import orthocenter, place_triangle
    worst = 0.0
    for _ in range(1000):
        R = random_acute_triangle(rng)
        assert all(s < math.pi / 2 for s in R.sides())
        pts = place_triangle(R)
        h = orthocenter(R, *pts, tol=1e-9)
        perps = []
        for i in range(3):
            P, Q, S = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
            n_side = np.cross(Q, S)
            n_side /= np.linalg.norm(n_side)
            u = np.cross(P, n_side)
            perps.append(u / np.linalg.norm(u))
        worst = max(worst, max(abs(float(np.dot(p, h))) for p in perps))
    assert worst < 1e-9
    _ok(9, f"involution, residuals, monotonicity, symmetry, acute sides, "
           f"orthocenter concurrency {worst:.2e} all green")
