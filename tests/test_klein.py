import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from acutesphere.duality import DualityWitness, solve_dual_22p, solve_dual_general
from acutesphere.errors import ValidationError
from acutesphere.klein import (ORTHOSCHEMES, beta, boost_to, build_slanted_cube,
                               essential_angles, hyperbolic_distance, lobachevsky,
                               orthoscheme_volume, orthoschemes, volume)
from acutesphere.spherical import CornerMap, from_angles, triangle_pqr

from conftest import cube_links, random_acute_triangle

EQUILATERAL = from_angles(2 * math.pi / 5, 2 * math.pi / 5, 2 * math.pi / 5)

# right-angled dodecahedron volume, frozen from the Lobachevsky-function
# oracle (scripts/dodecahedron_volume_oracle.py)
DODECAHEDRON_VOLUME = 4.306207600730809

ORACLE_SCRIPT = (Path(__file__).resolve().parents[1]
                 / "scripts" / "dodecahedron_volume_oracle.py")


def _mc_volume(cube, samples, seed):
    """Independent Monte-Carlo reference: uniform samples in the Euclidean
    bounding box of the vertices, filtered by the six half-spaces and
    weighted by the Klein density (1 - |p|^2)^(-2).  Returns (value, stderr)."""
    verts = np.vstack(list(cube.vertices.values()))
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    box_vol = float(np.prod(hi - lo))
    normals = np.vstack([n for n, _ in cube.half_spaces])
    offsets = np.array([d for _, d in cube.half_spaces])
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(samples, 3))
    inside = np.all(pts @ normals.T <= offsets + 1e-12, axis=1)
    w = np.zeros(samples)
    w[inside] = (1.0 - np.einsum("ij,ij->i", pts[inside], pts[inside])) ** -2
    return box_vol * w.mean(), box_vol * w.std() / math.sqrt(samples)


def _tetra_euclidean_volume(t):
    return abs(np.linalg.det(t[1:] - t[0])) / 6


def test_boost_preserves_minkowski_form(rng):
    B = boost_to(np.array([0.3, -0.2, 0.4]))
    G = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert np.allclose(B.T @ G @ B, G, atol=1e-12)


def test_build_cube_allright_dihedrals(rng):
    for _ in range(25):
        R = random_acute_triangle(rng)
        cube = build_slanted_cube(solve_dual_22p(R, 2))
        for edge, angle in cube.dihedrals.items():
            if "O" not in edge:   # the nine edges away from O
                assert angle == pytest.approx(math.pi / 2, abs=1e-8)
        for edge in (("O'", "X'"), ("O'", "Y'"), ("O'", "Z'")):
            assert cube.dihedrals[edge] == pytest.approx(math.pi / 2, abs=1e-8)


def test_build_cube_links_match(rng):
    for p in (2, 3, 5):
        for _ in range(10):
            R = random_acute_triangle(rng)
            w = solve_dual_22p(R, p)
            (angles, sides), (t_angles, t_sides) = cube_links(build_slanted_cube(w))
            assert np.allclose(angles, R.angles(), atol=1e-8)
            assert np.allclose(sides, R.sides(), atol=1e-8)
            assert np.allclose(t_angles, triangle_pqr(p, 2, 2).angles(), atol=1e-8)
            assert np.allclose(t_sides, triangle_pqr(p, 2, 2).sides(), atol=1e-8)


def test_build_cube_with_corner_near_right_angle():
    # O' lies within ~1e-6 of the ideal boundary here; its link sides,
    # measured through the boost to O', are off by ~3e-7, while the
    # dihedral angles that determine the link are right to 5e-13
    R = from_angles(1.5707957076, 0.6101159052, 1.3488647153)
    v = volume(build_slanted_cube(solve_dual_22p(R, 2)))
    assert math.isfinite(v) and v > 0


def test_general_dihedral_at_opposite_vertex(rng):
    # the dihedral along O'X' equals the target angle A for non-right targets
    R = random_acute_triangle(rng)
    w = solve_dual_22p(R, 5)
    cube = build_slanted_cube(w)
    assert cube.dihedrals[("O'", "X'")] == pytest.approx(math.pi / 5, abs=1e-8)


def test_degenerate_witness_rejected():
    with pytest.raises(ValidationError):
        DualityWitness(x=1.0, y=0.5, z=0.5, R=EQUILATERAL,
                       target=triangle_pqr(2, 2, 2),
                       corner_map=CornerMap(), residuals=(0.0, 0.0, 0.0))


def test_volume_positive_and_deterministic():
    cube = build_slanted_cube(solve_dual_22p(EQUILATERAL, 2))
    v = volume(cube)
    assert isinstance(v, float) and v > 0
    assert volume(build_slanted_cube(solve_dual_22p(EQUILATERAL, 2))) == v


def test_icosahedral_cube_volume_against_oracle():
    # 20 such cubes tile the right-angled dodecahedron
    cube = build_slanted_cube(solve_dual_22p(EQUILATERAL, 2))
    assert volume(cube) == pytest.approx(DODECAHEDRON_VOLUME / 20, abs=1e-12)


def test_volume_invariant_under_corner_relabeling(rng):
    R = random_acute_triangle(rng)
    m = CornerMap.from_dict({"A": "B", "B": "C", "C": "A"})
    v1 = volume(build_slanted_cube(solve_dual_22p(R, 2)))
    v2 = volume(build_slanted_cube(solve_dual_22p(R, 2, m)))
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_volume_matches_monte_carlo(rng):
    # exact sum of six orthoschemes against the box-sampling estimate, also
    # for (2,2,p) targets whose dihedral at O'X' is pi/p
    for k in range(12):
        cube = build_slanted_cube(solve_dual_22p(random_acute_triangle(rng), (2, 3, 5)[k % 3]))
        mc, stderr = _mc_volume(cube, 200_000, seed=k)
        assert abs(volume(cube) - mc) < 4 * stderr, (volume(cube), mc, stderr)


def test_orthoschemes_tile_the_cube(rng):
    # the six tetrahedra are Euclidean in the Klein model and fill the
    # cube's convex hull, up to angles pi/2 - 1e-4
    for _ in range(200):
        cube = build_slanted_cube(solve_dual_22p(random_acute_triangle(rng), 2))
        hull = ConvexHull(np.vstack(list(cube.vertices.values()))).volume
        parts = sum(_tetra_euclidean_volume(t) for t in orthoschemes(cube))
        assert parts == pytest.approx(hull, rel=1e-12)


def test_orthoscheme_angles_split_cube_dihedrals(rng):
    # the orthoschemes meeting along OF split the cube's dihedral there,
    # those meeting along W'O' split its right angle, and the six around
    # OO' close up to 2 pi
    for _ in range(20):
        cube = build_slanted_cube(solve_dual_22p(random_acute_triangle(rng), 2))
        a, b, c = essential_angles(orthoschemes(cube))
        split_o, split_far = {}, {}
        for (f, w), ai, ci in zip(ORTHOSCHEMES, a, c):
            split_o[f] = split_o.get(f, 0.0) + ci
            split_far[w] = split_far.get(w, 0.0) + ai
        for f, angle in split_o.items():
            assert angle == pytest.approx(cube.dihedrals[("O", f)], abs=1e-10)
        for angle in split_far.values():
            assert angle == pytest.approx(math.pi / 2, abs=1e-10)
        assert b.sum() == pytest.approx(2 * math.pi, abs=1e-10)


def test_lobachevsky_basic_values():
    # odd, pi-periodic, zero at multiples of pi/2; 2 L(pi/6) is Gieseking's
    # constant and 8 L(pi/4) the volume of the regular ideal octahedron
    t = np.linspace(-4.0, 4.0, 81)
    assert np.allclose(lobachevsky(-t), -lobachevsky(t), atol=1e-15)
    assert np.allclose(lobachevsky(t + math.pi), lobachevsky(t), atol=1e-14)
    assert np.allclose(lobachevsky(np.arange(-4, 5) * math.pi / 2), 0.0, atol=1e-15)
    assert 2 * lobachevsky(math.pi / 6) == pytest.approx(1.0149416064, abs=1e-10)
    assert 8 * lobachevsky(math.pi / 4) == pytest.approx(3.6638623767, abs=1e-10)


def _load_oracle():
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("dodecahedron_volume_oracle", ORACLE_SCRIPT)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_oracle_script_reproduces_frozen_volume():
    oracle = _load_oracle()
    mp = oracle.mp
    exact = 120 * oracle.orthoscheme_volume(mp.pi / 5, mp.pi / 3, mp.pi / 4)
    assert abs(float(exact) - DODECAHEDRON_VOLUME) < 1e-14
    ours = 120 * orthoscheme_volume(math.pi / 5, math.pi / 3, math.pi / 4)
    assert abs(float(ours) - DODECAHEDRON_VOLUME) < 1e-12


def test_lobachevsky_matches_oracle():
    oracle = _load_oracle()
    grid = np.concatenate([
        np.linspace(-math.pi, math.pi, 241),
        [0.0, 1e-300, 1e-12, -1e-8, 1e-4, math.pi / 2 - 1e-12, -math.pi / 2 + 1e-9,
         math.pi / 2 + 1e-6, math.pi - 1e-10, -math.pi + 1e-7]])
    ours = lobachevsky(grid)
    for t, value in zip(grid, ours):
        assert abs(value - float(oracle.lobachevsky(oracle.mp.mpf(t)))) < 1e-14, t


def test_duality_symmetry_isometric_cubes(rng):
    # swapping the roles of the two links yields the same cube: matched edge
    # lengths at O <-> O' agree (choice of distinguished vertex is symmetric)
    for target in (triangle_pqr(2, 2, 2), triangle_pqr(3, 2, 2)):
        for _ in range(10):
            R = random_acute_triangle(rng)
            fwd = solve_dual_general(R, target)
            assert fwd.found
            rev = solve_dual_general(target, R)
            assert rev.found
            c1 = build_slanted_cube(fwd.witness)
            c2 = build_slanted_cube(rev.witness)
            e1 = c1.edge_lengths()
            e2 = c2.edge_lengths()
            pairs = {
                ("O", "X"): ("O'", "X'"), ("O", "Y"): ("O'", "Y'"),
                ("O", "Z"): ("O'", "Z'"), ("O'", "X'"): ("O", "X"),
                ("O'", "Y'"): ("O", "Y"), ("O'", "Z'"): ("O", "Z"),
                ("X", "Y'"): ("X'", "Y"), ("X", "Z'"): ("X'", "Z"),
                ("Y", "Z'"): ("Y'", "Z"), ("Y", "X'"): ("Y'", "X"),
                ("Z", "X'"): ("Z'", "X"), ("Z", "Y'"): ("Z'", "Y"),
            }
            for e, f in pairs.items():
                f_norm = f if f in e2 else (f[1], f[0])
                if f_norm not in e2:
                    f_norm = next(k for k in e2 if set(k) == set(f))
                assert e1[e] == pytest.approx(e2[f_norm], abs=1e-8)


def test_witness_foot_distances():
    w = solve_dual_22p(EQUILATERAL, 2)
    cube = build_slanted_cube(w)
    for name, param in (("X", w.x), ("Y", w.y), ("Z", w.z)):
        d = hyperbolic_distance(cube.vertices["O"], cube.vertices[name])
        assert math.tanh(d) == pytest.approx(param, abs=1e-12)


def test_beta_rejects_non_acute():
    from acutesphere.realization import GeodesicRealization
    from acutesphere.fixtures import load
    octa = load("octahedron")
    pos = {"n": np.array([0.0, 0.0, 1.0]), "s": np.array([0.0, 0.0, -1.0])}
    for i in range(4):
        ang = i * math.pi / 2
        pos[f"r{i}"] = np.array([math.cos(ang), math.sin(ang), 0.0])
    real = GeodesicRealization(octa, pos)
    with pytest.raises(ValidationError, match="not acute"):
        beta(real)
