import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from acutesphere import fixtures
from acutesphere.duality import DualityWitness, solve_dual_22p, solve_dual_general
from acutesphere.errors import GeometryError, ValidationError
from acutesphere.klein import (CUBE_EDGES, ORTHOSCHEMES, VERTICES, beta, boost_to,
                               build_slanted_cube, essential_angles, lobachevsky,
                               orthoscheme_volume, orthoschemes, slanted_cubes, volume)
from acutesphere.realization import realize_sphere
from acutesphere.spherical import (CornerMap, from_angles, place_triangle, triangle_arrays,
                                   triangle_from_points, triangle_pqr)
from acutesphere.triangulation import double, maehara_cap

from conftest import (cube_edge_lengths, cube_links, hyperbolic_distance, random_acute_triangle,
                      reference_slanted_cube)

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
            e1 = cube_edge_lengths(c1)
            e2 = cube_edge_lengths(c2)
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


def _batch(witnesses):
    """``slanted_cubes`` arguments for witnesses, in the reference's frame."""
    return (np.array([place_triangle(w.R) for w in witnesses]),
            np.array([(w.x, w.y, w.z) for w in witnesses]))


def test_batched_cubes_match_reference(rng):
    # one batch of 240 cubes dual to (2,2,p) triangles, p = 2, 3, 5 mixed,
    # against the one-cube oracle: same vertices, half-spaces and dihedrals.
    # A foot plane at Klein radius d has Minkowski normal (d, n)/sqrt(1 - d^2),
    # whose rounding grows like eps / (1 - d^2) in both builders: with a
    # corner 0.006 below pi/2 (d = 0.99998634) they differ by 2.8e-12 at
    # O'X', where an mpmath evaluation puts the oracle 6e-13 and the batch
    # 2.2e-12 off
    witnesses = [solve_dual_22p(random_acute_triangle(rng), (2, 3, 5)[k % 3])
                 for k in range(240)]
    verts, normals, offsets, dihedrals = slanted_cubes(*_batch(witnesses))
    for k, w in enumerate(witnesses):
        ref = reference_slanted_cube(w)
        tol = 1e-12 + 4 * np.finfo(float).eps / (1 - max(w.x, w.y, w.z) ** 2)
        assert np.abs(verts[k] - [ref.vertices[v] for v in VERTICES]).max() <= 1e-12, k
        assert np.abs(dihedrals[k] - [ref.dihedrals[e] for e in CUBE_EDGES]).max() <= tol, k
        assert np.abs(normals[k] - [n for n, _ in ref.half_spaces]).max() <= 1e-12, k
        assert np.allclose(offsets[k], [d for _, d in ref.half_spaces], rtol=0, atol=1e-15)


def test_build_slanted_cube_is_batch_of_one(rng):
    for p in (2, 3, 5):
        w = solve_dual_22p(random_acute_triangle(rng), p)
        cube, ref = build_slanted_cube(w), reference_slanted_cube(w)
        assert list(cube.vertices) == list(ref.vertices)
        assert list(cube.dihedrals) == list(ref.dihedrals)
        assert volume(cube) == pytest.approx(volume(ref), rel=1e-14)


def test_triangle_arrays_match_one_face_path(rng):
    P = rng.normal(size=(300, 3, 3))
    P /= np.linalg.norm(P, axis=-1, keepdims=True)
    sides, angles = triangle_arrays(P)
    for k in range(len(P)):
        R = triangle_from_points(*P[k])
        assert np.abs(sides[k] - R.sides()).max() <= 1e-15
        assert np.abs(angles[k] - R.angles()).max() <= 1e-13


def test_triangle_arrays_checks_name_first_failing_triangle():
    e = np.eye(3)
    good = e[[0, 1, 2]]
    with pytest.raises((GeometryError, ValidationError), match="triangle 2: "):
        # three points on one great circle: the triangle inequality holds
        # with equality, up to rounding, or the middle angle is pi
        triangle_arrays([good, good, [e[0], e[1], -e[0] + 1e-3 * e[1]]])
    with pytest.raises(GeometryError, match="triangle 1: sides"):
        triangle_arrays([good, [e[0], e[0], e[1]]])


@pytest.mark.parametrize("name", ["icosahedron", "sphere_28", "sphere_34", "double_5",
                                  "double_8"])
def test_beta_matches_reference_cube_volumes(name):
    if name.startswith("double_"):
        tri = double(maehara_cap(int(name.split("_")[1])))
    else:
        tri = fixtures.load(name)
    real = realize_sphere(tri, seed=0).realization
    triangles = (triangle_from_points(*(real.positions[v] for v in f)) for f in tri.faces)
    reference = sum(volume(reference_slanted_cube(solve_dual_22p(R, 2))) for R in triangles)
    assert beta(real) == pytest.approx(reference, rel=1e-13, abs=0)


def test_slanted_cubes_checks_name_first_failing_cube(rng):
    witnesses = [solve_dual_22p(random_acute_triangle(rng), 2) for _ in range(6)]
    U, feet = _batch(witnesses)
    slanted_cubes(U, feet)

    # feet at the ideal boundary put a vertex outside the ball
    far = feet.copy()
    far[1] = 0.999999
    with pytest.raises(GeometryError, match="face 1: cube vertex .* outside the Klein ball"):
        slanted_cubes(U, far)


def test_beta_independent_of_position_scale(load):
    real = realize_sphere(load("sphere_28"), seed=0).realization
    scaled = type(real)(real.parent, {v: 1.001 * p for v, p in real.positions.items()})
    assert beta(scaled) == pytest.approx(beta(real), rel=1e-15)


def test_beta_checks_name_failing_face(load):
    # pull one vertex of face 7 onto the arc through the other two: the
    # message names, by index and vertices, a face around the moved vertex
    real = realize_sphere(load("icosahedron"), seed=0).realization
    positions = dict(real.positions)
    faces = real.parent.faces
    a, b, c = faces[7]
    mid = positions[b] + positions[c]
    positions[a] = mid / np.linalg.norm(mid)
    with pytest.raises((GeometryError, ValidationError)) as info:
        beta(type(real)(real.parent, positions))
    k, named = re.match(r"face (\d+) (\(.*?\)): ", str(info.value)).groups()
    assert named == str(tuple(faces[int(k)])) and a in faces[int(k)]
