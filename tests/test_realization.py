import math
import re
import warnings

import numpy as np
import pytest

from acutesphere import fixtures, pattern, realization
from acutesphere.errors import SolveError, ValidationError
from acutesphere.exports import euclidean_svg, graph_svg, realization_svg
from acutesphere.klein import boost_to
from acutesphere.pattern import (ANGLE_TOL, _angle_sums, _framed_pattern,
                                 _hyperbolic_corners, _transport_pattern, moebius_normalize,
                                 solve_pattern, tutte_sphere_init)
from acutesphere.realization import (POSITION_TOL, VIEWPOINT_TOL, CombinatorialRefusal,
                                     GeodesicRealization, _corner_index_arrays,
                                     _euclidean_circles, _invariant_check, _nonedge_pairs,
                                     _smoothed_max_angle, _tangent_frame, alpha_estimate,
                                     glue_caps, is_subordinate, pattern_residuals,
                                     project_euclidean, realize_sphere, verify_acute,
                                     verify_coinciding_perpendiculars)
from acutesphere.spherical import perpendicular_foot, spherical_distance
from acutesphere.triangulation import (AbstractTriangulation, EdgeLabeling, acute_obstruction,
                                       double, ideal_allright_conditions,
                                       is_flag_no_separating_square, is_flag_no_square,
                                       maehara_cap)

from conftest import (corner_angle, euclidean_corner_angles, euclidean_orthogonality_residual,
                      euclidean_perpendicular_ratio_deviation, lobell, reference_euclidean_circle,
                      reference_layout, reference_moebius_normalize, reference_smoothed_max_angle,
                      reference_transport_pattern, star_punctures, stereographic)


@pytest.fixture(scope="module")
def ico_result(load):
    return realize_sphere(load("icosahedron"), seed=0)


@pytest.fixture(scope="module")
def cap5_result(load):
    return realize_sphere(load("maehara_cap_5"), seed=0)


def test_icosahedron_symmetric_pattern(load, ico_result):
    real = ico_result.realization
    expected = math.acos(5 ** -0.25)
    for v in real.parent.vertices:
        assert abs(real.radii[v] - expected) < 1e-8
    for _, _, ang in real.corner_angles():
        assert abs(ang - 2 * math.pi / 5) < 1e-6
    assert ico_result.residual < 1e-9


def test_realize_reports(ico_result):
    acute = verify_acute(ico_result.realization)
    assert acute.passed
    assert acute.max_angle == pytest.approx(2 * math.pi / 5, abs=1e-6)
    perp = verify_coinciding_perpendiculars(ico_result.realization)
    assert perp.passed and perp.max_deviation < 1e-6


def test_realize_face_count_fixtures(load):
    for name in ("sphere_28", "sphere_34"):
        res = realize_sphere(load(name), seed=0)
        assert res.residual < 1e-9
        assert res.margin > 1e-3
        assert verify_acute(res.realization).passed
        assert verify_coinciding_perpendiculars(res.realization).passed


def test_realize_refuses_separating_square_double(load):
    with pytest.raises(CombinatorialRefusal) as exc:
        realize_sphere(load("square_disk_a_double"))
    w = exc.value.witness
    assert w is not None and w.kind == "separating-4-cycle"
    assert set(w.cycle) == {"x0", "x1", "x2", "x3"}


def test_realize_refuses_tetrahedron(load):
    with pytest.raises(CombinatorialRefusal):
        realize_sphere(load("tetrahedron"))


def test_realize_large_cap_double(load):
    # 144-face flag no-square sphere built by doubling the octagon cap
    from acutesphere.triangulation import double
    big = double(load("maehara_cap_8"))
    res = realize_sphere(big, seed=0)
    assert res.residual < 1e-9
    assert res.margin > 0
    assert verify_coinciding_perpendiculars(res.realization).passed


def test_realize_deterministic_under_seed(load):
    a = realize_sphere(load("sphere_28"), seed=5)
    b = realize_sphere(load("sphere_28"), seed=5)
    for v in a.realization.parent.vertices:
        assert np.allclose(a.realization.positions[v], b.realization.positions[v])
        assert a.realization.radii[v] == b.realization.radii[v]


def test_hand_built_right_angles_fail_acute(load):
    octa = load("octahedron")
    pos = {"n": np.array([0.0, 0.0, 1.0]), "s": np.array([0.0, 0.0, -1.0])}
    for i in range(4):
        ang = i * math.pi / 2
        pos[f"r{i}"] = np.array([math.cos(ang), math.sin(ang), 0.0])
    real = GeodesicRealization(octa, pos).validate()
    rep = verify_acute(real)
    assert not rep.passed
    assert rep.max_angle == pytest.approx(math.pi / 2)
    assert rep.worst_face


def test_perturbed_realization_loses_perpendicular_property(ico_result):
    rng = np.random.default_rng(3)
    pos = {v: p + 1e-3 * rng.standard_normal(3)
           for v, p in ico_result.realization.positions.items()}
    pos = {v: p / np.linalg.norm(p) for v, p in pos.items()}
    real = GeodesicRealization(ico_result.realization.parent, pos)
    rep = verify_coinciding_perpendiculars(real)
    assert not rep.passed


def test_validate_rejects_garbage(load):
    ico = load("icosahedron")
    pos = {v: np.array([1.0, 0.0, 0.0]) for v in ico.vertices}
    with pytest.raises(ValidationError):
        GeodesicRealization(ico, pos).validate()


def test_planar_square_disk_a_acute_on_sphere(load):
    res = realize_sphere(load("square_disk_a"), seed=0)
    assert verify_acute(res.realization).passed
    assert res.margin > 0
    # full capped complex carries right angles at the ideal hub only
    hub = res.capping.hub_vertices[0]
    for f, v, ang in res.closed_realization.corner_angles():
        if v == hub:
            assert ang == pytest.approx(math.pi / 2, abs=1e-7)
        else:
            assert ang < math.pi / 2


def test_star_punctures_refuse_with_a_witness_or_realize(load):
    # 418 planar inputs: four spheres minus the stars of one vertex or of two
    # non-adjacent ones.  Every refusal names a witness cycle or a low-degree
    # vertex, and every accepted input realizes
    accepted = refused = 0
    for name in ("icosahedron", "octahedron", "square_disk_a_double", "square_disk_b_double"):
        for hole in star_punctures(load(name)):
            obstruction = acute_obstruction(hole)
            if obstruction is None:
                assert realize_sphere(hole).margin > 0, (name, hole)
                accepted += 1
            else:
                reason, witness = obstruction
                assert witness is not None or "degree" in reason, (name, hole, reason)
                refused += 1
    assert (accepted, refused) == (150, 268)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
def test_library_tol_must_be_finite_and_not_negative(load, tol):
    ico = load("icosahedron")
    for solve in (solve_pattern, realize_sphere, alpha_estimate):
        with pytest.raises(ValidationError, match="tol"):
            solve(ico, tol=tol)


def test_planar_square_disk_a_refuses_euclidean(load):
    res = realize_sphere(load("square_disk_a"), seed=0)
    with pytest.raises(CombinatorialRefusal, match="square"):
        project_euclidean(res)


def test_planar_square_disk_b_acute_on_sphere(load):
    res = realize_sphere(load("square_disk_b"), seed=0)
    assert verify_acute(res.realization).passed


def test_cap5_euclidean_projection(cap5_result):
    eu = project_euclidean(cap5_result)
    assert euclidean_orthogonality_residual(eu) < 1e-8
    assert euclidean_perpendicular_ratio_deviation(eu) < 1e-8
    assert all(ang < math.pi / 2 for _, _, ang in euclidean_corner_angles(eu))


def _expected_svg_circles(real):
    """Disks that ``realization_svg`` draws, counted with the three-point
    oracle: positive radius, not through the viewpoint and drawn no larger
    than three times the picture."""
    centroid = sum(real.positions[v] for v in real.parent.faces[0])
    nu = -centroid / np.linalg.norm(centroid)
    frame = _tangent_frame(nu)
    flat = [stereographic(p, nu, frame) for p in real.positions.values()]
    span = max(abs(c) for p in flat for c in p) + 1e-9
    count = 0
    for v in real.parent.vertices:
        m, rho = real.positions[v], real.radii[v]
        if rho > 0.0 and abs(math.cos(rho) - m @ nu) >= VIEWPOINT_TOL:
            count += reference_euclidean_circle(m, rho, nu, frame)[1] <= 3 * span
    return count, nu


def test_realization_svg_draws_every_clear_circle(cap5_result):
    real = cap5_result.realization
    expected, nu = _expected_svg_circles(real)
    assert realization_svg(real).count('stroke="#3377cc"') == expected > 0
    # a disk grown until its circle passes the viewpoint (an image line),
    # or nearly (an image far larger than the picture), is left out, and no
    # other disk goes missing with it
    v = real.parent.vertices[-1]
    for gap in (0.0, 1e-4):
        grown = dict(real.radii)
        grown[v] = math.acos(float(real.positions[v] @ nu)) - gap
        near = GeodesicRealization(real.parent, real.positions, grown)
        assert _expected_svg_circles(near)[0] == expected - 1
        assert realization_svg(near).count('stroke="#3377cc"') == expected - 1


def _drawn_edges(svg, dot):
    """The <line>s of ``svg`` as pairs of ends, and the centres of its dots
    (``<circle>``s with r="dot")."""
    number = r"(-?[\d.]+)"
    dots = re.findall(rf'<circle cx="{number}" cy="{number}" r="{dot}"', svg)
    lines = re.findall(rf'<line x1="{number}" y1="{number}" x2="{number}" y2="{number}"', svg)
    return [((x1, y1), (x2, y2)) for x1, y1, x2, y2 in lines], dots


def _assert_lines_join_dots(svg, dot, tri, dot_names):
    """One line per edge of ``tri``, each between the dots of its two ends;
    the dots are drawn for ``dot_names`` in that order."""
    lines, dots = _drawn_edges(svg, dot)
    assert len(dots) == len(dot_names) == len(tri.vertices)
    at = dict(zip(dot_names, dots))
    assert len(lines) == len(tri.edges)
    assert {frozenset(ends) for ends in lines} == {
        frozenset(at[v] for v in e) for e in tri.edges}


def test_svg_lines_join_the_dots(load, cap5_result, ico_result):
    for real in (ico_result.realization, cap5_result.realization):
        svg = realization_svg(real)
        _assert_lines_join_dots(svg, "2.5", real.parent, re.findall(r'font-size="9">([^<]*)<', svg))
    eu = project_euclidean(cap5_result)
    _assert_lines_join_dots(euclidean_svg(eu), "2", eu.parent, eu.parent.vertices)
    for name in ("octahedron", "square_disk_a", "maehara_cap_5"):
        tri = load(name)
        svg = graph_svg(tri, tri.faces[0])
        _assert_lines_join_dots(svg, "3", tri, re.findall(r'font-size="9">([^<]*)<', svg))
        assert svg.count('stroke="red"') == 3


def test_square_wheel_refused(load):
    # the interior hub of degree 4 needs four angles summing to 2 pi, so no
    # acute realization of the bare wheel exists despite it passing the
    # flag-no-separating-square test
    with pytest.raises(CombinatorialRefusal, match="degree 4"):
        realize_sphere(load("square_wheel"))


def test_glue_caps_structure(load):
    info = glue_caps(load("maehara_cap_5"))
    assert info.closed.is_closed
    assert len(info.cap_centers) == 1
    assert not info.hub_vertices
    assert len(info.closed.faces) == 90
    info2 = glue_caps(load("square_disk_a"))
    assert len(info2.hub_vertices) == 1
    assert not info2.cap_centers


def test_capping_keeps_planar_fixtures_square_free(load):
    # before the square wheels go on, the capped complex of each planar
    # fixture is still flag-no-separating-square, with only squares left on
    # its boundary
    for name in fixtures.FIXTURE_NAMES:
        tri = load(name)
        if tri.is_closed:
            continue
        info = glue_caps(tri)
        hubs = set(info.hub_vertices)
        partial = AbstractTriangulation([v for v in info.closed.vertices if v not in hubs],
                                        [f for f in info.closed.faces if hubs.isdisjoint(f)])
        assert is_flag_no_separating_square(partial), name
        assert all(len(c) == 4 for c in partial.boundary_cycles), name


def test_alpha_icosahedron(load):
    a = alpha_estimate(load("icosahedron"), seed=0)
    assert abs(a.value - 2 * math.pi / 5) <= 1e-9
    assert a.valid


# alpha(sphere_28) reached by the same search with finite-difference
# gradients; the exact gradient must do no worse
SPHERE_28_FD_ALPHA = {0: 1.278204451541492, 1: 1.27820444792835,
                      2: 1.2782044517781728, 3: 1.2782044546397813}


def test_alpha_sphere_28_not_above_finite_difference_search(load):
    tri = load("sphere_28")
    for seed, reference in SPHERE_28_FD_ALPHA.items():
        a = alpha_estimate(tri, seed=seed)
        assert a.valid, seed
        assert a.value <= reference, (seed, a.value, reference)


def _smoothed_value(flat, corners, sharpness):
    return _smoothed_max_angle(flat, corners, sharpness)[0]


def test_smoothed_max_angle_gradient_matches_finite_differences(load):
    rng = np.random.default_rng(5)
    h = 1e-6
    for name in ("icosahedron", "sphere_28", "square_disk_a_double", "tetrahedron"):
        tri = load(name)
        corners = _corner_index_arrays(tri)
        pole = tri.vertices[int(rng.integers(len(tri.vertices)))]
        pos = tutte_sphere_init(tri, pole, rng)
        # off the sphere, so that the gradient passes through x / |x|
        flat = (pos * rng.uniform(0.8, 1.25, size=(len(pos), 1))).ravel()
        for sharpness in (30.0, 600.0):
            _, grad = _smoothed_max_angle(flat, corners, sharpness)
            fd = np.empty_like(flat)
            for k in range(flat.size):
                step = np.zeros_like(flat)
                step[k] = h
                fd[k] = (_smoothed_value(flat + step, corners, sharpness)
                         - _smoothed_value(flat - step, corners, sharpness)) / (2 * h)
            err = float(np.abs(fd - grad).max())
            assert err <= 1e-6 * float(np.abs(grad).max()), (name, sharpness, err)

    # two coincident vertices: the corners at them are degenerate, report pi
    # and contribute nothing, so they take nearly all the softmax weight and
    # leave a finite, tiny gradient; no warning is raised
    tri = load("icosahedron")
    corners = _corner_index_arrays(tri)
    pos = tutte_sphere_init(tri, tri.vertices[0], rng)
    u, v = (tri.vertices.index(w) for w in tri.faces[0][:2])
    pos[v] = pos[u]
    for sharpness in (30.0, 600.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, grad = _smoothed_max_angle(pos.ravel(), corners, sharpness)
        assert value >= math.pi
        assert np.isfinite(grad).all()
        assert float(np.abs(grad).max()) <= 1e-6, sharpness


def test_alpha_refuses_to_run_no_start(load):
    # the octahedron is not flag no-square, so the seeded Tutte starts are
    # its only ones; the icosahedron still descends from its pattern
    octa = load("octahedron")
    for starts in (0, -1):
        with pytest.raises(ValidationError, match="start"):
            alpha_estimate(octa, starts=starts)
    a = alpha_estimate(load("icosahedron"), starts=0)
    assert a.starts == 1 and a.valid and a.seeded_from is not None
    assert abs(a.value - 2 * math.pi / 5) <= 1e-9


def test_alpha_tetrahedron(load):
    a = alpha_estimate(load("tetrahedron"), seed=0)
    assert a.value >= 2 * math.pi / 3 - 1e-9


def test_alpha_octahedron_at_right_angle(load):
    # alpha = pi/2 exactly; the search converges to within rounding of it,
    # which must neither raise nor read as an acute maximum
    tri = load("octahedron")
    for seed in range(10):
        a = alpha_estimate(tri, seed=seed)
        assert a.value >= math.pi / 2 - 1e-12, seed


def test_alpha_obs_double(load):
    a = alpha_estimate(load("square_disk_a_double"), seed=0, starts=2)
    assert a.value >= math.pi / 2


def test_alpha_obs_double_reports_folded_end_points(load):
    # at seed 2 every Tutte end point fails validity and the best of them
    # reads below pi/2; that is reported with valid=False, not raised
    tri = load("square_disk_a_double")
    for seed in range(4):
        a = alpha_estimate(tri, seed=seed)
        assert a.starts == 3, seed
        assert a.seeded_from is None
        if a.valid:
            assert a.value >= math.pi / 2, seed


def _counted_minimize(monkeypatch):
    calls = []
    original = realization.minimize

    def counted(*args, **kwargs):
        calls.append(kwargs["args"][1])  # the sharpness
        return original(*args, **kwargs)

    monkeypatch.setattr(realization, "minimize", counted)
    return calls


@pytest.mark.parametrize("name", ["icosahedron", "sphere_28", "sphere_34", "double_cap_5"])
def test_alpha_descends_once_from_the_pattern(load, monkeypatch, name):
    tri = double(maehara_cap(5)) if name == "double_cap_5" else load(name)
    calls = _counted_minimize(monkeypatch)
    a = alpha_estimate(tri, seed=0)
    assert calls == [30.0, 120.0, 600.0]
    assert a.starts == 1 and len(a.per_start) == 1
    assert a.value == a.per_start[0]
    assert a.valid and a.seeded_from is not None
    assert [stage[0] for stage in a.stages] == [30.0, 120.0, 600.0]
    assert sum(stage[2] for stage in a.stages) > 0


def test_alpha_falls_back_to_tutte_starts_when_seeded_end_fails(load, monkeypatch):
    tri = load("icosahedron")
    # the Tutte fallback alone: the same starts as when there is no pattern
    def no_pattern(*args, **kwargs):
        raise SolveError("no pattern")

    with monkeypatch.context() as m:
        m.setattr(realization, "realize_sphere", no_pattern)
        unseeded = alpha_estimate(tri, seed=0, starts=2)
    assert unseeded.starts == 2 and unseeded.seeded_from is None

    # the validity pass rejects the first end point, the seeded one
    seeded = realize_sphere(tri, seed=0)
    monkeypatch.setattr(realization, "realize_sphere", lambda *args, **kwargs: seeded)
    build = realization._invariant_check

    def rejecting_first(*args, **kwargs):
        check = build(*args, **kwargs)
        seen = []

        def wrapped(*a, **k):
            seen.append(None)
            message, angles, residual = check(*a, **k)
            return ("rejected" if len(seen) == 1 else message), angles, residual
        return wrapped

    monkeypatch.setattr(realization, "_invariant_check", rejecting_first)
    calls = _counted_minimize(monkeypatch)
    a = alpha_estimate(tri, seed=0, starts=2)
    assert calls == [30.0, 120.0, 600.0] * 3
    assert a.starts == 3 and a.seeded_from is seeded
    assert a.per_start[1:] == unseeded.per_start
    assert a.valid
    assert a.value == min(unseeded.per_start)


def test_smoothed_max_angle_gradient_matches_add_at_scatter(load):
    # the one-pass bincount scatter sums in the order np.add.at does
    rng = np.random.default_rng(11)
    tris = [load(n) for n in ("icosahedron", "sphere_28", "sphere_34",
                              "square_disk_a_double")] + [double(maehara_cap(5))]
    for tri in tris:
        corners = _corner_index_arrays(tri)
        for _ in range(8):
            flat = rng.normal(size=3 * len(tri.vertices))
            for sharpness in (30.0, 120.0, 600.0):
                value, grad = _smoothed_max_angle(flat, corners, sharpness)
                ref_value, ref_grad = reference_smoothed_max_angle(flat, corners, sharpness)
                assert value == ref_value
                assert np.array_equal(grad, ref_grad)


def test_subordinate_all_two(ico_result):
    real = ico_result.realization
    labeling = EdgeLabeling(real.parent, {})
    assert is_subordinate(real, labeling) == verify_acute(real).passed
    assert is_subordinate(real, labeling)


def test_subordinate_one_face_235(ico_result):
    real = ico_result.realization
    f = real.parent.faces[0]
    u, v, w = f
    labels = {frozenset((v, w)): 2, frozenset((w, u)): 3, frozenset((u, v)): 5}
    assert is_subordinate(real, EdgeLabeling(real.parent, labels))


def test_orthogonal_pattern_forces_acute_angles(rng):
    # mechanized form of the nerve-angle lemma: three pairwise orthogonal
    # disks with radii in (0, pi/2) span a triangle of centers with all
    # angles acute, strictly unless a radius vanishes
    from acutesphere.spherical import from_sides, is_acute
    from acutesphere.errors import GeometryError
    checked = 0
    for _ in range(500):
        r, s, t = rng.uniform(0.05, 1.45, size=3)
        try:
            R = from_sides(math.acos(math.cos(s) * math.cos(t)),
                           math.acos(math.cos(t) * math.cos(r)),
                           math.acos(math.cos(r) * math.cos(s)))
        except GeometryError:
            continue
        checked += 1
        assert is_acute(R)
    assert checked > 400


def test_realize_reads_acuteness_off_its_validation_pass():
    # a planar input's faces come first in its capped complex, so the
    # corners the one validation pass measured there are the input's, to
    # the bit
    checked = 0
    for name in fixtures.FIXTURE_NAMES:
        tri = fixtures.load(name)
        if tri.is_closed:
            continue
        try:
            res = realize_sphere(tri)
        except CombinatorialRefusal:
            continue
        assert res.acute == verify_acute(res.realization), name
        checked += 1
    assert checked >= 5


def test_pattern_residuals_structure(ico_result):
    from acutesphere.realization import pattern_residuals
    res = pattern_residuals(ico_result.realization)
    assert len(res.edge_residuals) == len(ico_result.realization.parent.edges)
    assert res.max_edge_residual() < 1e-9
    assert res.min_clearance() > 0


def test_subordinate_fails_with_right_angle(load):
    octa = load("octahedron")
    pos = {"n": np.array([0.0, 0.0, 1.0]), "s": np.array([0.0, 0.0, -1.0])}
    for i in range(4):
        ang = i * math.pi / 2
        pos[f"r{i}"] = np.array([math.cos(ang), math.sin(ang), 0.0])
    real = GeodesicRealization(octa, pos)
    assert not is_subordinate(real, EdgeLabeling(octa, {}))


def _unit_rows(rng, n):
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=1)[:, None]


def test_transport_matches_per_vertex_reference():
    # seeded patterns with radius-0 and pinned (fixed) ideal rows, moved by
    # boosts of every strength up to 0.95: both paths agree, and refuse the
    # same inputs for pushing a disk past a hemisphere
    rng = np.random.default_rng(11)
    moved = refused = 0
    for _ in range(300):
        n = 12
        pos = _unit_rows(rng, n)
        radii = rng.uniform(0.05, 1.5, n)
        radii[rng.random(n) < 0.2] = 0.0
        fixed = rng.random(n) < 0.15
        B = boost_to(_unit_rows(rng, 1)[0] * rng.uniform(0.0, 0.95))
        try:
            ref_pos, ref_r = reference_transport_pattern(B, pos, radii, fixed)
        except SolveError:
            with pytest.raises(SolveError, match="past a hemisphere"):
                _transport_pattern(B, pos, radii, fixed)
            refused += 1
            continue
        new_pos, new_r = _transport_pattern(B, pos, radii, fixed)
        assert np.max(np.abs(new_pos - ref_pos)) <= 1e-15
        assert np.max(np.abs(new_r - ref_r)) <= 1e-15
        moved += 1
    assert moved > 50 and refused > 50


def test_euclidean_circles_match_three_point_reference():
    # seeded circles and viewpoints, circles through or near the viewpoint
    # left out; every image agrees with the circumcircle of three projected
    # points, and points sampled on each spherical circle land on its image
    rng = np.random.default_rng(17)
    angles = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)
    checked = 0
    for _ in range(40):
        nu = _unit_rows(rng, 1)[0]
        frame = _tangent_frame(nu)
        assert np.allclose(np.array([*frame, nu]) @ np.array([*frame, nu]).T, np.eye(3),
                           atol=1e-15)
        m = _unit_rows(rng, 20)
        rho = rng.uniform(0.05, 1.5, 20)
        clear = np.abs(np.cos(rho) - m @ nu) > 0.05
        centers, radii = _euclidean_circles(m[clear], rho[clear], nu, frame)
        for mi, ri, c, r in zip(m[clear], rho[clear], centers, radii):
            ref_c, ref_r = reference_euclidean_circle(mi, ri, nu, frame)
            size = np.linalg.norm(ref_c) + ref_r
            assert np.linalg.norm(c - ref_c) <= 1e-12 * size
            assert abs(r - ref_r) <= 1e-12 * ref_r
            t1 = np.cross(mi, _unit_rows(rng, 1)[0])
            t1 /= np.linalg.norm(t1)
            t2 = np.cross(mi, t1)
            for a in angles:
                p = math.cos(ri) * mi + math.sin(ri) * (math.cos(a) * t1 + math.sin(a) * t2)
                q = stereographic(p, nu, frame)
                assert abs(np.linalg.norm(q - c) - r) <= 1e-12 * size
            checked += 1
    assert checked > 300


def test_euclidean_circles_refuse_circle_through_viewpoint():
    nu = np.array([0.0, 0.0, 1.0])
    m = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="viewpoint"):
        _euclidean_circles(m, np.array([0.3, math.pi / 2]), nu, _tangent_frame(nu))


@pytest.mark.parametrize("n", [12, 20, 40])
def test_realize_double_cap_ladder_first_start(n):
    # one solve realizes every rung of the ladder
    res = realize_sphere(double(maehara_cap(n)), seed=0)
    assert res.residual <= 1e-11
    assert res.margin > 0
    assert pattern_residuals(res.closed_realization).min_clearance() > 0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_realize_182_vertex_double_on_first_start_across_seeds(seed):
    # double(maehara_cap(20)), the benchmark's probe rung, realizes on other
    # seeds as well as seed 0 (ladder test above)
    res = realize_sphere(double(maehara_cap(20)), seed=seed)
    assert len(res.realization.parent.vertices) == 182
    assert res.residual <= 1e-11
    assert res.margin > 0


@pytest.mark.parametrize("n", [140, 200])
def test_realize_lobell_spheres_with_a_high_degree_pole(n):
    # the bicapped antiprism has two vertices of degree n; the multi-start
    # Levenberg-Marquardt solve this replaced failed on every start from
    # n = 140 up ("radii left (0, pi/2)")
    res = realize_sphere(lobell(n))
    assert len(res.realization.parent.vertices) == 2 * n + 2
    assert res.residual <= 1e-11
    assert res.margin > 0


def test_lobell_5_is_the_icosahedron(load):
    ico, tri = load("icosahedron"), lobell(5)
    assert sorted(map(len, ico.adjacency.values())) == sorted(map(len, tri.adjacency.values()))
    res = realize_sphere(tri)
    assert max(abs(r - math.acos(5 ** -0.25)) for r in res.realization.radii.values()) <= 1e-12


def _pole_rule(tri, hubs):
    """Degree of the vertices that are neither hubs nor next to one."""
    near = set(hubs) | {v for h in hubs for v in tri.adjacency[h]}
    return {v: tri.degree(v) for v in tri.vertices if v not in near}


def test_solve_pattern_records_its_solve(load, monkeypatch):
    capped = glue_caps(load("square_disk_a"))
    cases = [(load("icosahedron"), ()), (double(maehara_cap(5)), ()),
             (capped.closed, capped.hub_vertices)]
    for tri, hubs in cases:
        sol = solve_pattern(tri, fixed_zero=hubs)
        allowed = _pole_rule(tri, hubs)
        assert allowed[sol.pole] == max(allowed.values())
        assert 1 <= sol.iterations <= 12
        assert sol.angle_residual <= ANGLE_TOL
        assert sol.residual <= 1e-13
        assert 0.0 <= sol.normalization_residual <= 1e-12 * len(tri.vertices)
        assert 0 <= sol.normalization_steps <= 8
        assert np.all(sol.radii[[tri.vertices.index(h) for h in hubs]] == 0.0)
    # the poles of the double are its two cap centers, the first in name order
    assert solve_pattern(double(maehara_cap(5))).pole == "c"

    ico = load("icosahedron")
    with pytest.raises(SolveError, match=r"residual .* above 0\.0e\+00") as exc:
        solve_pattern(ico, tol=0.0)
    assert 0.0 < exc.value.best_residual <= 1e-13
    monkeypatch.setattr(pattern, "NEWTON_MAX_STEPS", 1)
    with pytest.raises(SolveError, match="angle sums stopped at max error .* after 1 Newton steps"):
        solve_pattern(ico)
    # a pattern that fails the realization checks is a solve error, not a refusal
    monkeypatch.undo()
    monkeypatch.setattr(realization, "_invariant_check",
                        lambda *args: lambda *a: ("rejected", None, None))
    with pytest.raises(SolveError, match="fails a realization check: rejected"):
        realize_sphere(ico)


def test_layout_matches_per_face_placement(load, monkeypatch):
    # the generation passes against the per-face placement they batch, to
    # the bit, on the faces, radii and first face that the solve hands the
    # layout: closed fixtures, capped planar fixtures (hubs are points),
    # doubles, and Loebell spheres with two vertices of degree n
    layout, calls = pattern._layout, []

    def checked(*args):
        centres = layout(*args)
        calls.append(np.array_equal(centres, reference_layout(*args)))
        return centres

    monkeypatch.setattr(pattern, "_layout", checked)
    cases = [(load(name), ()) for name in ("icosahedron", "sphere_28", "sphere_34")]
    for name in ("square_disk_a", "square_disk_b", "maehara_cap_5", "maehara_cap_8"):
        capped = glue_caps(load(name))
        cases.append((capped.closed, capped.hub_vertices))
    assert len(cases[3][1]) > 0 and len(cases[4][1]) > 0
    cases += [(double(maehara_cap(n)), ()) for n in range(5, 41)]
    cases += [(lobell(n), ()) for n in (100, 140, 200)]
    for tri, hubs in cases:
        _framed_pattern(tri, hubs)
    assert calls == [True] * len(cases)


def test_hyperbolic_corners_match_law_of_cosines():
    # each corner against the arccos of the law of cosines, cosh d = C_x C_y
    # for orthogonal circles, on seeded radii; a point (radius 0, a hub) has
    # a right angle and leaves the other two corners to the same law
    rng = np.random.default_rng(41)
    R = rng.uniform(0.05, 4.0, size=(400, 3))
    R[:100, 0] = 0.0
    C, s = np.cosh(R).ravel(), np.sinh(R).ravel() ** 2
    angles, _ = _hyperbolic_corners(C, s, np.arange(R.size).reshape(-1, 3))
    c = np.cosh(R)
    for k in range(3):
        x, y, z = k, (k + 1) % 3, (k + 2) % 3
        dxy, dxz, dyz = c[:, x] * c[:, y], c[:, x] * c[:, z], c[:, y] * c[:, z]
        law = np.arccos((dxy * dxz - dyz) / np.sqrt((dxy ** 2 - 1) * (dxz ** 2 - 1)))
        ok = R[:, x] > 0
        assert np.max(np.abs(angles[ok, k] - law[ok])) <= 1e-12, k
    assert np.all(angles[:100, 0] == math.pi / 2)
    assert np.all(angles.sum(axis=1) < math.pi)


def test_newton_matrix_matches_central_differences(load):
    # the closed icosahedron, all circles, and the capped square disk, whose
    # hubs are points with no unknown; at seeded u = log tanh(R/2)
    capped = glue_caps(load("square_disk_a"))
    rng = np.random.default_rng(43)
    h = 1e-6
    for tri, hubs in [(load("icosahedron"), ()), (capped.closed, capped.hub_vertices)]:
        faces = np.array([[tri.vertices.index(v) for v in f] for f in tri.oriented_faces()])
        free = np.array([v not in hubs for v in tri.vertices])
        var = np.where(free, np.cumsum(free) - 1, -1)
        u = rng.uniform(-3.0, -0.2, int(free.sum()))
        H = _angle_sums(u, faces, var)[3]
        assert np.max(np.abs(H - H.T)) <= 1e-14 * np.max(np.abs(H))
        for j in range(len(u)):
            step = np.zeros_like(u)
            step[j] = h
            fd = (_angle_sums(u + step, faces, var)[2]
                  - _angle_sums(u - step, faces, var)[2]) / (2 * h)
            assert np.max(np.abs(fd - H[:, j])) <= 1e-8, (tri, j)


# -- Moebius normalization --------------------------------------------------


def _aligned(pos, target):
    """``pos`` under the rotation that best maps it onto ``target``."""
    u, _, vt = np.linalg.svd(pos.T @ target)
    rot = u @ vt
    assert np.linalg.det(rot) > 0
    return pos @ rot


def _off_gauge(tri, hubs=()):
    """The solve's pattern before its gauge, moved off it by a fixed boost."""
    pos, r, hub, *_ = _framed_pattern(tri, hubs)
    axis = np.array([0.3, -0.5, 0.81])
    pos, r = _transport_pattern(boost_to(0.3 * axis / np.linalg.norm(axis)), pos, r, hub)
    return pos, r, hub


@pytest.mark.parametrize("name", ["icosahedron", "sphere_28", 5, 8])
def test_moebius_normalize_matches_least_squares_reference(load, name):
    # the solve's pattern before its gauge, boosted off it; the gauge fixes
    # the boost, and the Newton steps compose boosts, so the two results
    # agree up to a rotation of the sphere
    tri = double(maehara_cap(name)) if isinstance(name, int) else load(name)
    pos, r, hub = _off_gauge(tri)
    assert np.max(np.abs(pos.sum(axis=0))) > 0.1
    new_pos, new_r, res, steps = moebius_normalize(pos, r, hub)
    ref_pos, ref_r = reference_moebius_normalize(pos, r, hub)
    assert np.max(np.abs(new_r - ref_r)) <= 1e-12
    assert np.max(np.abs(_aligned(new_pos, ref_pos) - ref_pos)) <= 1e-12
    assert res == np.max(np.abs(new_pos.sum(axis=0))) <= 1e-14 * len(r)
    assert 1 <= steps <= 8


@pytest.mark.parametrize("name", ["icosahedron", "sphere_28"])
def test_moebius_normalize_undoes_boosts(load, name, monkeypatch):
    # rigidity: a boosted pattern normalizes back to the solved one, up to a
    # rotation; far boosts toward a disk center make the first full Newton
    # step push a disk past a hemisphere, so the step is halved
    sol = solve_pattern(load(name))
    fixed = np.zeros(len(sol.radii), dtype=bool)
    refused = []

    def transport(*args):
        try:
            return _transport_pattern(*args)
        except SolveError:
            refused.append(1)
            raise

    monkeypatch.setattr(pattern, "_transport_pattern", transport)
    rng = np.random.default_rng(29)
    boosts = [_unit_rows(rng, 1)[0] * rng.uniform(0.0, 0.8) for _ in range(30)]
    boosts += [0.9 * x for x in sol.positions]
    checked = halved = 0
    for b in boosts:
        try:
            pos, r = _transport_pattern(boost_to(b), sol.positions, sol.radii, fixed)
        except SolveError:
            continue
        if r.max() >= math.pi / 2:
            continue
        refused.clear()
        new_pos, new_r, res, _ = moebius_normalize(pos, r, fixed)
        assert np.max(np.abs(np.sort(new_r) - np.sort(sol.radii))) <= 1e-12
        assert np.max(np.abs(new_pos @ new_pos.T - sol.positions @ sol.positions.T)) <= 1e-12
        assert res <= 1e-14 * len(r)
        checked += 1
        halved += bool(refused)
    assert checked >= 20
    if name == "sphere_28":
        assert halved >= 1


def test_moebius_normalize_backtracks_when_a_full_step_grows_the_sum(monkeypatch):
    # five seeded disks on which the first full Newton step takes max |S|
    # from 2.28 to 3.46 with every disk inside a hemisphere: the step is
    # halved until the sum shrinks, and the gauge still converges
    rng = np.random.default_rng(71)
    pos, r = _unit_rows(rng, 5), rng.uniform(0.05, 0.6, 5)
    fixed = np.zeros(5, dtype=bool)
    sums = []

    def transport(*args):
        out = _transport_pattern(*args)
        sums.append(np.max(np.abs(out[0].sum(axis=0))))
        return out

    monkeypatch.setattr(pattern, "_transport_pattern", transport)
    new_pos, new_r, res, steps = moebius_normalize(pos, r, fixed)
    assert sums[0] > np.max(np.abs(pos.sum(axis=0))) > sums[1]
    assert res == np.max(np.abs(new_pos.sum(axis=0))) <= 1e-14 * 5
    ref_pos, ref_r = reference_moebius_normalize(pos, r, fixed)
    assert np.max(np.abs(np.sort(new_r) - np.sort(ref_r))) <= 1e-12
    assert np.max(np.abs(new_pos @ new_pos.T - ref_pos @ ref_pos.T)) <= 1e-12
    assert steps < pattern.NORMALIZE_MAX_STEPS


def test_moebius_normalize_failures_are_solve_errors(load, monkeypatch):
    # every center on one axis: J is singular
    axis = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    with pytest.raises(SolveError, match="singular"):
        moebius_normalize(axis, np.full(3, 0.3), np.zeros(3, dtype=bool))
    # nearly so: the Newton step is so long that even halved 20 times its
    # boost leaves the ball (boost_to's GeometryError)
    near = axis + 1e-6 * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    near /= np.linalg.norm(near, axis=1)[:, None]
    no_step = ("normalization found no step in 20 halvings that keeps every disk "
               "in a hemisphere and shrinks the center sum")
    with pytest.raises(SolveError, match=no_step):
        moebius_normalize(near, np.full(3, 0.3), np.zeros(3, dtype=bool))
    # steps run out while max |S| is still above the bound
    ico = load("icosahedron")
    pos, r, hub = _off_gauge(ico)
    monkeypatch.setattr(pattern, "NORMALIZE_MAX_STEPS", 1)
    with pytest.raises(SolveError, match=r"normalization stopped at max \|sum of centers\| .* after 1 steps"):
        moebius_normalize(pos, r, hub)
    monkeypatch.undo()

    # a solve whose pattern the gauge cannot move raises the gauge's error
    def refuse(*args):
        raise SolveError("normalization pushed a disk past a hemisphere")

    off = _off_gauge(ico)
    monkeypatch.setattr(pattern, "_transport_pattern", refuse)
    monkeypatch.setattr(pattern, "_framed_pattern", lambda *args: (*off, "v0", 0, 0.0))
    with pytest.raises(SolveError, match=no_step):
        solve_pattern(ico)


# -- vectorised checks against the loops they replaced ----------------------


def _brute_validator(tri, hubs, pos, r, angle_tol=1e-8, area_tol=1e-6):
    hubset = set(hubs)
    for i, v in enumerate(tri.vertices):
        if abs(float(np.linalg.norm(pos[i])) - 1.0) > 1e-12:
            return f"position of {v} is not unit"
    for i, u in enumerate(tri.vertices):
        for j in range(i + 1, len(tri.vertices)):
            v = tri.vertices[j]
            if tri.has_edge(u, v):
                continue
            shared_hub = any(h in tri.adjacency[u] and h in tri.adjacency[v]
                             for h in hubset)
            d = spherical_distance(pos[i], pos[j])
            slack = -1e-9 if shared_hub else 1e-9
            if d <= r[i] + r[j] + slack:
                return f"non-adjacent disks {u}, {v} are not disjoint"
    index = {v: i for i, v in enumerate(tri.vertices)}
    sign = None
    for f in tri.oriented_faces():
        d = float(np.linalg.det(np.vstack([pos[index[v]] for v in f])))
        if abs(d) < 1e-12:
            return f"degenerate face {f}"
        if sign is None:
            sign = d > 0
        elif (d > 0) != sign:
            return "solution is not consistently oriented"
    for i, v in enumerate(tri.vertices):
        if v not in hubset and not (0.0 < r[i] < math.pi / 2):
            return f"radius of {v} outside (0, pi/2)"
    sums = dict.fromkeys(tri.vertices, 0.0)
    for f, v, ang in _brute_corner_angles(tri, pos):
        sums[v] += ang
    for v, s in sums.items():
        if abs(s - 2 * math.pi) > angle_tol:
            return f"angle sum at interior vertex {v} is {s!r}"
    total = sum(sums.values()) - len(tri.faces) * math.pi
    if abs(total - 4 * math.pi) > area_tol:
        return f"total area {total!r} differs from 4 pi"
    return None


def _without_numbers(message):
    # the angle-sum and area messages quote sums taken in another order
    return message and re.sub(r"-?\d+\.\d+(e-?\d+)?", "#", message)


def _brute_corner_angles(tri, pos):
    index = {v: i for i, v in enumerate(tri.vertices)}
    out = []
    for f in tri.faces:
        pts = [pos[index[v]] for v in f]
        for k, v in enumerate(f):
            out.append((f, v, corner_angle(pts[k], pts[(k + 1) % 3], pts[(k + 2) % 3])))
    return out


def _brute_perpendicular_deviation(tri, pos):
    index = {v: i for i, v in enumerate(tri.vertices)}
    worst = 0.0
    for e, fs in tri.edge_faces.items():
        if len(fs) == 2:
            u, v = (pos[index[x]] for x in e)
            w1, w2 = (pos[index[next(x for x in f if x not in e)]] for f in fs)
            worst = max(worst, spherical_distance(perpendicular_foot(w1, u, v),
                                                  perpendicular_foot(w2, u, v)))
    return worst


def _brute_clearances(tri, pos, r):
    out = {}
    for i, u in enumerate(tri.vertices):
        for j in range(i + 1, len(tri.vertices)):
            if not tri.has_edge(u, tri.vertices[j]):
                d = spherical_distance(pos[i], pos[j])
                out[frozenset((u, tri.vertices[j]))] = d - (r[i] + r[j])
    return out


def _oracle_patterns(tri, hubs, rng):
    """A Tutte start; for a realizable complex also the solve's pattern
    before its gauge, the solved pattern and variants of it that break one
    check each."""
    fixed = np.isin(tri.vertices, hubs)
    yield tutte_sphere_init(tri, tri.vertices[0], rng), np.where(fixed, 0.0, 0.3)
    if not (is_flag_no_square(tri) and ideal_allright_conditions(tri)):
        return
    yield _framed_pattern(tri, hubs)[:2]
    sol = solve_pattern(tri, fixed_zero=hubs)
    pos, r = sol.positions, sol.radii
    yield pos, r
    pairs = [(a, b) for a in range(len(r)) for b in range(a + 1, len(r))
             if not tri.has_edge(tri.vertices[a], tri.vertices[b])]
    if pairs:
        i, j = pairs[len(pairs) // 2]
        grown = r.copy()                 # two non-adjacent disks overlap
        grown[i] = grown[j] = spherical_distance(pos[i], pos[j]) / 2 + 1e-3
        yield pos, grown
    tiny = np.where(fixed, 0.0, 1e-3)
    oriented = tri.oriented_faces()
    u, v, w = (tri.vertices.index(x) for x in oriented[3])
    flat = pos.copy()                    # a degenerate face
    flat[w] = (pos[u] + pos[v]) / np.linalg.norm(pos[u] + pos[v])
    yield flat, tiny
    mirrored = pos.copy()                # one vertex moved to its antipode
    mirrored[w] = -pos[w]
    yield mirrored, tiny
    early = {x for f in oriented[:4] for x in f}
    late = [tri.vertices.index(x) for x in oriented[-1] if x not in early]
    if late:                             # the degenerate face comes first
        flat[late[0]] = -pos[late[0]]
        yield flat, tiny
    zero = r.copy()                      # a non-hub radius left (0, pi/2)
    zero[np.flatnonzero(~fixed)[-1]] = 0.0
    yield pos, zero
    off = pos.copy()                     # a position off the unit sphere
    off[w] *= 1 + 1e-9
    yield off, r


def test_vectorised_pattern_checks_match_pair_loop():
    rng = np.random.default_rng(3)
    corpus = [(name, fixtures.load(name)) for name in fixtures.FIXTURE_NAMES]
    corpus += [(f"double_{n}", double(maehara_cap(n))) for n in (5, 8)]
    messages = set()
    forced = set()
    for name, tri in corpus:
        hubs = ()
        if not tri.is_closed:
            # the restricted realization is not checked by realize_sphere;
            # it must pass the checks all the same
            try:
                res = realize_sphere(tri, seed=0)
            except CombinatorialRefusal:
                pass
            else:
                res.realization.validate()
                res.closed_realization.validate()
            capping = glue_caps(tri)
            tri, hubs = capping.closed, capping.hub_vertices
        index = {v: k for k, v in enumerate(tri.vertices)}
        check = _invariant_check(tri, hubs)
        for pos, r in _oracle_patterns(tri, hubs, rng):
            expected = _brute_validator(tri, hubs, pos, r)
            assert check(pos, r)[0] == expected, name
            messages.add(expected.split()[0] if expected else None)
            if expected is None:
                # tolerances below zero force the angle-sum, then the area message
                for tols in ((-1.0, 1e-6), (1.0, -1.0)):
                    expected = _brute_validator(tri, hubs, pos, r, *tols)
                    got = check(pos, r, *tols)[0]
                    assert _without_numbers(got) == _without_numbers(expected), name
                    forced.add(expected.split()[0])
            real = GeodesicRealization(tri, {v: pos[index[v]] for v in tri.vertices},
                                       {v: float(r[index[v]]) for v in tri.vertices})
            corners, brute_corners = real.corner_angles(), _brute_corner_angles(tri, pos)
            assert [c[:2] for c in corners] == [c[:2] for c in brute_corners]
            angles, brute_angles = (np.array([c[2] for c in cs])
                                    for cs in (corners, brute_corners))
            # the two differ by the rounding of the arccos argument, which
            # arccos magnifies by 1 / sin(angle) near 0 and pi
            assert np.all(np.abs(angles - brute_angles) * np.sin(brute_angles) <= 1e-15), name
            deviation = verify_coinciding_perpendiculars(real).max_deviation
            assert abs(deviation - _brute_perpendicular_deviation(tri, pos)) <= 4e-15, name
            residuals = pattern_residuals(real)
            brute = _brute_clearances(tri, pos, r)
            i, j = _nonedge_pairs(tri)
            pairs = [frozenset((tri.vertices[a], tri.vertices[b])) for a, b in zip(i, j)]
            assert pairs == list(brute), name
            assert np.max(np.abs(residuals.nonedge_clearances - list(brute.values())),
                          initial=0.0) <= 1e-15, name
            # the edge residual reads cos d(x_u, x_v) as the dot product x_u.x_v,
            # which leaves the cosine of the distance once a position is off
            # the unit sphere
            unit = np.all(np.abs(np.linalg.norm(pos, axis=1) - 1.0) <= POSITION_TOL)
            brute_edges, brute_cosines = [], []
            for e in tri.edge_faces:
                a, b = (index[x] for x in e)
                brute_edges.append(float(np.dot(pos[a], pos[b])) - math.cos(r[a]) * math.cos(r[b]))
                brute_cosines.append(math.cos(spherical_distance(pos[a], pos[b]))
                                     - math.cos(r[a]) * math.cos(r[b]))
            assert np.max(np.abs(residuals.edge_residuals - brute_edges)) <= 1e-15, name
            if unit:
                assert np.max(np.abs(residuals.edge_residuals - brute_cosines)) <= 1e-15, name
    assert messages == {None, "position", "non-adjacent", "degenerate", "solution", "radius"}
    assert forced == {"angle", "total"}


def test_pattern_validator_hub_tangency(load):
    # the two disks opposite across the ideal hub of the capped square disk
    # touch at the hub point: their clearance may go down to -1e-9, where
    # any other non-adjacent pair needs a clearance above +1e-9
    capping = glue_caps(load("square_disk_a"))
    tri, hubs = capping.closed, capping.hub_vertices
    index = {v: k for k, v in enumerate(tri.vertices)}
    sol = solve_pattern(tri, fixed_zero=hubs)
    ring = sorted(tri.adjacency[hubs[0]], key=index.get)
    a = ring[0]
    b = next(x for x in ring[1:] if not tri.has_edge(a, x))
    i, j = index[a], index[b]
    gap = spherical_distance(sol.positions[i], sol.positions[j]) - sol.radii[i] - sol.radii[j]
    assert abs(gap) < 1e-12
    check = _invariant_check(tri, hubs)
    for clearance, ok in ((-0.5e-9, True), (-1.5e-9, False)):
        r = sol.radii.copy()
        r[i] += (gap - clearance) / 2
        r[j] += (gap - clearance) / 2
        expected = _brute_validator(tri, hubs, sol.positions, r)
        assert check(sol.positions, r)[0] == expected
        assert (expected is None) == ok, expected
        # validate() takes the radius-zero vertex of degree four as the hub
        real = GeodesicRealization(tri, dict(zip(tri.vertices, sol.positions)),
                                   dict(zip(tri.vertices, r.tolist())))
        if ok:
            real.validate()
        else:
            with pytest.raises(ValidationError, match=expected):
                real.validate()
