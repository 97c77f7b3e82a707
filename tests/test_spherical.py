import math

import numpy as np
import pytest

from acutesphere.errors import GeometryError, ValidationError
from acutesphere.spherical import (
    ALL_RIGHT, CornerMap, acute_sides_property, area, fatter,
    from_angles, from_sides, is_acute, is_strongly_obtuse, orthocenter,
    perpendicular_foot, place_triangle, polar_dual, slimmer, spherical_distance,
    triangle_from_points, triangle_pqr)

from conftest import corner_angle, random_acute_triangle, random_triangle

EQUILATERAL = from_angles(2 * math.pi / 5, 2 * math.pi / 5, 2 * math.pi / 5)


def test_from_sides_published_values():
    R = from_sides(1.0, 0.5, 0.6)
    assert R.A == pytest.approx(2.318, abs=1e-3)
    assert R.B == pytest.approx(0.431, abs=1e-3)
    assert R.C == pytest.approx(0.514, abs=1e-3)


def test_from_angles_published_values():
    R = from_angles(math.pi / 2, math.pi / 3, math.pi / 5)
    assert R.a == pytest.approx(0.652, abs=1e-3)
    assert R.b == pytest.approx(0.553, abs=1e-3)
    assert R.c == pytest.approx(0.364, abs=1e-3)


def test_octant_triangle():
    R = from_sides(math.pi / 2, math.pi / 2, math.pi / 2)
    assert R.angles() == pytest.approx((math.pi / 2,) * 3)
    R2 = from_angles(math.pi / 2, math.pi / 2, math.pi / 2)
    assert R2.sides() == pytest.approx((math.pi / 2,) * 3)


def test_equilateral_side():
    assert EQUILATERAL.a == pytest.approx(math.acos(1 / math.sqrt(5)), abs=1e-14)


def test_from_sides_triangle_inequality():
    with pytest.raises(GeometryError):
        from_sides(0.9, 0.9, 2.0)
    with pytest.raises(GeometryError):
        from_sides(3.0, 3.0, 0.5)   # perimeter above 2 pi


def test_from_angles_invalid():
    with pytest.raises(GeometryError):
        from_angles(0.5, 0.5, 0.5)      # angle sum below pi
    with pytest.raises(GeometryError):
        from_angles(0.1, 2.0, 1.5)      # dual triangle inequality: B+C-A >= pi


def test_roundtrip_sides_angles(rng):
    for _ in range(10000):
        R = random_triangle(rng)
        S = from_angles(*R.angles())
        assert max(abs(x - y) for x, y in zip(S.sides(), R.sides())) < 1e-12


def test_law_of_cosines_residuals(rng):
    for _ in range(2000):
        assert random_triangle(rng).law_of_cosines_residual() < 1e-12
        assert random_acute_triangle(rng).law_of_cosines_residual() < 1e-12


def test_polar_dual_fixed_point():
    D = polar_dual(ALL_RIGHT)
    assert D.angles() == pytest.approx(ALL_RIGHT.angles())
    assert D.sides() == pytest.approx(ALL_RIGHT.sides())


def test_polar_dual_definition():
    R = from_sides(1.0, 0.5, 0.6)
    D = polar_dual(R)
    assert D.angles() == pytest.approx((math.pi - 1.0, math.pi - 0.5, math.pi - 0.6))
    assert D.sides() == pytest.approx(tuple(math.pi - x for x in R.angles()))


def test_polar_dual_involution(rng):
    for _ in range(100):
        R = random_triangle(rng)
        RR = polar_dual(polar_dual(R))
        assert max(abs(x - y) for x, y in
                   zip(RR.angles() + RR.sides(), R.angles() + R.sides())) < 1e-12


def test_polar_dual_exchanges_acute_strongly_obtuse(rng):
    for _ in range(200):
        R = random_acute_triangle(rng)
        assert is_strongly_obtuse(polar_dual(R))
    assert is_strongly_obtuse(polar_dual(EQUILATERAL))


def test_classification():
    assert is_acute(EQUILATERAL)
    assert not is_acute(ALL_RIGHT) and not is_strongly_obtuse(ALL_RIGHT)
    assert is_strongly_obtuse(polar_dual(EQUILATERAL))


def test_acute_sides_property(rng):
    for _ in range(100):
        assert acute_sides_property(random_acute_triangle(rng))
    assert acute_sides_property(EQUILATERAL)
    eps = 1e-6
    near = from_angles(math.pi / 2 - eps, math.pi / 2 - eps, math.pi / 2 - eps)
    assert acute_sides_property(near)
    with pytest.raises(ValidationError):
        acute_sides_property(ALL_RIGHT)


def test_fatter():
    P = polar_dual(EQUILATERAL)
    assert fatter(P, ALL_RIGHT)
    assert not fatter(P, P)
    R = from_sides(1.0, 0.5, 0.6)
    assert slimmer(R, polar_dual(triangle_pqr(2, 3, 5)))


def test_fatter_partial_order_on_equilateral_chain(rng):
    def equilateral(alpha):
        return from_angles(alpha, alpha, alpha)

    for _ in range(200):
        a, b, c = sorted(rng.uniform(math.pi / 3 + 0.05, math.pi - 0.35, size=3))
        if not (a < b < c):
            continue
        Ta, Tb, Tc = equilateral(a), equilateral(b), equilateral(c)
        assert fatter(Tc, Tb) and fatter(Tb, Ta) and fatter(Tc, Ta)
        assert not fatter(Ta, Tb)
        assert not fatter(Ta, Ta)


def test_corner_map():
    m = CornerMap.from_dict({"A": "B", "B": "A", "C": "C"})
    assert m["A"] == "B" and m.inverse()["B"] == "A"
    with pytest.raises(ValidationError):
        CornerMap.from_dict({"A": "A", "B": "A", "C": "C"})
    R = from_sides(1.0, 0.5, 0.6)
    S = R.relabeled(m)
    assert S.B == R.A and S.b == R.a and S.C == R.C


def test_fatter_with_corner_map():
    R = from_sides(1.0, 0.5, 0.6)
    swap = CornerMap.from_dict({"A": "B", "B": "A", "C": "C"})
    P = polar_dual(triangle_pqr(3, 2, 5), swap)  # = polar dual of (2,3,5) form
    assert slimmer(R, P)


def test_area():
    assert area(ALL_RIGHT) == pytest.approx(math.pi / 2)
    assert area(EQUILATERAL) == pytest.approx(math.pi / 5)
    assert 20 * area(EQUILATERAL) == pytest.approx(4 * math.pi)


def test_place_triangle_consistency(rng):
    for _ in range(200):
        R = random_triangle(rng)
        PA, PB, PC = place_triangle(R)
        S = triangle_from_points(PA, PB, PC)
        assert max(abs(x - y) for x, y in zip(S.sides(), R.sides())) < 1e-12
        assert corner_angle(PA, PB, PC) == pytest.approx(R.A, abs=1e-12)


def test_orthocenter_equilateral_is_centroid():
    PA, PB, PC = place_triangle(EQUILATERAL)
    h = orthocenter(EQUILATERAL, PA, PB, PC)
    centroid = (PA + PB + PC)
    centroid /= np.linalg.norm(centroid)
    assert np.allclose(h, centroid, atol=1e-12)


def test_orthocenter_concurrency_independent_oracle(rng):
    # oracle: intersect the three perpendicular great circles pairwise and
    # compare the three intersection points directly
    for _ in range(200):
        R = random_acute_triangle(rng)
        pts = place_triangle(R)
        perps = []
        for i in range(3):
            P, Q, S = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
            n_side = np.cross(Q, S)
            n_side /= np.linalg.norm(n_side)
            u = np.cross(P, n_side)
            perps.append(u / np.linalg.norm(u))
        centroid = pts[0] + pts[1] + pts[2]
        meet = []
        for i in range(3):
            d = np.cross(perps[i], perps[(i + 1) % 3])
            d /= np.linalg.norm(d)
            if np.dot(d, centroid) < 0:
                d = -d
            meet.append(d)
        for i in range(3):
            assert spherical_distance(meet[i], meet[(i + 1) % 3]) < 1e-9
        h = orthocenter(R, *pts)
        assert spherical_distance(h, meet[0]) < 1e-9


def test_orthocenter_rejects_right_triangle():
    pts = place_triangle(ALL_RIGHT)
    with pytest.raises(ValidationError):
        orthocenter(ALL_RIGHT, *pts)


def test_perpendicular_feet_inside_for_acute(rng):
    from acutesphere.spherical import foot_inside_arc
    for _ in range(100):
        R = random_acute_triangle(rng)
        pts = place_triangle(R)
        for i in range(3):
            foot = perpendicular_foot(pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3])
            assert foot_inside_arc(foot, pts[(i + 1) % 3], pts[(i + 2) % 3])
