import math

import numpy as np
import pytest

from acutesphere.duality import (
    AbsenceCertificate, SigmaCurve, foot_parameter, sigma, solve_dual_22p,
    solve_dual_general)
from acutesphere.errors import GeometryError, ValidationError
from acutesphere.spherical import (CornerMap, from_angles, from_sides, polar_dual,
                                   triangle_pqr)

from conftest import (random_acute_triangle, random_triangle, reference_solve_dual_sampled,
                      reference_solve_y_grid)

EQUILATERAL = from_angles(2 * math.pi / 5, 2 * math.pi / 5, 2 * math.pi / 5)


def closed_form_p2(R):
    """Analytic reflection-cube parameters for an acute triangle (oracle)."""
    ca, cb, cc = (math.cos(s) for s in R.sides())
    return (math.sqrt(cb * cc / ca), math.sqrt(cc * ca / cb), math.sqrt(ca * cb / cc))


def scalar_derivatives(curve, x, y):
    """The scalar math-module forms of ``SigmaCurve._dy`` (d sigma/dy) and
    ``derivative_dy_dx``, kept as the oracle of their array forms."""
    sx = math.sqrt(max(1e-300, 1.0 - x * x))
    sy = math.sqrt(max(1e-300, 1.0 - y * y))
    cg = math.cos(curve.gamma)
    return (-cg * y * sx / sy - x,
            -(y + x * sy * cg / sx) / (x + y * sx * cg / sy))


def test_sigma_vanishes_at_curve_corner(rng):
    for _ in range(100):
        c = rng.uniform(0.1, math.pi - 0.2)
        gamma = rng.uniform(0.05, min(math.pi / 2, math.pi - c - 0.05))
        assert abs(sigma(c, gamma, math.cos(c), 1.0)) < 1e-15


def test_sigma_right_angle_reduces_to_product():
    # sigma_{b, pi/2}(z, x) = 0 iff z x = cos b
    b = math.pi / 3
    z = 0.8
    x = math.cos(b) / z
    assert abs(sigma(b, math.pi / 2, z, x)) < 1e-15
    assert x == pytest.approx(0.625)


def test_sigma_identity_on_triangles(rng):
    # sigma_{a, pi/p}(cos c, cos b) = (cos(pi/p) + cos A) sin b sin c
    for _ in range(100):
        R = random_triangle(rng)
        p = int(rng.integers(2, 9))
        lhs = sigma(R.a, math.pi / p, math.cos(R.c), math.cos(R.b))
        rhs = (math.cos(math.pi / p) + math.cos(R.A)) * math.sin(R.b) * math.sin(R.c)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_foot_parameter_values():
    oh = foot_parameter(math.pi / 3)
    assert oh == pytest.approx(2 - math.sqrt(3), abs=1e-15)
    assert 2 / (oh + 1 / oh) == pytest.approx(0.5, abs=1e-15)
    assert foot_parameter(math.pi / 4) == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
    # limit consistency toward a -> 0: OH -> 1 and the identity gives cos 0 = 1
    oh_small = foot_parameter(1e-8)
    assert oh_small == pytest.approx(1.0, abs=1e-7)
    # toward a -> pi/2, where sec(a) - tan(a) cancels: OH -> 0 and the
    # identity holds to the last bits of cos(a)
    for k in range(1, 13):
        a = math.pi / 2 - 10.0 ** -k
        oh = foot_parameter(a)
        assert 0 < oh < 1
        assert 2 / (oh + 1 / oh) == pytest.approx(math.cos(a), rel=1e-15)
    with pytest.raises(GeometryError):
        foot_parameter(math.pi / 2)


def test_curve_closed_form_right_angle():
    curve = SigmaCurve(0.9, math.pi / 2)
    for x in np.linspace(math.cos(0.9) + 1e-6, 1.0, 20):
        assert curve.solve_y(x) == pytest.approx(math.cos(0.9) / x, abs=1e-12)


def test_curve_endpoints():
    for c in (0.4, 1.0, math.pi / 2):
        gamma = min(math.pi / 2, math.pi - c - 0.1)
        curve = SigmaCurve(c, gamma)
        lo, hi = curve.x_domain()
        assert lo == pytest.approx(math.cos(c))
        assert hi == 1.0
        assert curve.solve_y(lo) == pytest.approx(1.0, abs=1e-9)
        assert curve.solve_y(hi) == pytest.approx(math.cos(c), abs=1e-9)


def test_curve_residuals_random(rng):
    for _ in range(200):
        c = rng.uniform(0.1, math.pi - 0.2)
        gamma = rng.uniform(0.05, min(math.pi / 2, math.pi - c - 0.05))
        curve = SigmaCurve(c, gamma)
        lo, hi = curve.x_domain()
        x = rng.uniform(lo + 1e-9, hi - 1e-9)
        y = curve.solve_y(x)
        assert abs(curve(x, y)) < 1e-12


def test_curve_monotone_decreasing(rng):
    for _ in range(50):
        c = rng.uniform(0.1, math.pi - 0.2)
        gamma = rng.uniform(0.05, min(math.pi / 2, math.pi - c - 0.05))
        curve = SigmaCurve(c, gamma)
        lo, hi = curve.x_domain()
        xs = np.linspace(lo + 1e-6, hi - 1e-6, 500)
        ys = reference_solve_y_grid(curve, xs)
        assert np.all(np.diff(ys) < 0)
        for x, y in zip(xs[::100], ys[::100]):
            assert curve.derivative_dy_dx(float(x), float(y)) < 0
        # the array forms round exactly as the scalar ones, element by element
        dy, slope = np.array([scalar_derivatives(curve, float(x), float(y))
                              for x, y in zip(xs, ys)]).T
        assert np.array_equal(curve._dy(xs, ys), dy)
        assert np.array_equal(curve.derivative_dy_dx(xs, ys), slope)
        assert type(curve.derivative_dy_dx(float(xs[0]), float(ys[0]))) is float


def test_curve_solves_at_both_domain_ends(rng):
    # at the upper end of a c > pi/2 curve's domain, sigma(hi, 0) can round
    # below zero: the root there is y = 0, not a missing root
    for _ in range(2000):
        c = rng.uniform(0.1, math.pi - 0.2)
        gamma = rng.uniform(0.05, min(math.pi / 2, math.pi - c - 0.05))
        curve = SigmaCurve(c, gamma)
        for x in curve.x_domain():
            y = curve.solve_y(x)
            assert 0.0 <= y <= 1.0
            assert abs(curve(x, y)) <= 1e-12


def mp_root(curve, x):
    """The root of sigma_{c,gamma}(x, .) = 0 in [0, 1] at 40 digits, from the
    quadratic in y with the curve's own cos c and cos gamma."""
    import mpmath as mp
    with mp.workdps(40):
        C, cg, x = (mp.mpf(v) for v in (math.cos(curve.c), math.cos(curve.gamma), x))
        k = cg * mp.sqrt(1 - x * x)
        y = (C * x + k * mp.sqrt(max(0, x * x - C * C + k * k))) / (x * x + k * k)
        return float(min(1, max(0, y)))


def test_curve_closed_form_matches_mpmath_root(rng):
    # c on both sides of pi/2, right gammas (root cos c / x), gammas in the
    # grace band, at both domain ends, 1e-12 inside them and inside
    pytest.importorskip("mpmath")
    for k in range(2400):
        kind = ("obtuse-c", "right", "grace", "any")[k % 4]
        c = rng.uniform(math.pi / 2 + 1e-4, math.pi - 0.2) if kind == "obtuse-c" \
            else rng.uniform(0.1, math.pi / 2 - 0.05) if kind in ("right", "grace") \
            else rng.uniform(0.1, math.pi - 0.2)
        gamma = {"right": math.pi / 2, "grace": math.pi / 2 + rng.uniform(0.0, 1e-9)}.get(
            kind, rng.uniform(0.05, min(math.pi / 2, math.pi - c - 0.05)))
        curve = SigmaCurve(c, gamma)
        lo, hi = curve.x_domain()
        for x in (lo, hi, lo + 1e-12, hi - 1e-12, float(rng.uniform(lo, hi))):
            y, y_mp = curve.solve_y(x), mp_root(curve, x)
            assert abs(y - y_mp) <= 2e-15, (c, gamma, x)
            # 1e-12 inside the lower end of a c < pi/2 curve the root lies
            # within 1e-24 of 1, so y is 1.0 and sigma(x, 1) = cos c - x
            assert abs(curve(x, y)) <= 1e-12 or y == y_mp == 1.0, (c, gamma, x)
            if curve.gamma == math.pi / 2:
                assert abs(y - math.cos(c) / x) <= 2e-15


def test_sigma_scalar_and_array_forms_round_identically(rng):
    for _ in range(50):
        c = rng.uniform(0.1, math.pi - 0.2)
        gamma = rng.uniform(0.05, min(math.pi / 2, math.pi - c - 0.05))
        curve = SigmaCurve(c, gamma)
        xs, ys = rng.uniform(0.0, 1.0, size=(2, 300))
        scalar = [(curve(x, y), curve._dy(x, y), sigma(c, gamma, x, y))
                  for x, y in zip(xs.tolist(), ys.tolist())]
        assert all(type(v) is float for v in scalar[0])
        values, slopes, free = np.array(scalar).T
        assert np.array_equal(curve(xs, ys), values)
        assert np.array_equal(curve._dy(xs, ys), slopes)
        assert np.array_equal(sigma(c, gamma, xs, ys), free)
        assert np.array_equal(values, free)


def test_curve_domain_obtuse_c():
    c = 2.2
    gamma = 0.5
    assert gamma < math.pi - c
    curve = SigmaCurve(c, gamma)
    lo, hi = curve.x_domain()
    assert lo == 0.0 and 0 < hi < 1
    x = hi / 2
    y = curve.solve_y(x)
    assert abs(curve(x, y)) < 1e-12


def test_curve_rejects_bad_gamma():
    with pytest.raises(ValidationError):
        SigmaCurve(2.8, 0.5)    # gamma >= pi - c
    with pytest.raises(ValidationError):
        SigmaCurve(1.0, 2.0)    # gamma > pi/2


def test_right_angle_grace_band():
    # right angles entered as rounded decimals are snapped to pi/2
    curve = SigmaCurve(1.0, 1.5707963268)
    assert curve.gamma == math.pi / 2
    rounded_right = from_angles(1.5707963268, 1.5707963268, 1.5707963268)
    res = solve_dual_general(EQUILATERAL, rounded_right)
    assert res.found
    exact = solve_dual_22p(EQUILATERAL, 2)
    assert res.witness.x == pytest.approx(exact.x, abs=1e-9)


def test_solve_22p_matches_closed_form(rng):
    for _ in range(1000):
        R = random_acute_triangle(rng)
        w = solve_dual_22p(R, 2)
        assert w is not None
        x, y, z = closed_form_p2(R)
        assert abs(w.x - x) < 1e-10
        assert abs(w.y - y) < 1e-10
        assert abs(w.z - z) < 1e-10


def test_solve_22p_icosahedral():
    w = solve_dual_22p(EQUILATERAL, 2)
    assert w.x == pytest.approx(5 ** -0.25, abs=1e-12)
    assert w.y == pytest.approx(5 ** -0.25, abs=1e-12)
    assert w.z == pytest.approx(5 ** -0.25, abs=1e-12)


def test_solve_22p_rejects_nonacute_sides():
    # a side of pi/2 or more forces cos c <= 0, so no cube exists for p = 2
    R = from_sides(math.pi / 2, math.pi / 2, math.pi / 2)
    assert solve_dual_22p(R, 2) is None
    R2 = from_sides(1.8, 1.2, 1.0)
    assert solve_dual_22p(R2, 2) is None


def test_solve_22p_higher_p(rng):
    for p in (3, 4, 5, 7):
        for _ in range(50):
            R = random_acute_triangle(rng)
            w = solve_dual_22p(R, p)
            assert w is not None
            assert max(abs(r) for r in w.residuals) < 1e-10


def test_solve_general_matches_22p(rng):
    for _ in range(50):
        R = random_acute_triangle(rng)
        res = solve_dual_general(R, triangle_pqr(2, 2, 2))
        assert res.found
        w2 = solve_dual_22p(R, 2)
        assert res.witness.x == pytest.approx(w2.x, abs=1e-10)
        assert res.witness.y == pytest.approx(w2.y, abs=1e-10)
        assert res.witness.z == pytest.approx(w2.z, abs=1e-10)


def test_solve_general_published_absence():
    R = from_sides(1.0, 0.5, 0.6)
    target = triangle_pqr(2, 3, 5)
    assert from_angles(math.pi / 2, math.pi / 3, math.pi / 5).sides() == target.sides()
    # the pair is slimmer than the polar dual yet not dual
    assert not slimmer_fails(R, target)
    res = solve_dual_general(R, target)
    assert not res.found
    cert = res.certificate
    assert isinstance(cert, AbsenceCertificate)
    assert cert.reason == "sign-constant"
    assert cert.residual_sign == -1
    assert cert.grid_step <= 1e-4
    assert cert.min_slope > 0


def random_target(rng, k):
    """A general acute target, a (2,3,r) target or a (2,2,p) target with p
    at corner k % 3, in turn."""
    kind, corner = k % 3, (k // 3) % 3
    if kind == 0:
        return random_acute_triangle(rng)
    if kind == 1:
        return triangle_pqr(*(int(m) for m in rng.permutation([2, 3, int(rng.integers(3, 6))])))
    labels = [2, 2, 2]
    labels[corner] = int(rng.integers(2, 8))
    return triangle_pqr(*labels)


def test_solve_general_matches_sampled_oracle(rng):
    # the end-sign decision gives the sampled solver's verdict, reason and
    # witness on general targets and on (2,2,p) with p at every corner
    reasons = {}
    for k in range(240):
        R = random_acute_triangle(rng) if k % 4 == 0 else random_triangle(rng)
        T = random_target(rng, k)
        ours, ref = solve_dual_general(R, T), reference_solve_dual_sampled(R, T)
        assert ours.found == ref.found
        if ours.found:
            reason = "found"
            assert abs(ours.witness.x - ref.witness.x) <= 1e-12
        else:
            cert, ref_cert = ours.certificate, ref.certificate
            reason = cert.reason
            assert reason == ref_cert.reason
            if reason == "sign-constant":
                assert cert.grid_step == 0.0
                assert cert.residual_sign == ref_cert.residual_sign
                assert cert.min_slope > 0
                # the minimum of a monotone residual sits at an end
                assert cert.min_abs_residual == pytest.approx(ref_cert.min_abs_residual,
                                                              abs=1e-12)
        reasons[reason] = reasons.get(reason, 0) + 1
    assert all(reasons.get(r, 0) >= 5 for r in ("found", "necessary-condition",
                                               "sign-constant")), reasons


def test_closing_residual_increases(rng):
    # the lemma behind the end-sign decision: on the feasible interval the
    # closing residual h(x) = sigma_{a,A'}(y(x), z(x)) is strictly increasing
    from acutesphere.spherical import slimmer
    checked = 0
    for k in range(1000):
        R = random_triangle(rng)
        T = random_target(rng, k)
        if not slimmer(R, polar_dual(T)):
            continue
        curve_xy, curve_zx = SigmaCurve(R.c, T.C), SigmaCurve(R.b, T.B)
        lo = max(curve_xy.x_domain()[0], curve_zx.x_domain()[0])
        hi = min(curve_xy.x_domain()[1], curve_zx.x_domain()[1])
        if not lo < hi:
            continue
        xs = np.linspace(lo, hi, 1000)
        h = sigma(R.a, T.A, reference_solve_y_grid(curve_xy, xs),
                  reference_solve_y_grid(curve_zx, xs))
        assert np.all(np.diff(h) > 0)
        checked += 1
        if checked == 100:
            break
    assert checked == 100


def slimmer_fails(R, target):
    from acutesphere.spherical import slimmer
    return not slimmer(R, polar_dual(target))


def test_solve_general_necessary_condition_absence():
    # equilateral with angle 2.2 is fatter than the polar dual of (2,2,2)
    big = from_angles(2.2, 2.2, 2.2)
    res = solve_dual_general(big, triangle_pqr(2, 2, 2))
    assert not res.found
    assert res.certificate.reason == "necessary-condition"


def test_solve_general_rejects_obtuse_target():
    with pytest.raises(GeometryError):
        solve_dual_general(EQUILATERAL, from_angles(2.0, 1.0, 1.0))


def test_necessary_condition_along_successes(rng):
    # every successful general solve implies slimmer than the target's dual
    from acutesphere.spherical import slimmer
    for p in (2, 3, 5):
        target = triangle_pqr(2, 2, p)
        swap = CornerMap.from_dict({"A": "C", "B": "B", "C": "A"})
        target_p_at_A = target.relabeled(swap)
        for _ in range(30):
            R = random_acute_triangle(rng)
            res = solve_dual_general(R, target_p_at_A)
            if res.found:
                assert slimmer(R, polar_dual(target_p_at_A))


def test_question_614_exploration_logged(rng):
    # sources slimmer than and close to the polar dual of an acute target:
    # outcomes are recorded, nothing is asserted about them (open question)
    from acutesphere.spherical import slimmer
    outcomes = []
    for eps in (1e-2, 1e-3, 1e-4):
        for _ in range(5):
            T = random_acute_triangle(rng)
            P = polar_dual(T)
            try:
                source = from_angles(*(a - eps for a in P.angles()))
            except GeometryError:
                continue
            if not slimmer(source, P):
                continue
            res = solve_dual_general(source, T)
            outcomes.append((eps, res.found))
    found = sum(1 for _, ok in outcomes if ok)
    print(f"question-6.14 exploration: {found}/{len(outcomes)} "
          "slimmer-and-close perturbations admitted a dual cube")
