"""Hyperbolic duality of spherical triangles via sigma curves.

Two spherical triangles are hyperbolically dual when they form the opposite
vertex links of a slanted cube in H^3.  Writing x = tanh d(O, X) for the
perpendicular-foot parameters of the cube, duality reduces to the coupled
scalar equations

    sigma_{c,gamma}(x, y) = cos(gamma) sqrt((1-x^2)(1-y^2)) - x y + cos(c) = 0

one per pair of feet, where c is a side of the first triangle and gamma the
matching angle of the second.  Each curve's root y(x) is a closed form
(``SigmaCurve.solve_y``); this module solves the systems, and the cube
reconstruction itself lives in ``klein``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GeometryError, ValidationError
from .spherical import (CORNERS, IDENTITY_MAP, CornerMap, SphericalTriangle,
                        triangle_pqr)

SIGMA_RESIDUAL_TOL = 1e-10


def sigma(c: float, gamma: float, x, y):
    """sigma_{c,gamma}(x, y), elementwise over scalars or numpy arrays (x, y
    in [0, 1])."""
    return _sigma(math.cos(c), math.cos(gamma), x, y)


def _sigma(cc: float, cg: float, x, y):
    """sigma with cos c = cc and cos gamma = cg, with math on floats and
    elementwise on arrays (same rounding).  1 - x^2 is taken as
    (1 - x)(1 + x), which keeps its relative accuracy as x approaches 1."""
    if isinstance(x, float) and isinstance(y, float):
        return cg * math.sqrt(max(0.0, (1 - x) * (1 + x) * ((1 - y) * (1 + y)))) - x * y + cc
    return cg * np.sqrt(np.maximum(0.0, (1 - x) * (1 + x) * ((1 - y) * (1 + y)))) - x * y + cc


def foot_parameter(a: float) -> float:
    """Poincare radius OH = sec(a) - tan(a) of the perpendicular foot dropped
    from an ideal point at visual angle a onto the opposite ray, evaluated
    as cos(a) / (1 + sin(a)), which does not cancel as a approaches pi/2.
    It satisfies 2 / (OH + 1/OH) = cos(a).
    """
    if not (0.0 < a < math.pi / 2):
        raise GeometryError(f"angle must lie in (0, pi/2), got {a!r}")
    return math.cos(a) / (1.0 + math.sin(a))


@dataclass(frozen=True)
class SigmaCurve:
    """The zero set of sigma_{c,gamma} in (0,1)^2, a strictly decreasing graph
    y(x).  Requires gamma in (0, pi - c) and gamma <= pi/2."""

    c: float
    gamma: float
    _cc: float = field(init=False, repr=False, compare=False)
    _cg: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.c < math.pi):
            raise ValidationError(f"c={self.c!r} outside (0, pi)")
        if math.pi / 2 < self.gamma <= math.pi / 2 + 1e-9:
            # grace band for right angles entered as rounded decimals
            object.__setattr__(self, "gamma", math.pi / 2)
        if not (0.0 < self.gamma <= math.pi / 2):
            raise ValidationError(f"gamma={self.gamma!r} outside (0, pi/2]")
        if self.gamma >= math.pi - self.c:
            raise ValidationError(
                f"gamma={self.gamma!r} must be below pi - c = {math.pi - self.c!r}")
        # cos c and cos gamma, shared by the scalar and the array forms
        object.__setattr__(self, "_cc", math.cos(self.c))
        object.__setattr__(self, "_cg", math.cos(self.gamma))

    def __call__(self, x, y):
        return _sigma(self._cc, self._cg, x, y)

    def x_domain(self) -> tuple:
        """Open interval of x values for which a root y in (0, 1) exists.

        For c <= pi/2 the curve joins (cos c, 1) to (1, cos c); for c > pi/2
        it joins the axes at (0, y0) and (x0, 0)."""
        cc = self._cc
        if cc >= 0.0:
            return (cc, 1.0)
        hi = math.sqrt(max(0.0, 1.0 - cc * cc / self._cg ** 2))
        return (0.0, hi)

    def solve_y(self, x: float) -> float:
        """The unique y in [0, 1] with sigma(x, y) = 0, for x in the closed
        domain.  Squaring sigma = 0 gives (x^2 + k^2) y^2 - 2 C x y + C^2 -
        k^2 = 0 with C = cos c and k = cos(gamma) sqrt(1 - x^2); sigma's own
        root is its root with x y >= C, polished by two Newton steps."""
        lo, hi = self.x_domain()
        if not (lo <= x <= hi):
            raise GeometryError(f"x={x!r} outside curve domain ({lo!r}, {hi!r})")
        # inside the domain sigma(x, 0) >= 0 >= sigma(x, 1); a sign past zero
        # is rounding at an end of the domain, where the root is that end
        if self(x, 0.0) <= 0.0:
            return 0.0
        if self(x, 1.0) >= 0.0:
            return 1.0
        cc = self._cc
        k = self._cg * math.sqrt((1 - x) * (1 + x))
        root = k * math.sqrt(max(0.0, (x - cc) * (x + cc) + k * k))
        # (C x + root) / (x^2 + k^2) cancels when C x < 0; its conjugate
        # form (C^2 - k^2) / (C x - root) does not
        y = ((cc * x + root) / (x * x + k * k) if cc * x >= 0.0
             else (cc * cc - k * k) / (cc * x - root))
        y = min(1.0, max(0.0, y))
        # Newton polish; d(sigma)/dy < 0 throughout
        for _ in range(2):
            d = self._dy(x, y)
            if d == 0.0:
                break
            y = min(1.0, max(0.0, y - self(x, y) / d))
        return y

    def _dy(self, x, y):
        """d(sigma)/dy, elementwise (a float for float arguments)."""
        return -self._cg * y * _sines(x) / _sines(y) - x

    def derivative_dy_dx(self, x, y):
        """dy/dx along the zero set (strictly negative), elementwise (a float
        for float arguments)."""
        sx, sy, cg = _sines(x), _sines(y), self._cg
        return -(y + x * sy * cg / sx) / (x + y * sx * cg / sy)


def _sines(c):
    """sqrt(1 - c^2), kept above zero, with math on a float and elementwise
    on arrays (same rounding)."""
    if isinstance(c, float):
        return math.sqrt(max(1e-300, 1.0 - c * c))
    return np.sqrt(np.maximum(1e-300, 1.0 - c * c))


@dataclass(frozen=True)
class DualityWitness:
    """Foot parameters of a hyperbolic slanted cube realizing a dual pair.

    x, y, z are tanh of the hyperbolic distances from the distinguished
    vertex O to the perpendicular feet X, Y, Z (equal to the Klein-model
    radii).  ``R`` is the link at O in the solver frame (corner A matched to
    the target's corner A by ``corner_map``); ``target`` is the link at the
    opposite vertex O'.
    """

    x: float
    y: float
    z: float
    R: SphericalTriangle
    target: SphericalTriangle
    corner_map: CornerMap
    residuals: tuple

    def __post_init__(self):
        if max(abs(r) for r in self.residuals) > SIGMA_RESIDUAL_TOL:
            raise ValidationError(
                f"sigma residuals {self.residuals} exceed {SIGMA_RESIDUAL_TOL}")
        for name, v in (("x", self.x), ("y", self.y), ("z", self.z)):
            if not (0.0 < v < 1.0):
                raise ValidationError(f"foot parameter {name}={v!r} outside (0, 1)")

    def to_json(self):
        return {
            "x": self.x, "y": self.y, "z": self.z,
            "link_at_O": {"angles": list(self.R.angles()), "sides": list(self.R.sides())},
            "link_at_opposite": {"angles": list(self.target.angles()),
                                 "sides": list(self.target.sides())},
            "corner_map": dict(self.corner_map.mapping),
            "sigma_residuals": list(self.residuals),
        }


def _system_residuals(R: SphericalTriangle, T: SphericalTriangle, x, y, z):
    return (sigma(R.a, T.A, y, z), sigma(R.b, T.B, z, x), sigma(R.c, T.C, x, y))


def allright_feet(cos_a, cos_b, cos_c):
    """Feet (x, y, z) of the cube dual to the all-right triangle, elementwise.

    With every target angle pi/2 the three sigma equations read
    x y = cos c, y z = cos a and z x = cos b, so x = sqrt(cos b cos c / cos a)
    and cyclically.
    """
    return (np.sqrt(cos_b * cos_c / cos_a), np.sqrt(cos_c * cos_a / cos_b),
            np.sqrt(cos_a * cos_b / cos_c))


def solve_dual_22p(R: SphericalTriangle, p: int,
                   corner_map: CornerMap = IDENTITY_MAP) -> Optional[DualityWitness]:
    """Witness for R hyperbolically dual to the (2, 2, p) triangle, or None.

    ``corner_map`` sends R's corners to the target's; the target carries the
    label p at corner A.  Duality holds exactly when R is slimmer than the
    polar dual of the (2,2,p) triangle: a, A < pi - pi/p and B, C, b, c <
    pi/2, with the p label on corner A.  For p = 2 the feet have a closed
    form (``allright_feet``); otherwise the solver reduces the system to one
    bracketed root find in y (x y = cos c, z x = cos b).
    """
    if p < 2:
        raise ValidationError(f"p must be >= 2, got {p}")
    S = R.relabeled(corner_map)
    bound = math.pi - math.pi / p
    if not (S.a < bound and S.A < bound
            and all(v < math.pi / 2 for v in (S.B, S.C, S.b, S.c))):
        return None
    target = triangle_pqr(p, 2, 2)
    cos_b, cos_c = math.cos(S.b), math.cos(S.c)
    if p == 2:
        x0, y0, z0 = map(float, allright_feet(math.cos(S.a), cos_b, cos_c))
    else:
        curve = SigmaCurve(S.a, math.pi / p)

        def g(yv):
            return curve(yv, yv * cos_b / cos_c)

        y_hi = min(1.0, cos_c / cos_b)
        from scipy.optimize import brentq
        y0 = brentq(g, cos_c, y_hi, xtol=1e-15, rtol=8.9e-16)
        x0 = cos_c / y0
        z0 = y0 * cos_b / cos_c
    res = _system_residuals(S, target, x0, y0, z0)
    return DualityWitness(x=x0, y=y0, z=z0, R=S, target=target,
                          corner_map=corner_map, residuals=res)


@dataclass(frozen=True)
class AbsenceCertificate:
    """Certified report that a general duality system has no root.

    ``reason`` is one of:
      * ``necessary-condition``: R is not slimmer than the polar dual of the
        target (duality is impossible by the slanted-cube comparison lemma);
      * ``empty-interval``: the feasible x-interval of the coupled curves is
        empty;
      * ``sign-constant``: the closing residual h(x) = sigma_a(y(x), z(x))
        does not change sign between the two ends of the feasible interval;
        h is strictly increasing in x (see ``solve_dual_general``), so the
        end signs exclude a root exactly.  Nothing is sampled: ``grid_step``
        reads 0.0, ``min_abs_residual`` is the smaller |h| at the two ends
        (the minimum of a monotone h) and ``min_slope`` the smaller h' there.
    """

    reason: str
    detail: str
    interval: tuple = ()
    grid_step: float = 0.0
    min_abs_residual: float = math.inf
    residual_sign: int = 0
    min_slope: float = math.nan

    def to_json(self):
        return {
            "reason": self.reason, "detail": self.detail,
            "interval": list(self.interval), "grid_step": self.grid_step,
            "min_abs_residual": self.min_abs_residual,
            "residual_sign": self.residual_sign, "min_slope": self.min_slope,
        }


@dataclass(frozen=True)
class DualSolveResult:
    witness: Optional[DualityWitness]
    certificate: Optional[AbsenceCertificate]

    @property
    def found(self) -> bool:
        return self.witness is not None


def solve_dual_general(R: SphericalTriangle, target: SphericalTriangle,
                       corner_map: CornerMap = IDENTITY_MAP) -> DualSolveResult:
    """Solve the full three-sigma duality system for an arbitrary target.

    Parametrizes x, reads y off the (c, C') curve and z off the (b, B')
    curve, and root-finds the closing residual h(x) = sigma_{a,A'}(y(x), z(x))
    on the feasible interval [lo, hi].  Returns a witness or an exact
    absence certificate.

    h is strictly increasing.  With A' <= pi/2, sigma_{a,A'}(y, z) decreases
    in each foot: its y-derivative is -cos(A') y sqrt(1-z^2)/sqrt(1-y^2) - z
    < 0, and symmetrically in z.  y(x) and z(x) both decrease along their
    curves, so h' = sigma_y y' + sigma_z z' > 0.  So h has at most one root,
    and the signs of h(lo) and h(hi) decide: opposite signs bracket it, and
    otherwise no root lies inside the interval.

    The sigma-curve characterization requires every target angle to be at
    most pi/2; obtuse targets raise GeometryError.
    """
    S = R.relabeled(corner_map)
    T = target
    if max(T.angles()) > math.pi / 2 + 1e-9:
        raise GeometryError(
            "solve_dual_general requires target angles <= pi/2 "
            f"(got {max(T.angles())!r}); the sigma-curve method does not apply")

    # Necessary condition: S slimmer than the polar dual of T, i.e. every
    # angle/side of S below pi - (matching side/angle of T).
    violations = []
    for corner in CORNERS:
        if S.angle(corner) >= math.pi - T.side(corner):
            violations.append(f"{corner} >= pi - {corner.lower()}'")
        if S.side(corner) >= math.pi - T.angle(corner):
            violations.append(f"{corner.lower()} >= pi - {corner}'")
    if violations:
        return DualSolveResult(None, AbsenceCertificate(
            reason="necessary-condition",
            detail="not slimmer than the polar dual of the target: " + ", ".join(violations)))

    curve_xy = SigmaCurve(S.c, T.C)   # couples x with y
    curve_zx = SigmaCurve(S.b, T.B)   # couples x with z
    curve_yz = SigmaCurve(S.a, T.A)   # closing residual

    lo = max(curve_xy.x_domain()[0], curve_zx.x_domain()[0])
    hi = min(curve_xy.x_domain()[1], curve_zx.x_domain()[1])
    if not lo < hi:
        return DualSolveResult(None, AbsenceCertificate(
            reason="empty-interval",
            detail=f"feasible x-interval empty: lo={lo!r} >= hi={hi!r}",
            interval=(lo, hi)))

    def closing(xv: float) -> float:
        return curve_yz(curve_xy.solve_y(xv), curve_zx.solve_y(xv))

    ends = np.array([(curve_xy.solve_y(xv), curve_zx.solve_y(xv)) for xv in (lo, hi)])
    h_lo, h_hi = (curve_yz(y, z) for y, z in ends)
    if not h_lo < 0.0 < h_hi:
        slopes = _closing_slopes(curve_xy, curve_zx, curve_yz, np.array([lo, hi]), *ends.T)
        if min(abs(h_lo), abs(h_hi)) <= 1e-13:
            # the residual only touches zero at the boundary of the feasible
            # interval: the cube degenerates onto the ideal boundary there
            detail = ("closing residual vanishes only at the boundary of the "
                      "feasible interval (degenerate cube)")
        else:
            detail = (f"residual sign {int(np.sign(h_lo))} over the feasible interval; "
                      "residual is strictly increasing in x")
        return DualSolveResult(None, AbsenceCertificate(
            reason="sign-constant", detail=detail, interval=(lo, hi),
            min_abs_residual=min(abs(h_lo), abs(h_hi)),
            residual_sign=int(np.sign(h_lo + h_hi)),
            min_slope=float(np.min(slopes))))
    from scipy.optimize import brentq
    x0 = brentq(closing, lo, hi, xtol=1e-15, rtol=8.9e-16)
    y0 = curve_xy.solve_y(x0)
    z0 = curve_zx.solve_y(x0)
    res = _system_residuals(S, T, x0, y0, z0)
    witness = DualityWitness(x=x0, y=y0, z=z0, R=S, target=T,
                             corner_map=corner_map, residuals=res)
    return DualSolveResult(witness, None)


def _closing_slopes(curve_xy, curve_zx, curve_yz, xs, ys, zs):
    """d/dx of sigma_{a,A'}(y(x), z(x)) at the points xs (positive)."""
    return (curve_yz._dy(zs, ys) * curve_xy.derivative_dy_dx(xs, ys)
            + curve_yz._dy(ys, zs) * curve_zx.derivative_dy_dx(xs, zs))
