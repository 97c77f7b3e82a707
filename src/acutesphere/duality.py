"""Hyperbolic duality of spherical triangles via sigma curves.

Two spherical triangles are hyperbolically dual when they form the opposite
vertex links of a slanted cube in H^3.  Writing x = tanh d(O, X) for the
perpendicular-foot parameters of the cube, duality reduces to the coupled
scalar equations

    sigma_{c,gamma}(x, y) = cos(gamma) sqrt((1-x^2)(1-y^2)) - x y + cos(c) = 0

one per pair of feet, where c is a side of the first triangle and gamma the
matching angle of the second.  This module solves those systems; the cube
reconstruction itself lives in ``klein``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import GeometryError, ValidationError
from .spherical import (CORNERS, IDENTITY_MAP, CornerMap, SphericalTriangle,
                        triangle_pqr)

SIGMA_RESIDUAL_TOL = 1e-10
DEFAULT_GRID_STEP = 1e-4


def sigma(c: float, gamma: float, x, y):
    """sigma_{c,gamma}(x, y); accepts scalars or numpy arrays in [0, 1]."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    val = (math.cos(gamma) * np.sqrt(np.maximum(0.0, (1 - x * x) * (1 - y * y)))
           - x * y + math.cos(c))
    return float(val) if val.ndim == 0 else val


def foot_parameter(a: float) -> float:
    """Poincare radius OH = sec(a) - tan(a) of the perpendicular foot dropped
    from an ideal point at visual angle a onto the opposite ray.

    Checks the defining identity 2 / (OH + 1/OH) = cos(a) before returning.
    """
    if not (0.0 < a < math.pi / 2):
        raise GeometryError(f"angle must lie in (0, pi/2), got {a!r}")
    oh = 1.0 / math.cos(a) - math.tan(a)
    if abs(2.0 / (oh + 1.0 / oh) - math.cos(a)) > 1e-12:
        raise GeometryError(f"foot-parameter identity failed at a={a!r}")
    return oh


@dataclass(frozen=True)
class SigmaCurve:
    """The zero set of sigma_{c,gamma} in (0,1)^2, a strictly decreasing graph
    y(x).  Requires gamma in (0, pi - c) and gamma <= pi/2."""

    c: float
    gamma: float

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

    def __call__(self, x, y):
        return sigma(self.c, self.gamma, x, y)

    def x_domain(self) -> tuple:
        """Open interval of x values for which a root y in (0, 1) exists.

        For c <= pi/2 the curve joins (cos c, 1) to (1, cos c); for c > pi/2
        it joins the axes at (0, y0) and (x0, 0)."""
        cc = math.cos(self.c)
        if cc >= 0.0:
            return (cc, 1.0)
        hi = math.sqrt(max(0.0, 1.0 - cc * cc / math.cos(self.gamma) ** 2))
        return (0.0, hi)

    def solve_y(self, x: float) -> float:
        """The unique y in (0, 1) with sigma(x, y) = 0."""
        lo, hi = self.x_domain()
        if not (lo <= x <= hi):
            raise GeometryError(f"x={x!r} outside curve domain ({lo!r}, {hi!r})")
        f0, f1 = self(x, 0.0), self(x, 1.0)
        if f0 == 0.0:
            return 0.0
        if f1 == 0.0:
            return 1.0
        if f0 < 0.0 or f1 > 0.0:
            raise GeometryError(f"x={x!r} admits no root y in (0, 1)")
        y = brentq(lambda t: self(x, t), 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)
        # Newton polish; d(sigma)/dy < 0 throughout
        for _ in range(2):
            d = self._dy(x, y)
            if d == 0.0:
                break
            y = min(1.0, max(0.0, y - self(x, y) / d))
        return y

    def solve_y_grid(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized solve_y over an array of x values (bisection + Newton)."""
        xs = np.asarray(xs, float)
        lo = np.zeros_like(xs)
        hi = np.ones_like(xs)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            pos = self(xs, mid) > 0.0
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
        y = 0.5 * (lo + hi)
        for _ in range(2):
            d = self._dy_vec(xs, y)
            step = np.where(d != 0.0, self(xs, y) / np.where(d == 0.0, 1.0, d), 0.0)
            y = np.clip(y - step, 0.0, 1.0)
        return y

    def _dy(self, x: float, y: float) -> float:
        sx = math.sqrt(max(1e-300, 1.0 - x * x))
        sy = math.sqrt(max(1e-300, 1.0 - y * y))
        return -math.cos(self.gamma) * y * sx / sy - x

    def _dy_vec(self, x, y):
        sx = np.sqrt(np.maximum(1e-300, 1.0 - x * x))
        sy = np.sqrt(np.maximum(1e-300, 1.0 - y * y))
        return -math.cos(self.gamma) * y * sx / sy - x

    def derivative_dy_dx(self, x: float, y: float) -> float:
        """dy/dx along the zero set (strictly negative)."""
        sx = math.sqrt(max(1e-300, 1.0 - x * x))
        sy = math.sqrt(max(1e-300, 1.0 - y * y))
        cg = math.cos(self.gamma)
        return -(y + x * sy * cg / sx) / (x + y * sx * cg / sy)


def solve_on_curve(curve: SigmaCurve, x: float) -> float:
    return curve.solve_y(x)


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

    def foot_distances(self) -> tuple:
        """Hyperbolic distances d(O, X), d(O, Y), d(O, Z)."""
        return tuple(math.atanh(t) for t in (self.x, self.y, self.z))

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


def slimmer_than_polar_dual_22p(R: SphericalTriangle, p: int) -> bool:
    """Exact criterion of the (2,2,p) duality solver: a, A < pi - pi/p and
    B, C, b, c < pi/2, with the p label on corner A."""
    bound = math.pi - math.pi / p
    return (R.a < bound and R.A < bound
            and all(v < math.pi / 2 for v in (R.B, R.C, R.b, R.c)))


def solve_dual_22p(R: SphericalTriangle, p: int,
                   corner_map: CornerMap = IDENTITY_MAP) -> Optional[DualityWitness]:
    """Witness for R hyperbolically dual to the (2, 2, p) triangle, or None.

    ``corner_map`` sends R's corners to the target's; the target carries the
    label p at corner A.  Duality holds exactly when R is slimmer than the
    polar dual of the (2,2,p) triangle; the solver reduces the system to one
    bracketed root find in y (x y = cos c, z x = cos b).
    """
    if p < 2:
        raise ValidationError(f"p must be >= 2, got {p}")
    S = R.relabeled(corner_map)
    if not slimmer_than_polar_dual_22p(S, p):
        return None
    target = triangle_pqr(p, 2, 2)
    cos_b, cos_c = math.cos(S.b), math.cos(S.c)
    curve = SigmaCurve(S.a, math.pi / p)

    def g(yv):
        return curve(yv, yv * cos_b / cos_c)

    y_hi = min(1.0, cos_c / cos_b)
    y0 = brentq(g, cos_c, y_hi, xtol=1e-15, rtol=8.9e-16)
    x0 = cos_c / y0
    z0 = y0 * cos_b / cos_c
    res = _system_residuals(S, target, x0, y0, z0)
    return DualityWitness(x=x0, y=y0, z=z0, R=S, target=target,
                          corner_map=corner_map, residuals=res)


@dataclass(frozen=True)
class AbsenceCertificate:
    """Resolution-certified report that a general duality system has no root.

    ``reason`` is one of:
      * ``necessary-condition``: R is not slimmer than the polar dual of the
        target (duality is impossible by the slanted-cube comparison lemma);
      * ``empty-interval``: the feasible x-interval of the coupled curves is
        empty;
      * ``sign-constant``: the closing residual h(x) = sigma_a(y(x), z(x))
        keeps one sign over the feasible interval, sampled at ``grid_step``;
        h is strictly increasing in x (minimum sampled slope reported), so
        the endpoint signs alone already exclude a root.
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
                       corner_map: CornerMap = IDENTITY_MAP,
                       grid_step: float = DEFAULT_GRID_STEP) -> DualSolveResult:
    """Solve the full three-sigma duality system for an arbitrary target.

    Parametrizes x, reads y off the (c, C') curve and z off the (b, B')
    curve, then root-finds the closing residual sigma_{a,A'}(y, z), which is
    strictly increasing in x.  Returns a witness or a certified absence.

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

    n = max(3, int(math.ceil((hi - lo) / grid_step)) + 1)
    xs = np.linspace(lo, hi, n)
    ys = curve_xy.solve_y_grid(xs)
    zs = curve_zx.solve_y_grid(xs)
    h = sigma(S.a, T.A, ys, zs)

    sign_change = np.nonzero(np.diff(np.sign(h)) != 0)[0]
    if sign_change.size == 0 and abs(h[0]) > 1e-13 and abs(h[-1]) > 1e-13:
        # strictly increasing residual, one sign over the whole interval
        slopes = _closing_slopes(curve_xy, curve_zx, S, T, xs, ys, zs)
        return DualSolveResult(None, AbsenceCertificate(
            reason="sign-constant",
            detail=(f"residual sign {int(np.sign(h[0]))} over the feasible interval; "
                    "residual is strictly increasing in x"),
            interval=(lo, hi), grid_step=float(xs[1] - xs[0]),
            min_abs_residual=float(np.min(np.abs(h))),
            residual_sign=int(np.sign(h[0])),
            min_slope=float(np.min(slopes))))

    if sign_change.size:
        x_lo, x_hi = float(xs[sign_change[0]]), float(xs[sign_change[0] + 1])
    elif min(abs(h[0]), abs(h[-1])) <= 1e-13:
        # the residual only touches zero at the boundary of the feasible
        # interval: the cube degenerates onto the ideal boundary there
        slopes = _closing_slopes(curve_xy, curve_zx, S, T, xs, ys, zs)
        return DualSolveResult(None, AbsenceCertificate(
            reason="sign-constant",
            detail=("closing residual vanishes only at the boundary of the "
                    "feasible interval (degenerate cube)"),
            interval=(lo, hi), grid_step=float(xs[1] - xs[0]),
            min_abs_residual=float(np.min(np.abs(h))),
            residual_sign=int(np.sign(h[0] if abs(h[0]) > abs(h[-1]) else h[-1])),
            min_slope=float(np.min(slopes))))
    else:
        x_lo, x_hi = lo, hi
    x0 = brentq(closing, x_lo, x_hi, xtol=1e-15, rtol=8.9e-16)
    y0 = curve_xy.solve_y(x0)
    z0 = curve_zx.solve_y(x0)
    res = _system_residuals(S, T, x0, y0, z0)
    witness = DualityWitness(x=x0, y=y0, z=z0, R=S, target=T,
                             corner_map=corner_map, residuals=res)
    return DualSolveResult(witness, None)


def _closing_slopes(curve_xy, curve_zx, S, T, xs, ys, zs):
    """d/dx of sigma_{a,A'}(y(x), z(x)) along the grid (positive)."""
    sy = np.sqrt(np.maximum(1e-300, 1.0 - ys * ys))
    sz = np.sqrt(np.maximum(1e-300, 1.0 - zs * zs))
    cg = math.cos(T.A)
    dsig_dy = -cg * ys * sz / sy - zs
    dsig_dz = -cg * zs * sy / sz - ys
    dy_dx = np.array([curve_xy.derivative_dy_dx(x, y) for x, y in zip(xs, ys)])
    dz_dx = np.array([curve_zx.derivative_dy_dx(x, z) for x, z in zip(xs, zs)])
    return dsig_dy * dy_dx + dsig_dz * dz_dx

