"""Double-precision spherical trigonometry.

Triangles carry their three angles A, B, C and the opposite side lengths
a, b, c, all in radians in (0, pi).  Every constructor validates the
spherical law of cosines to 1e-12, so downstream code can rely on a
consistent sextuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, ValidationError

RIGHT_ANGLE = math.pi / 2

# Strict comparisons against pi/2 treat a band of +-ANGLE_EPS as "boundary";
# boundary values are rejected by is_acute / is_strongly_obtuse.
ANGLE_EPS = 1e-9

CLAMP_EPS = 1e-12

CORNERS = ("A", "B", "C")


def clamped_acos(x: float) -> float:
    """arccos with clamping only inside a 1e-12 guard band.

    Arguments farther outside [-1, 1] signal a genuinely invalid
    configuration and raise instead of being silently clamped.
    """
    if x > 1.0:
        if x > 1.0 + CLAMP_EPS:
            raise GeometryError(f"arccos argument {x!r} exceeds 1 beyond tolerance")
        x = 1.0
    elif x < -1.0:
        if x < -1.0 - CLAMP_EPS:
            raise GeometryError(f"arccos argument {x!r} below -1 beyond tolerance")
        x = -1.0
    return math.acos(x)


@dataclass(frozen=True)
class CornerMap:
    """Bijection between the labeled corners of two triangles.

    ``mapping[X]`` names the corner of the second triangle corresponding to
    corner X of the first.  Side correspondence follows corners (opposite
    sides map to each other).
    """

    mapping: tuple = (("A", "A"), ("B", "B"), ("C", "C"))

    def __post_init__(self):
        m = dict(self.mapping)
        if sorted(m) != list(CORNERS) or sorted(m.values()) != list(CORNERS):
            raise ValidationError(f"corner map must be a bijection of {CORNERS}: {self.mapping}")
        object.__setattr__(self, "mapping", tuple(sorted(m.items())))

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(sorted(d.items())))

    def __getitem__(self, corner):
        return dict(self.mapping)[corner]

    def inverse(self) -> "CornerMap":
        return CornerMap.from_dict({v: k for k, v in self.mapping})

    def is_identity(self) -> bool:
        return all(k == v for k, v in self.mapping)


IDENTITY_MAP = CornerMap()


@dataclass(frozen=True)
class SphericalTriangle:
    """A spherical triangle as the sextuple (A, B, C, a, b, c)."""

    A: float
    B: float
    C: float
    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("A", "B", "C", "a", "b", "c"):
            v = getattr(self, name)
            if not (0.0 < v < math.pi):
                raise ValidationError(f"{name}={v!r} outside (0, pi)")
        s = self.A + self.B + self.C
        if not (math.pi < s < 3 * math.pi):
            raise ValidationError(f"angle sum {s!r} outside (pi, 3pi)")
        if self.a + self.b + self.c >= 2 * math.pi:
            raise ValidationError("perimeter must be below 2 pi")
        r = self.law_of_cosines_residual()
        if r > 1e-12:
            raise ValidationError(f"law-of-cosines residual {r:.3e} exceeds 1e-12")

    def law_of_cosines_residual(self) -> float:
        res = 0.0
        for (x, y, z, X) in (
            (self.a, self.b, self.c, self.A),
            (self.b, self.c, self.a, self.B),
            (self.c, self.a, self.b, self.C),
        ):
            res = max(res, abs(math.cos(x) - math.cos(y) * math.cos(z)
                               - math.sin(y) * math.sin(z) * math.cos(X)))
        return res

    def angles(self) -> tuple:
        return (self.A, self.B, self.C)

    def sides(self) -> tuple:
        return (self.a, self.b, self.c)

    def angle(self, corner: str) -> float:
        return getattr(self, corner)

    def side(self, corner: str) -> float:
        return getattr(self, corner.lower())

    def relabeled(self, corner_map: CornerMap) -> "SphericalTriangle":
        """The same triangle with corner X renamed to corner_map[X]."""
        angles = {corner_map[x]: self.angle(x) for x in CORNERS}
        sides = {corner_map[x]: self.side(x) for x in CORNERS}
        return SphericalTriangle(angles["A"], angles["B"], angles["C"],
                                 sides["A"], sides["B"], sides["C"])


def from_sides(a: float, b: float, c: float) -> SphericalTriangle:
    """Triangle from side lengths via cos A = (cos a - cos b cos c)/(sin b sin c)."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not (0.0 < v < math.pi):
            raise GeometryError(f"side {name}={v!r} outside (0, pi)")
    if a >= b + c or b >= c + a or c >= a + b:
        raise GeometryError(f"triangle inequality fails for sides ({a}, {b}, {c})")
    if a + b + c >= 2 * math.pi:
        raise GeometryError(f"perimeter {a + b + c!r} not below 2 pi")
    A = clamped_acos((math.cos(a) - math.cos(b) * math.cos(c)) / (math.sin(b) * math.sin(c)))
    B = clamped_acos((math.cos(b) - math.cos(c) * math.cos(a)) / (math.sin(c) * math.sin(a)))
    C = clamped_acos((math.cos(c) - math.cos(a) * math.cos(b)) / (math.sin(a) * math.sin(b)))
    return SphericalTriangle(A, B, C, a, b, c)


def from_angles(A: float, B: float, C: float) -> SphericalTriangle:
    """Triangle from angles via the dual law cos a = (cos A + cos B cos C)/(sin B sin C)."""
    for name, v in (("A", A), ("B", B), ("C", C)):
        if not (0.0 < v < math.pi):
            raise GeometryError(f"angle {name}={v!r} outside (0, pi)")
    if A + B + C <= math.pi:
        raise GeometryError(f"angle sum {A + B + C!r} must exceed pi")
    # polar-dual triangle inequalities: pi - A < (pi - B) + (pi - C), cyclically
    if B + C - A >= math.pi or C + A - B >= math.pi or A + B - C >= math.pi:
        raise GeometryError(f"dual triangle inequality fails for angles ({A}, {B}, {C})")
    a = clamped_acos((math.cos(A) + math.cos(B) * math.cos(C)) / (math.sin(B) * math.sin(C)))
    b = clamped_acos((math.cos(B) + math.cos(C) * math.cos(A)) / (math.sin(C) * math.sin(A)))
    c = clamped_acos((math.cos(C) + math.cos(A) * math.cos(B)) / (math.sin(A) * math.sin(B)))
    return SphericalTriangle(A, B, C, a, b, c)


def triangle_pqr(p: int, q: int, r: int) -> SphericalTriangle:
    """The (p, q, r) triangle with angles pi/p at A, pi/q at B, pi/r at C."""
    return from_angles(math.pi / p, math.pi / q, math.pi / r)


ALL_RIGHT = triangle_pqr(2, 2, 2)


def polar_dual(R: SphericalTriangle, corner_map: CornerMap = IDENTITY_MAP) -> SphericalTriangle:
    """Dual triangle with angles pi - sides and sides pi - angles of R,
    corner X of R corresponding to corner_map[X] of the dual."""
    base = SphericalTriangle(
        math.pi - R.a, math.pi - R.b, math.pi - R.c,
        math.pi - R.A, math.pi - R.B, math.pi - R.C)
    return base if corner_map.is_identity() else base.relabeled(corner_map)


def is_acute(R: SphericalTriangle, eps: float = ANGLE_EPS) -> bool:
    """All angles strictly below pi/2; values within eps of pi/2 count as
    boundary and are rejected."""
    return all(x < RIGHT_ANGLE - eps for x in R.angles())


def is_strongly_obtuse(R: SphericalTriangle, eps: float = ANGLE_EPS) -> bool:
    """All six of the angles and side lengths strictly above pi/2."""
    return all(x > RIGHT_ANGLE + eps for x in R.angles() + R.sides())


def acute_sides_property(R: SphericalTriangle) -> bool:
    """For an acute triangle, the side lengths are acute as well."""
    if not is_acute(R):
        raise ValidationError("acute_sides_property expects an acute triangle")
    return all(s < RIGHT_ANGLE for s in R.sides())


def fatter(R: SphericalTriangle, S: SphericalTriangle,
           corner_map: CornerMap = IDENTITY_MAP) -> bool:
    """Whether R is fatter than S: all six quantities strictly larger under
    the corner correspondence."""
    for x in CORNERS:
        y = corner_map[x]
        if not (R.angle(x) > S.angle(y) and R.side(x) > S.side(y)):
            return False
    return True


def slimmer(R: SphericalTriangle, S: SphericalTriangle,
            corner_map: CornerMap = IDENTITY_MAP) -> bool:
    return fatter(S, R, corner_map.inverse())


def area(R: SphericalTriangle) -> float:
    """Angle excess A + B + C - pi."""
    return R.A + R.B + R.C - math.pi


# -- vector-level helpers --------------------------------------------------


def normalize(v):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-15:
        raise GeometryError("cannot normalize a near-zero vector")
    return v / n


def spherical_distance(u, v) -> float:
    # atan2 form is accurate near 0 and pi, unlike arccos of the dot product
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))


def place_triangle(R: SphericalTriangle):
    """Unit vectors (P_A, P_B, P_C) realizing R with A at the north pole and
    B in the xz-plane."""
    PA = np.array([0.0, 0.0, 1.0])
    PB = np.array([math.sin(R.c), 0.0, math.cos(R.c)])
    PC = np.array([math.sin(R.b) * math.cos(R.A),
                   math.sin(R.b) * math.sin(R.A),
                   math.cos(R.b)])
    return PA, PB, PC


def triangle_from_points(PA, PB, PC) -> SphericalTriangle:
    """The spherical triangle spanned by three unit vectors."""
    a = spherical_distance(PB, PC)
    b = spherical_distance(PC, PA)
    c = spherical_distance(PA, PB)
    return from_sides(a, b, c)


def require_rows(ok, exc, label, describe):
    """Raise ``exc`` for the first row k of ``ok`` that is not all true.

    ``ok`` holds one row per item of a batch (any trailing shape); the
    message is ``label(k)`` followed by ``describe(k)``.  NaN compares
    false, so it fails every check written in this form.
    """
    ok = np.asarray(ok)
    ok = ok.all(axis=tuple(range(1, ok.ndim)))
    if not ok.all():
        k = int(np.argmin(ok))
        raise exc(f"{label(k)}: {describe(k)}")


def triangle_arrays(P, label=lambda k: f"triangle {k}"):
    """Sides (a, b, c) and angles (A, B, C), each (F, 3), of the F spherical
    triangles whose corners are the unit vectors P, (F, 3, 3).

    The batched ``triangle_from_points``: the same formulas, and the checks
    of ``from_sides`` (GeometryError, arccos guard band included) and of
    ``SphericalTriangle`` (ValidationError) with the same tolerances, each
    naming the first failing triangle through ``label``.
    """
    P = np.asarray(P, float)
    Q, S = np.roll(P, -1, axis=1), np.roll(P, -2, axis=1)   # side k joins the other corners
    sides = np.arctan2(np.linalg.norm(np.cross(Q, S), axis=-1), np.einsum("fki,fki->fk", Q, S))
    other1, other2 = np.roll(sides, -1, axis=1), np.roll(sides, -2, axis=1)
    require_rows((sides > 0.0) & (sides < math.pi), GeometryError, label,
                 lambda k: f"sides {sides[k].tolist()} not all in (0, pi)")
    require_rows(sides < other1 + other2, GeometryError, label,
                 lambda k: f"triangle inequality fails for sides {sides[k].tolist()}")
    require_rows(sides.sum(axis=1) < 2 * math.pi, GeometryError, label,
                 lambda k: f"perimeter {sides[k].sum()!r} not below 2 pi")
    cos, sin = np.cos(sides), np.sin(sides)
    cos1, cos2 = np.roll(cos, -1, axis=1), np.roll(cos, -2, axis=1)
    sin1, sin2 = np.roll(sin, -1, axis=1), np.roll(sin, -2, axis=1)
    arg = (cos - cos1 * cos2) / (sin1 * sin2)
    require_rows(np.abs(arg) <= 1.0 + CLAMP_EPS, GeometryError, label,
                 lambda k: f"arccos argument {arg[k].tolist()} outside [-1, 1] beyond tolerance")
    angles = np.arccos(np.clip(arg, -1.0, 1.0))
    require_rows((angles > 0.0) & (angles < math.pi), ValidationError, label,
                 lambda k: f"angles {angles[k].tolist()} not all in (0, pi)")
    total = angles.sum(axis=1)
    require_rows((total > math.pi) & (total < 3 * math.pi), ValidationError, label,
                 lambda k: f"angle sum {total[k]!r} outside (pi, 3pi)")
    residual = np.abs(cos - cos1 * cos2 - sin1 * sin2 * np.cos(angles)).max(axis=1)
    require_rows(residual <= 1e-12, ValidationError, label,
                 lambda k: f"law-of-cosines residual {residual[k]:.3e} exceeds 1e-12")
    return sides, angles


def perpendicular_foot(P, Q, R_):
    """Foot of the spherical perpendicular from P onto the great circle
    through Q and R_."""
    n = normalize(np.cross(Q, R_))
    proj = P - np.dot(P, n) * n
    return normalize(proj)


def foot_inside_arc(F, Q, R_, tol=1e-9) -> bool:
    """Whether a point F on the great circle through Q, R_ lies strictly
    inside the minor arc from Q to R_."""
    dqr = spherical_distance(Q, R_)
    return (spherical_distance(Q, F) < dqr - tol
            and spherical_distance(R_, F) < dqr - tol)


def orthocenter(R: SphericalTriangle, PA, PB, PC, tol=1e-9):
    """Common point of the three perpendiculars of an acute triangle.

    The positions must realize R.  Returns the orthocenter as a unit vector;
    verifies that the three perpendicular great circles are concurrent within
    ``tol`` and that every foot lies strictly inside its opposite side.
    """
    if not is_acute(R):
        raise ValidationError("orthocenter requires an acute triangle")
    check = triangle_from_points(PA, PB, PC)
    if max(abs(check.a - R.a), abs(check.b - R.b), abs(check.c - R.c)) > 1e-9:
        raise ValidationError("positions do not realize the given triangle")
    pts = (PA, PB, PC)
    # normal of the perpendicular great circle from each vertex
    perps = []
    for i in range(3):
        P, Q, S = pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3]
        n_side = normalize(np.cross(Q, S))
        perps.append(normalize(np.cross(P, n_side)))
        foot = perpendicular_foot(P, Q, S)
        if not foot_inside_arc(foot, Q, S):
            raise ValidationError("perpendicular foot falls outside the opposite side")
    h = normalize(np.cross(perps[0], perps[1]))
    centroid = normalize(PA + PB + PC)
    if np.dot(h, centroid) < 0:
        h = -h
    if abs(float(np.dot(perps[2], h))) > tol:
        raise ValidationError(
            f"perpendiculars not concurrent within {tol}: residual {abs(float(np.dot(perps[2], h))):.3e}")
    return h


# -- combinatorial tessellation summaries -----------------------------------


@dataclass(frozen=True)
class TessellationSummary:
    """Combinatorial (2, 2, p) reflection tessellation by a triangle.

    The p-labeled corner is C.  The complex consists of 4p copies of the
    triangle; two apex vertices carry cone angle 2p*C, p vertices carry 4*A
    and p vertices carry 4*B.
    """

    p: int
    triangle_count: int
    cone_angles: tuple          # (vertex class, multiplicity, cone angle)

    def all_cone_angles(self):
        return tuple(angle for _, mult, angle in self.cone_angles for _ in range(mult))


def tessellation_22p(R: SphericalTriangle, p: int) -> TessellationSummary:
    """Summary of the (2, 2, p)-tessellation by R (p on corner C)."""
    if p < 2:
        raise ValidationError(f"p must be >= 2, got {p}")
    return TessellationSummary(
        p=p,
        triangle_count=4 * p,
        cone_angles=(
            ("apex-C", 2, 2 * p * R.C),
            ("equator-A", p, 4 * R.A),
            ("equator-B", p, 4 * R.B),
        ),
    )
