"""Slanted cubes in the Klein ball model of hyperbolic 3-space.

The Klein model is the right home for these cubes: geodesic planes are flat
chords, so the cube is an honest Euclidean convex polytope, and the foot
parameter x = tanh d(O, X) of a duality witness is exactly the Klein radius
of the foot.  (The Poincare quantity 2/(r + 1/r) equals tanh d under
r = tanh(d/2), which is the bridge between the two models.)

Hyperbolic angles and distances are computed through the Minkowski
hyperboloid: a Klein point p lifts to (1, p)/sqrt(1-|p|^2), and the plane
{p . n = d} has spacelike normal (d, n)/sqrt(|n|^2 - d^2).  Cube volumes are
exact: six orthoschemes tile each cube, and each has a closed-form volume in
the Lobachevsky function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy, zeta

from .duality import DualityWitness, solve_dual_22p
from .errors import GeometryError, InternalInconsistency, ValidationError
from .spherical import is_acute, place_triangle, triangle_from_points

LINK_TOL = 1e-8

CUBE_FACES = {
    "F_XY": ("O", "X", "Z'", "Y"),
    "F_YZ": ("O", "Y", "X'", "Z"),
    "F_ZX": ("O", "Z", "Y'", "X"),
    "F_X": ("X", "Z'", "O'", "Y'"),
    "F_Y": ("Y", "X'", "O'", "Z'"),
    "F_Z": ("Z", "Y'", "O'", "X'"),
}

CUBE_EDGES = {
    ("O", "X"): ("F_XY", "F_ZX"),
    ("O", "Y"): ("F_XY", "F_YZ"),
    ("O", "Z"): ("F_YZ", "F_ZX"),
    ("X", "Z'"): ("F_XY", "F_X"),
    ("X", "Y'"): ("F_ZX", "F_X"),
    ("Y", "Z'"): ("F_XY", "F_Y"),
    ("Y", "X'"): ("F_YZ", "F_Y"),
    ("Z", "Y'"): ("F_ZX", "F_Z"),
    ("Z", "X'"): ("F_YZ", "F_Z"),
    ("O'", "X'"): ("F_Y", "F_Z"),
    ("O'", "Y'"): ("F_Z", "F_X"),
    ("O'", "Z'"): ("F_X", "F_Y"),
}


def lift(p):
    """Klein point -> unit timelike Minkowski vector."""
    p = np.asarray(p, float)
    s = 1.0 - float(p @ p)
    if s <= 0.0:
        raise GeometryError(f"point {p} outside the Klein ball")
    return np.concatenate(([1.0], p)) / math.sqrt(s)


def mdot(P, Q):
    return float(-P[0] * Q[0] + P[1:] @ Q[1:])


def hyperbolic_distance(p, q) -> float:
    c = -mdot(lift(p), lift(q))
    return math.acosh(max(1.0, c))


def plane_normal(n, d):
    """Unit spacelike Minkowski normal of the Klein plane {p . n = d},
    oriented so the positive side is {p . n > d}."""
    n = np.asarray(n, float)
    s = float(n @ n) - d * d
    if s <= 0.0:
        raise GeometryError("plane does not meet the ball")
    return np.concatenate(([d], n)) / math.sqrt(s)


def boost_to(b):
    """Lorentz boost taking the origin of the Klein ball to the point b."""
    b = np.asarray(b, float)
    b2 = float(b @ b)
    if b2 >= 1.0:
        raise GeometryError("boost target outside the ball")
    if b2 < 1e-28:
        return np.eye(4)
    g = 1.0 / math.sqrt(1.0 - b2)
    M = np.eye(4)
    M[0, 0] = g
    M[0, 1:] = g * b
    M[1:, 0] = g * b
    M[1:, 1:] = np.eye(3) + (g - 1.0) * np.outer(b, b) / b2
    return M


@dataclass(frozen=True)
class SlantedCubeModel:
    """A slanted cube with Klein coordinates and verified metric data.

    ``vertices`` maps the eight labels O, X, Y, Z, X', Y', Z', O' to Klein
    points; ``half_spaces`` lists the six faces as outward pairs (n, d)
    meaning p . n <= d inside.  Dihedral angles are measured from the
    coordinates, not copied from the witness; those along OX, OY, OZ and
    O'X', O'Y', O'Z' are the angles of the links at O and O'.
    """

    vertices: dict
    half_spaces: tuple
    witness: DualityWitness
    dihedrals: dict

    def edge_lengths(self) -> dict:
        return {e: hyperbolic_distance(self.vertices[e[0]], self.vertices[e[1]])
                for e in CUBE_EDGES}

    def to_json(self):
        return {
            "vertices": {k: list(map(float, v)) for k, v in self.vertices.items()},
            "faces": {name: list(cycle) for name, cycle in CUBE_FACES.items()},
            "half_spaces": [{"n": list(map(float, n)), "d": float(d)}
                            for n, d in self.half_spaces],
            "dihedrals": {"-".join(e): float(a) for e, a in self.dihedrals.items()},
            "witness": self.witness.to_json(),
        }


def build_slanted_cube(witness: DualityWitness) -> SlantedCubeModel:
    """Reconstruct the cube of a duality witness and verify it end to end.

    Places the feet X, Y, Z at Klein radii x, y, z along directions separated
    by the angles of the link at O, intersects the perpendicular planes for
    the remaining vertices, and checks convexity, the six automatic right
    dihedral angles, and the angles of both links against the witness to
    1e-8.  A spherical triangle is determined by its angles, so the link
    sides need no check of their own.  (Measured by boosting a vertex to
    the origin, they lose accuracy when the vertex lies within ~1e-6 of the
    ideal boundary, as O' does for faces with a corner near pi/2: errors up
    to ~3e-7 on cubes whose dihedral angles are right to 5e-13.)
    """
    R = witness.R
    T = witness.target
    uX, uY, uZ = place_triangle(R)
    x, y, z = witness.x, witness.y, witness.z

    pts = {"O": np.zeros(3), "X": x * uX, "Y": y * uY, "Z": z * uZ}
    M = np.vstack([uX, uY, uZ])
    pts["O'"] = np.linalg.solve(M, np.array([x, y, z]))

    def corner(u1, d1, u2, d2):
        # intersection of {p.u1 = d1}, {p.u2 = d2} inside span(u1, u2)
        g = float(u1 @ u2)
        gram = np.array([[1.0, g], [g, 1.0]])
        ab = np.linalg.solve(gram, np.array([d1, d2]))
        return ab[0] * u1 + ab[1] * u2

    pts["Z'"] = corner(uX, x, uY, y)
    pts["X'"] = corner(uY, y, uZ, z)
    pts["Y'"] = corner(uZ, z, uX, x)

    for name, p in pts.items():
        if float(p @ p) >= 1.0:
            raise GeometryError(
                f"cube vertex {name} at Euclidean radius {math.sqrt(float(p @ p)):.6f} "
                "outside the Klein ball; witness inconsistent")

    # outward half-spaces: three foot planes and three coordinate planes at O
    half = [(uX, x), (uY, y), (uZ, z)]
    for ua, ub, uc in ((uX, uY, uZ), (uY, uZ, uX), (uZ, uX, uY)):
        n = np.cross(ua, ub)
        n = n / np.linalg.norm(n)
        if float(n @ uc) > 0:
            n = -n
        half.append((n, 0.0))
    for n, d in half:
        worst = max(float(p @ n) - d for p in pts.values())
        if worst > 1e-9:
            raise GeometryError(f"cube is not convex: vertex violates a face plane by {worst:.3e}")

    normals = {
        "F_X": plane_normal(uX, x), "F_Y": plane_normal(uY, y), "F_Z": plane_normal(uZ, z),
        "F_XY": plane_normal(half[3][0], 0.0),
        "F_YZ": plane_normal(half[4][0], 0.0),
        "F_ZX": plane_normal(half[5][0], 0.0),
    }
    dihedrals = {}
    for edge, (f1, f2) in CUBE_EDGES.items():
        c = -mdot(normals[f1], normals[f2])
        dihedrals[edge] = math.acos(min(1.0, max(-1.0, c)))

    for edge in (("X", "Z'"), ("X", "Y'"), ("Y", "Z'"), ("Y", "X'"), ("Z", "Y'"), ("Z", "X'")):
        if abs(dihedrals[edge] - math.pi / 2) > LINK_TOL:
            raise InternalInconsistency(
                f"equatorial dihedral at {edge} is {dihedrals[edge]!r}, expected pi/2")

    for where, ends, expected in (("O", ("X", "Y", "Z"), R), ("O'", ("X'", "Y'", "Z'"), T)):
        err = max(abs(dihedrals[(where, e)] - a) for e, a in zip(ends, expected.angles()))
        if err > LINK_TOL:
            raise InternalInconsistency(
                f"reconstructed link at {where} deviates from the witness by {err:.3e}")

    return SlantedCubeModel(
        vertices=pts, half_spaces=tuple((n.copy(), float(d)) for n, d in half),
        witness=witness, dihedrals=dihedrals)


# -- exact volume ------------------------------------------------------------

# The six orthoschemes (O, F, W', O') tiling a slanted cube: the cone from O
# over the far faces, each far face F_F split along its diagonal F-O'.
ORTHOSCHEMES = (("X", "Z'"), ("X", "Y'"), ("Y", "X'"),
                ("Y", "Z'"), ("Z", "Y'"), ("Z", "X'"))

_LOBACHEVSKY_WEIGHTS = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 2.0])
_SIGNATURE = np.array([-1.0, 1.0, 1.0, 1.0])

# Clausen series coefficients |B_2k| / (2k (2k+1)!) = 2 zeta(2k) / ((2 pi)^2k 2k (2k+1))
# for k = 24 .. 1, highest order first as np.polyval takes them
_TWO_K = np.arange(48, 0, -2)
_CLAUSEN = 2.0 * zeta(_TWO_K) / ((2.0 * math.pi) ** _TWO_K * _TWO_K * (_TWO_K + 1))


def lobachevsky(theta):
    """Lobachevsky function L(t) = -int_0^t log|2 sin u| du = Cl2(2t)/2,
    elementwise in float64.

    L is odd and pi-periodic, so t is reduced to [-pi/2, pi/2]; there
    Cl2(x) = x - x log|x| + sum_k |B_2k| x^(2k+1) / (2k (2k+1)!) with
    |x| <= pi, where the terms shrink about fourfold each.
    """
    t = np.asarray(theta, float)
    x = 2.0 * (t - math.pi * np.round(t / math.pi))
    x2 = x * x
    return 0.5 * (x - xlogy(x, np.abs(x)) + x * x2 * np.polyval(_CLAUSEN, x2))


def orthoscheme_volume(a, b, c):
    """Volume of the compact hyperbolic orthoscheme with essential dihedral
    angles a, b, c (Kellerhals, Math. Ann. 285, 1989), elementwise:

        V = 1/4 [L(a+d) - L(a-d) + L(c+d) - L(c-d)
                 - L(pi/2-b+d) + L(pi/2-b-d) + 2 L(pi/2-d)]

    with tan d = sqrt(cos^2 b - sin^2 a sin^2 c) / (cos a cos c).
    """
    d = np.arctan2(np.sqrt(np.maximum(0.0, np.cos(b) ** 2 - (np.sin(a) * np.sin(c)) ** 2)),
                   np.cos(a) * np.cos(c))
    h = math.pi / 2
    args = np.stack([a + d, a - d, c + d, c - d, h - b + d, h - b - d, h - d])
    return np.tensordot(_LOBACHEVSKY_WEIGHTS, lobachevsky(args), axes=1) / 4


def essential_angles(tetra):
    """Dihedral angles (a, b, c) at the edges P2P3, P0P3, P0P1 of Klein
    tetrahedra P0P1P2P3 given as an (..., 4, 3) array.

    Column k of the inverse of the matrix with rows (1, P_i) has dot
    product delta_ik with those rows, so with J = diag(-1, 1, 1, 1), J times
    it is Minkowski-orthogonal to every vertex but P_k: an inward normal of
    the face opposite P_k.  The Gram matrix of these normals,
    G = inv^T J inv, gives the dihedral angle between faces k and l as
    arccos(-G_kl / sqrt(G_kk G_ll)).
    """
    tetra = np.asarray(tetra, float)
    inv = np.linalg.inv(np.concatenate([np.ones(tetra.shape[:-1] + (1,)), tetra], axis=-1))
    gram = np.swapaxes(inv, -1, -2) @ (inv * _SIGNATURE[:, None])
    norms = np.sqrt(np.diagonal(gram, axis1=-2, axis2=-1))
    cos = -gram / (norms[..., :, None] * norms[..., None, :])
    return tuple(np.arccos(np.clip(cos[..., k, k + 1], -1.0, 1.0)) for k in range(3))


def orthoschemes(cube: SlantedCubeModel) -> np.ndarray:
    """Klein vertices (O, F, W', O') of the cube's six orthoschemes, (6, 4, 3).

    OF is perpendicular to the far face F_F by construction, and FW' to
    W'O' because the equatorial dihedral angles at W' are right (verified
    by ``build_slanted_cube``), so each tetrahedron is an orthoscheme.
    """
    v = cube.vertices
    return np.array([[v["O"], v[f], v[w], v["O'"]] for f, w in ORTHOSCHEMES])


def volume(cube: SlantedCubeModel) -> float:
    """Exact hyperbolic volume of a slanted cube: the sum of its six
    orthoscheme volumes."""
    return float(orthoscheme_volume(*essential_angles(orthoschemes(cube))).sum())


def beta(realization) -> float:
    """Sum over the faces of an acute geodesic triangulation of the volumes
    of the slanted cubes dual to the all-right triangle.

    ``realization`` must provide ``parent.faces`` and unit-vector positions;
    a non-acute face raises ValidationError.
    """
    tetra = []
    for face in realization.parent.faces:
        pa, pb, pc = (realization.positions[v] for v in face)
        R = triangle_from_points(pa, pb, pc)
        if not is_acute(R):
            raise ValidationError(
                f"face {tuple(face)} is not acute (max angle {max(R.angles()):.6f})")
        witness = solve_dual_22p(R, 2)
        if witness is None:
            raise ValidationError(f"face {tuple(face)} admits no all-right dual cube")
        tetra.append(orthoschemes(build_slanted_cube(witness)))
    return float(orthoscheme_volume(*essential_angles(np.concatenate(tetra))).sum())
