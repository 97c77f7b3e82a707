"""Slanted cubes in the Klein ball model of hyperbolic 3-space.

The Klein model is the right home for these cubes: geodesic planes are flat
chords, so the cube is an honest Euclidean convex polytope, and the foot
parameter x = tanh d(O, X) of a duality witness is exactly the Klein radius
of the foot.  (The Poincare quantity 2/(r + 1/r) equals tanh d under
r = tanh(d/2), which is the bridge between the two models.)

Dihedral angles are measured through the Minkowski hyperboloid: the plane
{p . n = d} has the unit spacelike normal (d, n)/sqrt(|n|^2 - d^2), and two
planes meet at the angle whose cosine is minus their Minkowski product.  No
hyperbolic distance is computed here.  Cube volumes are exact: six
orthoschemes tile each cube, and each has a closed-form volume in the
Lobachevsky function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .duality import DualityWitness, allright_feet
from .errors import GeometryError, ValidationError
from .spherical import ANGLE_EPS, RIGHT_ANGLE, place_triangle, require_rows, triangle_arrays

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
    """A slanted cube with Klein coordinates and measured metric data.

    ``vertices`` maps the eight labels O, X, Y, Z, X', Y', Z', O' to Klein
    points; ``half_spaces`` lists the six faces as outward pairs (n, d)
    meaning p . n <= d inside.  Dihedral angles are measured from the
    coordinates, not copied from the witness; those along OX, OY, OZ and
    O'X', O'Y', O'Z' are the angles of the links at O and O', which the
    tests compare with the witness's.
    """

    vertices: dict
    half_spaces: tuple
    witness: DualityWitness
    dihedrals: dict

    def to_json(self):
        return {
            "vertices": {k: list(map(float, v)) for k, v in self.vertices.items()},
            "faces": {name: list(cycle) for name, cycle in CUBE_FACES.items()},
            "half_spaces": [{"n": list(map(float, n)), "d": float(d)}
                            for n, d in self.half_spaces],
            "dihedrals": {"-".join(e): float(a) for e, a in self.dihedrals.items()},
            "witness": self.witness.to_json(),
        }


# the batched builder's vertex and half-space order; the model's dicts
# follow it
VERTICES = ("O", "X", "Y", "Z", "O'", "Z'", "X'", "Y'")
HALF_SPACES = ("F_X", "F_Y", "F_Z", "F_XY", "F_YZ", "F_ZX")
_EDGE_FACES = np.array([[HALF_SPACES.index(f) for f in faces] for faces in CUBE_EDGES.values()])
_EDGES = tuple(CUBE_EDGES)


def slanted_cubes(U, feet, label=lambda k: f"face {k}"):
    """Klein coordinates of F slanted cubes, built in one pass.

    ``U`` (F, 3, 3) holds the unit directions of the feet X, Y, Z from O and
    ``feet`` (F, 3) their Klein radii x, y, z.  Places the feet and
    intersects the perpendicular planes for the remaining vertices.  The one
    check is that every vertex lies in the ball; its failure names the first
    failing cube through ``label``.  The six equatorial dihedral angles are
    right by construction (the foot plane at X is perpendicular to the line
    OX, which lies in both coordinate planes through it), and feet on the
    sigma curves of the links give a convex cube with those links; the tests
    check all three on random witnesses against a one-cube reference.

    Returns the vertices (F, 8, 3) in VERTICES order, the outward
    half-spaces p . n <= d as normals (F, 6, 3) and offsets (F, 6) in
    HALF_SPACES order, and the dihedral angles (F, 12) in CUBE_EDGES order.
    """
    U = np.asarray(U, float)
    feet = np.asarray(feet, float)
    V, W = U, np.roll(U, -1, axis=1)              # the pairs (X, Y), (Y, Z), (Z, X)
    dv, dw = feet, np.roll(feet, -1, axis=1)
    g = np.einsum("fki,fki->fk", V, W)
    one = np.ones_like(g)
    gram = np.stack([np.stack([one, g], axis=-1), np.stack([g, one], axis=-1)], axis=-2)
    # the corner of the foot planes of each pair, inside the pair's span
    ab = np.linalg.solve(gram, np.stack([dv, dw], axis=-1)[..., None])[..., 0]
    verts = np.concatenate([
        np.zeros((len(U), 1, 3)),
        feet[..., None] * U,
        np.linalg.solve(U, feet[..., None])[..., 0][:, None],
        ab[..., :1] * V + ab[..., 1:] * W], axis=1)

    radius2 = np.einsum("fvi,fvi->fv", verts, verts)
    require_rows(radius2 < 1.0, GeometryError, label, lambda k: (
        f"cube vertex {VERTICES[np.argmax(radius2[k])]} at Euclidean radius "
        f"{math.sqrt(radius2[k].max()):.6f} outside the Klein ball; witness inconsistent"))

    # outward half-spaces: three foot planes and three coordinate planes at O
    n = np.cross(V, W)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    n *= np.where(np.einsum("fki,fki->fk", n, np.roll(U, -2, axis=1)) > 0, -1.0, 1.0)[..., None]
    normals = np.concatenate([U, n], axis=1)
    offsets = np.concatenate([feet, np.zeros_like(feet)], axis=1)

    # unit spacelike Minkowski normals (d, n)/sqrt(|n|^2 - d^2); the ball
    # check above keeps each foot, and so each foot plane, inside the ball
    scale = np.sqrt(np.einsum("fhi,fhi->fh", normals, normals) - offsets * offsets)
    lifted = np.concatenate([offsets[..., None], normals], axis=-1) / scale[..., None]
    N1, N2 = lifted[:, _EDGE_FACES[:, 0]], lifted[:, _EDGE_FACES[:, 1]]
    cos = N1[..., 0] * N2[..., 0] - np.einsum("fei,fei->fe", N1[..., 1:], N2[..., 1:])
    dihedrals = np.arccos(np.clip(cos, -1.0, 1.0))
    return verts, normals, offsets, dihedrals


def build_slanted_cube(witness: DualityWitness) -> SlantedCubeModel:
    """Reconstruct the cube of a duality witness: ``slanted_cubes`` on a
    batch of one, the feet placed along the directions of
    ``place_triangle(witness.R)``.  The witness's own validation bounds its
    sigma residuals, so its cube has the links R at O and ``target`` at O'."""
    verts, normals, offsets, dihedrals = slanted_cubes(
        np.array([place_triangle(witness.R)]), [[witness.x, witness.y, witness.z]])
    return SlantedCubeModel(
        vertices=dict(zip(VERTICES, verts[0])),
        half_spaces=tuple(zip(normals[0], offsets[0].tolist())),
        witness=witness, dihedrals=dict(zip(_EDGES, dihedrals[0].tolist())))


# -- exact volume ------------------------------------------------------------

# The six orthoschemes (O, F, W', O') tiling a slanted cube: the cone from O
# over the far faces, each far face F_F split along its diagonal F-O'.
ORTHOSCHEMES = (("X", "Z'"), ("X", "Y'"), ("Y", "X'"),
                ("Y", "Z'"), ("Z", "Y'"), ("Z", "X'"))

_LOBACHEVSKY_WEIGHTS = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 2.0])
_SIGNATURE = np.array([-1.0, 1.0, 1.0, 1.0])


@functools.cache
def _clausen_coefficients():
    """Clausen series coefficients |B_2k| / (2k (2k+1)!) = 2 zeta(2k) / ((2 pi)^2k 2k (2k+1))
    for k = 24 .. 1, highest order first as np.polyval takes them; built on
    first use, so importing this module does not load scipy."""
    from scipy.special import zeta
    two_k = np.arange(48, 0, -2)
    return 2.0 * zeta(two_k) / ((2.0 * math.pi) ** two_k * two_k * (two_k + 1))


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
    from scipy.special import xlogy
    return 0.5 * (x - xlogy(x, np.abs(x)) + x * x2 * np.polyval(_clausen_coefficients(), x2))


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


_ORTHOSCHEME_VERTICES = np.array([[VERTICES.index(w) for w in ("O", f, w2, "O'")]
                                  for f, w2 in ORTHOSCHEMES])


def orthoschemes(cube: SlantedCubeModel) -> np.ndarray:
    """Klein vertices (O, F, W', O') of the cube's six orthoschemes, (6, 4, 3).

    OF is perpendicular to the far face F_F by construction, and FW' to
    W'O' because the equatorial dihedral angles at W' are right (also by
    construction; see ``slanted_cubes``), so each tetrahedron is an
    orthoscheme.
    """
    return np.array([cube.vertices[w] for w in VERTICES])[_ORTHOSCHEME_VERTICES]


def volume(cube: SlantedCubeModel) -> float:
    """Exact hyperbolic volume of a slanted cube: the sum of its six
    orthoscheme volumes."""
    return float(orthoscheme_volume(*essential_angles(orthoschemes(cube))).sum())


def beta(realization) -> float:
    """Sum over the faces of an acute geodesic triangulation of the volumes
    of the slanted cubes dual to the all-right triangle.

    ``realization`` must provide ``parent.faces`` and positions on the
    sphere (normalised here).  One batched pass over all faces: each face's
    corners are the directions of its cube's feet, and the feet are in
    closed form (``allright_feet``).  Only the input is checked: the
    triangles themselves (``triangle_arrays``), acuteness and the all-right
    slimmer criterion (a non-acute face raises ValidationError), and every
    cube vertex in the Klein ball.  The closed form solves the sigma system
    exactly, and an acute corner keeps each foot in (0, 1).
    """
    faces = realization.parent.faces
    U = np.array([[realization.positions[v] for v in face] for face in faces], float)
    U /= np.linalg.norm(U, axis=-1, keepdims=True)

    def label(k):
        return f"face {k} {tuple(faces[k])}"

    sides, angles = triangle_arrays(U, label)
    require_rows(angles < RIGHT_ANGLE - ANGLE_EPS, ValidationError, label,
                 lambda k: f"not acute (max angle {angles[k].max():.6f})")
    require_rows((sides < RIGHT_ANGLE) & (angles < RIGHT_ANGLE), ValidationError, label,
                 lambda k: "admits no all-right dual cube")
    feet = np.stack(allright_feet(*np.cos(sides).T), axis=1)
    verts = slanted_cubes(U, feet, label)[0]
    return float(orthoscheme_volume(*essential_angles(verts[:, _ORTHOSCHEME_VERTICES])).sum())
