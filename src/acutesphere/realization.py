"""Realizing triangulations as geodesic triangulations of the sphere.

The forward pipeline: a flag no-square closed triangulation is realized as
the geometric nerve of an all-right hyperbolic polyhedron, i.e. as an
orthogonal circle pattern whose centers form an acute triangulation.  Planar
inputs are first completed to a closed triangulation (Maehara caps on
non-square boundaries, square wheels on the remaining squares, the wheel
hubs becoming ideal radius-zero vertices), realized, and restricted back.

Stereographic projection from inside a cap-center disk turns the spherical
pattern into an orthogonal pattern of Euclidean circles whose centers give
an acute triangulation in the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AcuteSphereError, InternalInconsistency, SolveError, ValidationError
from .pattern import _edge_index_arrays, _edge_residuals, solve_pattern, tutte_sphere_init
from .spherical import polar_dual, slimmer, triangle_from_points, triangle_pqr
from .triangulation import (AbstractTriangulation, CycleWitness, EdgeLabeling,
                            acute_obstruction, coxeter_face_finite,
                            ideal_allright_conditions, is_flag_no_square, maehara_cap)


POSITION_TOL = 1e-12       # |norm - 1| of a vertex position
PERPENDICULAR_TOL = 1e-6   # distance between the two perpendicular feet of an edge
VIEWPOINT_TOL = 1e-12      # |cos rho - m.nu| of a circle through the projection viewpoint


class CombinatorialRefusal(AcuteSphereError):
    """The input fails the combinatorial criterion; carries the witness."""

    def __init__(self, message, witness: Optional[CycleWitness]):
        super().__init__(message)
        self.witness = witness


@dataclass
class GeodesicRealization:
    """Vertex positions on the unit sphere (plus circle radii when the
    realization came from a pattern; radius 0 marks ideal vertices)."""

    parent: AbstractTriangulation
    positions: dict
    radii: Optional[dict] = None

    def position_array(self) -> np.ndarray:
        return np.vstack([self.positions[v] for v in self.parent.vertices])

    def corner_angles(self):
        """(face, vertex, angle) over all corners."""
        angles = _all_corner_angles(self.position_array(), _corner_index_arrays(self.parent))
        return [(f, v, ang) for f, three in zip(self.parent.faces, angles.reshape(-1, 3).tolist())
                for v, ang in zip(f, three)]

    def validate(self):
        """Check the realization invariants; raises ValidationError.

        Unit positions, disjoint non-adjacent disks and radii in (0, pi/2)
        with zero only at degree-four (ideal) vertices, nondegenerate
        consistently oriented faces, angle sum 2 pi at every interior
        vertex, and total area 4 pi when closed (see ``_invariant_check``).
        """
        r, hubs = None, ()
        if self.radii is not None:
            r = np.array([self.radii[v] for v in self.parent.vertices])
            hubs = [v for v, x in self.radii.items() if x == 0.0 and self.parent.degree(v) == 4]
        message = _invariant_check(self.parent, hubs)(self.position_array(), r)[0]
        if message:
            raise ValidationError(message)
        return self

    def to_json(self):
        out = {"vertices": {v: [float(x) for x in p] for v, p in self.positions.items()},
               "faces": [list(f) for f in self.parent.faces]}
        if self.radii is not None:
            out["radii"] = {v: float(r) for v, r in self.radii.items()}
        return out


@dataclass
class CirclePatternResidual:
    """Per-edge orthogonality residuals and per-nonedge clearances of a
    realized circle pattern."""

    edge_residuals: np.ndarray      # cos d(x_u, x_v) - cos r_u cos r_v, in edge_faces order
    nonedge_clearances: np.ndarray  # d(x_u, x_v) - (r_u + r_v), in _nonedge_pairs order

    def max_edge_residual(self) -> float:
        return float(np.abs(self.edge_residuals).max(initial=0.0))

    def min_clearance(self) -> float:
        return float(self.nonedge_clearances.min(initial=math.inf))


def _nonedge_pairs(tri: AbstractTriangulation):
    """Index arrays (i, j), i < j, of the non-adjacent vertex pairs, in the
    row-major order of ``tri.vertices``."""
    adjacent = np.eye(len(tri.vertices), dtype=bool)
    u, v = _edge_index_arrays(tri)
    adjacent[u, v] = adjacent[v, u] = True
    i, j = np.triu_indices(len(tri.vertices), 1)
    keep = ~adjacent[i, j]
    return i[keep], j[keep]


def _pair_distances(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Spherical distances between the rows of p and q (the atan2 form of
    ``spherical_distance``)."""
    return np.arctan2(np.linalg.norm(np.cross(p, q), axis=1), np.einsum("ij,ij->i", p, q))


def pattern_residuals(real: GeodesicRealization) -> CirclePatternResidual:
    """Measure the circle-pattern equations of a realization with radii
    (the record of ``_invariant_check``)."""
    if real.radii is None:
        raise ValidationError("realization carries no radii")
    r = np.array([real.radii[v] for v in real.parent.vertices])
    return _invariant_check(real.parent)(real.position_array(), r)[2]


@dataclass
class CappingInfo:
    closed: AbstractTriangulation
    cap_centers: tuple = ()
    hub_vertices: tuple = ()


@dataclass
class RealizationResult:
    realization: GeodesicRealization           # of the input triangulation
    closed_realization: GeodesicRealization    # of the capped closed complex
    capping: Optional[CappingInfo]
    residual: float
    acute: AcuteReport                         # corner angles of the input faces
    pattern_residuals: CirclePatternResidual   # of the capped closed complex

    @property
    def margin(self) -> float:
        return self.acute.margin


def glue_caps(tri: AbstractTriangulation) -> CappingInfo:
    """Close a planar triangulation: Maehara caps on every boundary of
    length >= 5, then square wheels on the square boundaries left.  A
    flag-no-separating-square input stays so once capped.  A boundary
    3-cycle, or a boundary square with a chord, raises ValidationError: no
    cap or wheel closes it into a flag sphere."""
    if tri.is_closed:
        return CappingInfo(closed=tri)
    vertices = list(tri.vertices)
    faces = [tuple(f) for f in tri.faces]
    taken = set(vertices)
    cap_centers = []
    hubs = []

    def fresh(name):
        m = name
        while m in taken:
            m += "+"
        taken.add(m)
        return m

    for k, cycle in enumerate(tri.boundary_cycles):
        n = len(cycle)
        if n == 3:
            raise ValidationError(
                "boundary 3-cycles are not supported by the capping pipeline")
        if n == 4:
            a, b, c, d = cycle
            if tri.has_edge(a, c) or tri.has_edge(b, d):
                raise ValidationError(
                    "boundary squares with a chord are not supported by the capping pipeline")
            continue
        cap = maehara_cap(n)
        ring = cap.boundary_cycles[0]
        rename = dict(zip(ring, cycle))
        new = {v: fresh(f"cap{k}.{v}") for v in cap.vertices if v not in rename}
        vertices += new.values()
        rename.update(new)
        faces += [tuple(rename[v] for v in f) for f in cap.faces]
        cap_centers.append(rename["c"])

    partial = AbstractTriangulation(vertices, faces)
    for k, cycle in enumerate(partial.boundary_cycles):
        hub = fresh(f"hub{k}")
        vertices.append(hub)
        for i in range(4):
            faces.append((hub, cycle[i], cycle[(i + 1) % 4]))
        hubs.append(hub)
    closed = AbstractTriangulation(vertices, faces)
    return CappingInfo(closed=closed, cap_centers=tuple(cap_centers),
                       hub_vertices=tuple(hubs))


def _invariant_check(tri: AbstractTriangulation, hubs=()):
    """The realization invariants of ``tri`` as one array routine.

    The returned ``check(pos, r, angle_tol, area_tol)`` takes unit vertex
    positions and radii (or None) as rows in ``tri.vertices`` order.  It
    returns the first failure found as a message (or None), the corner
    angles in ``_corner_index_arrays`` order and, with radii, the
    ``CirclePatternResidual`` (else None).  It checks unit positions; that
    non-adjacent disks are disjoint; nondegenerate, consistently oriented
    faces; radii in (0, pi/2), zero at the ideal ``hubs`` (which have
    degree four); angle sum 2 pi at every interior vertex; and, when
    closed, total area 4 pi, taken as the angle excess.
    """
    i, j = _nonedge_pairs(tri)
    eu, ev = _edge_index_arrays(tri)
    # non-adjacent disks must be disjoint (cited for genuine nerve patterns;
    # verified post hoc, a violation is a SolveError); the two disks opposite
    # across an ideal hub are tangent at the hub point, and so are those
    # opposite across a square boundary, where the capping puts a hub
    rings = [tri._nbrs[tri._id[h]] for h in hubs] + [
        [tri._id[v] for v in c] for c in tri.boundary_cycles if len(c) == 4]
    in_ring = np.zeros((len(rings), len(tri.vertices)), dtype=bool)
    for k, ring in enumerate(rings):
        in_ring[k, [tri._position[v] for v in ring]] = True
    slack = np.where((in_ring[:, i] & in_ring[:, j]).any(axis=0), -1e-9, 1e-9)
    hub = np.array([v in hubs for v in tri.vertices])
    faces = np.asarray(tri._position)[np.array(tri._oriented_ids())]
    corners = _corner_index_arrays(tri)
    boundary = tri.boundary_vertices()
    interior = np.array([v not in boundary for v in tri.vertices])

    def check(pos, r=None, angle_tol=1e-8, area_tol=1e-6):
        angles = _all_corner_angles(pos, corners)
        residual = None if r is None else CirclePatternResidual(
            edge_residuals=_edge_residuals(pos, r, eu, ev),
            nonedge_clearances=_pair_distances(pos[i], pos[j]) - (r[i] + r[j]))
        return first_failure(pos, r, angles, residual, angle_tol, area_tol), angles, residual

    def first_failure(pos, r, angles, residual, angle_tol, area_tol):
        bad = np.flatnonzero(np.abs(np.linalg.norm(pos, axis=1) - 1.0) > POSITION_TOL)
        if bad.size:
            return f"position of {tri.vertices[bad[0]]} is not unit"
        if r is not None:
            bad = np.flatnonzero(residual.nonedge_clearances <= slack)
            if bad.size:
                u, v = tri.vertices[i[bad[0]]], tri.vertices[j[bad[0]]]
                return f"non-adjacent disks {u}, {v} are not disjoint"
        det = np.linalg.det(pos[faces])
        flat = np.abs(det) < 1e-12
        bad = np.flatnonzero(flat | ((det > 0) != (det[0] > 0)))
        if bad.size:
            return (f"degenerate face {tri.oriented_faces()[bad[0]]}" if flat[bad[0]]
                    else "solution is not consistently oriented")
        if r is not None:
            bad = np.flatnonzero(~((hub & (r == 0.0)) | ((0.0 < r) & (r < math.pi / 2))))
            if bad.size:
                return f"radius of {tri.vertices[bad[0]]} outside (0, pi/2)"
        sums = np.bincount(corners[0], weights=angles, minlength=len(tri.vertices))
        bad = np.flatnonzero(interior & (np.abs(sums - 2 * math.pi) > angle_tol))
        if bad.size:
            v, s = tri.vertices[bad[0]], float(sums[bad[0]])
            return f"angle sum at interior vertex {v} is {s!r}"
        total = float(angles.sum()) - len(tri.faces) * math.pi
        if tri.is_closed and abs(total - 4 * math.pi) > area_tol:
            return f"total area {total!r} differs from 4 pi"
        return None

    return check


def realize_sphere(tri: AbstractTriangulation, seed: int = 0,
                   tol: float = 1e-11) -> RealizationResult:
    """Realize a triangulation as an acute geodesic triangulation of S^2.

    An input that ``acute_obstruction`` rejects raises CombinatorialRefusal
    with its reason and witness; a pattern that fails the realization checks
    raises SolveError.  The pattern is unique, so ``seed`` is ignored.  The
    realization restricts to the input; the capped one is kept alongside.
    """
    obstruction = acute_obstruction(tri)
    if obstruction:
        raise CombinatorialRefusal(*obstruction)
    capping, closed, hubs = None, tri, ()
    if not tri.is_closed:
        capping = glue_caps(tri)
        closed = capping.closed
        hubs = capping.hub_vertices
        if not ideal_allright_conditions(closed):
            raise CombinatorialRefusal(
                "capped complex violates the ideal all-right conditions "
                "(adjacent degree-four vertices); the nerve pipeline does not "
                "apply, e.g. for the bare square wheel whose interior hub "
                "forces a right angle", None)

    sol = solve_pattern(closed, fixed_zero=hubs, tol=tol)
    # the restricted realization needs no check of its own: it keeps the
    # positions and radii, and every interior vertex keeps its faces
    message, angles, residuals = _invariant_check(closed, hubs)(sol.positions, sol.radii)
    if message:
        raise SolveError(f"circle pattern fails a realization check: {message}",
                         best_residual=sol.residual)

    positions = dict(zip(closed.vertices, sol.positions))
    radii = dict(zip(closed.vertices, sol.radii.tolist()))
    closed_real = GeodesicRealization(closed, positions, radii)
    if capping is None:
        real = closed_real
    else:
        real = GeodesicRealization(tri, {v: positions[v] for v in tri.vertices},
                                   {v: radii[v] for v in tri.vertices})

    # glue_caps puts the input's faces first, in their vertex order, so the
    # input's corners are the first 3F of the capped complex's
    acute = _acute_report(tri.faces, angles[:3 * len(tri.faces)])
    if not acute.passed:
        raise SolveError(
            f"pattern converged but a corner angle reached {acute.max_angle!r}",
            best_residual=sol.residual)
    return RealizationResult(realization=real, closed_realization=closed_real,
                             capping=capping, residual=sol.residual,
                             acute=acute, pattern_residuals=residuals)


# -- verification reports ----------------------------------------------------


@dataclass
class AcuteReport:
    passed: bool
    max_angle: float
    min_angle: float
    margin: float
    worst_face: tuple


def _acute_report(faces, angles) -> AcuteReport:
    """The report on corner angles given face by face, three per face."""
    k = int(np.argmax(angles))
    max_angle = float(angles[k])
    return AcuteReport(passed=max_angle < math.pi / 2, max_angle=max_angle,
                       min_angle=float(angles.min()), margin=math.pi / 2 - max_angle,
                       worst_face=tuple(faces[k // 3]))


def verify_acute(real: GeodesicRealization) -> AcuteReport:
    """Per-face corner angles of ``_invariant_check``; passes iff the
    maximum is strictly below pi/2."""
    return _acute_report(real.parent.faces,
                         _invariant_check(real.parent)(real.position_array())[1])


@dataclass
class PerpendicularReport:
    passed: bool
    max_deviation: float


def verify_coinciding_perpendiculars(real: GeodesicRealization) -> PerpendicularReport:
    """For each interior edge, the perpendicular feet dropped from the two
    opposite vertices must coincide.  Circle-pattern realizations satisfy
    this; generic acute realizations do not."""
    tri = real.parent
    sums = tri._face_sums
    quads = []
    for (a, b), fs in tri._edge_faces.items():
        if len(fs) == 2:
            quads.append((a, b, *(sums[f] - a - b for f in fs)))
    pos = real.position_array()
    u, v, w1, w2 = np.asarray(tri._position)[np.array(quads, dtype=int).reshape(-1, 4)].T
    n = np.cross(pos[u], pos[v])
    n /= np.linalg.norm(n, axis=1)[:, None]

    def feet(w):
        # foot of the perpendicular from w onto the great circle through u, v
        proj = pos[w] - np.einsum("ij,ij->i", pos[w], n)[:, None] * n
        return proj / np.linalg.norm(proj, axis=1)[:, None]

    worst = float(_pair_distances(feet(w1), feet(w2)).max(initial=0.0))
    return PerpendicularReport(passed=worst < PERPENDICULAR_TOL, max_deviation=worst)


# -- Euclidean projection ----------------------------------------------------


@dataclass
class EuclideanRealization:
    """Planar orthogonal circle pattern: centers and radii per vertex."""

    parent: AbstractTriangulation
    centers: dict
    radii: dict


def _tangent_frame(nu):
    """Orthonormal frame (e1, e2) of the plane perpendicular to the unit
    vector ``nu``, the image plane of stereographic projection from ``nu``."""
    ref = np.array([1.0, 0.0, 0.0]) if abs(nu[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = ref - np.dot(ref, nu) * nu
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(nu, e1)


def _euclidean_circles(centers, rho, viewpoint, frame):
    """Images of the spherical circles (centers[i], rho[i]) under
    stereographic projection from ``viewpoint`` onto the plane of ``frame``,
    as planar centres (k, 2) and radii (k,).

    Closed form: the plane point y is the image of
    p = (2y + (|y|^2 - 1) nu) / (|y|^2 + 1), and p.m = cos(rho) reads
    |y - m'/D|^2 = sin(rho)^2 / D^2 with D = cos(rho) - m.nu and m' the part
    of m in the plane.  A circle through the viewpoint
    (|D| < VIEWPOINT_TOL) has a line for its image and raises
    ValidationError.
    """
    m = np.asarray(centers, float).reshape(-1, 3)
    denom = np.cos(rho) - m @ viewpoint
    if np.any(np.abs(denom) < VIEWPOINT_TOL):
        raise ValidationError("a circle passes through the stereographic viewpoint")
    e1, e2 = frame
    return np.column_stack([m @ e1, m @ e2]) / denom[:, None], np.sin(rho) / np.abs(denom)


def project_euclidean(result: RealizationResult) -> EuclideanRealization:
    """Project a capped planar realization to an acute Euclidean one.

    Requires at least one non-square boundary component (equivalently, a
    Maehara cap whose center disk can host the viewpoint); the viewpoint is
    the centre of the first cap's centre disk.  The projected
    pattern keeps exactly the input triangulation's vertices; the output is
    rescaled so that the mean squared radius is 1.
    """
    if result.capping is None:
        raise ValidationError("project_euclidean expects a capped planar realization")
    if not result.capping.cap_centers:
        raise CombinatorialRefusal(
            "all boundary components are squares; no Euclidean acute realization exists",
            None)
    viewpoint = result.capping.cap_centers[0]
    closed = result.closed_realization
    original = result.realization.parent
    nu = closed.positions[viewpoint]
    pos = np.array([closed.positions[v] for v in original.vertices])
    rho = np.array([closed.radii[v] for v in original.vertices])
    # viewpoint disk must avoid every kept disk
    near = _pair_distances(np.broadcast_to(nu, pos.shape), pos) <= (
        closed.radii[viewpoint] + rho + 1e-9)
    if near.any():
        raise ValidationError(
            f"viewpoint disk intersects the disk of {original.vertices[np.argmax(near)]}")

    centers, radii = _euclidean_circles(pos, rho, nu, _tangent_frame(nu))
    scale = math.sqrt(np.mean(radii * radii))
    return EuclideanRealization(
        parent=original,
        centers={v: c / scale for v, c in zip(original.vertices, centers)},
        radii={v: float(r / scale) for v, r in zip(original.vertices, radii)})


# -- alpha invariant ---------------------------------------------------------


@dataclass
class AlphaEstimate:
    value: float
    realization: GeodesicRealization
    # descents run: 1 when the circle-pattern start passes validity, else
    # that start (if any) plus the seeded Tutte fallback starts
    starts: int
    valid: bool
    # max angle reached from each start, in the order run; distinct local
    # solutions are recorded but nothing is asserted about the topology of
    # the space of acute realizations
    per_start: tuple = ()
    # the circle-pattern realization that seeded the search; None when the
    # input is not flag no-square or the pattern solve failed
    seeded_from: Optional[RealizationResult] = None
    # the reported start's L-BFGS-B stages as (sharpness, nit, nfev,
    # status); status 1 means the stage stopped at its iteration limit
    stages: tuple = ()


def _corner_terms(pos, corner_idx):
    """Corner angles at A of the corners (A, B, C) of unit positions, with the
    dot products they come from: p = A.B, q = A.C, the tangent lengths
    |B - pA| = sqrt(1 - p^2) and |C - qA| = sqrt(1 - q^2), the cosine
    (s - pq) / (|B - pA| |C - qA|) with s = B.C, and the mask of
    nondegenerate corners; degenerate corners report pi."""
    a, b, c = corner_idx
    A, B, C = pos[a], pos[b], pos[c]
    p = np.einsum("ij,ij->i", A, B)
    q = np.einsum("ij,ij->i", A, C)
    tb = B - p[:, None] * A
    tc = C - q[:, None] * A
    nb = np.linalg.norm(tb, axis=1)
    nc = np.linalg.norm(tc, axis=1)
    ok = (nb > 1e-9) & (nc > 1e-9)
    cosang = np.einsum("ij,ij->i", tb, tc) / np.where(ok, nb * nc, 1.0)
    angles = np.where(ok, np.arccos(np.clip(cosang, -1.0, 1.0)), math.pi)
    return angles, p, q, nb, nc, cosang, ok


def _all_corner_angles(pos, corner_idx):
    """Vectorized corner angles; degenerate corners report pi."""
    return _corner_terms(pos, corner_idx)[0]


def _corner_index_arrays(tri: AbstractTriangulation):
    """Index arrays (vertex, next, previous) of the corners of ``tri``, face
    by face, in the vertex order of each face."""
    index = {v: k for k, v in enumerate(tri.vertices)}
    f = np.array([[index[v] for v in face] for face in tri.faces], dtype=int).reshape(-1, 3)
    return f.ravel(), f[:, [1, 2, 0]].ravel(), f[:, [2, 0, 1]].ravel()


def _smoothed_max_angle(flat, corner_idx, sharpness):
    """Log-sum-exp of all corner angles of the normalized positions, and its
    exact gradient with respect to the flat, unnormalized positions.

    The weights d value / d angle are softmax(sharpness * angles).  Each
    angle is arccos((s - pq) / sqrt((1 - p^2)(1 - q^2))) in p = A.B, q = A.C,
    s = B.C; its partials in p, q, s are scattered to A, B, C and pulled
    back through x / |x| as (I - u u^T) / |x|.  Degenerate corners (reported
    as pi, or straight: sin angle ~ 0) contribute nothing.
    """
    x = flat.reshape(-1, 3)
    norms = np.maximum(np.linalg.norm(x, axis=1), 1e-12)
    u = x / norms[:, None]
    angles, p, q, nb, nc, cosang, ok = _corner_terms(u, corner_idx)
    m = float(angles.max())
    e = np.exp(sharpness * (angles - m))
    total = float(e.sum())
    value = m + math.log(total) / sharpness

    sin = np.sqrt(np.maximum(1.0 - cosang * cosang, 0.0))
    live = ok & (sin > 1e-12)
    nb, nc, sin = (np.where(live, t, 1.0) for t in (nb, nc, sin))
    # d value / d cos of each corner: softmax weight times d arccos
    k = np.where(live, -e / (total * sin), 0.0)
    ds = k / (nb * nc)
    dp = k * cosang * p / (nb * nb) - ds * q
    dq = k * cosang * q / (nc * nc) - ds * p
    a, b, c = corner_idx
    A, B, C = u[a], u[b], u[c]
    # one pass over the (a, b, c) corner terms; bincount adds in input order,
    # as np.add.at would, so the sums are the same to the bit
    idx = np.concatenate(corner_idx)
    terms = np.concatenate((dp[:, None] * B + dq[:, None] * C,
                            dp[:, None] * A + ds[:, None] * C,
                            dq[:, None] * A + ds[:, None] * B)).T
    g = np.stack([np.bincount(idx, w, minlength=len(u)) for w in terms], axis=1)
    g -= np.einsum("ij,ij->i", g, u)[:, None] * u
    return value, (g / norms[:, None]).ravel()


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported at its first call.
    ``alpha_estimate`` calls it through this module attribute, so a caller
    can wrap it here to count its evaluations."""
    from scipy.optimize import minimize
    return minimize(*args, **kwargs)


def alpha_estimate(tri: AbstractTriangulation, seed: int = 0, starts: int = 3,
                   tol: float = 1e-11) -> AlphaEstimate:
    """Local minimax estimate of the smallest achievable maximum corner angle.

    Minimizes a smoothed maximum of all corner angles over vertex positions
    (temperature schedule).  When the triangulation is flag no-square, its
    circle-pattern realization (solved to ``tol``) is the one start, and it
    is returned with the estimate.  ``starts`` seeded Tutte layouts are the
    fallback: they run when there is no pattern realization (the input is
    not flag no-square, or the solve failed) or when the descent from it
    ends in a configuration that fails validity.

    The reported value is the true maximum corner angle of the best
    configuration that passes the realization validity checks (unit
    positions, consistent orientation, angle sums and total area).  When no
    start passes them, it is that of the best configuration overall, and
    ``valid`` is False: the value then belongs to a folded or degenerate
    placement, not to a geodesic realization.  ``valid`` tells a caller
    whether the value is the maximum angle of a realization; one that needs
    that must check it.
    """
    if not tri.is_closed:
        raise ValidationError("alpha_estimate expects a closed triangulation")
    if starts < 0:
        raise ValidationError(f"starts must be >= 0, got {starts}")
    index = {v: i for i, v in enumerate(tri.vertices)}
    corner_idx = _corner_index_arrays(tri)
    fns = is_flag_no_square(tri)
    check = _invariant_check(tri)

    # (valid, max angle, positions, stages) of the best end point so far
    best = (False, math.inf, None, ())
    per_start = []

    def descend(pos0):
        nonlocal best
        flat = pos0.ravel().copy()
        stages = []
        for sharpness in (30.0, 120.0, 600.0):
            out = minimize(_smoothed_max_angle, flat, args=(corner_idx, sharpness),
                           jac=True, method="L-BFGS-B",
                           options={"maxiter": 300, "ftol": 1e-14, "gtol": 1e-10})
            flat = out.x
            stages.append((sharpness, int(out.nit), int(out.nfev), int(out.status)))
        pos = flat.reshape(-1, 3)
        pos = pos / np.linalg.norm(pos, axis=1)[:, None]
        message, angles, _ = check(pos, None, angle_tol=1e-6, area_tol=1e-4)
        valid = message is None
        val = float(angles.max())
        per_start.append(val)
        if (valid, -val) > (best[0], -best[1]):
            best = (valid, val, pos, tuple(stages))

    seeded_from = None
    if fns:
        try:
            seeded_from = realize_sphere(tri, tol=tol)
        except SolveError:
            pass
        else:
            descend(seeded_from.realization.position_array())
    if not best[0]:
        rng = np.random.default_rng(seed)
        for _ in range(starts):
            pole = tri.vertices[int(rng.integers(len(tri.vertices)))]
            descend(tutte_sphere_init(tri, pole, rng))

    if not per_start:
        raise ValidationError("alpha_estimate ran no start: the input has no "
                              "circle-pattern realization and starts is 0")
    best_valid, best_val, best_pos, stages = best
    real = GeodesicRealization(tri, {v: best_pos[index[v]] for v in tri.vertices})
    # inputs that are not flag no-square have alpha >= pi/2, so a valid acute
    # configuration of one contradicts the theorem; the exact gradient drives
    # some of them (the octahedron, alpha = pi/2 exactly) to within 1e-13 of
    # pi/2, so a dip below it by rounding is no inconsistency
    if best_valid and not fns and best_val < math.pi / 2 - 1e-12:
        raise InternalInconsistency(
            "optimizer reports a valid acute configuration of a triangulation "
            "that is not flag no-square")
    return AlphaEstimate(value=best_val, realization=real,
                         starts=len(per_start), valid=best_valid,
                         per_start=tuple(per_start), seeded_from=seeded_from,
                         stages=stages)


# -- subordinate check -------------------------------------------------------


def is_subordinate(real: GeodesicRealization, labeling: EdgeLabeling) -> bool:
    """Whether every realized face is slimmer than the polar dual of its
    label-induced finite triangle, matching the p-label corner with the face
    vertex opposite the p-labeled edge.  With all-2 labels this coincides
    with acuteness."""
    for f in real.parent.faces:
        p, q, r = labeling.face_labels(f)
        if not coxeter_face_finite(p, q, r):
            raise ValidationError(f"face {tuple(f)} induces an infinite triangle group")
        R = triangle_from_points(*(real.positions[v] for v in f))
        if not slimmer(R, polar_dual(triangle_pqr(p, q, r))):
            return False
    return True
