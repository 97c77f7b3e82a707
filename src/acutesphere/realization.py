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
from scipy.optimize import minimize

from .errors import AcuteSphereError, InternalInconsistency, SolveError, ValidationError
from .pattern import PatternSolution, solve_pattern, tutte_sphere_init
from .spherical import (corner_angle, perpendicular_foot, polar_dual, slimmer,
                        spherical_distance, triangle_from_points, triangle_pqr)
from .triangulation import (AbstractTriangulation, CycleWitness, EdgeLabeling,
                            coxeter_face_finite, first_obstruction,
                            ideal_allright_conditions, is_flag_no_separating_square,
                            is_flag_no_square, low_degree_interior_vertices,
                            maehara_cap)


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

    def face_triangle(self, face):
        pa, pb, pc = (self.positions[v] for v in face)
        return triangle_from_points(pa, pb, pc)

    def corner_angles(self):
        """(face, vertex, angle) over all corners."""
        out = []
        for f in self.parent.faces:
            pts = [self.positions[v] for v in f]
            for i, v in enumerate(f):
                out.append((f, v, corner_angle(pts[i], pts[(i + 1) % 3], pts[(i + 2) % 3])))
        return out

    def validate(self, pos_tol=1e-12, angle_tol=1e-8, area_tol=1e-6):
        """Check the realization invariants; raises ValidationError.

        Unit positions, radii in [0, pi/2) with zero only at degree-four
        (ideal) vertices, nondegenerate consistently oriented faces, angle
        sum 2 pi at every interior vertex, and total area 4 pi when closed.
        """
        for v, p in self.positions.items():
            if abs(float(np.linalg.norm(p)) - 1.0) > pos_tol:
                raise ValidationError(f"position of {v} is not unit")
        if self.radii is not None:
            for v, r in self.radii.items():
                if not (0.0 <= r < math.pi / 2):
                    raise ValidationError(f"radius of {v} outside [0, pi/2): {r!r}")
                if r == 0.0 and self.parent.degree(v) != 4:
                    raise ValidationError(
                        f"zero radius at {v}, which has degree {self.parent.degree(v)}; "
                        "only degree-four ideal vertices may be points")
        sign = None
        for f in self.parent.oriented_faces():
            d = float(np.linalg.det(np.vstack([self.positions[v] for v in f])))
            if abs(d) < 1e-12:
                raise ValidationError(f"degenerate face {f}")
            if sign is None:
                sign = d > 0
            elif (d > 0) != sign:
                raise ValidationError(f"face {f} is inconsistently oriented")
        sums: dict = {v: 0.0 for v in self.parent.vertices}
        total = 0.0
        for f in self.parent.faces:
            tri = self.face_triangle(f)
            total += tri.A + tri.B + tri.C - math.pi
        for f, v, ang in self.corner_angles():
            sums[v] += ang
        boundary = self.parent.boundary_vertices()
        for v, s in sums.items():
            if v not in boundary and abs(s - 2 * math.pi) > angle_tol:
                raise ValidationError(f"angle sum at interior vertex {v} is {s!r}")
        if self.parent.is_closed and abs(total - 4 * math.pi) > area_tol:
            raise ValidationError(f"total area {total!r} differs from 4 pi")
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

    edge_residuals: dict        # edge -> cos d(x_u, x_v) - cos r_u cos r_v
    nonedge_clearances: dict    # pair -> d(x_u, x_v) - (r_u + r_v)

    def max_edge_residual(self) -> float:
        return max((abs(r) for r in self.edge_residuals.values()), default=0.0)

    def min_clearance(self) -> float:
        return min(self.nonedge_clearances.values(), default=math.inf)


def _nonedge_pairs(tri: AbstractTriangulation):
    """Index arrays (i, j), i < j, of the non-adjacent vertex pairs, in the
    row-major order of ``tri.vertices``."""
    index = {v: k for k, v in enumerate(tri.vertices)}
    adjacent = np.eye(len(index), dtype=bool)
    u, v = np.array([[index[w] for w in e] for e in tri.edges]).T
    adjacent[u, v] = adjacent[v, u] = True
    i, j = np.triu_indices(len(index), 1)
    keep = ~adjacent[i, j]
    return i[keep], j[keep]


def _pair_distances(pos: np.ndarray, i, j) -> np.ndarray:
    """Spherical distances between the rows i and j of ``pos`` (the atan2
    form of ``spherical_distance``)."""
    return np.arctan2(np.linalg.norm(np.cross(pos[i], pos[j]), axis=1),
                      np.einsum("ij,ij->i", pos[i], pos[j]))


def pattern_residuals(real: GeodesicRealization) -> CirclePatternResidual:
    """Measure the circle-pattern equations of a realization with radii."""
    if real.radii is None:
        raise ValidationError("realization carries no radii")
    tri = real.parent
    edge_res = {}
    for e in tri.edges:
        u, v = tuple(e)
        edge_res[e] = (math.cos(spherical_distance(real.positions[u], real.positions[v]))
                       - math.cos(real.radii[u]) * math.cos(real.radii[v]))
    verts = tri.vertices
    r = np.array([real.radii[v] for v in verts])
    i, j = _nonedge_pairs(tri)
    gaps = _pair_distances(real.position_array(), i, j) - (r[i] + r[j])
    clearances = {frozenset((verts[a], verts[b])): g
                  for a, b, g in zip(i.tolist(), j.tolist(), gaps.tolist())}
    return CirclePatternResidual(edge_residuals=edge_res, nonedge_clearances=clearances)


@dataclass
class CappingInfo:
    closed: AbstractTriangulation
    cap_centers: tuple = ()
    hub_vertices: tuple = ()
    added_vertices: tuple = ()


@dataclass
class RealizationResult:
    realization: GeodesicRealization           # of the input triangulation
    closed_realization: GeodesicRealization    # of the capped closed complex
    capping: Optional[CappingInfo]
    residual: float
    margin: float                              # pi/2 - max corner angle (input faces)
    seed: int

    @property
    def max_angle(self) -> float:
        return math.pi / 2 - self.margin


def glue_caps(tri: AbstractTriangulation) -> CappingInfo:
    """Close a planar triangulation: Maehara caps on every boundary of
    length >= 5, then square wheels on all remaining square boundaries."""
    if tri.is_closed:
        return CappingInfo(closed=tri)
    vertices = list(tri.vertices)
    faces = [tuple(f) for f in tri.faces]
    taken = set(vertices)
    cap_centers = []
    hubs = []
    added = []

    def fresh(name):
        m = name
        while m in taken:
            m += "+"
        taken.add(m)
        added.append(m)
        return m

    for k, cycle in enumerate(tri.boundary_cycles):
        n = len(cycle)
        if n == 3:
            raise ValidationError(
                "boundary 3-cycles are not supported by the capping pipeline")
        if n == 4:
            continue
        cap = maehara_cap(n)
        ring = cap.boundary_cycles[0]
        rename = {ring[i]: cycle[i] for i in range(n)}
        for v in cap.vertices:
            if v not in rename:
                rename[v] = fresh(f"cap{k}.{v}")
        vertices += [rename[v] for v in cap.vertices if rename[v] in added]
        faces += [tuple(rename[v] for v in f) for f in cap.faces]
        cap_centers.append(rename["c"])

    partial = AbstractTriangulation(vertices, faces)
    if not is_flag_no_separating_square(partial):
        raise InternalInconsistency("capped complex lost flag-no-separating-square")
    for k, cycle in enumerate(partial.boundary_cycles):
        if len(cycle) != 4:
            raise InternalInconsistency("capping left a non-square boundary")
        hub = fresh(f"hub{k}")
        vertices.append(hub)
        for i in range(4):
            faces.append((hub, cycle[i], cycle[(i + 1) % 4]))
        hubs.append(hub)
    closed = AbstractTriangulation(vertices, faces)
    return CappingInfo(closed=closed, cap_centers=tuple(cap_centers),
                       hub_vertices=tuple(hubs), added_vertices=tuple(added))


def _pattern_validator(tri: AbstractTriangulation, problem_index, hubs):
    i, j = _nonedge_pairs(tri)
    # non-adjacent disks must be disjoint (cited for genuine nerve patterns;
    # verified post hoc, violations force a restart); the two disks opposite
    # across an ideal hub are tangent at the hub point
    near_hub = np.array([[v in tri.adjacency[h] for v in tri.vertices] for h in hubs],
                        dtype=bool).reshape(len(hubs), len(tri.vertices))
    slack = np.where((near_hub[:, i] & near_hub[:, j]).any(axis=0), -1e-9, 1e-9)
    free = np.array([v not in hubs for v in tri.vertices])
    oriented = tri.oriented_faces()
    faces = np.array([[problem_index[v] for v in f] for f in oriented])

    def validate(sol: PatternSolution):
        pos, r = sol.positions, sol.radii
        bad = np.flatnonzero(_pair_distances(pos, i, j) <= r[i] + r[j] + slack)
        if bad.size:
            u, v = tri.vertices[i[bad[0]]], tri.vertices[j[bad[0]]]
            return f"non-adjacent disks {u}, {v} are not disjoint"
        det = np.linalg.det(pos[faces])
        flat = np.abs(det) < 1e-12
        bad = np.flatnonzero(flat | ((det > 0) != (det[0] > 0)))
        if bad.size:
            return (f"degenerate face {oriented[bad[0]]}" if flat[bad[0]]
                    else "solution is not consistently oriented")
        bad = np.flatnonzero(free & ~((0.0 < r) & (r < math.pi / 2)))
        if bad.size:
            return f"radius of {tri.vertices[bad[0]]} outside (0, pi/2)"
        return None

    return validate


def realize_sphere(tri: AbstractTriangulation, seed: int = 0, tol: float = 1e-11,
                   max_starts: int = 8) -> RealizationResult:
    """Realize a triangulation as an acute geodesic triangulation of S^2.

    Closed inputs must be flag no-square, planar inputs
    flag-no-separating-square; otherwise CombinatorialRefusal carries the
    obstruction witness.  The returned realization restricts to the input
    triangulation; the full capped pattern is kept alongside for projection.
    """
    if tri.is_closed:
        if not is_flag_no_square(tri):
            raise CombinatorialRefusal(
                "not flag no-square; no acute realization exists", first_obstruction(tri))
        capping = None
        closed = tri
        hubs = ()
    else:
        if not is_flag_no_separating_square(tri):
            raise CombinatorialRefusal(
                "not flag-no-separating-square; no acute realization exists",
                first_obstruction(tri))
        low = low_degree_interior_vertices(tri)
        if low:
            raise CombinatorialRefusal(
                f"interior vertex {low[0]!r} has degree {tri.degree(low[0])}; "
                "the 2 pi angle sum forces a non-acute corner there", None)
        capping = glue_caps(tri)
        closed = capping.closed
        hubs = capping.hub_vertices
        if not ideal_allright_conditions(closed):
            raise CombinatorialRefusal(
                "capped complex violates the ideal all-right conditions "
                "(adjacent degree-four vertices); the nerve pipeline does not "
                "apply, e.g. for the bare square wheel whose interior hub "
                "forces a right angle", None)

    index = {v: i for i, v in enumerate(closed.vertices)}
    sol = solve_pattern(closed, fixed_zero=hubs, seed=seed, tol=tol,
                        max_starts=max_starts,
                        validate=_pattern_validator(closed, index, hubs))

    positions = {v: sol.positions[index[v]] for v in closed.vertices}
    radii = {v: float(sol.radii[index[v]]) for v in closed.vertices}
    closed_real = GeodesicRealization(closed, positions, radii).validate()

    if capping is None:
        real = closed_real
    else:
        keep = {v: positions[v] for v in tri.vertices}
        keep_r = {v: radii[v] for v in tri.vertices}
        real = GeodesicRealization(tri, keep, keep_r).validate()

    max_angle = max(ang for _, _, ang in real.corner_angles())
    margin = math.pi / 2 - max_angle
    if margin <= 0:
        raise SolveError(
            f"pattern converged but a corner angle reached {max_angle!r}",
            best_residual=sol.residual)
    return RealizationResult(realization=real, closed_realization=closed_real,
                             capping=capping, residual=sol.residual,
                             margin=margin, seed=seed)


# -- verification reports ----------------------------------------------------


@dataclass
class AcuteReport:
    passed: bool
    max_angle: float
    min_angle: float
    margin: float
    worst_face: tuple

    def to_json(self):
        return {"passed": self.passed, "max_angle": self.max_angle,
                "min_angle": self.min_angle, "margin": self.margin,
                "worst_face": list(self.worst_face)}


def verify_acute(real: GeodesicRealization) -> AcuteReport:
    """Per-face corner angles; passes iff the maximum is strictly below pi/2."""
    worst = ((), "", -1.0)
    min_angle = math.inf
    for f, v, ang in real.corner_angles():
        if ang > worst[2]:
            worst = (f, v, ang)
        min_angle = min(min_angle, ang)
    max_angle = worst[2]
    return AcuteReport(passed=max_angle < math.pi / 2, max_angle=max_angle,
                       min_angle=min_angle, margin=math.pi / 2 - max_angle,
                       worst_face=tuple(worst[0]))


@dataclass
class PerpendicularReport:
    passed: bool
    max_deviation: float
    edges_checked: int

    def to_json(self):
        return {"passed": self.passed, "max_deviation": self.max_deviation,
                "edges_checked": self.edges_checked}


def verify_coinciding_perpendiculars(real: GeodesicRealization, tol=1e-6) -> PerpendicularReport:
    """For each interior edge, the perpendicular feet dropped from the two
    opposite vertices must coincide.  Circle-pattern realizations satisfy
    this; generic acute realizations do not."""
    worst = 0.0
    checked = 0
    for e, fs in real.parent.edge_faces.items():
        if len(fs) != 2:
            continue
        u, v = tuple(e)
        w1 = next(x for x in fs[0] if x not in e)
        w2 = next(x for x in fs[1] if x not in e)
        f1 = perpendicular_foot(real.positions[w1], real.positions[u], real.positions[v])
        f2 = perpendicular_foot(real.positions[w2], real.positions[u], real.positions[v])
        worst = max(worst, spherical_distance(f1, f2))
        checked += 1
    return PerpendicularReport(passed=worst < tol, max_deviation=worst, edges_checked=checked)


# -- Euclidean projection ----------------------------------------------------


@dataclass
class EuclideanRealization:
    """Planar orthogonal circle pattern: centers and radii per vertex."""

    parent: AbstractTriangulation
    centers: dict
    radii: dict

    def orthogonality_residual(self) -> float:
        worst = 0.0
        for e in self.parent.edges:
            u, v = tuple(e)
            d2 = float(np.sum((self.centers[u] - self.centers[v]) ** 2))
            target = self.radii[u] ** 2 + self.radii[v] ** 2
            worst = max(worst, abs(d2 - target) / target)
        return worst

    def corner_angles(self):
        out = []
        for f in self.parent.faces:
            pts = [self.centers[v] for v in f]
            for i, v in enumerate(f):
                a = pts[(i + 1) % 3] - pts[i]
                b = pts[(i + 2) % 3] - pts[i]
                cross = float(a[0] * b[1] - a[1] * b[0])
                ang = math.atan2(abs(cross), float(np.dot(a, b)))
                out.append((f, v, ang))
        return out

    def perpendicular_ratio_deviation(self) -> float:
        """Worst deviation of the foot of each perpendicular from the
        r^2-weighted split of the opposite edge (feet from both sides of an
        interior edge coincide at that point)."""
        worst = 0.0
        for e, fs in self.parent.edge_faces.items():
            u, v = tuple(e)
            pu, pv = self.centers[u], self.centers[v]
            denom = float(np.sum((pv - pu) ** 2))
            expected = self.radii[u] ** 2 / (self.radii[u] ** 2 + self.radii[v] ** 2)
            for f in fs:
                w = next(x for x in f if x not in e)
                t = float(np.dot(self.centers[w] - pu, pv - pu)) / denom
                worst = max(worst, abs(t - expected))
        return worst

    def to_json(self):
        return {"centers": {v: [float(x) for x in p] for v, p in self.centers.items()},
                "radii": {v: float(r) for v, r in self.radii.items()},
                "faces": [list(f) for f in self.parent.faces]}


def _euclidean_circle(center, rho, viewpoint, frame):
    """Image of the spherical circle (center, rho) under stereographic
    projection from ``viewpoint``, as planar (center, radius).

    Three points on the circle are projected and circumscribed; exact for
    circles because stereographic projection maps circles to circles.
    """
    e1, e2 = frame
    m = np.asarray(center, float)
    t1 = e1 - np.dot(e1, m) * m
    if np.linalg.norm(t1) < 1e-9:
        t1 = e2 - np.dot(e2, m) * m
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(m, t1)
    pts2d = []
    for theta in (0.0, 2 * math.pi / 3, 4 * math.pi / 3):
        p = math.cos(rho) * m + math.sin(rho) * (math.cos(theta) * t1 + math.sin(theta) * t2)
        pts2d.append(_stereographic(p, viewpoint, frame))
    (x1, y1), (x2, y2), (x3, y3) = pts2d
    a = np.array([[2 * (x2 - x1), 2 * (y2 - y1)], [2 * (x3 - x1), 2 * (y3 - y1)]])
    b = np.array([x2 ** 2 - x1 ** 2 + y2 ** 2 - y1 ** 2,
                  x3 ** 2 - x1 ** 2 + y3 ** 2 - y1 ** 2])
    cx, cy = np.linalg.solve(a, b)
    r = math.hypot(x1 - cx, y1 - cy)
    return np.array([cx, cy]), r


def _stereographic(p, viewpoint, frame):
    e1, e2 = frame
    denom = 1.0 - float(np.dot(p, viewpoint))
    if denom < 1e-12:
        raise ValidationError("stereographic projection hit the viewpoint")
    q = (p - float(np.dot(p, viewpoint)) * viewpoint) / denom
    return np.array([float(np.dot(q, e1)), float(np.dot(q, e2))])


def project_euclidean(result: RealizationResult,
                      viewpoint_vertex: Optional[str] = None) -> EuclideanRealization:
    """Project a capped planar realization to an acute Euclidean one.

    Requires at least one non-square boundary component (equivalently, a
    Maehara cap whose center disk can host the viewpoint).  The projected
    pattern keeps exactly the input triangulation's vertices; the output is
    rescaled so that the mean squared radius is 1.
    """
    if result.capping is None:
        raise ValidationError("project_euclidean expects a capped planar realization")
    if not result.capping.cap_centers:
        raise CombinatorialRefusal(
            "all boundary components are squares; no Euclidean acute realization exists",
            None)
    if viewpoint_vertex is None:
        viewpoint_vertex = result.capping.cap_centers[0]
    elif viewpoint_vertex not in result.capping.cap_centers:
        raise ValidationError(f"viewpoint {viewpoint_vertex!r} is not a cap center")

    closed = result.closed_realization
    original = result.realization.parent
    nu = closed.positions[viewpoint_vertex]
    r_nu = closed.radii[viewpoint_vertex]
    # viewpoint disk must avoid every kept disk
    for v in original.vertices:
        d = spherical_distance(nu, closed.positions[v])
        if d <= r_nu + closed.radii[v] + 1e-9:
            raise ValidationError(f"viewpoint disk intersects the disk of {v}")

    ref = np.array([1.0, 0.0, 0.0]) if abs(nu[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = ref - np.dot(ref, nu) * nu
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(nu, e1)
    frame = (e1, e2)

    centers = {}
    radii = {}
    for v in original.vertices:
        c, r = _euclidean_circle(closed.positions[v], closed.radii[v], nu, frame)
        centers[v] = c
        radii[v] = r
    scale = math.sqrt(np.mean([r * r for r in radii.values()]))
    centers = {v: c / scale for v, c in centers.items()}
    radii = {v: r / scale for v, r in radii.items()}
    return EuclideanRealization(parent=original, centers=centers, radii=radii)


# -- alpha invariant ---------------------------------------------------------


@dataclass
class AlphaEstimate:
    value: float
    realization: GeodesicRealization
    starts: int
    valid: bool
    # max angle reached from each start; distinct local solutions are
    # recorded but nothing is asserted about the topology of the space of
    # acute realizations
    per_start: tuple = ()

    def to_json(self):
        return {"value": self.value, "starts": self.starts, "valid": self.valid,
                "per_start": list(self.per_start)}


def _all_corner_angles(pos, corner_idx):
    """Vectorized corner angles; degenerate corners report pi."""
    a, b, c = corner_idx
    A, B, C = pos[a], pos[b], pos[c]
    tb = B - np.einsum("ij,ij->i", A, B)[:, None] * A
    tc = C - np.einsum("ij,ij->i", A, C)[:, None] * A
    nb = np.linalg.norm(tb, axis=1)
    nc = np.linalg.norm(tc, axis=1)
    ok = (nb > 1e-9) & (nc > 1e-9)
    cosang = np.einsum("ij,ij->i", tb, tc) / np.where(ok, nb * nc, 1.0)
    angles = np.where(ok, np.arccos(np.clip(cosang, -1.0, 1.0)), math.pi)
    return angles


def _corner_index_arrays(faces_idx):
    a, b, c = [], [], []
    for (i, j, k) in faces_idx:
        a += [i, j, k]
        b += [j, k, i]
        c += [k, i, j]
    return np.array(a), np.array(b), np.array(c)


def _smoothed_max_angle(flat, corner_idx, sharpness):
    pos = flat.reshape(-1, 3)
    norms = np.linalg.norm(pos, axis=1)
    pos = pos / np.maximum(norms, 1e-12)[:, None]
    angles = _all_corner_angles(pos, corner_idx)
    m = float(angles.max())
    return m + math.log(float(np.exp(sharpness * (angles - m)).sum())) / sharpness


def alpha_estimate(tri: AbstractTriangulation, seed: int = 0, starts: int = 3) -> AlphaEstimate:
    """Local minimax estimate of the smallest achievable maximum corner angle.

    Minimizes a smoothed maximum of all corner angles over vertex positions
    (multi-start, temperature schedule).  When the triangulation is flag
    no-square the circle-pattern realization seeds the search.  The reported
    value is the true maximum angle of the best configuration that passes
    the realization validity checks.
    """
    if not tri.is_closed:
        raise ValidationError("alpha_estimate expects a closed triangulation")
    index = {v: i for i, v in enumerate(tri.vertices)}
    faces_idx = [tuple(index[v] for v in f) for f in tri.faces]
    corner_idx = _corner_index_arrays(faces_idx)
    rng = np.random.default_rng(seed)
    fns = is_flag_no_square(tri)

    inits = []
    if fns:
        try:
            res = realize_sphere(tri, seed=seed)
            inits.append(res.realization.position_array())
        except SolveError:
            pass
    for k in range(starts):
        pole = tri.vertices[int(rng.integers(len(tri.vertices)))]
        inits.append(tutte_sphere_init(tri, pole, rng))

    best_val = math.inf
    best_pos = None
    best_valid = False
    per_start = []
    for pos0 in inits:
        flat = pos0.ravel().copy()
        for sharpness in (30.0, 120.0, 600.0):
            out = minimize(_smoothed_max_angle, flat, args=(corner_idx, sharpness),
                           method="L-BFGS-B",
                           options={"maxiter": 300, "ftol": 1e-14, "gtol": 1e-10})
            flat = out.x
        pos = flat.reshape(-1, 3)
        pos = pos / np.linalg.norm(pos, axis=1)[:, None]
        real = GeodesicRealization(tri, {v: pos[index[v]] for v in tri.vertices})
        try:
            real.validate(angle_tol=1e-6, area_tol=1e-4)
            valid = True
        except ValidationError:
            valid = False
        val = max(ang for _, _, ang in real.corner_angles())
        per_start.append(val)
        if (valid, -val) > (best_valid, -best_val):
            best_val, best_pos, best_valid = val, pos, valid

    real = GeodesicRealization(tri, {v: best_pos[index[v]] for v in tri.vertices})
    if best_val < math.pi / 2 and not (fns and best_valid):
        raise InternalInconsistency(
            "optimizer reports an acute maximum for a triangulation that is "
            "not flag no-square or failed validity")
    return AlphaEstimate(value=best_val, realization=real,
                         starts=len(inits), valid=best_valid,
                         per_start=tuple(per_start))


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
        R = real.face_triangle(f)
        if not slimmer(R, polar_dual(triangle_pqr(p, q, r))):
            return False
    return True
