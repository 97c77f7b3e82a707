import collections
import itertools
import math

import numpy as np
import pytest

from acutesphere import fixtures as fixture_registry
from acutesphere.errors import (GeometryError, InternalInconsistency, SolveError,
                               ValidationError)
from acutesphere.klein import CUBE_EDGES, SlantedCubeModel, boost_to
from acutesphere.spherical import (IDENTITY_MAP, clamped_acos, from_angles, from_sides,
                                   place_triangle)
from acutesphere.triangulation import AbstractTriangulation, diagonal_flip


@pytest.fixture(scope="session")
def load():
    return fixture_registry.load


def random_acute_triangle(rng):
    """Uniform-ish acute spherical triangle: angles in (0, pi/2), sum > pi."""
    while True:
        A, B, C = rng.uniform(0.7, math.pi / 2 - 1e-4, size=3)
        if A + B + C > math.pi + 1e-6:
            return from_angles(A, B, C)


def random_triangle(rng):
    """Generic valid spherical triangle from random side lengths."""
    while True:
        a, b, c = rng.uniform(0.15, 2.4, size=3)
        if a + b + c >= 2 * math.pi - 1e-6:
            continue
        if a < b + c - 1e-6 and b < c + a - 1e-6 and c < a + b - 1e-6:
            return from_sides(a, b, c)


def lobell(n):
    """The bicapped n-gonal antiprism, dual of the Loebell polyhedron L(n):
    poles N and S over rings a_i and b_i, 2n + 2 vertices.  n = 5 is the
    icosahedron; every n >= 5 gives a flag no-square sphere."""
    a, b = [f"a{i}" for i in range(n)], [f"b{i}" for i in range(n)]
    faces = []
    for i in range(n):
        j = (i + 1) % n
        faces += [("N", a[i], a[j]), ("S", b[j], b[i]), (a[i], b[i], a[j]), (a[j], b[i], b[j])]
    return AbstractTriangulation(["N", "S"] + a + b, faces)


def random_flips(tri, rng, count, keep=None):
    """Up to ``count`` diagonal flips of random interior edges (``rng`` is a
    ``random.Random``); with ``keep``, a flip whose result fails ``keep`` is
    undone."""
    for _ in range(count):
        edges = sorted(sorted(e) for e, fs in tri.edge_faces.items() if len(fs) == 2)
        try:
            flipped = diagonal_flip(tri, rng.choice(edges))
        except ValidationError:   # the flip would double an edge
            continue
        if keep is None or keep(flipped):
            tri = flipped
    return tri


def remove_stars(tri, gone):
    """``tri`` without the vertices ``gone`` and every face on them."""
    return AbstractTriangulation([v for v in tri.vertices if v not in gone],
                                 [f for f in tri.faces if not set(gone) & set(f)])


def star_punctures(tri):
    """``tri`` minus the star of one vertex, or of two non-adjacent ones,
    for every such choice the validator accepts (it refuses, e.g., holes
    that meet at a vertex or leave a vertex with no face)."""
    for k in (1, 2):
        for gone in itertools.combinations(tri.vertices, k):
            if k == 2 and tri.has_edge(*gone):
                continue
            try:
                yield remove_stars(tri, gone)
            except ValidationError:
                pass


def triangle_strip(n):
    """The strip of 2n - 2 faces (u_i, w_i, u_i+1), (u_i+1, w_i, w_i+1) over
    2n vertices, every one of them on its boundary cycle."""
    u, w = [f"u{i}" for i in range(n)], [f"w{i}" for i in range(n)]
    faces = [f for i in range(n - 1) for f in ((u[i], w[i], u[i + 1]),
                                               (u[i + 1], w[i], w[i + 1]))]
    return AbstractTriangulation(u + w, faces)


def reference_tables(vertices, faces):
    """String-keyed oracle of the name views of ``AbstractTriangulation``:
    the tables its constructor once built over frozensets of names, for
    valid input.  Returns ``edges``, ``face_set``, ``edge_faces`` (each value
    in face order), ``adjacency``, ``boundary_edges``, ``boundary_cycles``
    and ``link_cycles`` (interior vertices only)."""
    from acutesphere.triangulation import canonical_cycle

    faces = [tuple(str(v) for v in f) for f in faces]
    edge_faces = {}
    for f in faces:
        for u, v in itertools.combinations(f, 2):
            edge_faces.setdefault(frozenset((u, v)), []).append(frozenset(f))
    edge_faces = {e: tuple(fs) for e, fs in edge_faces.items()}
    adjacency = {str(v): set() for v in vertices}
    for e in edge_faces:
        u, v = tuple(e)
        adjacency[u].add(v)
        adjacency[v].add(u)
    boundary_edges = frozenset(e for e, fs in edge_faces.items() if len(fs) == 1)

    def walk(adj, start):
        out = [start]
        prev, cur = start, adj[start][0]
        while cur != start:
            out.append(cur)
            ns = adj[cur]
            if len(ns) == 1:
                break
            prev, cur = cur, (ns[1] if ns[0] == prev else ns[0])
        return out

    nbr = {}
    for e in boundary_edges:
        u, v = tuple(e)
        nbr.setdefault(u, []).append(v)
        nbr.setdefault(v, []).append(u)
    cycles, visited = [], set()
    for start in sorted(nbr):
        if start not in visited:
            cycle = walk(nbr, start)
            visited.update(cycle)
            cycles.append(canonical_cycle(cycle))
    links = {str(v): {} for v in vertices}
    for f in faces:
        for v in f:
            u, w = [x for x in f if x != v]
            links[v].setdefault(u, []).append(w)
            links[v].setdefault(w, []).append(u)
    link_cycles = {v: tuple(walk(link, next(iter(link)))) for v, link in links.items()
                   if all(len(ns) == 2 for ns in link.values())}
    return {"edges": frozenset(edge_faces), "face_set": frozenset(map(frozenset, faces)),
            "edge_faces": edge_faces,
            "adjacency": {v: frozenset(ns) for v, ns in adjacency.items()},
            "boundary_edges": boundary_edges, "boundary_cycles": tuple(sorted(cycles)),
            "link_cycles": link_cycles}


def reference_link_cycle(tri, v):
    """Face-scan oracle of ``AbstractTriangulation.link_cycle``: the link
    edges of ``v`` gathered from every face in face order, then walked from
    the first neighbour met."""
    nbr_edges = {}
    for f in tri.faces:
        if v in f:
            u, w = [x for x in f if x != v]
            nbr_edges.setdefault(u, []).append(w)
            nbr_edges.setdefault(w, []).append(u)
    start = next(iter(nbr_edges))
    cycle = [start]
    prev, cur = start, nbr_edges[start][0]
    while cur != start:
        cycle.append(cur)
        ns = nbr_edges[cur]
        prev, cur = cur, (ns[1] if ns[0] == prev else ns[0])
    return tuple(cycle)


def cycle_sides(tri, cycle):
    """Flood-fill oracle for the two-sided search: split the faces along an
    embedded cycle, then join the regions that meet a common boundary cycle.

    Removing the cycle's edges disconnects the dual (face-adjacency) graph
    into regions; at boundary vertices there may be more than two.  A hole
    joins every region holding one of its boundary edges off the cycle, as
    the cap closing it would, which leaves the cycle's two sides on the
    capped sphere.  A side that is a lone cap holds no face and is left
    out.  Returns a list of (faces, interior_vertices) pairs, in no
    particular order.
    """
    n = len(cycle)
    cut = {frozenset((cycle[i], cycle[(i + 1) % n])) for i in range(n)}
    for e in cut:
        if e not in tri.edges:
            raise ValidationError(f"not a cycle: missing edge {sorted(e)}")
    hole = {frozenset(e): i for i, b in enumerate(tri.boundary_cycles)
            for e in zip(b, b[1:] + b[:1])}
    unseen = set(tri.face_set)
    merged = []                              # (faces, holes) per joined region
    while unseen:
        f0 = next(iter(unseen))
        region = {f0}
        unseen.discard(f0)
        stack = [f0]
        while stack:
            f = stack.pop()
            for e in map(frozenset, itertools.combinations(tuple(f), 2)):
                if e in cut:
                    continue
                for g in tri.edge_faces[e]:
                    if g in unseen:
                        unseen.discard(g)
                        region.add(g)
                        stack.append(g)
        holes = {hole[e] for f in region for e in map(frozenset, itertools.combinations(
            tuple(f), 2)) if e in hole and e not in cut}
        for other in [m for m in merged if m[1] & holes]:
            merged.remove(other)
            region |= other[0]
            holes |= other[1]
        merged.append((region, holes))
    return [(region, tuple(sorted({v for f in region for v in f} - set(cycle))))
            for region, _ in merged]


def corner_angle(P, Q, R_) -> float:
    """Angle at P between the great-circle arcs P->Q and P->R_: the
    one-corner oracle of ``realization._all_corner_angles``."""
    P = np.asarray(P, float)
    tq = Q - np.dot(P, Q) * P
    tr = R_ - np.dot(P, R_) * P
    nq, nr = np.linalg.norm(tq), np.linalg.norm(tr)
    if nq < 1e-14 or nr < 1e-14:
        raise GeometryError("degenerate corner: coincident or antipodal points")
    return clamped_acos(float(np.clip(np.dot(tq, tr) / (nq * nr), -1.0, 1.0)))


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
    """Distance between two Klein points, through their lifts."""
    return math.acosh(max(1.0, -mdot(lift(p), lift(q))))


def cube_edge_lengths(cube):
    """Hyperbolic length of each edge of a slanted cube, keyed as CUBE_EDGES."""
    return {e: hyperbolic_distance(cube.vertices[e[0]], cube.vertices[e[1]])
            for e in CUBE_EDGES}


def plane_normal(n, d):
    """Unit spacelike Minkowski normal of the Klein plane {p . n = d},
    oriented so the positive side is {p . n > d}."""
    n = np.asarray(n, float)
    s = float(n @ n) - d * d
    if s <= 0.0:
        raise GeometryError("plane does not meet the ball")
    return np.concatenate(([d], n)) / math.sqrt(s)


# how far a reference cube's equatorial dihedrals may be off pi/2 and its
# link angles off the witness's
LINK_TOL = 1e-8


def reference_slanted_cube(witness):
    """The one-cube builder that ``klein.slanted_cubes`` batched, kept as its
    oracle: the feet along ``place_triangle(witness.R)``, each remaining
    vertex from its own solve, and every check of the cube, one cube at a
    time: the Klein ball, convexity, the six right equatorial dihedrals and
    both links against the witness."""
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


def cube_links(cube):
    """Measured links of a slanted cube at O and O': for each, the dihedral
    angles along its three edges and the face angles between them, ordered
    as (angle(Y, Z), angle(Z, X), angle(X, Y)), i.e. the link triangle's
    angles and opposite sides.  Each face angle is measured after boosting
    the vertex to the origin, where the Klein model shows Euclidean angles."""
    links = []
    for base, ends in (("O", ("X", "Y", "Z")), ("O'", ("X'", "Y'", "Z'"))):
        B = boost_to(-cube.vertices[base])
        moved = [B @ lift(cube.vertices[w]) for w in (base, *ends)]
        o, *t = (m[1:] / m[0] for m in moved)
        t = [p - o for p in t]
        sides = tuple(math.atan2(np.linalg.norm(np.cross(t[k - 2], t[k - 1])),
                                 t[k - 2] @ t[k - 1]) for k in range(3))
        links.append((tuple(cube.dihedrals[(base, w)] for w in ends), sides))
    return tuple(links)


def reference_solve_y_grid(curve, xs):
    """Bisection oracle of ``SigmaCurve.solve_y`` over an array of x values:
    60 halvings of [0, 1] on the sign of sigma, then two Newton steps."""
    xs = np.asarray(xs, float)
    lo = np.zeros_like(xs)
    hi = np.ones_like(xs)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        pos = curve(xs, mid) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    y = 0.5 * (lo + hi)
    for _ in range(2):
        d = curve._dy(xs, y)
        step = np.where(d != 0.0, curve(xs, y) / np.where(d == 0.0, 1.0, d), 0.0)
        y = np.clip(y - step, 0.0, 1.0)
    return y


def reference_solve_dual_sampled(R, T):
    """Sampled oracle of ``duality.solve_dual_general`` (R, T with the
    identity corner map): both sigma curves solved on a grid of step at
    most 1e-4 over the feasible interval, the root bracketed by the first sign
    change of the closing residual and refined there by ``brentq``."""
    from scipy.optimize import brentq

    from acutesphere.duality import (AbsenceCertificate, DualityWitness,
                                     DualSolveResult, SigmaCurve, _closing_slopes,
                                     _system_residuals, sigma)
    from acutesphere.spherical import CORNERS

    violations = [c for c in CORNERS
                  if R.angle(c) >= math.pi - T.side(c) or R.side(c) >= math.pi - T.angle(c)]
    if violations:
        return DualSolveResult(None, AbsenceCertificate(
            reason="necessary-condition", detail=f"violated at {violations}"))
    curve_xy, curve_zx = SigmaCurve(R.c, T.C), SigmaCurve(R.b, T.B)
    curve_yz = SigmaCurve(R.a, T.A)
    lo = max(curve_xy.x_domain()[0], curve_zx.x_domain()[0])
    hi = min(curve_xy.x_domain()[1], curve_zx.x_domain()[1])
    if not lo < hi:
        return DualSolveResult(None, AbsenceCertificate(
            reason="empty-interval", detail="", interval=(lo, hi)))
    xs = np.linspace(lo, hi, max(3, int(math.ceil((hi - lo) / 1e-4)) + 1))
    ys, zs = reference_solve_y_grid(curve_xy, xs), reference_solve_y_grid(curve_zx, xs)
    h = sigma(R.a, T.A, ys, zs)
    change = np.nonzero(np.diff(np.sign(h)) != 0)[0]
    if not change.size:
        return DualSolveResult(None, AbsenceCertificate(
            reason="sign-constant", detail="", interval=(lo, hi),
            grid_step=float(xs[1] - xs[0]), min_abs_residual=float(np.min(np.abs(h))),
            residual_sign=int(np.sign(h[0])),
            min_slope=float(np.min(_closing_slopes(curve_xy, curve_zx, curve_yz, xs, ys, zs)))))
    x0 = brentq(lambda x: curve_yz(curve_xy.solve_y(x), curve_zx.solve_y(x)),
                float(xs[change[0]]), float(xs[change[0] + 1]), xtol=1e-15, rtol=8.9e-16)
    y0, z0 = curve_xy.solve_y(x0), curve_zx.solve_y(x0)
    return DualSolveResult(DualityWitness(
        x=x0, y=y0, z=z0, R=R, target=T, corner_map=IDENTITY_MAP,
        residuals=_system_residuals(R, T, x0, y0, z0)), None)


def reference_solve_dual_22p(R, p, corner_map=IDENTITY_MAP):
    """The closed-form and one-root reduction of the (2, 2, p) system that
    ``duality.solve_dual_22p`` once ran, kept as the oracle of
    ``solve_dual_general`` on (p, 2, 2) targets: the witness, or None
    unless R is slimmer than the polar dual (a, A < pi - pi/p; B, C, b, c
    < pi/2).  For p = 2 the feet are ``allright_feet``; otherwise x y =
    cos c and z x = cos b leave one bracketed root in y."""
    from scipy.optimize import brentq

    from acutesphere.duality import (DualityWitness, SigmaCurve, _system_residuals,
                                     allright_feet)
    from acutesphere.spherical import triangle_pqr

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
        y0 = brentq(lambda yv: curve(yv, yv * cos_b / cos_c), cos_c, min(1.0, cos_c / cos_b),
                    xtol=1e-15, rtol=8.9e-16)
        x0, z0 = cos_c / y0, y0 * cos_b / cos_c
    return DualityWitness(x=x0, y=y0, z=z0, R=S, target=target, corner_map=corner_map,
                          residuals=_system_residuals(S, target, x0, y0, z0))


def reference_transport_pattern(B, pos, radii, fixed):
    """The per-vertex loop that ``pattern._transport_pattern`` batched, kept
    as its oracle: one ``B @ v`` per disk normal or ideal point."""
    new_pos = pos.copy()
    new_r = radii.copy()
    for i in range(len(pos)):
        if fixed[i] or radii[i] <= 0.0:
            out = B @ np.concatenate([[1.0], pos[i]])
            new_pos[i] = out[1:] / out[0]
        else:
            normal = np.concatenate([[math.cos(radii[i])], pos[i]]) / math.sin(radii[i])
            out = B @ normal
            n0, nvec = out[0], out[1:]
            nn = np.linalg.norm(nvec)
            if n0 <= 0.0 or nn <= 0.0:
                raise SolveError("normalization pushed a disk past a hemisphere")
            new_pos[i] = nvec / nn
            new_r[i] = math.atan2(1.0, float(n0))
    new_pos /= np.linalg.norm(new_pos, axis=1)[:, None]
    return new_pos, new_r


def reference_layout(faces, C, s, first):
    """The per-face centre placement that ``pattern._layout`` batched by
    generation, kept as its oracle: one ``put`` of scalar np.longdouble
    products and one ``np.cross`` per centre, in breadth-first face order."""
    _J = np.array([-1, 1, 1], dtype=np.longdouble)  # <a, b> = a @ (J b), cross J (a x b)
    C, s = C.astype(np.longdouble), s.astype(np.longdouble)
    c = np.zeros((len(C), 3), dtype=np.longdouble)

    def put(p, q, r, turn):
        # r from p, turned by the corner at p from q (turn 1: (p, q, r) cyclic)
        v = c[q] + (c[p] @ (_J * c[q])) * c[p]
        v /= np.sqrt(v @ (_J * v))
        root_q = np.sqrt(s[p] * s[q] + s[p] * s[r] + s[q] * s[r] + 2 * s[p] * s[q] * s[r])
        x = C[p] * C[r] * c[p] + (C[q] * C[r] * s[p] * v + turn * root_q * _J
                                  * np.cross(c[p], v)) / np.sqrt(s[p] + s[q] + s[p] * s[q])
        c[r] = x / np.sqrt(-(x @ (_J * x)))

    across = {}
    for k, f in enumerate(faces.tolist()):
        for i in range(3):
            across.setdefault(frozenset((f[i], f[i - 1])), []).append(k)
    x, y, z = faces[first]
    c[x], c[y] = (1, 0, 0), (C[x] * C[y], np.sqrt(s[x] + s[y] + s[x] * s[y]), 0)
    put(x, y, z, 1)
    seen, queue = {first}, collections.deque([first])
    while queue:
        f = faces[queue.popleft()].tolist()
        for k in range(3):
            p, q = f[k - 2], f[k - 1]           # (p, q, f[k]) in cyclic order
            if c[f[k], 0] == 0:
                put(*((q, p, f[k], -1) if c[q, 0] < c[p, 0] else (p, q, f[k], 1)))
            for g in across[frozenset((p, q))]:
                if g not in seen:
                    seen.add(g)
                    queue.append(g)
    return c


def reference_moebius_normalize(pos, radii, fixed):
    """The root-find that ``pattern.moebius_normalize`` replaced, kept as its
    oracle: scipy ``least_squares`` on the transported center sum over one
    pure boost, parametrized through w -> tanh|w| w/|w| to stay in the ball."""
    from scipy.optimize import least_squares

    from acutesphere.pattern import _to_ball, _transport_pattern

    def fun(w):
        try:
            newp, _ = _transport_pattern(boost_to(_to_ball(w)), pos, radii, fixed)
        except SolveError:
            return np.full(3, 1e3) * (1.0 + np.linalg.norm(w))
        return newp.sum(axis=0)

    res = least_squares(fun, np.zeros(3), xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return _transport_pattern(boost_to(_to_ball(res.x)), pos, radii, fixed)


def reference_smoothed_max_angle(flat, corner_idx, sharpness):
    """``realization._smoothed_max_angle`` with its gradient scattered by
    three ``np.add.at`` calls, one per corner role (a, b, c)."""
    from acutesphere.realization import _corner_terms
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
    k = np.where(live, -e / (total * sin), 0.0)
    ds = k / (nb * nc)
    dp = k * cosang * p / (nb * nb) - ds * q
    dq = k * cosang * q / (nc * nc) - ds * p
    a, b, c = corner_idx
    A, B, C = u[a], u[b], u[c]
    g = np.zeros_like(u)
    np.add.at(g, a, dp[:, None] * B + dq[:, None] * C)
    np.add.at(g, b, dp[:, None] * A + ds[:, None] * C)
    np.add.at(g, c, dq[:, None] * A + ds[:, None] * B)
    g -= np.einsum("ij,ij->i", g, u)[:, None] * u
    return value, (g / norms[:, None]).ravel()


def stereographic(p, viewpoint, frame):
    """Plane coordinates of the unit vector p projected from ``viewpoint``."""
    e1, e2 = frame
    denom = 1.0 - float(np.dot(p, viewpoint))
    if denom < 1e-12:
        raise ValidationError("stereographic projection hit the viewpoint")
    q = (p - float(np.dot(p, viewpoint)) * viewpoint) / denom
    return np.array([float(np.dot(q, e1)), float(np.dot(q, e2))])


def reference_euclidean_circle(center, rho, viewpoint, frame):
    """Three-point oracle of ``realization._euclidean_circles``: project
    three points of the spherical circle and circumscribe them."""
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
        pts2d.append(stereographic(p, viewpoint, frame))
    (x1, y1), (x2, y2), (x3, y3) = pts2d
    a = np.array([[2 * (x2 - x1), 2 * (y2 - y1)], [2 * (x3 - x1), 2 * (y3 - y1)]])
    b = np.array([x2 ** 2 - x1 ** 2 + y2 ** 2 - y1 ** 2,
                  x3 ** 2 - x1 ** 2 + y3 ** 2 - y1 ** 2])
    cx, cy = np.linalg.solve(a, b)
    return np.array([cx, cy]), math.hypot(x1 - cx, y1 - cy)


def euclidean_orthogonality_residual(eu):
    """Worst relative residual of d^2 = r_u^2 + r_v^2 over the edges of a
    planar pattern (``realization.EuclideanRealization``)."""
    worst = 0.0
    for e in eu.parent.edges:
        u, v = tuple(e)
        d2 = float(np.sum((eu.centers[u] - eu.centers[v]) ** 2))
        target = eu.radii[u] ** 2 + eu.radii[v] ** 2
        worst = max(worst, abs(d2 - target) / target)
    return worst


def euclidean_corner_angles(eu):
    """(face, vertex, angle) over the corners of a planar pattern's centres."""
    out = []
    for f in eu.parent.faces:
        pts = [eu.centers[v] for v in f]
        for i, v in enumerate(f):
            a = pts[(i + 1) % 3] - pts[i]
            b = pts[(i + 2) % 3] - pts[i]
            cross = float(a[0] * b[1] - a[1] * b[0])
            out.append((f, v, math.atan2(abs(cross), float(np.dot(a, b)))))
    return out


def euclidean_perpendicular_ratio_deviation(eu):
    """Worst deviation of the foot of each perpendicular of a planar
    pattern from the r^2-weighted split of the opposite edge (feet from both
    sides of an interior edge coincide at that point)."""
    worst = 0.0
    for e, fs in eu.parent.edge_faces.items():
        u, v = tuple(e)
        pu, pv = eu.centers[u], eu.centers[v]
        denom = float(np.sum((pv - pu) ** 2))
        expected = eu.radii[u] ** 2 / (eu.radii[u] ** 2 + eu.radii[v] ** 2)
        for f in fs:
            w = next(x for x in f if x not in e)
            t = float(np.dot(eu.centers[w] - pu, pv - pu)) / denom
            worst = max(worst, abs(t - expected))
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
