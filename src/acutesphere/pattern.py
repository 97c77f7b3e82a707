"""Orthogonal circle-pattern solver on the unit sphere.

A pattern assigns each vertex a spherical disk (center on S^2, radius in
(0, pi/2), or radius 0 for designated ideal vertices) so that disks of
adjacent vertices intersect orthogonally: cos d(x_u, x_v) = cos r_u cos r_v.
Such a pattern is the unique solution of a strictly convex problem (Colin
de Verdiere 1991; Chow-Luo 2003), so one Newton solve finds it, with no
starts to choose and no randomness.  With a pole vertex's disk sent to a
hemisphere, the other hemisphere is a hyperbolic plane in which the pole's
link vertices are geodesics and the others circles; Newton steps on their
angle sums in u = log tanh(R/2) give the radii, a layout of the centres in
extended precision gives the pattern, and a Moebius map fixes the gauge
where the disk centers sum to zero (Newton steps with a closed-form 3x3
Jacobian).  numpy only.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, SolveError, ValidationError
from .klein import boost_to
from .triangulation import AbstractTriangulation


@dataclass
class PatternSolution:
    positions: np.ndarray      # (V, 3) unit rows
    radii: np.ndarray          # (V,), zero at ideal vertices
    residual: float            # max |edge residual|
    iterations: int            # Newton steps of the angle-sum solve
    pole: object               # vertex whose disk became a hemisphere
    angle_residual: float      # max |angle-sum error| where the Newton steps stopped
    normalization_residual: float  # max |sum of centers| the gauge reached
    normalization_steps: int       # Newton steps the gauge took


# -- initialization ----------------------------------------------------------


def tutte_layout(tri: AbstractTriangulation, pinned: dict, removed=None) -> dict:
    """Plane positions of the vertices neither in ``pinned`` (vertex -> xy)
    nor ``removed``: each the mean of its neighbours other than ``removed``,
    from one solve of the graph Laplacian.  Each vertex adds its pinned
    neighbours in name order, so the sums do not depend on set order."""
    inner = [v for v in tri.vertices if v != removed and v not in pinned]
    if not inner:
        return {}
    pos_of = {v: i for i, v in enumerate(inner)}
    L = np.zeros((len(inner), len(inner)))
    b = np.zeros((len(inner), 2))
    names = tri._names
    for i, v in enumerate(inner):
        nbrs = [names[u] for u in sorted(tri._nbrs[tri._id[v]]) if names[u] != removed]
        L[i, i] = len(nbrs)
        for u in nbrs:
            if u in pos_of:
                L[i, pos_of[u]] -= 1.0
            else:
                b[i] += pinned[u]
    return dict(zip(inner, np.linalg.solve(L, b)))


def tutte_sphere_init(tri: AbstractTriangulation, pole_vertex, rng) -> np.ndarray:
    """Embedded starting positions: Tutte layout of the graph minus one
    vertex, pinned on its link circle, lifted by inverse stereographic
    projection with the removed vertex at the north pole."""
    idx = {v: i for i, v in enumerate(tri.vertices)}
    ring = tri.link_cycle(pole_vertex)
    pinned = {w: (math.cos(2 * math.pi * k / len(ring)),
                  math.sin(2 * math.pi * k / len(ring)))
              for k, w in enumerate(ring)}
    plane = np.zeros((len(tri.vertices), 2))
    for v, p in {**tutte_layout(tri, pinned, pole_vertex), **pinned}.items():
        plane[idx[v]] = p

    norms = np.linalg.norm(plane, axis=1)
    scale = 1.0 / max(1e-9, np.median(norms[norms > 1e-12]))
    plane = plane * scale
    d2 = np.einsum("ij,ij->i", plane, plane)
    pos = np.column_stack([2 * plane[:, 0], 2 * plane[:, 1], d2 - 1.0]) / (d2 + 1.0)[:, None]
    pos[idx[pole_vertex]] = (0.0, 0.0, 1.0)
    pos += 1e-3 * rng.standard_normal(pos.shape)
    pos /= np.linalg.norm(pos, axis=1)[:, None]
    return pos


# -- Moebius normalization ---------------------------------------------------


def _transport_pattern(B, pos, radii, fixed):
    """Move a whole pattern by the Minkowski transformation B, in one array
    pass: a disk (x, r) is its plane normal (cos r, x) / sin r, an ideal
    vertex (fixed, or radius 0) the lightlike point (1, x), and
    ``_read_normals`` reads the images back.  Orthogonality is
    Moebius-invariant, so residuals survive up to roundoff.  Each step
    rounds as the per-vertex ``B @ v`` would (einsum's row products,
    sqrt(vecdot) for the norms, math.atan2 per disk)."""
    ideal = fixed | (radii <= 0.0)
    disk = ~ideal
    normals = np.column_stack([np.cos(radii), pos])
    normals[ideal, 0] = 1.0
    normals[disk] /= np.sin(radii[disk])[:, None]
    return _read_normals(np.einsum("ij,nj->ni", B, normals), ideal, radii)


def _read_normals(out, ideal, radii):
    """The pattern of the normals ``out``: a disk x = n[1:] / |n[1:]|,
    r = atan2(1, n[0]), an ideal vertex x = n[1:] / n[0] keeping its entry
    of ``radii``; a disk past a hemisphere (n[0] <= 0) raises SolveError."""
    disk = ~ideal
    n0, nvec = out[disk, 0], out[disk, 1:]
    nn = np.sqrt(np.vecdot(nvec, nvec))
    if np.any((n0 <= 0.0) | (nn <= 0.0)):
        raise SolveError("a disk reached past a hemisphere")
    new_pos = out[:, 1:].copy()
    new_pos[ideal] /= out[ideal, :1]
    new_pos[disk] = nvec / nn[:, None]
    new_r = radii.copy()
    new_r[disk] = [math.atan2(1.0, x) for x in n0]
    new_pos /= np.linalg.norm(new_pos, axis=1)[:, None]
    return new_pos, new_r


def _to_ball(w):
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        return w
    return w * (math.tanh(nw) / nw)


NORMALIZE_MAX_STEPS = 30      # Newton steps of the Moebius gauge
NORMALIZE_MAX_HALVINGS = 20   # halvings of one step before the gauge gives up
NORMALIZE_TOL = 1e-12         # bound on max |sum of centers| per vertex


def moebius_normalize(pos: np.ndarray, radii: np.ndarray, fixed: np.ndarray):
    """Normalize a pattern to the gauge where the disk centers sum to zero.

    Newton steps on the center sum S, whose Jacobian under a boost of small
    rapidity d is J = sum_v cos r_v (I - x_v x_v^T) (r = 0 at ideal vertices):
    each boosts the current pattern by ``_to_ball(d)`` for J d = -S.  While
    max |S| is above ``NORMALIZE_TOL * V``, d is halved until the boost keeps
    every disk inside a hemisphere and shrinks max |S|; below it, the steps
    go on until max |S| stops shrinking.  Returns positions, radii, max |S|
    and the steps taken; raises SolveError if J is singular, no halving
    finds a step, or the steps run out above the bound.
    """
    tol = NORMALIZE_TOL * len(radii)
    res, steps = float(np.max(np.abs(pos.sum(axis=0)))), 0
    while res > 0.0 and steps < NORMALIZE_MAX_STEPS:
        w = np.where(fixed | (radii <= 0.0), 1.0, np.cos(radii))
        J = w.sum() * np.eye(3) - np.einsum("n,ni,nj->ij", w, pos, pos)
        try:
            d = np.linalg.solve(J, -pos.sum(axis=0))
        except np.linalg.LinAlgError:
            raise SolveError("normalization Jacobian is singular (centers on one axis)") from None
        for _ in range(NORMALIZE_MAX_HALVINGS):
            try:
                new_pos, new_r = _transport_pattern(boost_to(_to_ball(d)), pos, radii, fixed)
                new_res = float(np.max(np.abs(new_pos.sum(axis=0))))
                if new_res < res or res <= tol:
                    break
            except (SolveError, GeometryError):
                pass
            d = d / 2.0
        else:
            raise SolveError(f"normalization found no step in {NORMALIZE_MAX_HALVINGS} halvings "
                             "that keeps every disk in a hemisphere and shrinks the center sum")
        if not new_res < res:
            break
        pos, radii, res, steps = new_pos, new_r, new_res, steps + 1
    if res > tol:
        raise SolveError(f"normalization stopped at max |sum of centers| {res:.3e} "
                         f"after {steps} steps")
    return pos, radii, res, steps


# -- the convex solve --------------------------------------------------------


ANGLE_TOL = 1e-12          # max |angle-sum error| below which the Newton steps may stop
NEWTON_MAX_STEPS = 100     # Newton steps of the angle-sum solve
NEWTON_MAX_HALVINGS = 40   # halvings of one step above ANGLE_TOL before the solve gives up


def _hyperbolic_corners(C, s, faces):
    """Corner angles (m, 3) of the triangles of centres of pairwise
    orthogonal circles (cosh R = C, sinh(R)^2 = s) on the rows of ``faces``,
    and the partials (m, 9) d alpha_i / d u_j, u = log tanh(R/2), of each.
    The corner at x of (x, y, z) is atan2(sqrt(Q), C_y C_z s_x), with
    Q = s_x s_y + s_x s_z + s_y s_z + 2 s_x s_y s_z; a point (s = 0, a hub)
    has a right angle.  With E_xy = sinh(d_xy)^2 = s_x + s_y + s_x s_y,
    d alpha_x / d u_y = C_z s_x s_y / (sqrt(Q) E_xy) and
    d alpha_x / d u_x = -C_x C_y C_z s_x (Q + s_y s_z) / (sqrt(Q) E_xy E_xz)."""
    a, c = s[faces], C[faces]
    b, d = a[:, [1, 2, 0]], a[:, [2, 0, 1]]        # s at the next and previous corner
    q = (a * b).sum(axis=1) + 2.0 * a.prod(axis=1)
    p = np.sqrt(q)[:, None]
    angles = np.arctan2(np.broadcast_to(p, a.shape), c[:, [1, 2, 0]] * c[:, [2, 0, 1]] * a)
    e = a + b + a * b                                # E of corners k and k + 1
    off = c[:, [2, 0, 1]] * a * b / (p * e)          # d alpha_k / d u_k+1
    diag = -c.prod(axis=1)[:, None] * a * (q[:, None] + b * d) / (p * e * e[:, [2, 0, 1]])
    return angles, np.column_stack([diag[:, 0], off[:, 0], off[:, 2], off[:, 0], diag[:, 1],
                                    off[:, 1], off[:, 2], off[:, 1], diag[:, 2]])


def _angle_sums(u, faces, var):
    """cosh R and sinh(R)^2 per vertex, from u = log tanh(R/2) of the circles
    with ``var`` >= 0 (the others are points), their angle sums over
    ``faces`` and the Newton matrix d sum_x / d u_y, the faces' partials
    summed by one bincount."""
    n, free, idx = len(u), var >= 0, var[faces]
    C, s = np.ones(len(var)), np.zeros(len(var))
    m = -np.expm1(2.0 * u)                     # with t = e^u, m = 1 - t^2
    C[free], s[free] = 2.0 / m - 1.0, (2.0 * np.exp(u) / m) ** 2
    angles, parts = _hyperbolic_corners(C, s, faces)
    rows, cols = idx[:, [0, 0, 0, 1, 1, 1, 2, 2, 2]], idx[:, [0, 1, 2] * 3]
    live = (rows >= 0) & (cols >= 0)
    H = np.bincount(rows[live] * n + cols[live], parts[live], minlength=n * n)
    return C, s, np.bincount(idx[idx >= 0], angles[idx >= 0], minlength=n), H.reshape(n, n)


def _solve_radii(faces, var, target):
    """``_angle_sums``' cosh R and sinh(R)^2 at the angle sums ``target``,
    the Newton steps taken and the final max |error|.  A step is halved
    until max |error| shrinks; at or below ``ANGLE_TOL`` it is not, and the
    steps stop once max |error| does not shrink."""
    u = np.full(int(var.max()) + 1, -1.0)     # R about 0.77
    C, s, sums, H = _angle_sums(u, faces, var)
    err, steps = float(np.max(np.abs(sums - target))), 0
    while steps < NEWTON_MAX_STEPS:
        try:
            step = np.linalg.solve(H, target - sums)
        except np.linalg.LinAlgError:
            raise SolveError("singular Newton matrix of the angle sums") from None
        new_err = math.inf
        for _ in range(NEWTON_MAX_HALVINGS):
            if (u + step).max() < 0.0:
                trial = _angle_sums(u + step, faces, var)
                new_err = float(np.max(np.abs(trial[2] - target)))
            if new_err < err or err <= ANGLE_TOL:
                break
            step = step / 2.0
        if not new_err < err:
            break
        u, (C, s, sums, H), err, steps = u + step, trial, new_err, steps + 1
    if err > ANGLE_TOL:
        raise SolveError(f"angle sums stopped at max error {err:.3e} after {steps} Newton "
                         "steps", best_residual=err)
    return C, s, steps, err


def _placements(faces, first, n):
    """The order of ``_layout``, found without any geometry: a breadth-first
    search of the faces from face ``first`` places each vertex from the
    first face that reaches it, off that face's other two vertices (p, q),
    with (p, q, r) in cyclic order.  Returns the rows (p, q, r), the first
    face's third vertex first, grouped by generation: the first face's
    first two vertices are generation 0, and r is one more than the later
    of p and q."""
    rows = faces.tolist()
    across = {}
    for k, (a, b, c) in enumerate(rows):
        for e in ((a, b), (b, c), (c, a)):
            across.setdefault(e if e[0] < e[1] else e[::-1], []).append(k)
    gen = [-1] * n
    x, y, z = rows[first]
    gen[x] = gen[y] = 0
    gen[z] = 1
    steps = [(x, y, z)]
    seen, queue = {first}, deque([first])
    while queue:
        f = rows[queue.popleft()]
        for k in range(3):
            p, q, r = f[k - 2], f[k - 1], f[k]
            if gen[r] < 0:
                gen[r] = 1 + max(gen[p], gen[q])
                steps.append((p, q, r))
            for g in across[(p, q) if p < q else (q, p)]:
                if g not in seen:
                    seen.add(g)
                    queue.append(g)
    steps = np.array(steps)
    level = np.array(gen)[steps[:, 2]]
    order = np.argsort(level, kind="stable")
    return np.split(steps[order], np.flatnonzero(np.diff(level[order])) + 1)


def _layout(faces, C, s, first):
    """Centres on the hyperboloid H^2, in np.longdouble, of the vertices on
    ``faces`` (oriented rows; other rows 0): face ``first``'s first vertex
    at the origin (1, 0, 0), then in the order of ``_placements``, each
    turned off the placed edge at the corner of the end nearer it.  One
    array pass places a whole generation, with every product written out
    by component in the order of the per-face placement, so the centres
    are the same to the bit."""
    C, s = C.astype(np.longdouble), s.astype(np.longdouble)
    c = np.zeros((len(C), 3), dtype=np.longdouble)
    x, y = faces[first, :2]
    # c[y, 0] = C_x C_y >= 1 = c[x, 0], so the first face turns from x
    c[x], c[y] = (1, 0, 0), (C[x] * C[y], np.sqrt(s[x] + s[y] + s[x] * s[y]), 0)
    for p, q, r in (g.T for g in _placements(faces, first, len(C))):
        # in R^{1,2}, <a, b> = -a0 b0 + a1 b1 + a2 b2 and the cross
        # product is J (a x b), J = diag(-1, 1, 1); r is turned off the
        # edge's end nearer the origin: from p by the corner at p, or from
        # q by the same angle the other way
        near = c[q, 0] < c[p, 0]
        p, q = np.where(near, q, p), np.where(near, p, q)
        (a0, a1, a2), (b0, b1, b2) = c[p].T, c[q].T
        ab = -a0 * b0 + a1 * b1 + a2 * b2
        v0, v1, v2 = b0 + ab * a0, b1 + ab * a1, b2 + ab * a2
        norm = np.sqrt(-v0 * v0 + v1 * v1 + v2 * v2)
        v0, v1, v2 = v0 / norm, v1 / norm, v2 / norm
        # cosh d_pr = C_p C_r; sinh d_pr (cos, sin) of the corner is
        # (C_q C_r s_p, sqrt(Q)) / sinh d_pq (``_hyperbolic_corners``)
        sp, sq, sr = s[p], s[q], s[r]
        root_q = np.sqrt(sp * sq + sp * sr + sq * sr + 2 * sp * sq * sr)
        turn_root = np.where(near, -root_q, root_q)
        cosh_pr, along = C[p] * C[r], C[q] * C[r] * sp
        sinh_pq = np.sqrt(sp + sq + sp * sq)
        x0 = cosh_pr * a0 + (along * v0 - turn_root * (a1 * v2 - a2 * v1)) / sinh_pq
        x1 = cosh_pr * a1 + (along * v1 + turn_root * (a2 * v0 - a0 * v2)) / sinh_pq
        x2 = cosh_pr * a2 + (along * v2 + turn_root * (a0 * v1 - a1 * v0)) / sinh_pq
        norm = np.sqrt(-(-x0 * x0 + x1 * x1 + x2 * x2))
        c[r] = np.column_stack([x0 / norm, x1 / norm, x2 / norm])
    return c


def _next_to(mask, i, j):
    """The vertices with a neighbour in ``mask``, over the edges (i, j)."""
    out = np.zeros(len(mask), dtype=bool)
    out[j[mask[i]]] = out[i[mask[j]]] = True
    return out


def _framed_pattern(tri: AbstractTriangulation, fixed_zero=()):
    """The pattern of ``solve_pattern`` before its gauge: positions, radii
    and hub mask (rows in ``tri.vertices`` order), the pole, the Newton
    steps and the final max |angle-sum error|.  Works on vertex ids."""
    nv = len(tri.vertices)
    i, j = np.array(list(tri._edge_faces)).reshape(-1, 2).T
    hub = np.zeros(nv, dtype=bool)
    hub[[tri._id[v] for v in fixed_zero]] = True
    allowed = np.flatnonzero(~hub & ~_next_to(hub, i, j))
    if not allowed.size:
        raise SolveError("no pole: every vertex is a hub or next to one")
    # the first vertex of maximum degree
    pole = int(allowed[np.argmax(np.bincount(np.concatenate([i, j]))[allowed])])
    link, star = np.zeros(nv, bool), np.zeros(nv, bool)
    link[tri._nbrs[pole]] = star[tri._nbrs[pole] + [pole]] = True
    on_link = np.bincount(np.concatenate([j[link[i]], i[link[j]]]), minlength=nv)
    free = ~star & ~hub
    if np.any(on_link[free] > 2):
        raise SolveError("a vertex has more than two neighbours in the pole's link")
    faces = np.array(tri._oriented_ids())
    faces = faces[~star[faces].any(axis=1)]
    var = np.where(free, np.cumsum(free) - 1, -1)
    target = np.array([2 * math.pi, math.pi, math.pi / 2])[on_link[free]]
    C, s, steps, err = _solve_radii(faces, var, target)

    depth, frontier = np.where(star, 0, -1), link
    while frontier.any():                       # breadth-first from the link
        frontier = _next_to(frontier, i, j) & (depth < 0)
        depth[frontier] = depth.max() + 1
    centres = _layout(faces, C, s, int(np.argmax(depth[faces].min(axis=1))))
    placed = centres[:, 0] > 0
    if not placed[~star].all():
        raise SolveError("the faces away from the pole's star are not connected")

    normals = np.zeros((nv, 4), dtype=np.longdouble)
    sinh = np.sqrt(s[free].astype(np.longdouble))[:, None]
    normals[free] = np.column_stack([centres[free], -C[free]]) / sinh
    normals[hub, :3], normals[hub, 3] = centres[hub], -1
    # each link vertex w: the geodesic through the centres of the two ends
    # of the path of w's link away from the pole, J (a x b) / |a x b|,
    # facing away from the centres' sum
    ends = []
    for w in np.flatnonzero(link).tolist():
        ring = tri._link_cycles[w]
        k = ring.index(pole)
        ends.append((ring[k - 2], ring[(k + 2) % len(ring)]))
    (a0, a1, a2), (b0, b1, b2) = centres[np.array(ends)].transpose(1, 2, 0)
    g0, g1, g2 = -(a1 * b2 - a2 * b1), a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    norm = np.sqrt(-g0 * g0 + g1 * g1 + g2 * g2)
    g0, g1, g2 = g0 / norm, g1 / norm, g2 / norm
    m0, m1, m2 = centres[placed].sum(axis=0)
    facing = np.where(-m0 * g0 + m1 * g1 + m2 * g2 > 0, -1, 1)
    normals[link, :3] = np.column_stack([g0, g1, g2]) * facing[:, None]
    normals[pole, 3] = 1
    total = normals.sum(axis=0)
    if not total[0] > np.sqrt(total[1:] @ total[1:]):
        raise SolveError("the lifted normals do not sum to a future timelike vector")
    frame = boost_to(-(total[1:] / total[0]).astype(float)).astype(np.longdouble)
    pos, r = _read_normals(np.einsum("ij,nj->ni", frame, normals).astype(float), hub,
                           np.zeros(nv))
    back = np.argsort(tri._position)
    return pos[back], r[back], hub[back], tri._names[pole], steps, err


def _edge_index_arrays(tri: AbstractTriangulation):
    """Index arrays (i, j) of the edges' ends, as positions in ``tri.vertices``."""
    at = np.asarray(tri._position)
    return at[np.array(list(tri._edge_faces)).reshape(-1, 2)].T


def _edge_residuals(pos, r, u, v):
    """cos d(x_u, x_v) - cos r_u cos r_v over the edges (u, v) of unit rows."""
    return np.vecdot(pos[u], pos[v]) - np.cos(r[u]) * np.cos(r[v])


def solve_pattern(tri: AbstractTriangulation, fixed_zero=(), tol: float = 1e-11):
    """Solve the orthogonal circle pattern of a closed flag triangulation.

    The pole, the first vertex of maximum degree that is neither a hub (of
    ``fixed_zero``, radius 0) nor next to one, gets a hemisphere.  In the
    other, a hyperbolic plane, its link vertices are geodesics, the hubs
    points, and the other vertices circles, of angle sum 2 pi, pi or pi/2
    over the faces off its closed star with 0, 1 or 2 link neighbours.  The
    lift to R^{1,3} takes a circle to (c, -cosh R) / sinh R, a hub to
    (c, -1), a link geodesic to (n, 0), n facing away from the centres, and
    the pole to (0, 0, 0, 1); a boost takes the normals' sum to the time
    axis, and ``moebius_normalize`` fixes the gauge.  Raises SolveError when
    a step fails or the edge residual is above ``tol``, and ValidationError
    when ``tol`` is not a finite number >= 0 (NaN would let every residual
    pass).
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tol must be a finite number >= 0, not {tol!r}")
    pos, r, hub, pole, steps, err = _framed_pattern(tri, fixed_zero)
    pos, r, norm_res, norm_steps = moebius_normalize(pos, r, hub)
    resid = float(np.max(np.abs(_edge_residuals(pos, r, *_edge_index_arrays(tri)))))
    if resid > tol:
        raise SolveError(f"circle pattern residual {resid:.3e} above {tol:.1e}; "
                         "this is not a proof of nonexistence", best_residual=resid)
    return PatternSolution(positions=pos, radii=r, residual=resid, iterations=steps,
                           pole=pole, angle_residual=err,
                           normalization_residual=norm_res, normalization_steps=norm_steps)
