"""Orthogonal circle-pattern solver on the unit sphere.

A pattern assigns each vertex a spherical disk (center on S^2, radius in
(0, pi/2), or radius 0 for designated ideal vertices) so that disks of
adjacent vertices intersect orthogonally: cos d(x_u, x_v) = cos r_u cos r_v.
The solver is a Levenberg-Marquardt loop over the stacked residuals (edge
equations plus unit-norm equations) whose normal equations are summed from
the Jacobian's nonzeros in row order; values may thus differ in their last
digits from a BLAS ``J.T @ J`` solve's, verdicts do not.  Damping uses a
scalar multiple of the identity, so the iteration commutes with rotations
of the initialization; all randomness is drawn from an explicit seed.  The
Moebius gauge comes from Newton steps with a closed-form 3x3 Jacobian
(numpy only).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, SolveError
from .klein import boost_to
from .triangulation import AbstractTriangulation


@dataclass
class PatternSolution:
    positions: np.ndarray      # (V, 3) unit rows
    radii: np.ndarray          # (V,), zero at ideal vertices
    residual: float            # max |edge residual|
    iterations: int
    pole: object               # Tutte pole vertex of the start that succeeded
    starts: int                # starts tried, that one included
    normalization_residual: float  # max |sum of centers| the gauge reached, before re-polish
    normalization_steps: int       # Newton steps the gauge took


# record of one start of the multi-start solve (reason: why it was rejected)
SolveAttempt = namedtuple("SolveAttempt", "pole residual iterations reason")


class PatternProblem:
    """Residuals and normal equations of a pattern for one triangulation.

    ``fixed_zero`` lists vertices whose radius is pinned at 0 (wheel hubs /
    ideal vertices); they contribute edge equations but no radius variable.
    """

    def __init__(self, tri: AbstractTriangulation, fixed_zero=()):
        self.index = {v: i for i, v in enumerate(tri.vertices)}
        self.nv = len(tri.vertices)
        # rows sorted by the positions of their ends in tri.vertices
        at = tri._position
        self.edges = np.array(sorted((at[u], at[v]) if at[u] < at[v] else (at[v], at[u])
                                     for u, v in tri._edge_faces))
        self.fixed = np.zeros(self.nv, dtype=bool)
        for v in fixed_zero:
            self.fixed[self.index[v]] = True
        self.free_r = np.nonzero(~self.fixed)[0]
        self.r_col = np.full(self.nv, -1)
        self.r_col[self.free_r] = 3 * self.nv + np.arange(len(self.free_r))
        self.nvar = 3 * self.nv + len(self.free_r)
        self.nres = len(self.edges) + self.nv
        # nonzero columns of each Jacobian row, -1 padded to 8 slots: an edge
        # row's pos_u and pos_v blocks and its ends' radius columns (-1 at a
        # pinned hub), then each unit-norm row's position block
        eu, ev = self.edges.T
        xyz = np.arange(3)
        cols = np.full((self.nres, 8), -1)
        cols[:len(eu)] = np.column_stack([3 * eu[:, None] + xyz, 3 * ev[:, None] + xyz,
                                          self.r_col[eu], self.r_col[ev]])
        cols[len(eu):, :3] = 3 * np.arange(self.nv)[:, None] + xyz
        nonzero = cols >= 0
        self._slots, self._cols = np.flatnonzero(nonzero), cols[nonzero]
        # J^T J adds J[k, a] J[k, b] at (a, b) for every two nonzeros of row
        # k, k ascending as in a row-by-row product
        k, a, b = np.nonzero(nonzero[:, :, None] & nonzero[:, None, :])
        self._pair_a, self._pair_b = 8 * k + a, 8 * k + b
        self._pair_at = cols[k, a] * self.nvar + cols[k, b]

    def unpack(self, theta):
        pos = theta[:3 * self.nv].reshape(self.nv, 3)
        r = np.zeros(self.nv)
        r[self.free_r] = theta[3 * self.nv:]
        return pos, r

    def pack(self, pos, r):
        return np.concatenate([pos.ravel(), r[self.free_r]])

    def residuals(self, theta):
        pos, r = self.unpack(theta)
        eu, ev = self.edges[:, 0], self.edges[:, 1]
        re = np.einsum("ij,ij->i", pos[eu], pos[ev]) - np.cos(r[eu]) * np.cos(r[ev])
        rn = np.einsum("ij,ij->i", pos, pos) - 1.0
        return np.concatenate([re, rn])

    def normal_equations(self, theta, res):
        """J^T J and J^T res from the nonzeros of J at ``theta``, each entry
        summed by ``np.bincount`` over J's rows in order (edges, then norms)
        as a row-by-row product would; edge rows hold (pos_v, pos_u,
        sin r_u cos r_v, cos r_u sin r_v), norm rows 2 pos."""
        pos, r = self.unpack(theta)
        sin, cos = np.sin(r), np.cos(r)
        eu, ev = self.edges.T
        J = np.zeros((self.nres, 8))
        J[:len(eu)] = np.column_stack([pos[ev], pos[eu], sin[eu] * cos[ev], cos[eu] * sin[ev]])
        J[len(eu):, :3] = 2.0 * pos
        J, n = J.ravel(), self.nvar
        A = np.bincount(self._pair_at, J[self._pair_a] * J[self._pair_b], minlength=n * n)
        g = np.bincount(self._cols, J[self._slots] * res[self._slots // 8], minlength=n)
        return A.reshape(n, n), g


def levenberg_marquardt(problem, theta0, tol=1e-13, max_iter=400):
    """Damped Gauss-Newton with scalar (rotation-equivariant) damping: each
    try solves (J^T J + lam trace(J^T J)/n I) delta = -J^T r densely, the
    damped diagonal written in place over J^T J's saved one."""
    theta = theta0.copy()
    r = problem.residuals(theta)
    cost = float(r @ r)
    lam = 1e-3
    iters = 0
    for iters in range(1, max_iter + 1):
        if np.max(np.abs(r)) < tol:
            break
        A, g = problem.normal_equations(theta, r)
        n = len(g)
        scale = max(np.trace(A) / n, 1e-30)
        diag = A.diagonal().copy()
        accepted = False
        for _ in range(60):
            A.flat[::n + 1] = diag + lam * scale
            try:
                delta = np.linalg.solve(A, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = theta + delta
            rt = problem.residuals(trial)
            ct = float(rt @ rt)
            if ct < cost:
                theta, r, cost = trial, rt, ct
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                break
            lam *= 3.0
            if lam > 1e14:
                break
        if not accepted:
            break
    return theta, float(np.max(np.abs(r))), iters


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


def initial_radii(problem: PatternProblem, pos: np.ndarray) -> np.ndarray:
    eu, ev = problem.edges.T
    d = [math.acos(c) for c in np.clip(np.vecdot(pos[eu], pos[ev]), -1.0, 1.0)]
    # bincount adds in input order, so each vertex sums its edges as a loop would
    ends = problem.edges.ravel()
    acc = np.bincount(ends, np.repeat(d, 2), minlength=problem.nv)
    cnt = np.bincount(ends, minlength=problem.nv)
    mean = acc / np.maximum(cnt, 1)
    r = np.arccos(np.sqrt(np.clip(np.cos(mean), 0.05, 1.0)))
    r = np.clip(r, 0.05, 1.4)
    r[problem.fixed] = 0.0
    return r


# -- Moebius normalization ---------------------------------------------------


def _transport_pattern(B, pos, radii, fixed):
    """Move a whole pattern by the Minkowski transformation B.

    One array pass: a disk (x, r) is its spacelike plane normal
    (cos r, x) / sin r, an ideal vertex (fixed, or radius 0) the lightlike
    point (1, x).  After B a disk is read back as x = n[1:] / |n[1:]| and
    r = atan2(1, n[0]), an ideal vertex as x = n[1:] / n[0].  The
    orthogonality relations are Moebius-invariant, so residuals survive up
    to roundoff.  A disk whose image covers a hemisphere or more (n[0] <= 0)
    raises SolveError.

    Each step rounds as the per-vertex ``B @ v`` would, so the transported
    pattern does not depend on the batching: einsum's row products,
    sqrt(vecdot) for the norms and math.atan2 per disk.
    """
    ideal = fixed | (radii <= 0.0)
    disk = ~ideal
    normals = np.column_stack([np.cos(radii), pos])
    normals[ideal, 0] = 1.0
    normals[disk] /= np.sin(radii[disk])[:, None]
    out = np.einsum("ij,nj->ni", B, normals)
    n0, nvec = out[disk, 0], out[disk, 1:]
    nn = np.sqrt(np.vecdot(nvec, nvec))
    if np.any((n0 <= 0.0) | (nn <= 0.0)):
        raise SolveError("normalization pushed a disk past a hemisphere")
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


# -- top-level solve ---------------------------------------------------------


def solve_pattern(tri: AbstractTriangulation, fixed_zero=(), seed: int = 0,
                  tol: float = 1e-11, max_starts: int = 8,
                  validate=None) -> PatternSolution:
    """Solve the orthogonal circle pattern of a closed triangulation.

    Multi-start: each attempt takes the next pole vertex for the Tutte
    initialization, runs LM, Moebius-normalizes and re-polishes.  Poles go
    by descending degree (ties in a seeded order): from a high-degree pole
    such as a cap center the first start converges where low-degree poles
    stagnate.  ``validate`` may reject a converged solution (returning an
    error string) to force a restart, e.g. when non-adjacent disks overlap.
    Raises SolveError with the record of every start if all of them fail.
    """
    problem = PatternProblem(tri, fixed_zero)
    rng = np.random.default_rng(seed)
    attempts = []
    order = sorted(rng.permutation(len(tri.vertices)),
                   key=lambda i: -tri.degree(tri.vertices[i]))
    for attempt in range(max_starts):
        pole = tri.vertices[order[attempt % len(order)]]
        pos0 = tutte_sphere_init(tri, pole, rng)
        theta, resid, iters = levenberg_marquardt(
            problem, problem.pack(pos0, initial_radii(problem, pos0)))
        pos, r = problem.unpack(theta)
        reason = None
        if resid > tol:
            reason = f"stagnated at residual {resid:.3e}"
        elif np.any(r[problem.free_r] <= 1e-6) or np.any(r[problem.free_r] >= math.pi / 2 - 1e-9):
            reason = "radii left (0, pi/2)"
        else:
            try:
                pos, r, norm_res, norm_steps = moebius_normalize(pos, r, problem.fixed)
            except SolveError as exc:
                reason = str(exc)
        if reason is None:
            theta, _, more = levenberg_marquardt(problem, problem.pack(pos, r))
            iters += more
            pos, r = problem.unpack(theta)
            pos = pos / np.linalg.norm(pos, axis=1)[:, None]
            resid = float(np.max(np.abs(problem.residuals(problem.pack(pos, r))[:len(problem.edges)])))
            if resid > tol:
                reason = f"post-normalization residual {resid:.3e}"
            else:
                sol = PatternSolution(positions=pos, radii=r, residual=resid,
                                      iterations=iters, pole=pole, starts=attempt + 1,
                                      normalization_residual=norm_res,
                                      normalization_steps=norm_steps)
                reason = validate(sol) if validate is not None else None
                if not reason:
                    return sol
        attempts.append(SolveAttempt(pole, resid, iters, reason))
    last_reason = attempts[-1].reason if attempts else "no attempts"
    raise SolveError(
        f"circle pattern did not converge after {max_starts} starts ({last_reason}); "
        "this is not a proof of nonexistence",
        best_residual=min((a.residual for a in attempts), default=math.inf),
        attempts=tuple(attempts))
