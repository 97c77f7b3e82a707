"""OFF / SVG / JSON export of realizations and diagnostic diagrams."""

from __future__ import annotations

import json

import numpy as np

from .pattern import tutte_layout
from .realization import (VIEWPOINT_TOL, EuclideanRealization, GeodesicRealization,
                          _euclidean_circles, _tangent_frame)
from .triangulation import AbstractTriangulation


def to_off(real: GeodesicRealization) -> str:
    tri = real.parent
    lines = ["OFF", f"{len(tri.vertices)} {len(tri.faces)} {len(tri._edge_faces)}"]
    for v in tri.vertices:
        p = real.positions[v]
        lines.append(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    at = tri._position
    lines += [f"3 {at[a]} {at[b]} {at[c]}" for a, b, c in tri._oriented_ids()]
    return "\n".join(lines) + "\n"


def _svg_header(width=800, height=800):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n')


def _fit(points, width=800, height=800, pad=40):
    """The map of plane points (n, 2) to picture coordinates (n, 2), y
    pointing down, that fits the points (m, 2) ``points`` in the picture."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-9)
    s = (min(width, height) - 2 * pad) / span
    mid = (lo + hi) / 2

    def f(p):
        q = (p - mid) * s
        return np.column_stack([width / 2 + q[:, 0], height / 2 - q[:, 1]])

    return f


def _unit_length(f):
    """The picture length of a unit plane length under the map ``f`` of ``_fit``."""
    x = f(np.array([[1.0, 0.0], [0.0, 0.0]]))[:, 0]
    return abs(x[0] - x[1])


def _lines(tri: AbstractTriangulation, at, red=frozenset()):
    """One <line> per edge, in id order, between the picture points ``at``
    (vertex name -> [x, y]); the edges in ``red`` drawn red and wider."""
    names = tri._names
    return [f'<line x1="{at[u][0]:.2f}" y1="{at[u][1]:.2f}" '
            f'x2="{at[v][0]:.2f}" y2="{at[v][1]:.2f}" '
            + ('stroke="red" stroke-width="2.5"/>' if frozenset((u, v)) in red
               else 'stroke="black" stroke-width="1"/>')
            for u, v in ((names[i], names[j]) for i, j in sorted(tri._edge_faces))]


def realization_svg(real: GeodesicRealization) -> str:
    """Stereographic picture of a spherical realization: the induced
    triangulation plus the pattern circles when radii are available.

    The viewpoint is the antipode of the first face's centroid, which lies
    inside no disk of a valid pattern.  Circles through or near it are left
    out: those whose image is a line, and those drawn larger than three
    times the picture."""
    centroid = sum(real.positions[v] for v in real.parent.faces[0])
    nu = -centroid / np.linalg.norm(centroid)
    frame = _tangent_frame(nu)
    # a point is a circle of radius 0
    flat = _euclidean_circles(list(real.positions.values()), np.zeros(len(real.positions)),
                              nu, frame)[0]
    f = _fit(flat)
    scale = _unit_length(f)
    span = float(np.max(np.abs(flat))) + 1e-9
    parts = [_svg_header()]
    if real.radii is not None:
        disks = [v for v in real.parent.vertices if real.radii[v] > 0.0]
        m = np.array([real.positions[v] for v in disks]).reshape(-1, 3)
        rho = np.array([real.radii[v] for v in disks])
        clear = np.abs(np.cos(rho) - m @ nu) >= VIEWPOINT_TOL
        c2, r2 = _euclidean_circles(m[clear], rho[clear], nu, frame)
        drawn = ~(r2 > 3 * span)
        parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{scale * r:.2f}" '
                  'fill="none" stroke="#3377cc" stroke-width="0.8"/>'
                  for (x, y), r in zip(f(c2[drawn]).tolist(), r2[drawn].tolist())]
    at = dict(zip(real.positions, f(flat).tolist()))
    parts += _lines(real.parent, at)
    for v, (x, y) in at.items():
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="black"/>')
        parts.append(f'<text x="{x + 4:.2f}" y="{y - 4:.2f}" font-size="9">{v}</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


def euclidean_svg(eu: EuclideanRealization) -> str:
    """Planar orthogonal circle pattern with the induced triangulation."""
    centers = np.array([eu.centers[v] for v in eu.parent.vertices]).reshape(-1, 2)
    radii = np.array([eu.radii[v] for v in eu.parent.vertices])
    corners = np.stack([centers - radii[:, None], centers + radii[:, None]], axis=1)
    f = _fit(corners.reshape(-1, 2))
    scale = _unit_length(f)
    at = dict(zip(eu.parent.vertices, f(centers).tolist()))
    parts = [_svg_header()]
    parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{scale * r:.2f}" '
              'fill="none" stroke="#3377cc" stroke-width="0.8"/>'
              for (x, y), r in zip(at.values(), radii.tolist())]
    parts += _lines(eu.parent, at)
    parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="black"/>' for x, y in at.values()]
    parts.append("</svg>\n")
    return "\n".join(parts)


def graph_svg(tri: AbstractTriangulation, highlight_cycle=()) -> str:
    """Tutte diagram of the abstract triangulation with an obstruction cycle
    drawn in red.  Purely combinatorial (no metric data needed): the boundary
    cycle (planar input) or an arbitrary face (closed input) is pinned as the
    outer polygon and the rest solves the spring layout."""
    if tri.boundary_cycles:
        outer = max(tri.boundary_cycles, key=len)
    else:
        outer = tuple(tri.faces[0])
    pinned = {v: (np.cos(2 * np.pi * k / len(outer)),
                  np.sin(2 * np.pi * k / len(outer)))
              for k, v in enumerate(outer)}
    flat = {**pinned, **tutte_layout(tri, pinned)}
    plane = np.array(list(flat.values()), float).reshape(-1, 2)
    at = dict(zip(flat, _fit(plane)(plane).tolist()))
    cyc = list(highlight_cycle)
    red = {frozenset((cyc[i], cyc[(i + 1) % len(cyc)])) for i in range(len(cyc))} if cyc else set()
    parts = [_svg_header()]
    parts += _lines(tri, at, red)
    for v, (x, y) in at.items():
        fill = "red" if v in cyc else "black"
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{fill}"/>')
        parts.append(f'<text x="{x + 4:.2f}" y="{y - 4:.2f}" font-size="9">{v}</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


def realization_json(real: GeodesicRealization, extra=None) -> str:
    doc = real.to_json()
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=1)
