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
    lines = ["OFF", f"{len(tri.vertices)} {len(tri.faces)} {len(tri.edges)}"]
    index = {v: i for i, v in enumerate(tri.vertices)}
    for v in tri.vertices:
        p = real.positions[v]
        lines.append(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    for f in tri.oriented_faces():
        lines.append("3 " + " ".join(str(index[v]) for v in f))
    return "\n".join(lines) + "\n"


def _svg_header(width=800, height=800):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n')


def _fit(points, width=800, height=800, pad=40):
    pts = np.vstack(points)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-9)
    s = (min(width, height) - 2 * pad) / span
    mid = (lo + hi) / 2

    def f(p):
        q = (np.asarray(p) - mid) * s
        return (width / 2 + q[0], height / 2 - q[1])

    return f


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
    flat = {}
    for v, p in real.positions.items():
        denom = 1.0 - float(np.dot(p, nu))
        q = (p - float(np.dot(p, nu)) * nu) / max(denom, 1e-9)
        flat[v] = np.array([float(np.dot(q, frame[0])), float(np.dot(q, frame[1]))])
    f = _fit(list(flat.values()))
    scale = abs(f(np.array([1.0, 0.0]))[0] - f(np.array([0.0, 0.0]))[0])
    span = max(abs(c) for p in flat.values() for c in p) + 1e-9
    parts = [_svg_header()]
    if real.radii is not None:
        disks = [v for v in real.parent.vertices if real.radii[v] > 0.0]
        m = np.array([real.positions[v] for v in disks]).reshape(-1, 3)
        rho = np.array([real.radii[v] for v in disks])
        clear = np.abs(np.cos(rho) - m @ nu) >= VIEWPOINT_TOL
        for c2, r2 in zip(*_euclidean_circles(m[clear], rho[clear], nu, frame)):
            if r2 > 3 * span:
                continue
            x, y = f(c2)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{scale * r2:.2f}" '
                         'fill="none" stroke="#3377cc" stroke-width="0.8"/>')
    for e in sorted(real.parent.edges, key=sorted):
        u, v = sorted(e)
        x1, y1 = f(flat[u])
        x2, y2 = f(flat[v])
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                     'stroke="black" stroke-width="1"/>')
    for v, p in flat.items():
        x, y = f(p)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5" fill="black"/>')
        parts.append(f'<text x="{x + 4:.2f}" y="{y - 4:.2f}" font-size="9">{v}</text>')
    parts.append("</svg>\n")
    return "\n".join(parts)


def euclidean_svg(eu: EuclideanRealization) -> str:
    """Planar orthogonal circle pattern with the induced triangulation."""
    f = _fit([eu.centers[v] + np.array([s * eu.radii[v], s * eu.radii[v]])
              for v in eu.parent.vertices for s in (-1, 1)])
    scale = (f(np.array([1.0, 0.0]))[0] - f(np.array([0.0, 0.0]))[0])
    parts = [_svg_header()]
    for v in eu.parent.vertices:
        x, y = f(eu.centers[v])
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{abs(scale) * eu.radii[v]:.2f}" '
                     'fill="none" stroke="#3377cc" stroke-width="0.8"/>')
    for e in sorted(eu.parent.edges, key=sorted):
        u, v = sorted(e)
        x1, y1 = f(eu.centers[u])
        x2, y2 = f(eu.centers[v])
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                     'stroke="black" stroke-width="1"/>')
    for v in eu.parent.vertices:
        x, y = f(eu.centers[v])
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="black"/>')
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
    flat = {v: np.asarray(p, float) for v, p in pinned.items()}
    flat.update(tutte_layout(tri, pinned))
    f = _fit(list(flat.values()))
    cyc = list(highlight_cycle)
    red = {frozenset((cyc[i], cyc[(i + 1) % len(cyc)])) for i in range(len(cyc))} if cyc else set()
    parts = [_svg_header()]
    for e in sorted(tri.edges, key=sorted):
        u, v = sorted(e)
        x1, y1 = f(flat[u])
        x2, y2 = f(flat[v])
        color, w = ("red", "2.5") if frozenset((u, v)) in red else ("black", "1")
        parts.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                     f'stroke="{color}" stroke-width="{w}"/>')
    for v, p in flat.items():
        x, y = f(p)
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
