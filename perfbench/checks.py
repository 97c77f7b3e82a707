"""Output checks that do not use the program's own predicates.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  Graphs are read from the input JSON here, and geometry is
recomputed from the reported coordinates with numpy.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path

import numpy as np

# frozen oracle: the right-angled regular dodecahedron, the icosahedron's beta
DODECAHEDRON_VOLUME = 4.306207600730809
ICOSAHEDRON_RADIUS = math.acos(5 ** -0.25)
ICOSAHEDRON_ALPHA = 2 * math.pi / 5
EDGE_RESIDUAL_TOL = 1e-11
SIGMA_RESIDUAL_TOL = 1e-9
ABSENCE_REASONS = ("necessary-condition", "empty-interval", "sign-constant",
                   "slimmer-criterion")


class Graph:
    """Edge graph and faces of a triangulation file."""

    def __init__(self, path):
        doc = json.loads(Path(path).read_text())
        self.vertices = [str(v) for v in doc["vertices"]]
        self.faces = [tuple(str(v) for v in f) for f in doc["faces"]]
        self.face_set = {frozenset(f) for f in self.faces}
        self.adj = {v: set() for v in self.vertices}
        edge_count = {}
        for f in self.faces:
            for i in range(3):
                u, v = f[i], f[(i + 1) % 3]
                self.adj[u].add(v)
                self.adj[v].add(u)
                e = frozenset((u, v))
                edge_count[e] = edge_count.get(e, 0) + 1
        self.edges = set(edge_count)
        self.closed = all(c == 2 for c in edge_count.values())

    def components_without(self, removed):
        """Connected components of the graph minus ``removed`` (BFS)."""
        removed = set(removed)
        seen = set(removed)
        comps = []
        for s in self.vertices:
            if s in seen:
                continue
            seen.add(s)
            queue, comp = deque([s]), [s]
            while queue:
                for w in self.adj[queue.popleft()]:
                    if w not in seen:
                        seen.add(w)
                        queue.append(w)
                        comp.append(w)
            comps.append(comp)
        return comps


def _witness_error(graph, witness):
    cycle = [str(v) for v in witness["cycle"]]
    kind = witness["kind"]
    if any(v not in graph.adj for v in cycle) or len(set(cycle)) != len(cycle):
        return f"witness {cycle} names unknown or repeated vertices"
    if kind == "four-clique":
        pairs = [(u, v) for i, u in enumerate(cycle) for v in cycle[i + 1:]]
        if len(cycle) != 4 or any(frozenset(p) not in graph.edges for p in pairs):
            return f"four-clique witness {cycle} is not a 4-clique"
        return None
    if len(cycle) not in (3, 4):
        return f"witness {cycle} is not a 3- or 4-cycle"
    for i, u in enumerate(cycle):
        if frozenset((u, cycle[(i + 1) % len(cycle)])) not in graph.edges:
            return f"witness {cycle}: edge {u}-{cycle[(i + 1) % len(cycle)]} missing"
    if len(cycle) == 4 and (frozenset(cycle[0::2]) in graph.edges
                            or frozenset(cycle[1::2]) in graph.edges):
        return f"4-cycle witness {cycle} has a chord"
    if len(cycle) == 3 and frozenset(cycle) in graph.face_set:
        return f"3-cycle witness {cycle} bounds a face"
    # on a sphere every chordless square and every empty triangle separates
    if (graph.closed or kind.startswith("separating")) \
            and len(graph.components_without(cycle)) < 2:
        return f"witness {cycle} ({kind}) does not separate the graph"
    return None


def check_check(report, code, spec, graph):
    v = report["verdicts"]
    if code != (0 if spec["realizable"] else 1):
        return f"exit code {code}"
    if v["acute_realizable"] != spec["realizable"]:
        return f"verdict {v['acute_realizable']}, expected {spec['realizable']}"
    counts = (len(graph.vertices), len(graph.edges), len(graph.faces))
    if (v["vertices"], v["edges"], v["faces"]) != counts:
        return f"reported counts {v['vertices'], v['edges'], v['faces']} != {counts}"
    if spec["realizable"]:
        return None
    if not report["witnesses"]:
        return "obstructed verdict without a witness"
    return _witness_error(graph, report["witnesses"][0])


def check_construct(code, spec, base_graph):
    if code != 0:
        return f"exit code {code}"
    out = Graph(spec["out"])
    if (len(out.vertices), len(out.faces)) != (spec["vertices"], spec["faces"]):
        return f"built {len(out.vertices)} vertices / {len(out.faces)} faces"
    if "flip" in spec:
        u, v = spec["flip"]
        f1, f2 = (f for f in base_graph.faces if u in f and v in f)
        x, y = (next(w for w in f if w not in (u, v)) for f in (f1, f2))
        expected = (base_graph.edges - {frozenset((u, v))}) | {frozenset((x, y))}
        if out.edges != expected:
            return f"flip of {u}-{v} did not replace it by {x}-{y}"
    return None


def max_corner_angle(positions, faces):
    """Largest corner angle of the geodesic triangles, from unit vectors."""
    index = {v: i for i, v in enumerate(positions)}
    pos = np.array([positions[v] for v in index], float)
    f = np.array([[index[v] for v in face] for face in faces])
    worst = 0.0
    for k in range(3):
        a, b, c = pos[f[:, k]], pos[f[:, (k + 1) % 3]], pos[f[:, (k + 2) % 3]]
        tb = b - np.sum(a * b, axis=1)[:, None] * a
        tc = c - np.sum(a * c, axis=1)[:, None] * a
        ang = np.arctan2(np.linalg.norm(np.cross(tb, tc), axis=1), np.sum(tb * tc, axis=1))
        worst = max(worst, float(ang.max()))
    return worst


def max_edge_residual(positions, radii, edges):
    worst = 0.0
    for e in edges:
        u, v = tuple(e)
        pu, pv = np.asarray(positions[u]), np.asarray(positions[v])
        cos_d = float(pu @ pv) / float(np.linalg.norm(pu) * np.linalg.norm(pv))
        worst = max(worst, abs(cos_d - math.cos(radii[u]) * math.cos(radii[v])))
    return worst


def realization_error(real, graph):
    """Acuteness and edge residual of a realization's to_json() output."""
    positions, radii = real["vertices"], real["radii"]
    if set(positions) != set(graph.vertices):
        return "realization does not cover the input vertices"
    angle = max_corner_angle(positions, graph.faces)
    if not angle < math.pi / 2:
        return f"max corner angle {angle!r} is not acute"
    residual = max_edge_residual(positions, radii, graph.edges)
    if residual > EDGE_RESIDUAL_TOL:
        return f"edge residual {residual:.3e} > {EDGE_RESIDUAL_TOL}"
    return None


def check_realize(report, code, spec, graph):
    if code != 0:
        return f"exit code {code}"
    if not (report["verdicts"]["realized"] and report["verdicts"]["acute"]):
        return f"verdicts {report['verdicts']}"
    real = report["realization"]
    error = realization_error(real, graph)
    if error:
        return error
    if spec["fixture"] == "icosahedron":
        worst = max(abs(r - ICOSAHEDRON_RADIUS) for r in real["radii"].values())
        if worst > 1e-8:
            return f"icosahedron radius off by {worst:.3e}"
    out, stem = Path(spec["out"]), Path(spec["path"]).stem
    names = [f"{stem}.realization.json", f"{stem}.off", f"{stem}.svg"]
    if spec["euclidean"]:
        names.append(f"{stem}.euclidean.svg")
    missing = [n for n in names if not (out / n).is_file()]
    if missing:
        return f"missing exports {missing}"
    header = (out / f"{stem}.off").read_text().split("\n")[1].split()
    if [int(x) for x in header[:2]] != [len(graph.vertices), len(graph.faces)]:
        return f"OFF header {header}"
    return None


def check_invariants(report, code, spec):
    if code != 0:
        return f"exit code {code}"
    m = report["metrics"]
    alpha, beta = m.get("alpha"), m.get("beta")
    if beta is None or not (math.isfinite(beta) and beta > 0):
        return f"beta {beta!r}"
    if not (m["alpha_valid_realization"] and 0 < alpha < math.pi / 2):
        return f"alpha {alpha!r} (valid={m['alpha_valid_realization']})"
    if spec["fixture"] == "icosahedron":
        if abs(alpha - ICOSAHEDRON_ALPHA) > 1e-3:
            return f"icosahedron alpha {alpha!r} vs 2 pi / 5"
        if beta_rel_err(beta) > 0.01:
            return f"icosahedron beta {beta!r} vs {DODECAHEDRON_VOLUME}"
    return None


def beta_rel_err(beta):
    return abs(beta - DODECAHEDRON_VOLUME) / DODECAHEDRON_VOLUME


def check_beta(value):
    if not (math.isfinite(value) and value > 0):
        return f"beta {value!r}"
    return None


def sigma(c, gamma, x, y):
    return math.cos(gamma) * math.sqrt((1 - x * x) * (1 - y * y)) - x * y + math.cos(c)


def check_dual(report, code, spec):
    found = report["verdicts"]["dual"]
    if code != (0 if found else 1):
        return f"exit code {code} with dual={found}"
    if spec["expect"] and spec["expect"] != ("found" if found else "absent"):
        return f"dual {'found' if found else 'absent'}, expected {spec['expect']}"
    if not found:
        reason = report["absence"]["reason"]
        return None if reason in ABSENCE_REASONS else f"absence reason {reason!r}"
    w = report["witness"]
    x, y, z = w["x"], w["y"], w["z"]
    if not all(0 < t < 1 for t in (x, y, z)):
        return f"foot parameters {x, y, z} outside (0, 1)"
    a, b, c = w["link_at_O"]["sides"]
    A, B, C = w["link_at_opposite"]["angles"]
    worst = max(abs(sigma(a, A, y, z)), abs(sigma(b, B, z, x)), abs(sigma(c, C, x, y)))
    if worst > SIGMA_RESIDUAL_TOL:
        return f"sigma residual {worst:.3e}"
    if not report["metrics"]["cube_volume"] > 0:
        return "non-positive cube volume"
    return None
