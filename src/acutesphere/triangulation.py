"""Abstract triangulations of the 2-sphere and of compact planar surfaces.

Everything here is pure combinatorics: vertices are opaque strings, faces are
unordered vertex triples, edges are derived.  A triangulation validates on
construction (manifold edges, cyclic links, Euler characteristic) and is
immutable afterwards, so every operation in this module is a pure function.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import ParseError, ValidationError

Edge = frozenset
Face = frozenset


def _edge(u, v):
    return frozenset((u, v))


def _face(u, v, w):
    return frozenset((u, v, w))


@dataclass(frozen=True)
class CycleWitness:
    """A 3- or 4-cycle certifying an obstruction.

    ``cycle`` lists the vertices in cyclic order (consecutive ones adjacent);
    ``kind`` is one of ``empty-3-cycle``, ``chordless-4-cycle``,
    ``separating-3-cycle``, ``separating-4-cycle`` (plus ``four-clique`` for
    the degenerate tetrahedron case).  For the separating kinds,
    ``components`` holds the interior vertex sets of the regions the cycle
    cuts the surface into; each listed component is nonempty.
    """

    cycle: tuple
    kind: str
    components: tuple = ()

    def to_json(self):
        return {
            "cycle": list(self.cycle),
            "kind": self.kind,
            "components": [sorted(c) for c in self.components],
        }


class AbstractTriangulation:
    """A simplicial triangulation of S^2 or of a planar surface.

    Construction validates:
      * no repeated faces, no face with repeated vertices,
      * every edge lies in exactly 2 faces (1 or 2 if a boundary is present),
      * the link of each interior vertex is a single cycle, of each boundary
        vertex a single path,
      * the complex is connected and V - E + F = 2 - (#boundary components).
    """

    def __init__(self, vertices: Sequence[str], faces: Iterable[Sequence[str]]):
        self.vertices = tuple(str(v) for v in vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("repeated vertex identifiers")
        self._index = {v: i for i, v in enumerate(self.vertices)}

        face_list = []
        seen = set()
        for f in faces:
            t = tuple(str(v) for v in f)
            if len(t) != 3 or len(set(t)) != 3:
                raise ValidationError(f"face with repeated or missing vertices: {t}")
            for v in t:
                if v not in self._index:
                    raise ValidationError(f"face {t} uses unknown vertex {v!r}")
            key = _face(*t)
            if key in seen:
                raise ValidationError(f"repeated face: {sorted(t)}")
            seen.add(key)
            face_list.append(t)
        self.faces = tuple(face_list)
        self.face_set = frozenset(_face(*f) for f in self.faces)

        # edge -> incident faces
        edge_faces: dict = {}
        for f in self.faces:
            for u, v in combinations(f, 2):
                edge_faces.setdefault(_edge(u, v), []).append(_face(*f))
        for e, fs in edge_faces.items():
            if len(fs) > 2:
                raise ValidationError(f"non-manifold edge {sorted(e)}: lies in {len(fs)} faces")
        self.edge_faces = {e: tuple(fs) for e, fs in edge_faces.items()}
        self.edges = frozenset(edge_faces)

        self.adjacency = {v: set() for v in self.vertices}
        for e in self.edges:
            u, v = tuple(e)
            self.adjacency[u].add(v)
            self.adjacency[v].add(u)
        self.adjacency = {v: frozenset(n) for v, n in self.adjacency.items()}

        self.boundary_edges = frozenset(e for e, fs in self.edge_faces.items() if len(fs) == 1)
        self._check_links()
        self.boundary_cycles = self._trace_boundary()
        self._check_euler_and_connectivity()
        # derived tables built on first use; see ``_cached``
        self._memo: dict = {}

    # -- validation -----------------------------------------------------

    def _check_links(self):
        """Each vertex's link must be one cycle (interior vertex) or one path
        (boundary vertex); the walk of each link cycle is kept for
        ``link_cycle``.  A link vertex u of v has one link edge per face on
        the edge vu, so the non-manifold-edge check bounds its degree by two."""
        links: dict = {v: {} for v in self.vertices}
        for f in self.faces:
            for v in f:
                u, w = [x for x in f if x != v]
                link = links[v]
                link.setdefault(u, []).append(w)
                link.setdefault(w, []).append(u)
        self._link_cycles = {}
        for v, link in links.items():
            if not link:
                raise ValidationError(f"isolated vertex {v!r}")
            ends = [u for u, ns in link.items() if len(ns) == 1]
            if len(ends) not in (0, 2):
                raise ValidationError(f"link of vertex {v!r} is not a single cycle or path")
            walk = _walk(link, ends[0] if ends else next(iter(link)))
            if len(walk) != len(link):
                raise ValidationError(f"link of vertex {v!r} is disconnected")
            if not ends:
                self._link_cycles[v] = tuple(walk)

    def _trace_boundary(self):
        # each boundary vertex has two boundary edges: those to its link's ends
        nbr: dict = {}
        for e in self.boundary_edges:
            u, v = tuple(e)
            nbr.setdefault(u, []).append(v)
            nbr.setdefault(v, []).append(u)
        cycles = []
        visited: set = set()
        for start in sorted(nbr):
            if start not in visited:
                cycle = _walk(nbr, start)
                visited.update(cycle)
                cycles.append(canonical_cycle(cycle))
        return tuple(sorted(cycles))

    def _check_euler_and_connectivity(self):
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            x = stack.pop()
            for y in self.adjacency[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(self.vertices):
            raise ValidationError("triangulation is not connected")
        chi = len(self.vertices) - len(self.edges) + len(self.faces)
        expected = 2 - len(self.boundary_cycles)
        if chi != expected:
            raise ValidationError(
                f"Euler characteristic {chi}, expected {expected} "
                f"for {len(self.boundary_cycles)} boundary component(s)")

    # -- basic queries ---------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return not self.boundary_cycles

    def degree(self, v) -> int:
        return len(self.adjacency[v])

    def link_cycle(self, v) -> tuple:
        """Neighbours of an interior vertex in cyclic link order: from the
        first neighbour met in face order, towards the other vertex of that
        first face."""
        return self._link_cycles[v]

    def has_edge(self, u, v) -> bool:
        return _edge(u, v) in self.edges

    def is_face(self, u, v, w) -> bool:
        return _face(u, v, w) in self.face_set

    def boundary_vertices(self) -> frozenset:
        return frozenset(v for c in self.boundary_cycles for v in c)

    def faces_of_edge(self, u, v):
        return self.edge_faces[_edge(u, v)]

    def oriented_faces(self):
        """Faces as ordered triples with a globally consistent orientation.

        Orientation is propagated across shared edges (two neighbors must
        traverse a shared edge in opposite directions).  The validator
        admits only connected surfaces with Euler characteristic 2 - b for
        b boundary components; a non-orientable one would have at most
        1 - b, so the propagation reaches every face and never contradicts
        itself.
        """
        first = self.faces[0]
        orient = {_face(*first): tuple(first)}
        stack = [first]
        while stack:
            f = stack.pop()
            of = orient[_face(*f)]
            directed = {(of[0], of[1]), (of[1], of[2]), (of[2], of[0])}
            for u, v in combinations(f, 2):
                for g in self.edge_faces[_edge(u, v)]:
                    if g == _face(*f) or g in orient:
                        continue
                    w = next(x for x in g if x not in (u, v))
                    if (u, v) in directed:
                        og = (v, u, w)
                    else:
                        og = (u, v, w)
                    orient[g] = og
                    stack.append(og)
        return tuple(orient[_face(*f)] for f in self.faces)

    def __eq__(self, other):
        return (isinstance(other, AbstractTriangulation)
                and self.vertices == other.vertices and self.face_set == other.face_set)

    def __hash__(self):
        return hash((self.vertices, self.face_set))

    def __repr__(self):
        kind = "closed" if self.is_closed else f"{len(self.boundary_cycles)}-boundary"
        return (f"AbstractTriangulation({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, {len(self.faces)} faces, {kind})")


def _walk(adj, start) -> list:
    """The vertices of the component of ``start`` in a graph of degree at
    most two (``adj`` maps each vertex to its neighbour list), in walking
    order from ``start`` towards ``adj[start][0]``; ``start`` must be an end
    if the component is a path."""
    walk = [start]
    prev, cur = start, adj[start][0]
    while cur != start:
        walk.append(cur)
        ns = adj[cur]
        if len(ns) == 1:
            break
        prev, cur = cur, (ns[1] if ns[0] == prev else ns[0])
    return walk


def canonical_cycle(cycle: Sequence[str]) -> tuple:
    """Rotate/reflect a vertex cycle to start at its lexicographically
    smallest vertex, orienting toward the smaller of its two neighbors."""
    n = len(cycle)
    i = min(range(n), key=lambda k: cycle[k])
    fwd = tuple(cycle[(i + k) % n] for k in range(n))
    bwd = tuple(cycle[(i - k) % n] for k in range(n))
    return min(fwd, bwd)


@dataclass(frozen=True)
class EdgeLabeling:
    """Map from edges to integer Coxeter labels m >= 2 (all-2 by default)."""

    triangulation: AbstractTriangulation
    labels: dict = field(default_factory=dict)

    def __post_init__(self):
        normalized = {}
        for e, m in self.labels.items():
            key = _edge(*e) if not isinstance(e, frozenset) else e
            if key not in self.triangulation.edges:
                raise ValidationError(f"label on non-edge {sorted(key)}")
            if not isinstance(m, int) or m < 2:
                raise ValidationError(f"label {m!r} on edge {sorted(key)} must be an integer >= 2")
            normalized[key] = m
        object.__setattr__(self, "labels", normalized)

    def label(self, u, v) -> int:
        return self.labels.get(_edge(u, v), 2)

    def face_labels(self, face) -> tuple:
        """Labels (p, q, r) of the face's edges opposite its vertices, in
        face-vertex order: p = m(edge opposite face[0]), etc."""
        u, v, w = tuple(face)
        return (self.label(v, w), self.label(w, u), self.label(u, v))


# -- parsing / serialization --------------------------------------------


def parse_document(text: str):
    """Parse the JSON triangulation format.  Returns (triangulation, labeling
    or None).  Raises ParseError for malformed syntax, ValidationError for
    invariant violations."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "vertices" not in doc or "faces" not in doc:
        raise ParseError("document must be an object with 'vertices' and 'faces'")
    tri = AbstractTriangulation(doc["vertices"], doc["faces"])
    labeling = None
    if doc.get("labels"):
        labels = {}
        for item in doc["labels"]:
            try:
                u, v = item["edge"]
                m = item["m"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"malformed label entry: {item!r}") from exc
            labels[_edge(str(u), str(v))] = m
        labeling = EdgeLabeling(tri, labels)
    return tri, labeling


def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())


def serialize(tri: AbstractTriangulation, labeling: Optional[EdgeLabeling] = None) -> str:
    doc = {"vertices": list(tri.vertices), "faces": [list(f) for f in tri.faces]}
    if labeling is not None and labeling.labels:
        doc["labels"] = [{"edge": sorted(e), "m": m}
                         for e, m in sorted(labeling.labels.items(), key=lambda kv: sorted(kv[0]))]
    return json.dumps(doc, indent=1)


# -- cycle enumeration --------------------------------------------------


def _cached(tri: AbstractTriangulation, key, build):
    """``build()`` computed once per triangulation; the triangulation is
    immutable, so every later call returns the stored value."""
    try:
        return tri._memo[key]
    except KeyError:
        value = tri._memo[key] = build()
        return value


def _enumerate_triangles(tri: AbstractTriangulation):
    out = []
    for e in sorted(tri.edges, key=sorted):
        u, v = sorted(e)
        for w in sorted(tri.adjacency[u] & tri.adjacency[v]):
            if w > v:
                out.append((u, v, w))
    return tuple(out)


def triangles_of_graph(tri: AbstractTriangulation):
    """All 3-cliques of the edge graph, as sorted tuples, in sorted order."""
    return _cached(tri, "triangles", lambda: _enumerate_triangles(tri))


def _enumerate_four_cliques(tri: AbstractTriangulation):
    out = []
    for u, v, w in triangles_of_graph(tri):
        common = tri.adjacency[u] & tri.adjacency[v] & tri.adjacency[w]
        for x in sorted(common):
            if x > w:
                out.append((u, v, w, x))
    return tuple(out)


def four_cliques(tri: AbstractTriangulation):
    """All 4-cliques of the edge graph, as sorted tuples, in sorted order."""
    return _cached(tri, "four_cliques", lambda: _enumerate_four_cliques(tri))


def _enumerate_four_cycles(tri: AbstractTriangulation):
    """Neighbour-of-neighbour walk, O(sum of squared degrees).

    For each vertex u, the 2-paths u - x - v with x, v > u are grouped by v;
    two middles x < y give the cycle (u, x, v, y).  Every 4-cycle is met from
    both of its diagonals; requiring u to be its smallest vertex keeps the
    one diagonal that holds it, and makes (u, x, v, y) the canonical
    rotation.
    """
    adj = tri.adjacency
    out = []
    for u in tri.vertices:
        middles: dict = {}
        for x in adj[u]:
            if x > u:
                for v in adj[x]:
                    if v > u:
                        middles.setdefault(v, []).append(x)
        for v, xs in middles.items():
            if len(xs) > 1:
                xs.sort()
                out.extend((u, x, v, y) for x, y in combinations(xs, 2))
    out.sort()
    return tuple(out)


def four_cycles(tri: AbstractTriangulation):
    """All 4-cycles of the edge graph as tuples (u, x, v, y) in cyclic order.

    Each cycle is reported once, in canonical rotation, and the tuple is
    sorted.  Chords are allowed.
    """
    return _cached(tri, "four_cycles", lambda: _enumerate_four_cycles(tri))


def empty_three_cycles(tri: AbstractTriangulation):
    """3-cliques of the graph that do not bound a face."""
    return [t for t in triangles_of_graph(tri) if not tri.is_face(*t)]


def has_chord(tri: AbstractTriangulation, cycle4) -> bool:
    u, x, v, y = cycle4
    return tri.has_edge(u, v) or tri.has_edge(x, y)


def _face_graph(tri: AbstractTriangulation):
    """Face adjacency over integer ids (positions in ``tri.faces``): a map
    from each edge to its (id, incident face ids), and for each face the
    (edge id, neighbouring face id) pairs across its interior edges."""
    face_id = {_face(*f): i for i, f in enumerate(tri.faces)}
    edges = {}
    across = [[] for _ in tri.faces]
    for k, (e, fs) in enumerate(tri.edge_faces.items()):
        ids = tuple(face_id[g] for g in fs)
        edges[e] = (k, ids)
        if len(ids) == 2:
            f, g = ids
            across[f].append((k, g))
            across[g].append((k, f))
    return edges, tuple(map(tuple, across))


def _region_interiors(tri: AbstractTriangulation, cycle):
    """Interior-vertex sets of the regions the cycle's edges cut the faces
    into, nonempty ones only, each an unordered tuple, in no fixed order.

    One search starts from each face on a cycle edge.  The searches grow one
    face each in turn; two that meet merge (the faces of one are relabelled
    to the other), and one that runs out of faces has found a whole region.
    Every region holds a face on a cycle edge, so once a single search is
    left it is the last region: its interior is every vertex off the cycle
    outside the finished regions.  The search visits about as many faces as
    the smaller regions hold, not the whole surface; the last interior is
    one set difference over the vertices.
    """
    edges, across = _cached(tri, "face_graph", lambda: _face_graph(tri))
    n = len(cycle)
    cut = set()
    seeds = set()
    for i in range(n):
        e = _edge(cycle[i], cycle[(i + 1) % n])
        if e not in edges:
            raise ValidationError(f"not a cycle: missing edge {sorted(e)}")
        k, fs = edges[e]
        cut.add(k)
        seeds.update(fs)
    owner = {f: s for s, f in enumerate(seeds)}
    frontier = [[f] for f in seeds]          # None once merged or finished
    members = [[f] for f in seeds]
    finished = []
    turns = deque(range(len(seeds)))
    live = len(seeds)
    while live > 1:
        s = turns.popleft()
        stack = frontier[s]
        if stack is None:
            continue
        if not stack:
            frontier[s] = None
            finished.append(s)
            live -= 1
            continue
        turns.append(s)
        for k, g in across[stack.pop()]:
            if k in cut:
                continue
            t = owner.get(g)
            if t is None:
                owner[g] = s
                stack.append(g)
                members[s].append(g)
            elif t != s:                     # the searches met: merge t into s
                for f in members[t]:
                    owner[f] = s
                stack.extend(frontier[t])
                members[s].extend(members[t])
                frontier[t] = None
                live -= 1
    on_cycle = set(cycle)
    faces = tri.faces
    interiors = [{v for f in members[s] for v in faces[f]} - on_cycle for s in finished]
    interiors.append(set(tri.vertices).difference(on_cycle, *interiors))
    return tuple(tuple(interior) for interior in interiors if interior)


def _regions(tri: AbstractTriangulation, cycle):
    """``_region_interiors`` of the cycle, searched once per triangulation."""
    return _cached(tri, ("regions", tuple(cycle)), lambda: _region_interiors(tri, cycle))


# -- predicates ----------------------------------------------------------


def is_flag(tri: AbstractTriangulation) -> bool:
    """True iff every 3-clique of the edge graph bounds a face and the graph
    has no 4-clique (which could span no simplex in a 2-complex)."""
    return _cached(tri, "is_flag",
                   lambda: not empty_three_cycles(tri) and not four_cliques(tri))


def has_chordless_square(tri: AbstractTriangulation) -> Optional[CycleWitness]:
    """The first chordless 4-cycle, as a witness, or None."""
    return _cached(tri, "chordless_square", lambda: next(
        (CycleWitness(cycle=c, kind="chordless-4-cycle")
         for c in four_cycles(tri) if not has_chord(tri, c)), None))


def separating_interiors(tri: AbstractTriangulation, cycle):
    """Interior-vertex sets of the regions cut out by a cycle (removing its
    edges from the face-adjacency graph), nonempty ones only, each a sorted
    tuple, in sorted order.  The cycle separates exactly when two or more
    regions contain a vertex not on the cycle.  Each cycle is searched once
    per triangulation; later calls sort the stored regions."""
    return tuple(sorted(tuple(sorted(interior)) for interior in _regions(tri, cycle)))


def _bounds_faces(tri: AbstractTriangulation, cycle, boundary) -> bool:
    """True when the cycle avoids the ``boundary`` vertices and is a face or a
    4-cycle whose chord splits it into two faces.

    Such a cycle cannot separate, so it needs no region search.  The
    validator admits only genus-0 surfaces, on which a simple cycle through
    interior vertices cuts the faces into exactly two face-connected regions;
    one of them is the cycle's own face or faces, with no vertex off the
    cycle.  At a boundary vertex the search may find three or more regions,
    so cycles touching the boundary always get it.
    """
    if any(v in boundary for v in cycle):
        return False
    if len(cycle) == 3:
        return tri.is_face(*cycle)
    u, x, v, y = cycle
    return ((tri.is_face(u, x, v) and tri.is_face(u, v, y))
            or (tri.is_face(x, u, y) and tri.is_face(x, v, y)))


def _separates(tri: AbstractTriangulation, cycle, boundary) -> bool:
    return not _bounds_faces(tri, cycle, boundary) and len(_regions(tri, cycle)) >= 2


def separating_cycles(tri: AbstractTriangulation):
    """All 3- and 4-cycles that cut the surface into two or more regions each
    containing at least one vertex off the cycle."""
    boundary = tri.boundary_vertices()
    return [CycleWitness(cycle=c, kind=kind, components=separating_interiors(tri, c))
            for kind, cycles in (("separating-3-cycle", triangles_of_graph(tri)),
                                 ("separating-4-cycle", four_cycles(tri)))
            for c in cycles if _separates(tri, c, boundary)]


def is_flag_no_square(tri: AbstractTriangulation) -> bool:
    """Flag no-square test for closed triangulations: flag, and every 4-cycle
    has a chord."""
    if not tri.is_closed:
        raise ValidationError("is_flag_no_square expects a closed triangulation")
    return is_flag(tri) and has_chordless_square(tri) is None


def is_flag_no_separating_square(tri: AbstractTriangulation) -> bool:
    """Flag and no separating 4-cycle (closed or planar input)."""
    boundary = tri.boundary_vertices()
    return is_flag(tri) and not any(_separates(tri, c, boundary) for c in four_cycles(tri))


def low_degree_interior_vertices(tri: AbstractTriangulation):
    """Interior vertices of degree at most four.

    The angle sum around an interior vertex of a geodesic realization is
    2 pi, so k <= 4 incident faces force a corner angle of at least pi/2:
    such a vertex obstructs acute realizability even when the flag and
    separating-square tests pass (the bare square wheel is the one
    flag-no-separating-square example)."""
    boundary = tri.boundary_vertices()
    return tuple(v for v in tri.vertices
                 if v not in boundary and tri.degree(v) <= 4)


def first_obstruction(tri: AbstractTriangulation) -> Optional[CycleWitness]:
    """A witness explaining why a triangulation fails flag no-square (closed)
    or flag-no-separating-square (planar), or None if it passes.

    Degenerate case: a 4-clique with no empty 3-cycle occurs only for the
    boundary of the tetrahedron; it is reported with kind ``four-clique``.
    """
    empty = empty_three_cycles(tri)
    if empty:
        t = empty[0]
        if len(_regions(tri, t)) >= 2:
            return CycleWitness(cycle=t, kind="separating-3-cycle",
                                components=separating_interiors(tri, t))
        return CycleWitness(cycle=t, kind="empty-3-cycle")
    for c in four_cycles(tri):
        if has_chord(tri, c):
            continue
        if len(_regions(tri, c)) >= 2:
            return CycleWitness(cycle=c, kind="separating-4-cycle",
                                components=separating_interiors(tri, c))
        if tri.is_closed:
            return CycleWitness(cycle=c, kind="chordless-4-cycle")
    cliques = four_cliques(tri)
    if cliques:
        return CycleWitness(cycle=cliques[0], kind="four-clique")
    return None


def acute_obstruction(tri: AbstractTriangulation) -> Optional[tuple]:
    """Why no acute realization exists, as (reason, witness), or None.

    The combinatorial criterion: flag no-square for closed input; for planar
    input flag-no-separating-square and no interior vertex of degree at most
    four.  The witness is ``first_obstruction``'s, or None for a low-degree
    vertex.
    """
    if tri.is_closed:
        if is_flag_no_square(tri):
            return None
        return "not flag no-square; no acute realization exists", first_obstruction(tri)
    if not is_flag_no_separating_square(tri):
        return ("not flag-no-separating-square; no acute realization exists",
                first_obstruction(tri))
    low = low_degree_interior_vertices(tri)
    if low:
        return (f"interior vertex {low[0]!r} has degree {tri.degree(low[0])}; "
                "the 2 pi angle sum forces a non-acute corner there", None)
    return None


def itoh_face_predicate(n: int) -> bool:
    """Whether an acute triangulation of the sphere with n faces exists:
    n even, n >= 20 and n != 22."""
    if n < 1:
        raise ValidationError("face count must be positive")
    return n % 2 == 0 and n >= 20 and n != 22


def empty_3cycle_obstruction(tri: AbstractTriangulation) -> bool:
    """True iff an empty 3-cycle containing no boundary edge exists.

    Such a cycle certifies that the triangulation admits no realization as an
    acute geodesic triangulation inside the sphere.
    """
    boundary = tri.boundary_edges
    for t in empty_three_cycles(tri):
        u, v, w = t
        cycle_edges = (_edge(u, v), _edge(v, w), _edge(w, u))
        if not any(e in boundary for e in cycle_edges):
            return True
    return False


# -- constructive operations ---------------------------------------------


def diagonal_flip(tri: AbstractTriangulation, edge) -> AbstractTriangulation:
    """Replace an interior edge by the opposite diagonal of the square formed
    by its two incident faces."""
    u, v = tuple(edge)
    e = _edge(u, v)
    if e not in tri.edges:
        raise ValidationError(f"no such edge: {sorted((u, v))}")
    fs = tri.edge_faces[e]
    if len(fs) != 2:
        raise ValidationError(f"cannot flip boundary edge {sorted((u, v))}")
    w = next(x for x in fs[0] if x not in e)
    x = next(y for y in fs[1] if y not in e)
    if tri.has_edge(w, x):
        raise ValidationError(
            f"flip of {sorted((u, v))} would create a doubled edge {sorted((w, x))}")
    new_faces = [f for f in tri.faces if _face(*f) not in (fs[0], fs[1])]
    new_faces.append((w, x, u))
    new_faces.append((w, x, v))
    return AbstractTriangulation(tri.vertices, new_faces)


def double(tri: AbstractTriangulation) -> AbstractTriangulation:
    """Glue a mirror copy along every boundary cycle, producing a closed
    triangulation with twice the number of faces."""
    if tri.is_closed:
        raise ValidationError("double expects a triangulation with boundary")
    boundary = tri.boundary_vertices()
    mirror = {}
    taken = set(tri.vertices)
    for v in tri.vertices:
        if v in boundary:
            mirror[v] = v
        else:
            m = v + "*"
            while m in taken:
                m += "*"
            taken.add(m)
            mirror[v] = m
    vertices = list(tri.vertices) + [mirror[v] for v in tri.vertices if v not in boundary]
    faces = [tuple(f) for f in tri.faces]
    for f in tri.faces:
        if all(v in boundary for v in f):
            raise ValidationError(
                f"face {tuple(f)} lies entirely on the boundary; double would repeat it")
        faces.append(tuple(mirror[v] for v in f))
    return AbstractTriangulation(vertices, faces)


def square_wheel() -> AbstractTriangulation:
    """Cone over a 4-cycle: 5 vertices, 4 faces, boundary a square."""
    rim = ["r0", "r1", "r2", "r3"]
    faces = [("hub", rim[i], rim[(i + 1) % 4]) for i in range(4)]
    return AbstractTriangulation(["hub"] + rim, faces)


def maehara_cap(n: int) -> AbstractTriangulation:
    """Disk triangulation of an n-gon by 9n triangles.

    Rings of n (boundary), 2n, 2n vertices around a central cone vertex,
    n-fold rotationally symmetric.  The cap is flag-no-separating-square,
    with one boundary n-cycle.
    """
    if n < 5:
        raise ValidationError(f"maehara_cap requires n >= 5, got {n}")
    x = [f"b{i}" for i in range(n)]            # boundary n-gon
    z = [f"m{2 * i}" for i in range(n)]        # outer middle ring, alternating
    y = [f"m{2 * i + 1}" for i in range(n)]
    Z = [f"i{2 * i}" for i in range(n)]        # inner middle ring, alternating
    Y = [f"i{2 * i + 1}" for i in range(n)]
    c = "c"
    faces = []
    for i in range(n):
        j = (i + 1) % n
        k = (i - 1) % n
        # boundary annulus: x-ring to (z, y)-ring
        faces.append((x[k], x[i], z[i]))
        faces.append((x[i], z[i], y[i]))
        faces.append((x[i], y[i], z[j]))
        # middle annulus: (z, y)-ring to (Z, Y)-ring
        faces.append((Z[i], z[i], Y[i]))
        faces.append((z[i], Y[i], y[i]))
        faces.append((Y[i], y[i], Z[j]))
        faces.append((y[i], Z[j], z[j]))
        # central fan
        faces.append((c, Z[i], Y[i]))
        faces.append((c, Y[i], Z[j]))
    vertices = x + [v for pair in zip(z, y) for v in pair] \
        + [v for pair in zip(Z, Y) for v in pair] + [c]
    return AbstractTriangulation(vertices, faces)


# -- Coxeter-label predicates ---------------------------------------------


def coxeter_face_finite(p: int, q: int, r: int) -> bool:
    """Whether the (p, q, r) triangle group is finite: 1/p + 1/q + 1/r > 1.
    Exact rational arithmetic, so (2, 3, 6) is correctly infinite."""
    for m in (p, q, r):
        if not isinstance(m, int) or m < 2:
            raise ValidationError(f"labels must be integers >= 2, got {m!r}")
    return Fraction(1, p) + Fraction(1, q) + Fraction(1, r) > 1


def coxeter_one_ended(tri: AbstractTriangulation, labeling: EdgeLabeling) -> bool:
    """One-endedness of the Coxeter group of a labeled closed triangulation.

    True iff the edge graph is not complete and every 3-cycle either bounds a
    face or carries labels with 1/p + 1/q + 1/r <= 1 (an infinite triangle
    group).  Requires every face to induce a finite triangle group.  The
    non-complete guard excludes globally finite groups such as the all-2
    tetrahedron; finiteness detection beyond that case is not attempted.
    """
    if not tri.is_closed:
        raise ValidationError("coxeter_one_ended expects a closed triangulation")
    if labeling.triangulation is not tri and labeling.triangulation != tri:
        raise ValidationError("labeling belongs to a different triangulation")
    for f in tri.faces:
        if not coxeter_face_finite(*labeling.face_labels(f)):
            raise ValidationError(
                f"face {tuple(f)} induces an infinite triangle group")
    nv = len(tri.vertices)
    if len(tri.edges) == nv * (nv - 1) // 2:
        return False
    for t in empty_three_cycles(tri):
        u, v, w = t
        p, q, r = labeling.label(u, v), labeling.label(v, w), labeling.label(w, u)
        if coxeter_face_finite(p, q, r):
            return False
    return True


# -- ideal all-right conditions -------------------------------------------


def ideal_allright_conditions(tri: AbstractTriangulation) -> bool:
    """Conditions under which a flag closed triangulation is the combinatorial
    nerve of an all-right hyperbolic polyhedron with ideal vertices:

      (i) every chordless 4-cycle bounds a region with exactly one interior
          vertex (a wheel around the would-be ideal vertex), and
      (ii) no two degree-four vertices are adjacent.
    """
    if not tri.is_closed:
        raise ValidationError("ideal_allright_conditions expects a closed triangulation")
    if not is_flag(tri):
        raise ValidationError("ideal_allright_conditions expects a flag triangulation")
    if not all(any(len(interior) == 1 for interior in _regions(tri, c))
               for c in four_cycles(tri) if not has_chord(tri, c)):
        return False
    deg4 = [v for v in tri.vertices if tri.degree(v) == 4]
    for u, v in combinations(deg4, 2):
        if tri.has_edge(u, v):
            return False
    return True
