"""Abstract triangulations of the 2-sphere and of compact planar surfaces.

Everything here is pure combinatorics: vertices are opaque strings, faces are
unordered vertex triples, edges are derived.  A triangulation validates on
construction (manifold edges, cyclic links, Euler characteristic) and is
immutable afterwards, so every operation in this module is a pure function.

Inside, a vertex is an integer id: the rank of its name among the vertex
names, so that id order is name order.  Validation, enumeration and the
region search run on ids and come out in the order they would over the
names; names come back only in what the functions return and in error
messages.  The name-keyed attributes ``edges``, ``face_set``, ``edge_faces``,
``adjacency`` and ``boundary_edges`` are views, built on first access.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .errors import ParseError, ValidationError

Edge = frozenset
Face = frozenset


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

    The id tables: ``_names[i]`` is the name of id i and ``_position[i]`` its
    place in ``vertices``; ``_id`` maps names to ids; ``_faces`` holds the
    faces as id triples and ``_face_sums`` their id sums, in face order;
    ``_edge_faces`` maps each edge (i, j), i < j, to the positions of its
    faces in ``faces``; ``_nbrs[i]`` lists the neighbours of i in the order
    their edges first occur in the faces; ``_boundary`` holds the boundary
    ids.  The third vertex of face k on the edge (i, j) is
    ``_face_sums[k] - i - j``.
    """

    def __init__(self, vertices: Sequence[str], faces: Iterable[Sequence[str]]):
        self.vertices = tuple(map(str, vertices))
        order = sorted(range(len(self.vertices)), key=self.vertices.__getitem__)
        self._position = order
        self._names = tuple(self.vertices[p] for p in order)
        self._id = index = dict(zip(self._names, range(len(order))))
        if len(index) != len(order):
            raise ValidationError("repeated vertex identifiers")

        face_list = []
        face_ids = []
        sums = []
        edge_faces: dict = {}
        nbrs = [[] for _ in order]
        for f in faces:
            t = tuple(f)
            if not (len(t) == 3 and type(t[0]) is type(t[1]) is type(t[2]) is str):
                t = tuple(map(str, t))
            if len(t) != 3 or t[0] == t[1] or t[0] == t[2] or t[1] == t[2]:
                raise ValidationError(f"face with repeated or missing vertices: {t}")
            try:
                a, b, c = index[t[0]], index[t[1]], index[t[2]]
            except KeyError as exc:
                raise ValidationError(f"face {t} uses unknown vertex {exc.args[0]!r}") from None
            s = a + b + c
            k = len(sums)
            for e in ((a, b) if a < b else (b, a), (a, c) if a < c else (c, a),
                      (b, c) if b < c else (c, b)):
                fs = edge_faces.get(e)
                if fs is None:
                    edge_faces[e] = [k]
                    u, v = e
                    nbrs[u].append(v)
                    nbrs[v].append(u)
                    continue
                for g in fs:
                    # a face on this edge with the same id sum has the same third vertex
                    if sums[g] == s:
                        raise ValidationError(f"repeated face: {sorted(t)}")
                fs.append(k)
            face_list.append(t)
            face_ids.append((a, b, c))
            sums.append(s)
        self.faces = tuple(face_list)
        self._faces = tuple(face_ids)
        self._face_sums = sums
        self._edge_faces = edge_faces
        self._nbrs = nbrs
        for (u, v), fs in edge_faces.items():
            if len(fs) > 2:
                raise ValidationError(f"non-manifold edge {[self._names[u], self._names[v]]}: "
                                      f"lies in {len(fs)} faces")

        ends = self._check_links()
        self._boundary = frozenset(v for v, es in enumerate(ends) if es)
        self.boundary_cycles = self._trace_boundary(ends)
        self._check_euler_and_connectivity()
        # derived tables built on first use; see ``_cached``
        self._memo: dict = {}

    # -- validation -----------------------------------------------------

    def _check_links(self):
        """Each vertex's link must be one cycle (interior vertex) or one path
        (boundary vertex); the walk of each link cycle is kept for
        ``link_cycle``.  The link of v joins each neighbour u to the third
        vertex of each face on the edge vu, so the non-manifold-edge check
        bounds its degree by two, and its ends are the neighbours across
        boundary edges.  Returns the ends of every link, by id, each list in
        the order of ``_nbrs``."""
        edge_faces, nbrs, sums = self._edge_faces, self._nbrs, self._face_sums
        ends = [[] for _ in nbrs]
        for (u, v), fs in edge_faces.items():
            if len(fs) == 1:
                ends[u].append(v)
                ends[v].append(u)
        self._link_cycles = {}
        for name in self.vertices:
            v = self._id[name]
            if not nbrs[v]:
                raise ValidationError(f"isolated vertex {name!r}")
            if len(ends[v]) not in (0, 2):
                raise ValidationError(f"link of vertex {name!r} is not a single cycle or path")
            # from the first end, or else the first neighbour met in face
            # order, towards the third vertex of the first face on that edge
            start = ends[v][0] if ends[v] else nbrs[v][0]
            walk = [start]
            prev = start
            cur = sums[edge_faces[(v, start) if v < start else (start, v)][0]] - v - start
            while cur != start:
                walk.append(cur)
                fs = edge_faces[(v, cur) if v < cur else (cur, v)]
                if len(fs) == 1:
                    break
                w = sums[fs[0]] - v - cur
                prev, cur = cur, (sums[fs[1]] - v - cur if w == prev else w)
            if len(walk) != len(nbrs[v]):
                raise ValidationError(f"link of vertex {name!r} is disconnected")
            if not ends[v]:
                self._link_cycles[v] = tuple(walk)
        return ends

    def _trace_boundary(self, ends):
        # each boundary vertex has two boundary edges: those to its link's ends
        cycles = []
        visited: set = set()
        for start in sorted(self._boundary):
            if start not in visited:
                cycle = _walk(ends, start)
                visited.update(cycle)
                cycles.append(canonical_cycle(cycle))
        return tuple(_named(self, c) for c in sorted(cycles))

    def _check_euler_and_connectivity(self):
        if not self.vertices:
            raise ValidationError("triangulation has no vertices")
        nbrs = self._nbrs
        seen = {0}
        stack = [0]
        while stack:
            for y in nbrs[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(self.vertices):
            raise ValidationError("triangulation is not connected")
        chi = len(self.vertices) - len(self._edge_faces) + len(self.faces)
        expected = 2 - len(self.boundary_cycles)
        if chi != expected:
            raise ValidationError(
                f"Euler characteristic {chi}, expected {expected} "
                f"for {len(self.boundary_cycles)} boundary component(s)")

    # -- name-keyed views ------------------------------------------------

    @cached_property
    def edges(self) -> frozenset:
        names = self._names
        return frozenset(frozenset((names[u], names[v])) for u, v in self._edge_faces)

    @cached_property
    def face_set(self) -> frozenset:
        return frozenset(map(frozenset, self.faces))

    @cached_property
    def edge_faces(self) -> dict:
        """Each edge's faces, in face order."""
        names, faces = self._names, self.faces
        return {frozenset((names[u], names[v])): tuple(frozenset(faces[k]) for k in fs)
                for (u, v), fs in self._edge_faces.items()}

    @cached_property
    def adjacency(self) -> dict:
        names, nbrs, index = self._names, self._nbrs, self._id
        return {v: frozenset(names[u] for u in nbrs[index[v]]) for v in self.vertices}

    @cached_property
    def boundary_edges(self) -> frozenset:
        names = self._names
        return frozenset(frozenset((names[u], names[v]))
                         for (u, v), fs in self._edge_faces.items() if len(fs) == 1)

    # -- basic queries ---------------------------------------------------

    @property
    def is_closed(self) -> bool:
        return not self.boundary_cycles

    def degree(self, v) -> int:
        return len(self._nbrs[self._id[v]])

    def link_cycle(self, v) -> tuple:
        """Neighbours of an interior vertex in cyclic link order: from the
        first neighbour met in face order, towards the other vertex of that
        first face."""
        return _named(self, self._link_cycles[self._id[v]])

    def has_edge(self, u, v) -> bool:
        i, j = self._id.get(u), self._id.get(v)
        return i is not None and j is not None and _has_edge(self, i, j)

    def boundary_vertices(self) -> frozenset:
        return frozenset(_named(self, self._boundary))

    def oriented_faces(self) -> tuple:
        """Faces as ordered triples with a globally consistent orientation.

        Orientation is propagated across shared edges (two neighbors must
        traverse a shared edge in opposite directions).  The validator
        admits only connected surfaces with Euler characteristic 2 - b for
        b boundary components; a non-orientable one would have at most
        1 - b, so the propagation reaches every face and never contradicts
        itself.  Computed once per triangulation.
        """
        return _cached(self, "oriented_faces", self._orient)

    def _orient(self):
        faces, edge_faces, sums = self._faces, self._edge_faces, self._face_sums
        orient = [None] * len(faces)
        orient[0] = faces[0]
        stack = [0]
        while stack:
            f = stack.pop()
            a, b, c = orient[f]
            # the face across the directed edge xy runs along yx; in each
            # pair below, x y is that reversed edge
            for x, y in ((b, a), (a, c), (c, b)):
                for g in edge_faces[(x, y) if x < y else (y, x)]:
                    if orient[g] is None:
                        orient[g] = (x, y, sums[g] - x - y)
                        stack.append(g)
        names = self._names
        return tuple([(names[a], names[b], names[c]) for a, b, c in orient])

    def __eq__(self, other):
        return (isinstance(other, AbstractTriangulation)
                and self.vertices == other.vertices and self.face_set == other.face_set)

    def __hash__(self):
        return hash((self.vertices, self.face_set))

    def __repr__(self):
        kind = "closed" if self.is_closed else f"{len(self.boundary_cycles)}-boundary"
        return (f"AbstractTriangulation({len(self.vertices)} vertices, "
                f"{len(self._edge_faces)} edges, {len(self.faces)} faces, {kind})")


def _named(tri: AbstractTriangulation, ids) -> tuple:
    """The names of a sequence of vertex ids, as a tuple."""
    names = tri._names
    return tuple([names[v] for v in ids])


def _has_edge(tri: AbstractTriangulation, u, v) -> bool:
    return ((u, v) if u < v else (v, u)) in tri._edge_faces


def _is_face(tri: AbstractTriangulation, u, v, w) -> bool:
    """Whether the ids u, v, w span a face: one on the edge uv has third vertex w."""
    fs = tri._edge_faces.get((u, v) if u < v else (v, u))
    if fs is None:
        return False
    s, sums = u + v + w, tri._face_sums
    return sums[fs[0]] == s or (len(fs) == 2 and sums[fs[1]] == s)


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
            key = frozenset(e)
            if len(key) != 2 or not self.triangulation.has_edge(*key):
                raise ValidationError(f"label on non-edge {sorted(key)}")
            if not isinstance(m, int) or m < 2:
                raise ValidationError(f"label {m!r} on edge {sorted(key)} must be an integer >= 2")
            normalized[key] = m
        object.__setattr__(self, "labels", normalized)

    def label(self, u, v) -> int:
        return self.labels.get(frozenset((u, v)), 2)

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
    if not isinstance(doc["vertices"], list):
        raise ParseError("'vertices' must be a list of vertex names")
    if not isinstance(doc["faces"], list) or not all(isinstance(f, list) for f in doc["faces"]):
        raise ParseError("'faces' must be a list of vertex-name lists")
    tri = AbstractTriangulation(doc["vertices"], doc["faces"])
    labeling = None
    if doc.get("labels"):
        if not isinstance(doc["labels"], list):
            raise ParseError("'labels' must be a list of label entries")
        labels = {}
        for item in doc["labels"]:
            try:
                u, v = item["edge"]
                m = item["m"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"malformed label entry: {item!r}") from exc
            labels[frozenset((str(u), str(v)))] = m
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
#
# The enumerations run on ids, cached per triangulation; the public
# functions return the same cycles with names.  The predicates scan the id
# cycles and name only the witnesses they return.


def _cached(tri: AbstractTriangulation, key, build):
    """``build()`` computed once per triangulation; the triangulation is
    immutable, so every later call returns the stored value."""
    try:
        return tri._memo[key]
    except KeyError:
        value = tri._memo[key] = build()
        return value


def _higher_neighbours(tri: AbstractTriangulation):
    """Per id, the set of its neighbours with a larger id."""
    return _cached(tri, "higher", lambda: [{x for x in ns if x > u}
                                           for u, ns in enumerate(tri._nbrs)])


def _enumerate_triangles(tri: AbstractTriangulation):
    higher = _higher_neighbours(tri)
    out = []
    for u, up in enumerate(higher):
        for v in sorted(up):
            common = up & higher[v]
            if common:
                out.extend((u, v, w) for w in sorted(common))
    return tuple(out)


def _triangle_ids(tri: AbstractTriangulation):
    return _cached(tri, "triangle_ids", lambda: _enumerate_triangles(tri))


def triangles_of_graph(tri: AbstractTriangulation):
    """All 3-cliques of the edge graph, as sorted tuples, in sorted order."""
    names = tri._names
    return _cached(tri, "triangles", lambda: tuple([
        (names[u], names[v], names[w]) for u, v, w in _triangle_ids(tri)]))


def _enumerate_four_cliques(tri: AbstractTriangulation):
    higher = _higher_neighbours(tri)
    out = []
    for u, v, w in _triangle_ids(tri):
        common = higher[u] & higher[v] & higher[w]
        if common:
            out.extend((u, v, w, x) for x in sorted(common))
    return tuple(out)


def _four_clique_ids(tri: AbstractTriangulation):
    return _cached(tri, "four_clique_ids", lambda: _enumerate_four_cliques(tri))


def four_cliques(tri: AbstractTriangulation):
    """All 4-cliques of the edge graph, as sorted tuples, in sorted order."""
    names = tri._names
    return _cached(tri, "four_cliques", lambda: tuple([
        (names[u], names[v], names[w], names[x]) for u, v, w, x in _four_clique_ids(tri)]))


def _enumerate_four_cycles(tri: AbstractTriangulation):
    """Neighbour-of-neighbour walk, O(sum of squared degrees).

    For each vertex u, the 2-paths u - x - v with x, v > u are grouped by v;
    two middles x < y give the cycle (u, x, v, y).  Every 4-cycle is met from
    both of its diagonals; requiring u to be its smallest vertex keeps the
    one diagonal that holds it, and makes (u, x, v, y) the canonical
    rotation.
    """
    nbrs = tri._nbrs
    out = []
    for u, up in enumerate(_higher_neighbours(tri)):
        middles: dict = {}
        for x in sorted(up):                 # so each list of middles is sorted
            for v in nbrs[x]:
                if v > u:
                    middles.setdefault(v, []).append(x)
        for v, xs in middles.items():
            if len(xs) > 1:
                out.extend((u, x, v, y) for x, y in combinations(xs, 2))
    out.sort()
    return tuple(out)


def _four_cycle_ids(tri: AbstractTriangulation):
    return _cached(tri, "four_cycle_ids", lambda: _enumerate_four_cycles(tri))


def four_cycles(tri: AbstractTriangulation):
    """All 4-cycles of the edge graph as tuples (u, x, v, y) in cyclic order.

    Each cycle is reported once, in canonical rotation, and the tuple is
    sorted.  Chords are allowed.
    """
    names = tri._names
    return _cached(tri, "four_cycles", lambda: tuple([
        (names[u], names[x], names[v], names[y]) for u, x, v, y in _four_cycle_ids(tri)]))


def _empty_triangle_ids(tri: AbstractTriangulation):
    return _cached(tri, "empty_triangle_ids", lambda: tuple(
        t for t in _triangle_ids(tri) if not _is_face(tri, *t)))


def empty_three_cycles(tri: AbstractTriangulation):
    """3-cliques of the graph that do not bound a face."""
    return [_named(tri, t) for t in _empty_triangle_ids(tri)]


def _has_chord(tri: AbstractTriangulation, cycle4) -> bool:
    u, x, v, y = cycle4
    return _has_edge(tri, u, v) or _has_edge(tri, x, y)


def _face_graph(tri: AbstractTriangulation):
    """Face adjacency over face positions: each edge's index in
    ``tri._edge_faces``, and for each face the (edge index, neighbouring
    face) pairs across its interior edges."""
    edge_index = {}
    across = [[] for _ in tri._faces]
    for k, (e, fs) in enumerate(tri._edge_faces.items()):
        edge_index[e] = k
        if len(fs) == 2:
            f, g = fs
            across[f].append((k, g))
            across[g].append((k, f))
    return edge_index, tuple(map(tuple, across))


def _region_interiors(tri: AbstractTriangulation, cycle):
    """Interior-id sets of the regions the edges of the id cycle cut the
    faces into, nonempty ones only, each an unordered tuple, in no fixed
    order.

    One search starts from each face on a cycle edge.  The searches grow one
    face each in turn; two that meet merge (the faces of one are relabelled
    to the other), and one that runs out of faces has found a whole region.
    Every region holds a face on a cycle edge, so once a single search is
    left it is the last region: its interior is every vertex off the cycle
    outside the finished regions.  The search visits about as many faces as
    the smaller regions hold, not the whole surface; the last interior is
    one set difference over the vertices.
    """
    edge_index, across = _cached(tri, "face_graph", lambda: _face_graph(tri))
    n = len(cycle)
    cut = set()
    seeds = set()
    for i in range(n):
        u, v = cycle[i], cycle[(i + 1) % n]
        e = (u, v) if u < v else (v, u)
        if e not in edge_index:
            raise ValidationError(f"not a cycle: missing edge {list(_named(tri, e))}")
        cut.add(edge_index[e])
        seeds.update(tri._edge_faces[e])
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
    faces = tri._faces
    interiors = [{v for f in members[s] for v in faces[f]} - on_cycle for s in finished]
    everyone = _cached(tri, "ids", lambda: frozenset(range(len(tri._names))))
    interiors.append(everyone.difference(on_cycle, *interiors))
    return tuple(tuple(interior) for interior in interiors if interior)


def _regions(tri: AbstractTriangulation, cycle):
    """``_region_interiors`` of the id cycle, searched once per triangulation."""
    return _cached(tri, ("regions", tuple(cycle)), lambda: _region_interiors(tri, cycle))


def _components(tri: AbstractTriangulation, cycle):
    """The regions of the id cycle as ``separating_interiors`` lists them."""
    return tuple(_named(tri, interior)
                 for interior in sorted(tuple(sorted(r)) for r in _regions(tri, cycle)))


# -- predicates ----------------------------------------------------------


def is_flag(tri: AbstractTriangulation) -> bool:
    """True iff every 3-clique of the edge graph bounds a face and the graph
    has no 4-clique (which could span no simplex in a 2-complex)."""
    return _cached(tri, "is_flag",
                   lambda: not _empty_triangle_ids(tri) and not _four_clique_ids(tri))


def has_chordless_square(tri: AbstractTriangulation) -> Optional[CycleWitness]:
    """The first chordless 4-cycle, as a witness, or None."""
    return _cached(tri, "chordless_square", lambda: next(
        (CycleWitness(cycle=_named(tri, ids), kind="chordless-4-cycle")
         for ids in _four_cycle_ids(tri) if not _has_chord(tri, ids)), None))


def separating_interiors(tri: AbstractTriangulation, cycle):
    """Interior-vertex sets of the regions cut out by a cycle (removing its
    edges from the face-adjacency graph), nonempty ones only, each a sorted
    tuple, in sorted order.  The cycle separates exactly when two or more
    regions contain a vertex not on the cycle.  Each cycle is searched once
    per triangulation; later calls sort the stored regions."""
    ids = tuple(tri._id.get(v) for v in cycle)
    if None in ids:
        missing = next(v for v in cycle if v not in tri._id)
        raise ValidationError(f"not a cycle: unknown vertex {missing!r}")
    return _components(tri, ids)


def _bounds_faces(tri: AbstractTriangulation, cycle, boundary) -> bool:
    """True when at most one vertex of the id cycle is a ``boundary`` id and
    the cycle is a face or a 4-cycle whose chord splits it into two faces.

    Such a cycle cannot separate, so it needs no region search.  Its own
    faces hold no vertex off the cycle.  Every other face reaches, without
    crossing a cycle edge, the face across some cycle edge (the surface is
    face-connected).  At each cycle vertex off the boundary, the faces
    around it outside the cycle's own form one fan, which joins the faces
    across its two cycle edges; with at most one boundary vertex on the
    cycle, these fans join the faces across all cycle edges, so the rest is
    one region.  At two boundary vertices the rest may be pinched into
    several regions, so those cycles get the search.
    """
    if len(boundary.intersection(cycle)) > 1:
        return False
    if len(cycle) == 3:
        return _is_face(tri, *cycle)
    u, x, v, y = cycle
    return ((_is_face(tri, u, x, v) and _is_face(tri, u, v, y))
            or (_is_face(tri, x, u, y) and _is_face(tri, x, v, y)))


def _separates(tri: AbstractTriangulation, cycle, boundary) -> bool:
    return not _bounds_faces(tri, cycle, boundary) and len(_regions(tri, cycle)) >= 2


def separating_cycles(tri: AbstractTriangulation):
    """All 3- and 4-cycles that cut the surface into two or more regions each
    containing at least one vertex off the cycle."""
    boundary = tri._boundary
    found = [CycleWitness(cycle=_named(tri, t), kind="separating-3-cycle",
                          components=_components(tri, t))
             for t in _triangle_ids(tri) if _separates(tri, t, boundary)]
    return found + [CycleWitness(cycle=_named(tri, ids), kind="separating-4-cycle",
                                 components=_components(tri, ids))
                    for ids in _four_cycle_ids(tri) if _separates(tri, ids, boundary)]


def is_flag_no_square(tri: AbstractTriangulation) -> bool:
    """Flag no-square test for closed triangulations: flag, and every 4-cycle
    has a chord."""
    if not tri.is_closed:
        raise ValidationError("is_flag_no_square expects a closed triangulation")
    return is_flag(tri) and has_chordless_square(tri) is None


def is_flag_no_separating_square(tri: AbstractTriangulation) -> bool:
    """Flag and no separating 4-cycle (closed or planar input)."""
    boundary = tri._boundary
    return is_flag(tri) and not any(_separates(tri, ids, boundary)
                                    for ids in _four_cycle_ids(tri))


def low_degree_interior_vertices(tri: AbstractTriangulation):
    """Interior vertices of degree at most four.

    The angle sum around an interior vertex of a geodesic realization is
    2 pi, so k <= 4 incident faces force a corner angle of at least pi/2:
    such a vertex obstructs acute realizability even when the flag and
    separating-square tests pass (the bare square wheel is the one
    flag-no-separating-square example)."""
    boundary, nbrs, index = tri._boundary, tri._nbrs, tri._id
    return tuple(v for v in tri.vertices
                 if index[v] not in boundary and len(nbrs[index[v]]) <= 4)


def first_obstruction(tri: AbstractTriangulation) -> Optional[CycleWitness]:
    """A witness explaining why a triangulation fails flag no-square (closed)
    or flag-no-separating-square (planar), or None if it passes.

    Degenerate case: a 4-clique with no empty 3-cycle occurs only for the
    boundary of the tetrahedron; it is reported with kind ``four-clique``.
    """
    empty = _empty_triangle_ids(tri)
    if empty:
        t = empty[0]
        if len(_regions(tri, t)) >= 2:
            return CycleWitness(cycle=_named(tri, t), kind="separating-3-cycle",
                                components=_components(tri, t))
        return CycleWitness(cycle=_named(tri, t), kind="empty-3-cycle")
    for ids in _four_cycle_ids(tri):
        if _has_chord(tri, ids):
            continue
        if len(_regions(tri, ids)) >= 2:
            return CycleWitness(cycle=_named(tri, ids), kind="separating-4-cycle",
                                components=_components(tri, ids))
        if tri.is_closed:
            return CycleWitness(cycle=_named(tri, ids), kind="chordless-4-cycle")
    cliques = _four_clique_ids(tri)
    if cliques:
        return CycleWitness(cycle=_named(tri, cliques[0]), kind="four-clique")
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
    edge_faces = tri._edge_faces
    return any(all(len(edge_faces[e]) == 2 for e in ((u, v), (v, w), (u, w)))
               for u, v, w in _empty_triangle_ids(tri))


# -- constructive operations ---------------------------------------------


def diagonal_flip(tri: AbstractTriangulation, edge) -> AbstractTriangulation:
    """Replace an interior edge by the opposite diagonal of the square formed
    by its two incident faces."""
    u, v = tuple(edge)
    i, j = tri._id.get(u), tri._id.get(v)
    if i is None or j is None or not _has_edge(tri, i, j):
        raise ValidationError(f"no such edge: {sorted((u, v))}")
    fs = tri._edge_faces[(i, j) if i < j else (j, i)]
    if len(fs) != 2:
        raise ValidationError(f"cannot flip boundary edge {sorted((u, v))}")
    w, x = (tri._names[tri._face_sums[k] - i - j] for k in fs)
    if tri.has_edge(w, x):
        raise ValidationError(
            f"flip of {sorted((u, v))} would create a doubled edge {sorted((w, x))}")
    new_faces = [f for k, f in enumerate(tri.faces) if k not in fs]
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
    if len(tri._edge_faces) == nv * (nv - 1) // 2:
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
    if not all(any(len(interior) == 1 for interior in _regions(tri, ids))
               for ids in _four_cycle_ids(tri) if not _has_chord(tri, ids)):
        return False
    nbrs = tri._nbrs
    return not any(len(nbrs[v]) == 4 and any(len(nbrs[u]) == 4 for u in nbrs[v])
                   for v in range(len(nbrs)))
