import itertools
import json
import math
import random
import re

import pytest

from acutesphere import fixtures
from acutesphere.errors import ParseError, ValidationError
from acutesphere.spherical import from_angles, polar_dual, tessellation_22p
from acutesphere.triangulation import (
    AbstractTriangulation, CycleWitness, EdgeLabeling, canonical_cycle,
    coxeter_face_finite, coxeter_one_ended, diagonal_flip, double,
    empty_3cycle_obstruction, empty_three_cycles, first_obstruction, four_cliques,
    four_cycles, has_chordless_square, ideal_allright_conditions, is_flag,
    is_flag_no_separating_square, is_flag_no_square, itoh_face_predicate,
    maehara_cap, parse_document, separating_cycles, separating_interiors, serialize,
    square_wheel, triangles_of_graph)
from conftest import cycle_sides, random_flips, reference_link_cycle, reference_tables


# -- independent brute-force oracles ----------------------------------------

def brute_triangles(tri):
    out = set()
    for t in itertools.combinations(tri.vertices, 3):
        if all(tri.has_edge(u, v) for u, v in itertools.combinations(t, 2)):
            out.add(tuple(sorted(t)))
    return out


def brute_four_cliques(tri):
    out = set()
    for q in itertools.combinations(tri.vertices, 4):
        if all(tri.has_edge(u, v) for u, v in itertools.combinations(q, 2)):
            out.add(tuple(sorted(q)))
    return out


def brute_four_cycles(tri):
    out = set()
    for q in itertools.permutations(tri.vertices, 4):
        if q[0] != min(q):
            continue
        if all(tri.has_edge(q[i], q[(i + 1) % 4]) for i in range(4)):
            out.add(tuple(q))
    # canonicalize: cycles up to rotation/reflection
    canon = set()
    for q in out:
        n = 4
        reps = []
        for k in range(n):
            fwd = tuple(q[(k + i) % n] for i in range(n))
            bwd = tuple(q[(k - i) % n] for i in range(n))
            reps += [fwd, bwd]
        canon.add(min(reps))
    return canon


def _pair_loop_four_cycles(tri):
    """The O(V^2) enumeration: every vertex pair with two or more common
    neighbours, each cycle reported once, in canonical rotation, sorted."""
    seen = set()
    out = []
    verts = sorted(tri.vertices)
    for i, u in enumerate(verts):
        for v in verts[i + 1:]:
            common = sorted(tri.adjacency[u] & tri.adjacency[v])
            for x, y in itertools.combinations(common, 2):
                key = frozenset((frozenset((u, v)), frozenset((x, y))))
                if key not in seen:
                    seen.add(key)
                    out.append(canonical_cycle((u, x, v, y)))
    return sorted(out)


def _brute_separating_cycles(tri):
    """Region search on every 3-clique and every 4-cycle, no shortcut."""
    out = []
    for kind, cycles in (("separating-3-cycle", triangles_of_graph(tri)),
                         ("separating-4-cycle", four_cycles(tri))):
        for c in cycles:
            comps = tuple(sorted(interior for _, interior in cycle_sides(tri, c)
                                 if interior))
            if len(comps) >= 2:
                out.append(CycleWitness(cycle=c, kind=kind, components=comps))
    return out


def _brute_ideal_allright(tri):
    """``ideal_allright_conditions`` with the flood fill for the regions."""
    for c in four_cycles(tri):
        u, x, v, y = c
        if tri.has_edge(u, v) or tri.has_edge(x, y):
            continue
        if not any(len(interior) == 1 for _, interior in cycle_sides(tri, c)):
            return False
    return not any(tri.has_edge(u, v) for u, v in itertools.combinations(
        [v for v in tri.vertices if tri.degree(v) == 4], 2))


def _punctured(tri, rng, holes):
    """``tri`` with ``holes`` random faces deleted, or None when the result
    is not a valid planar surface (e.g. two holes meeting at a vertex)."""
    drop = set(rng.sample(range(len(tri.faces)), holes))
    try:
        return AbstractTriangulation(
            tri.vertices, [f for i, f in enumerate(tri.faces) if i not in drop])
    except ValidationError:
        return None


def test_separating_cycles_match_region_search_oracle(load):
    rng = random.Random(20261018)
    corpus = [load(name) for name in fixtures.FIXTURE_NAMES]
    corpus += [double(maehara_cap(n)) for n in range(5, 13)]
    small = [load(name) for name in ("octahedron", "icosahedron", "sphere_28", "sphere_34")]
    small.append(double(maehara_cap(5)))
    flipped = [random_flips(base, rng, rng.randint(1, 12))
               for base in small for _ in range(4)]
    planar = []
    while len(planar) < 40:
        hole = _punctured(rng.choice(flipped + small), rng, rng.randint(1, 3))
        if hole is not None:
            planar.append(hole)
    # planar caps: every cycle through the boundary gets the region search
    caps = [maehara_cap(n) for n in range(5, 21)]
    while len(caps) < 30:
        hole = _punctured(rng.choice(caps[:8]), rng, rng.randint(1, 3))
        if hole is not None:
            caps.append(hole)
    found = 0
    allright_seen = set()
    for tri in corpus + flipped + planar + caps:
        brute = _brute_separating_cycles(tri)
        assert separating_cycles(tri) == brute, tri
        found += len(brute)
        no_sep_square = is_flag(tri) and not any(
            w.kind == "separating-4-cycle" for w in brute)
        assert is_flag_no_separating_square(tri) == no_sep_square, tri
        if not tri.is_closed:
            assert (first_obstruction(tri) is None) == no_sep_square, tri
        elif len(tri.vertices) >= 5:
            passes = (not brute and not empty_three_cycles(tri)
                      and not four_cliques(tri))
            assert (first_obstruction(tri) is None) == passes, tri
            assert is_flag_no_square(tri) == passes, tri
            if is_flag(tri):
                allright = _brute_ideal_allright(tri)
                assert ideal_allright_conditions(tri) == allright, tri
                allright_seen.add(allright)
    assert found > 100
    assert allright_seen == {False, True}


def test_four_cycles_match_pair_loop(load):
    rng = random.Random(20261020)
    corpus = [double(maehara_cap(n)) for n in range(5, 21)]
    small = [load(name) for name in ("octahedron", "icosahedron", "sphere_28", "sphere_34")]
    small.append(double(maehara_cap(5)))
    corpus += [random_flips(base, rng, rng.randint(1, 12)) for base in small for _ in range(4)]
    punctured = []
    while len(punctured) < 20:
        hole = _punctured(rng.choice(corpus), rng, rng.randint(1, 3))
        if hole is not None:
            punctured.append(hole)
    for tri in corpus + punctured:
        cycles = four_cycles(tri)
        assert cycles == tuple(_pair_loop_four_cycles(tri)), tri
        # enumerated once per triangulation; a tuple, so the cache is frozen
        assert four_cycles(tri) is cycles
        assert triangles_of_graph(tri) is triangles_of_graph(tri)


def test_separating_interiors_rejects_non_cycle(load):
    ico = load("icosahedron")
    u = ico.vertices[0]
    far = next(v for v in ico.vertices if v != u and not ico.has_edge(u, v))
    x = min(ico.adjacency[u])
    with pytest.raises(ValidationError, match="not a cycle"):
        separating_interiors(ico, (u, x, far))


def test_separating_interiors_rejects_repeated_vertices(load):
    # two vertices, the same edge twice, and a figure eight through one
    # vertex have no two sides for the search to find
    ico = load("icosahedron")
    a = ico.vertices[0]
    b = min(ico.adjacency[a])
    link = ico.link_cycle(a)
    for cycle in ((a, b), (a, b, a, b), (a, link[0], link[1], a, link[2], link[3])):
        with pytest.raises(ValidationError, match="not a cycle"):
            separating_interiors(ico, cycle)


def test_face_bounded_square_through_boundary_separates():
    # flag disk bounded by the square a x b y; the 4-cycle u x v y has the
    # chord uv splitting it into two faces, so it does not separate although
    # x and y lie on the boundary (the cap joins a and b through the hole);
    # the chordless a x v y and b x u y still separate
    disk = AbstractTriangulation(
        ["x", "u", "v", "y", "a", "b"],
        [("x", "u", "v"), ("u", "y", "v"), ("x", "u", "a"),
         ("u", "a", "y"), ("x", "v", "b"), ("v", "b", "y")])
    assert is_flag(disk)
    assert disk.boundary_cycles == (("a", "x", "b", "y"),)
    witnesses = separating_cycles(disk)
    assert len(witnesses) == 2
    assert not is_flag_no_separating_square(disk)


def test_parse_counts_and_euler(load):
    ico = load("icosahedron")
    assert (len(ico.vertices), len(ico.edges), len(ico.faces)) == (12, 30, 20)
    assert ico.is_closed
    tet = load("tetrahedron")
    assert len(tet.faces) == 4 and tet.is_closed


def test_parse_rejects_nonmanifold_edge():
    doc = {"vertices": ["a", "b", "c", "d", "e"],
           "faces": [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]]}
    with pytest.raises(ValidationError, match="non-manifold edge"):
        parse_document(json.dumps(doc))


def _octahedron(prefix, apex):
    """Faces of an octahedron with poles ``apex`` and ``prefix + "s"``."""
    ring = [f"{prefix}{k}" for k in range(4)]
    return [(pole, ring[k], ring[(k + 1) % 4]) for pole in (apex, prefix + "s")
            for k in range(4)]


def _with_vertices(faces):
    return sorted({v for f in faces for v in f}), faces


# the seven-vertex torus: faces {i, i+1, i+3} and {i, i+2, i+3} mod 7
_TORUS7 = [(str(i), str((i + d) % 7), str((i + 3) % 7)) for i in range(7) for d in (1, 2)]


@pytest.mark.parametrize("vertices, faces, message", [
    (["a", "b", "c", "d"], [("a", "b", "c")], "isolated vertex 'd'"),
    (*_with_vertices([("v", "a", "b"), ("v", "c", "d")]),
     "link of vertex 'v' is not a single cycle or path"),
    (*_with_vertices(_octahedron("a", "v") + _octahedron("b", "v")),
     "link of vertex 'v' is disconnected"),
    (*_with_vertices(list(itertools.combinations("abcd", 3))
                     + list(itertools.combinations("efgh", 3))),
     "triangulation is not connected"),
    (*_with_vertices(_TORUS7), "Euler characteristic 0, expected 2"),
], ids=["isolated", "two-faces-at-a-vertex", "glued-octahedra", "disjoint-tetrahedra",
        "torus"])
def test_validator_rejects(vertices, faces, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        AbstractTriangulation(vertices, faces)


def test_link_cycle_matches_face_scan(load):
    rng = random.Random(20261021)
    corpus = [load(name) for name in fixtures.FIXTURE_NAMES]
    for n in (5, 8, 12, 20):
        corpus += [maehara_cap(n), double(maehara_cap(n))]
    corpus += [random_flips(double(maehara_cap(8)), rng, rng.randint(1, 12)) for _ in range(12)]
    for tri in corpus:
        interior = [v for v in tri.vertices if v not in tri.boundary_vertices()]
        assert interior, tri
        for v in interior:
            assert tri.link_cycle(v) == reference_link_cycle(tri, v), (tri, v)


def test_name_views_match_reference_tables(load):
    # the name-keyed views and link cycles, built from the id tables, equal
    # the string-keyed tables of the reference constructor, with edge_faces
    # in the same key order and each value in face order
    rng = random.Random(20261022)
    corpus = [load(name) for name in fixtures.FIXTURE_NAMES]
    for n in range(5, 41):
        corpus += [maehara_cap(n), double(maehara_cap(n))]
    small = [load(name) for name in ("icosahedron", "sphere_28", "sphere_34")]
    small += [double(maehara_cap(n)) for n in (5, 8)]
    corpus += [random_flips(base, rng, rng.randint(1, 20)) for base in small for _ in range(4)]
    punctured = []
    while len(punctured) < 20:
        hole = _punctured(rng.choice(corpus[-20:]), rng, rng.randint(1, 3))
        if hole is not None:
            punctured.append(hole)
    for tri in corpus + punctured:
        ref = reference_tables(tri.vertices, tri.faces)
        for name in ("edges", "face_set", "adjacency", "boundary_edges", "boundary_cycles"):
            assert getattr(tri, name) == ref[name], (tri, name)
        assert list(tri.edge_faces.items()) == list(ref["edge_faces"].items()), tri
        interior = [v for v in tri.vertices if v not in tri.boundary_vertices()]
        assert sorted(interior) == sorted(ref["link_cycles"]), tri
        for v in interior:
            assert tri.link_cycle(v) == ref["link_cycles"][v], (tri, v)
        assert all(tri.degree(v) == len(ref["adjacency"][v]) for v in tri.vertices), tri
        # oriented once per triangulation
        assert tri.oriented_faces() is tri.oriented_faces()


def test_oriented_faces_use_each_directed_edge_once(load):
    # a consistent orientation traverses each directed edge at most once,
    # and on a closed surface every edge once in each direction
    rng = random.Random(20261019)
    corpus = [load(name) for name in fixtures.FIXTURE_NAMES]
    for n in range(5, 13):
        corpus += [maehara_cap(n), double(maehara_cap(n))]
    corpus += [random_flips(double(maehara_cap(8)), rng, rng.randint(1, 12)) for _ in range(12)]
    for tri in corpus:
        oriented = tri.oriented_faces()
        assert [set(f) for f in oriented] == [set(f) for f in tri.faces], tri
        directed = [(f[i], f[(i + 1) % 3]) for f in oriented for i in range(3)]
        assert len(set(directed)) == len(directed), tri
        if tri.is_closed:
            assert set(directed) == {d for e in tri.edges for d in (tuple(e), tuple(e)[::-1])}

    # the OFF export lists exactly these faces, in this orientation
    from acutesphere.exports import to_off
    from acutesphere.realization import GeodesicRealization
    tri = load("icosahedron")
    lines = to_off(GeodesicRealization(tri, dict.fromkeys(tri.vertices, (0.0, 0.0, 1.0)))).splitlines()
    assert lines[1] == f"{len(tri.vertices)} {len(tri.faces)} {len(tri.edges)}"
    faces = [tuple(tri.vertices[int(i)] for i in line.split()[1:])
             for line in lines[2 + len(tri.vertices):]]
    assert all(line.startswith("3 ") for line in lines[2 + len(tri.vertices):])
    assert faces == list(tri.oriented_faces())


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_document("{not json")


def test_parse_rejects_bad_faces():
    with pytest.raises(ValidationError, match="repeated"):
        AbstractTriangulation(["a", "b", "c"], [("a", "b", "b")])
    with pytest.raises(ValidationError, match="repeated face"):
        AbstractTriangulation(["a", "b", "c", "d"],
                              [("a", "b", "c"), ("c", "b", "a"), ("a", "b", "d"),
                               ("a", "c", "d"), ("b", "c", "d")])


def test_vertex_names_are_strings():
    # names that are not strings are converted before validation, so the
    # faces, views and messages all show strings
    tri = AbstractTriangulation([1, 2, 3], [(1, 2, 3)])
    assert tri.faces == (("1", "2", "3"),) and tri.has_edge("1", "2")
    assert tri.boundary_cycles == (("1", "2", "3"),)
    with pytest.raises(ValidationError, match=re.escape("face ('1', '2', '4') uses unknown vertex '4'")):
        AbstractTriangulation([1, 2, 3], [(1, 2, 4)])
    with pytest.raises(ValidationError, match=re.escape("repeated or missing vertices: ('1', '2')")):
        AbstractTriangulation([1, 2, 3], [("1", 2)])


def test_serialize_parse_roundtrip_all_fixtures():
    for name in fixtures.FIXTURE_NAMES:
        tri = fixtures.load(name)
        tri2, _ = parse_document(serialize(tri))
        assert tri2.vertices == tri.vertices
        assert tri2.faces == tri.faces


def test_enumeration_matches_bruteforce(load):
    for name in ("tetrahedron", "octahedron", "icosahedron", "square_disk_a"):
        tri = load(name)
        assert set(triangles_of_graph(tri)) == brute_triangles(tri)
        assert set(four_cliques(tri)) == brute_four_cliques(tri)
        assert set(four_cycles(tri)) == brute_four_cycles(tri)


def test_is_flag(load):
    assert is_flag(load("icosahedron"))
    assert not is_flag(load("tetrahedron"))      # K4 spans no 3-simplex
    assert is_flag(load("square_disk_a_double"))


def test_chordless_squares(load):
    w = has_chordless_square(load("octahedron"))
    assert w is not None and w.kind == "chordless-4-cycle"
    assert has_chordless_square(load("icosahedron")) is None
    w2 = has_chordless_square(load("square_disk_a_double"))
    assert w2 is not None
    assert set(w2.cycle) == {"x0", "x1", "x2", "x3"}


def test_separating_cycles(load):
    assert separating_cycles(load("icosahedron")) == []
    obstructed = separating_cycles(load("square_disk_a_double"))
    assert any(set(w.cycle) == {"x0", "x1", "x2", "x3"} for w in obstructed)
    assert all(len(w.components) >= 2 for w in obstructed)
    octa = separating_cycles(load("octahedron"))
    assert any(set(w.cycle) == {"r0", "r1", "r2", "r3"} for w in octa)


def test_flag_no_square(load):
    assert is_flag_no_square(load("icosahedron"))
    assert is_flag_no_square(load("sphere_28"))
    assert is_flag_no_square(load("sphere_34"))
    assert not is_flag_no_square(load("square_disk_a_double"))
    assert not is_flag_no_square(load("square_disk_b_double"))
    assert not is_flag_no_square(load("tetrahedron"))
    with pytest.raises(ValidationError):
        is_flag_no_square(load("square_wheel"))


def test_itoh_predicate():
    assert itoh_face_predicate(20)
    assert not itoh_face_predicate(22)
    assert not itoh_face_predicate(19)
    assert itoh_face_predicate(24) and itoh_face_predicate(100)
    with pytest.raises(ValidationError):
        itoh_face_predicate(0)


def test_diagonal_flip_involution(load):
    ico = load("icosahedron")
    edge = sorted(map(sorted, ico.edges))[0]
    flipped = diagonal_flip(ico, edge)
    f1, f2 = ico.edge_faces[frozenset(edge)]
    w = next(x for x in f1 if x not in edge)
    x = next(y for y in f2 if y not in edge)
    back = diagonal_flip(flipped, (w, x))
    assert back.face_set == ico.face_set


def test_diagonal_flip_fixes_obstructed_double(load):
    obstructed = load("square_disk_a_double")
    fixed = diagonal_flip(obstructed, ("x0", "x1"))
    assert is_flag_no_square(fixed)


def test_diagonal_flip_errors(load):
    tet = load("tetrahedron")
    with pytest.raises(ValidationError, match="doubled edge"):
        diagonal_flip(tet, ("a", "b"))
    wheel = load("square_wheel")
    with pytest.raises(ValidationError, match="boundary"):
        diagonal_flip(wheel, ("r0", "r1"))


def test_double(load):
    dw = double(load("square_wheel"))
    assert dw.is_closed and len(dw.faces) == 8
    assert all(dw.degree(v) == 4 for v in dw.vertices)   # combinatorial octahedron
    dcap = double(load("maehara_cap_5"))
    assert dcap.is_closed and len(dcap.faces) == 90
    assert double(load("square_disk_a")).face_set == load("square_disk_a_double").face_set
    with pytest.raises(ValidationError):
        double(load("icosahedron"))


def test_maehara_caps():
    for n in range(5, 41):
        cap = maehara_cap(n)
        assert len(cap.faces) == 9 * n
        assert [len(c) for c in cap.boundary_cycles] == [n]
        assert is_flag_no_separating_square(cap)
    with pytest.raises(ValidationError):
        maehara_cap(4)


def test_square_wheel():
    w = square_wheel()
    assert len(w.faces) == 4
    assert len(w.boundary_cycles[0]) == 4
    assert is_flag_no_separating_square(w)
    assert w.degree("hub") == 4


def test_square_disk_doubles_have_high_degree(load):
    for name in ("square_disk_a_double", "square_disk_b_double"):
        t = load(name)
        assert min(t.degree(v) for v in t.vertices) > 4


def test_ideal_allright_conditions(load):
    assert ideal_allright_conditions(load("icosahedron"))
    assert not ideal_allright_conditions(load("octahedron"))
    # disk + wheel on its square boundary, non-adjacent wheels
    from acutesphere.realization import glue_caps
    closed = glue_caps(load("square_disk_a")).closed
    assert ideal_allright_conditions(closed)


def test_empty_3cycle_obstruction(load):
    assert not empty_3cycle_obstruction(load("square_disk_a_double"))
    assert not empty_3cycle_obstruction(load("icosahedron"))
    # tetrahedron with one face barycentrically subdivided
    t = AbstractTriangulation(
        ["a", "b", "c", "d", "e"],
        [("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"),
         ("a", "b", "e"), ("b", "c", "e"), ("c", "a", "e")])
    assert empty_three_cycles(t) == [("a", "b", "c")]
    assert empty_3cycle_obstruction(t)


def test_coxeter_face_finite():
    assert coxeter_face_finite(2, 3, 5)
    assert not coxeter_face_finite(2, 3, 6)   # exact: 1/2 + 1/3 + 1/6 == 1
    for p in range(2, 30):
        assert coxeter_face_finite(2, 2, p)
    with pytest.raises(ValidationError):
        coxeter_face_finite(1, 2, 2)


def test_coxeter_one_ended(load):
    ico = load("icosahedron")
    assert coxeter_one_ended(ico, EdgeLabeling(ico, {}))
    tet = load("tetrahedron")
    assert not coxeter_one_ended(tet, EdgeLabeling(tet, {}))  # complete graph
    # flag complexes give one-ended groups even when hyperbolicity fails
    obstructed = load("square_disk_a_double")
    assert coxeter_one_ended(obstructed, EdgeLabeling(obstructed, {}))
    # a 3-cycle bounding no face with labels (3,3,3) induces an infinite group
    t = AbstractTriangulation(
        ["a", "b", "c", "d", "e"],
        [("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"),
         ("a", "b", "e"), ("b", "c", "e"), ("c", "a", "e")])
    labels = {frozenset(e): 3 for e in (("a", "b"), ("b", "c"), ("c", "a"))}
    assert coxeter_one_ended(t, EdgeLabeling(t, labels))
    assert not coxeter_one_ended(t, EdgeLabeling(t, {}))


def test_coxeter_one_ended_rejects_infinite_face(load):
    ico = load("icosahedron")
    f = ico.faces[0]
    labels = {frozenset((f[0], f[1])): 3, frozenset((f[1], f[2])): 3,
              frozenset((f[2], f[0])): 3}
    with pytest.raises(ValidationError, match="infinite"):
        coxeter_one_ended(ico, EdgeLabeling(ico, labels))


def test_edge_labeling_validation(load):
    ico = load("icosahedron")
    with pytest.raises(ValidationError):
        EdgeLabeling(ico, {frozenset(("v0", "nope")): 3})
    e = next(iter(ico.edges))
    with pytest.raises(ValidationError):
        EdgeLabeling(ico, {e: 1})


def test_tessellation_22p_octant():
    R = from_angles(math.pi / 2, math.pi / 2, math.pi / 2)
    summary = tessellation_22p(R, 2)
    assert summary.triangle_count == 8
    assert sorted(summary.all_cone_angles()) == pytest.approx([2 * math.pi] * 6)


def test_tessellation_22p_strongly_obtuse():
    E = from_angles(2 * math.pi / 5, 2 * math.pi / 5, 2 * math.pi / 5)
    P = polar_dual(E)
    summary = tessellation_22p(P, 2)
    assert all(a > 2 * math.pi for a in summary.all_cone_angles())


def test_tessellation_22p_fat_apex():
    # the polar dual of the icosahedral triangle is fatter than the
    # (2,2,5) triangle, so the apex cone angle 10*C exceeds 2 pi
    E = from_angles(2 * math.pi / 5, 2 * math.pi / 5, 2 * math.pi / 5)
    P = polar_dual(E)
    summary = tessellation_22p(P, 5)
    assert summary.triangle_count == 20
    apex = [a for cls, mult, a in summary.cone_angles if cls == "apex-C"][0]
    assert apex == pytest.approx(10 * P.C)
    assert apex > 2 * math.pi


def test_flag_no_separating_square_planar(load):
    assert is_flag_no_separating_square(load("square_disk_a"))
    assert is_flag_no_separating_square(load("square_disk_b"))
    assert is_flag_no_separating_square(load("maehara_cap_5"))
    # boundary square of the disk is chordless yet not separating
    assert has_chordless_square(load("square_disk_a")) is not None
