import itertools
import json
import math
import random

import pytest

from acutesphere import fixtures
from acutesphere.errors import ParseError, ValidationError
from acutesphere.spherical import from_angles, polar_dual, tessellation_22p
from acutesphere.triangulation import (
    AbstractTriangulation, CycleWitness, EdgeLabeling, coxeter_face_finite,
    coxeter_one_ended, cycle_sides, diagonal_flip, double, empty_3cycle_obstruction,
    empty_three_cycles, first_obstruction, four_cliques, four_cycles,
    has_chordless_square, ideal_allright_conditions, is_flag,
    is_flag_no_separating_square, is_flag_no_square, itoh_face_predicate,
    maehara_cap, parse_document, separating_cycles, serialize, square_wheel,
    triangles_of_graph)


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


def _brute_separating_cycles(tri):
    """Region search on every 3-clique and every 4-cycle, no shortcut."""
    out = []
    for kind, cycles in (("separating-3-cycle", triangles_of_graph(tri)),
                         ("separating-4-cycle", four_cycles(tri))):
        for c in cycles:
            comps = tuple(interior for _, interior in cycle_sides(tri, c) if interior)
            if len(comps) >= 2:
                out.append(CycleWitness(cycle=c, kind=kind, components=comps))
    return out


def _random_flips(tri, rng, count):
    """Up to ``count`` diagonal flips of random interior edges."""
    for _ in range(count):
        edges = sorted(sorted(e) for e, fs in tri.edge_faces.items() if len(fs) == 2)
        try:
            tri = diagonal_flip(tri, rng.choice(edges))
        except ValidationError:   # the flip would double an edge
            continue
    return tri


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
    flipped = [_random_flips(base, rng, rng.randint(1, 12))
               for base in small for _ in range(4)]
    planar = []
    while len(planar) < 40:
        hole = _punctured(rng.choice(flipped + small), rng, rng.randint(1, 3))
        if hole is not None:
            planar.append(hole)
    found = 0
    for tri in corpus + flipped + planar:
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
    assert found > 100


def test_face_bounded_square_through_boundary_separates():
    # flag disk bounded by the square a x b y; the 4-cycle u x v y has the
    # chord uv splitting it into two faces, yet x and y lie on the boundary
    # and the region search splits the rest into three regions there
    disk = AbstractTriangulation(
        ["x", "u", "v", "y", "a", "b"],
        [("x", "u", "v"), ("u", "y", "v"), ("x", "u", "a"),
         ("u", "a", "y"), ("x", "v", "b"), ("v", "b", "y")])
    assert is_flag(disk)
    assert disk.boundary_cycles == (("a", "x", "b", "y"),)
    witnesses = separating_cycles(disk)
    assert len(witnesses) == 3
    chorded = [w for w in witnesses if w.cycle == ("u", "x", "v", "y")]
    assert len(chorded) == 1
    assert sorted(chorded[0].components) == [("a",), ("b",)]
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
    f1, f2 = ico.faces_of_edge(*edge)
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
    for n in range(5, 13):
        cap = maehara_cap(n)
        assert len(cap.faces) == 9 * n
        assert len(cap.boundary_cycles[0]) == n
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
    assert summary.strongly_cat1_cone_check()
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
