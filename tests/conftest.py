import itertools
import math

import numpy as np
import pytest

from acutesphere import fixtures as fixture_registry
from acutesphere.errors import ValidationError
from acutesphere.klein import boost_to, lift
from acutesphere.spherical import from_angles, from_sides
from acutesphere.triangulation import diagonal_flip


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


def cycle_sides(tri, cycle):
    """Flood-fill oracle for the region search: split the faces along an
    embedded cycle.

    Removing the cycle's edges disconnects the dual (face-adjacency) graph
    into regions; for a cycle through interior vertices of a sphere there
    are exactly two, at boundary vertices there may be more.  Returns a list
    of (faces, interior_vertices) pairs, in no particular order.
    """
    n = len(cycle)
    cut = {frozenset((cycle[i], cycle[(i + 1) % n])) for i in range(n)}
    for e in cut:
        if e not in tri.edges:
            raise ValidationError(f"not a cycle: missing edge {sorted(e)}")
    unseen = set(tri.face_set)
    sides = []
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
        interior = sorted({v for f in region for v in f} - set(cycle))
        sides.append((region, tuple(interior)))
    return sides


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
