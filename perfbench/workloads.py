"""Workload definitions: the inputs each workload builds and the ops it runs.

An op is a JSON-serialisable dict:

* ``id``: unique name within the workload;
* ``kind``: ``cli`` (``argv`` goes to ``acutesphere.cli.main``), ``beta``
  (``klein.beta`` on a set-up realization) or ``probe`` (traced run only);
* ``check``: which output check in ``checks.py`` applies, plus the facts it
  needs (expected verdict, expected counts, paths);
* ``largest``: the op on the workload's largest input, for ``largest_op_s``;
* ``sentinel``: run once after the timed rounds, for the accuracy metrics of
  workloads whose timed ops never touch ``klein``.

The program's own ``--seed`` stays at its default on every op: it picks the
Levenberg-Marquardt starts and the Monte-Carlo streams, and the number of
stagnating starts alone moves the 110-vertex ``realize`` between 7 s and
21 s across seeds 0-3.  The workload seed drives what the benchmark chooses:
the flip walks, the dual-triangle list and the op order of every round.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("check_ladder", "realize_ladder", "invariants")

# double(maehara_cap(n)) has 47 / 110 / 182 / 362 vertices for these n
CHECK_RUNGS = (5, 12, 20, 40)
# obstructed flip walks on the two small rungs only: on the 182- and
# 362-vertex rungs they would add 2 s and 9 s to a round that already takes
# most of a run, and take the same code path as the 110-vertex one
FLIP_RUNGS = (5, 12)
CLOSED_FIXTURES = {
    "tetrahedron": False,
    "octahedron": False,
    "icosahedron": True,
    "sphere_28": True,
    "sphere_34": True,
    "square_disk_a_double": False,
    "square_disk_b_double": False,
}
# the square disks are closed by square wheels with radius-zero hubs, the
# Maehara caps by caps whose centre hosts the Euclidean projection
REALIZE_FIXTURES = ("icosahedron", "sphere_28", "sphere_34", "square_disk_a",
                    "square_disk_b", "maehara_cap_5", "maehara_cap_6", "maehara_cap_8")
REALIZE_RUNGS = (5, 8, 12)
PROBE_RUNG = 20          # 182 vertices: the known realize failure
ALPHA_INPUTS = ("icosahedron", "sphere_28")
BETA_INPUTS = ("sphere_34", "double_5", "double_8")
DUAL_22P = (2, 3, 4, 5)
DUAL_PQR = ((2, 3, 3), (2, 3, 4), (2, 3, 5))
DUAL_COUNT = 12
# acceptance criterion 2: certified absent at grid step 1e-4
ABSENT_DUAL = ("1,0.5,0.6", "2,3,5")


def import_package():
    """Import acutesphere from this checkout's ``src``; exit 2 when absent."""
    if not (SRC / "acutesphere" / "__init__.py").is_file():
        print(f"perfbench: no acutesphere package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import acutesphere
    if Path(acutesphere.__file__).resolve().parent != SRC / "acutesphere":
        print(f"perfbench: imported {acutesphere.__file__}, not the checkout's",
              file=sys.stderr)
        raise SystemExit(2)
    return acutesphere


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _fixture(name: str, work: Path) -> str:
    from acutesphere import fixtures
    return _write(work / f"{name}.json", fixtures.fixture_path(name).read_text())


def _flip_walk(tri, rng):
    """Flip edges at one vertex until some vertex has degree <= 4.

    Returns the obstructed triangulation and the first flipped edge.  A
    closed triangulation with a vertex of degree 4 (or less) has a
    separating square around it, so the result is never flag no-square.
    """
    from acutesphere.triangulation import diagonal_flip

    start = rng.choice(sorted(v for v in tri.vertices if tri.degree(v) <= 6))
    first = None
    while min(tri.degree(v) for v in tri.vertices) > 4:
        options = []
        for w in sorted(tri.adjacency[start]):
            fs = tri.edge_faces[frozenset((start, w))]
            x, y = (next(u for u in f if u not in (start, w)) for f in fs)
            if not tri.has_edge(x, y):
                options.append(w)
        w = rng.choice(options)
        tri = diagonal_flip(tri, (start, w))
        first = first or (start, w)
    return tri, first


def _check_op(path, realizable, op_id, largest=False):
    return {"id": op_id, "kind": "cli", "argv": ["check", path],
            "check": {"name": "check", "path": path, "realizable": realizable},
            "largest": largest}


def _invariants_op(path, name):
    return {"id": f"invariants:{name}", "kind": "cli", "argv": ["invariants", path],
            "check": {"name": "invariants", "path": path, "fixture": name}}


def _sentinels(work):
    ops = [_invariants_op(_fixture(name, work), name) for name in ALPHA_INPUTS]
    for op in ops:
        op["sentinel"] = True
    return ops


def build_check_ladder(rng, work):
    from acutesphere.triangulation import double, maehara_cap, serialize

    ops = []
    for n in CHECK_RUNGS:
        cap = maehara_cap(n)
        closed = double(cap)
        cap_path = _write(work / f"cap_{n}.json", serialize(cap))
        double_path = _write(work / f"double_{n}.json", serialize(closed))
        ops.append(_check_op(double_path, True, f"check:double_{n}",
                             largest=n == max(CHECK_RUNGS)))
        ops.append(_check_op(cap_path, True, f"check:cap_{n}"))
        built = str(work / "built" / f"cap_{n}.json")
        ops.append({"id": f"construct:cap_{n}", "kind": "cli",
                    "argv": ["construct", "cap", str(n), "--out", built],
                    "check": {"name": "construct", "out": built,
                              "vertices": 5 * n + 1, "faces": 9 * n}})
        built = str(work / "built" / f"double_{n}.json")
        ops.append({"id": f"construct:double_{n}", "kind": "cli",
                    "argv": ["construct", "double", cap_path, "--out", built],
                    "check": {"name": "construct", "out": built,
                              "vertices": len(closed.vertices),
                              "faces": len(closed.faces)}})
        if n not in FLIP_RUNGS:
            continue
        flipped, (u, v) = _flip_walk(closed, rng)
        flip_path = _write(work / f"flip_{n}.json", serialize(flipped))
        ops.append(_check_op(flip_path, False, f"check:flip_{n}"))
        built = str(work / "built" / f"flip_{n}.json")
        ops.append({"id": f"construct:flip_{n}", "kind": "cli",
                    "argv": ["construct", "flip", double_path, "--edge", f"{u},{v}",
                             "--out", built],
                    "check": {"name": "construct", "out": built, "base": double_path,
                              "flip": [u, v], "vertices": len(closed.vertices),
                              "faces": len(closed.faces)}})
    for name, realizable in CLOSED_FIXTURES.items():
        ops.append(_check_op(_fixture(name, work), realizable, f"check:{name}"))
    return ops + _sentinels(work)


def _realize_op(path, name, work, largest=False):
    out = str(work / "out" / name)
    return {"id": f"realize:{name}", "kind": "cli",
            "argv": ["realize", path, "--out", out],
            "check": {"name": "realize", "path": path, "out": out, "fixture": name,
                      "euclidean": name.startswith("maehara_cap")},
            "largest": largest}


def build_realize_ladder(rng, work):
    from acutesphere.triangulation import double, maehara_cap, serialize

    ops = [_realize_op(_fixture(name, work), name, work) for name in REALIZE_FIXTURES]
    for n in REALIZE_RUNGS:
        path = _write(work / f"double_{n}.json", serialize(double(maehara_cap(n))))
        ops.append(_realize_op(path, f"double_{n}", work,
                               largest=n == max(REALIZE_RUNGS)))
    path = _write(work / f"double_{PROBE_RUNG}.json",
                  serialize(double(maehara_cap(PROBE_RUNG))))
    ops.append({"id": f"probe:double_{PROBE_RUNG}", "kind": "probe", "path": path,
                "check": {"name": "realization", "path": path}})
    return ops + _sentinels(work)


def _random_acute_sides(rng):
    """Side lengths of a random spherical triangle with all angles below
    pi/2 - 0.02, so that each is acute with margin."""
    while True:
        a, b, c = (round(rng.uniform(0.35, 1.25), 6) for _ in range(3))
        if not (a < b + c and b < c + a and c < a + b):
            continue
        angles = []
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            cos_x = (math.cos(x) - math.cos(y) * math.cos(z)) / (math.sin(y) * math.sin(z))
            angles.append(math.acos(max(-1.0, min(1.0, cos_x))))
        if max(angles) < math.pi / 2 - 0.02:
            return a, b, c


def build_invariants(rng, work):
    from acutesphere import fixtures
    from acutesphere.realization import realize_sphere
    from acutesphere.triangulation import double, maehara_cap, serialize

    ops = [_invariants_op(_fixture(name, work), name) for name in ALPHA_INPUTS]
    for name in BETA_INPUTS:
        if name.startswith("double_"):
            tri = double(maehara_cap(int(name.split("_")[1])))
            path = _write(work / f"{name}.json", serialize(tri))
        else:
            tri = fixtures.load(name)
            path = _fixture(name, work)
        res = realize_sphere(tri, seed=0)
        real_path = _write(work / f"{name}.realization.json", json.dumps(
            {v: [float(x) for x in p] for v, p in res.realization.positions.items()}))
        ops.append({"id": f"beta:{name}", "kind": "beta", "path": path,
                    "positions": real_path,
                    "check": {"name": "beta", "faces": len(tri.faces)},
                    "largest": name == BETA_INPUTS[-1]})
    targets = [f"2,2,{p}" for p in DUAL_22P] + [",".join(map(str, t)) for t in DUAL_PQR]
    for k in range(DUAL_COUNT):
        sides = ",".join(repr(s) for s in _random_acute_sides(rng))
        target = targets[k % len(targets)]
        ops.append({"id": f"dual:{k}:{target}", "kind": "cli",
                    "argv": ["dual", "--triangle", sides, "--target", target],
                    # an acute triangle is slimmer than the polar dual of every
                    # (2,2,p) triangle, so those duals must be found
                    "check": {"name": "dual",
                              "expect": "found" if target.startswith("2,2,") else None}})
    triangle, target = ABSENT_DUAL
    ops.append({"id": "dual:criterion_2", "kind": "cli",
                "argv": ["dual", "--triangle", triangle, "--target", target],
                "check": {"name": "dual", "expect": "absent"}})
    return ops


BUILDERS = {"check_ladder": build_check_ladder,
            "realize_ladder": build_realize_ladder,
            "invariants": build_invariants}


def build(workload: str, seed: int, work: Path) -> list:
    """Write the workload's inputs under ``work`` and return its ops."""
    (work / "built").mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](random.Random(seed), work)
