"""Named triangulation fixtures shipped with the package.

The corpus covers the platonic sanity cases, the two square-boundary disks
whose doubles defeat the naive degree heuristic, the 28- and 34-face
closed triangulations, and the cap constructions.  Files live under
``acutesphere/data`` in the standard JSON format; ``load`` parses and
validates on every call.
"""

from __future__ import annotations

from importlib import resources

from .errors import ValidationError
from .triangulation import AbstractTriangulation, parse_document

FIXTURE_NAMES = (
    "tetrahedron",
    "octahedron",
    "icosahedron",
    "square_wheel",
    "maehara_cap_5",
    "maehara_cap_6",
    "maehara_cap_7",
    "maehara_cap_8",
    "square_disk_a",
    "square_disk_b",
    "square_disk_a_double",
    "square_disk_b_double",
    "sphere_28",
    "sphere_34",
)


def fixture_path(name: str):
    if name not in FIXTURE_NAMES:
        raise ValidationError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")
    return resources.files("acutesphere").joinpath("data").joinpath(name + ".json")


def load(name: str) -> AbstractTriangulation:
    text = fixture_path(name).read_text(encoding="utf-8")
    tri, _ = parse_document(text)
    return tri
