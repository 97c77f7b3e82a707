"""Acute geodesic triangulations of the sphere.

Combinatorial realizability tests (flag no-square and friends), numerical
realization through orthogonal circle patterns, spherical trigonometry,
hyperbolic slanted-cube duality, and the alpha/beta invariants.

The public names below are resolved on first access (PEP 562), so
``import acutesphere`` loads neither numpy nor scipy: the combinatorial
layer (``triangulation``) is pure Python, and each numerical submodule is
imported when one of its names is first used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "duality": ("AbsenceCertificate", "DualityWitness", "DualSolveResult", "SigmaCurve",
                "foot_parameter", "sigma", "solve_dual_22p", "solve_dual_general"),
    "errors": ("AcuteSphereError", "GeometryError", "InternalInconsistency", "ParseError",
               "SolveError", "ValidationError"),
    "klein": ("SlantedCubeModel", "beta", "build_slanted_cube", "volume"),
    "realization": ("AlphaEstimate", "CirclePatternResidual", "CombinatorialRefusal",
                    "EuclideanRealization", "GeodesicRealization", "RealizationResult",
                    "alpha_estimate", "is_subordinate", "pattern_residuals",
                    "project_euclidean", "realize_sphere", "verify_acute",
                    "verify_coinciding_perpendiculars"),
    "spherical": ("CornerMap", "SphericalTriangle", "acute_sides_property", "area", "fatter",
                  "from_angles", "from_sides", "is_acute", "is_strongly_obtuse",
                  "orthocenter", "polar_dual", "slimmer", "tessellation_22p",
                  "triangle_pqr"),
    "triangulation": ("AbstractTriangulation", "CycleWitness", "EdgeLabeling",
                      "coxeter_face_finite", "coxeter_one_ended", "diagonal_flip", "double",
                      "empty_3cycle_obstruction", "has_chordless_square",
                      "ideal_allright_conditions", "is_flag",
                      "is_flag_no_separating_square", "is_flag_no_square",
                      "itoh_face_predicate", "maehara_cap", "parse_document", "parse_file",
                      "separating_cycles", "serialize", "square_wheel"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "pattern")

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    # not cached here: the attribute is always the submodule's current one
    if name in _ORIGIN:
        return getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
