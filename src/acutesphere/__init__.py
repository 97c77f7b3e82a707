"""Acute geodesic triangulations of the sphere.

Combinatorial realizability tests (flag no-square and friends), numerical
realization through orthogonal circle patterns, spherical trigonometry,
hyperbolic slanted-cube duality, and the alpha/beta invariants.
"""

__version__ = "0.1.0"

from .duality import (AbsenceCertificate, DualityWitness, DualSolveResult,
                      SigmaCurve, foot_parameter, sigma, solve_dual_22p,
                      solve_dual_general)
from .errors import (AcuteSphereError, GeometryError, InternalInconsistency,
                     ParseError, SolveError, ValidationError)
from .klein import SlantedCubeModel, beta, build_slanted_cube, volume
from .realization import (AlphaEstimate, CirclePatternResidual, CombinatorialRefusal,
                          EuclideanRealization, GeodesicRealization,
                          RealizationResult, alpha_estimate, is_subordinate,
                          pattern_residuals, project_euclidean, realize_sphere,
                          verify_acute, verify_coinciding_perpendiculars)
from .spherical import (CornerMap, SphericalTriangle, acute_sides_property, area,
                        fatter, from_angles, from_sides, is_acute,
                        is_strongly_obtuse, orthocenter, polar_dual, slimmer,
                        tessellation_22p, triangle_pqr)
from .triangulation import (AbstractTriangulation, CycleWitness, EdgeLabeling,
                            coxeter_face_finite, coxeter_one_ended, diagonal_flip,
                            double, empty_3cycle_obstruction, has_chordless_square,
                            ideal_allright_conditions, is_flag,
                            is_flag_no_separating_square, is_flag_no_square,
                            itoh_face_predicate, maehara_cap, parse_document,
                            parse_file, separating_cycles, serialize, square_wheel)
