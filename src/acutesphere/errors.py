"""Exception types shared across the package."""


class AcuteSphereError(Exception):
    """Base class for all package errors."""


class ValidationError(AcuteSphereError):
    """A triangulation, labeling or numeric object violates an invariant."""


class ParseError(AcuteSphereError):
    """A triangulation document is syntactically malformed."""


class GeometryError(AcuteSphereError):
    """Inputs describe no valid spherical/hyperbolic object (e.g. triangle
    inequality failure, arccos argument far outside [-1, 1])."""


class SolveError(AcuteSphereError):
    """A numerical solver failed to reach its tolerance.  Carries the best
    residual seen; never a proof of nonexistence."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class InternalInconsistency(AcuteSphereError):
    """An internal consistency check failed (e.g. a constructed object lost
    a property it is built to have).  Signals an implementation bug, not bad
    input."""
