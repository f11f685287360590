"""Exception types shared across the package."""


class ExtremalEllipsoidError(Exception):
    """Base class for all package errors."""


class InvalidEllipsoid(ExtremalEllipsoidError):
    """Shape matrix is not symmetric positive definite."""


class InvalidDirection(ExtremalEllipsoidError):
    """Zero direction passed where a nonzero vector is required."""


class SingularMap(ExtremalEllipsoidError):
    """Affine map with a singular linear part."""


class EmptyBody(ExtremalEllipsoidError):
    """Requested body has empty interior (e.g. slab outside the ball)."""


class EmptySlab(ExtremalEllipsoidError):
    """Cut produced an empty slab; the caller holds an infeasibility witness."""


class NotOptimal(ExtremalEllipsoidError):
    """Certification failed outright (no contact points to work with)."""


class NotNonnegative(ExtremalEllipsoidError):
    """Quadratic is negative somewhere on the certification interval."""


class DegenerateInput(ExtremalEllipsoidError):
    """Input points are not finite or do not span the ambient space
    affinely."""


class Unconverged(ExtremalEllipsoidError):
    """Iteration budget exhausted before reaching the requested gap."""

    def __init__(self, message, gap=None):
        super().__init__(message)
        self.gap = gap


class InvalidBody(ExtremalEllipsoidError):
    """Polytope is empty, unbounded or not finite where a convex body is
    required."""


class SingularShape(ExtremalEllipsoidError):
    """Orbit does not span the space; no invariant ellipsoid exists."""
