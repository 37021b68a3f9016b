"""Exception types raised by the library."""


class GaussentError(Exception):
    """Base class for all library errors."""


class NotSymmetricError(GaussentError):
    """Matrix asymmetry exceeds the symmetry tolerance."""


class UnphysicalError(GaussentError):
    """Covariance matrix violates the uncertainty principle.

    Carries the offending (smallest) symplectic eigenvalue in
    ``smallest_eigenvalue``, or ``None`` when the matrix has a non-finite
    entry or is not positive definite.
    """

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class DimensionMismatchError(GaussentError):
    """Array shapes are inconsistent with the expected mode count."""


class BadModeIndexError(GaussentError):
    """Mode index out of range, repeated, or empty selection."""


class NumericalFailureError(GaussentError):
    """An underlying numerical routine failed to converge."""


class NotSymplecticError(GaussentError):
    """Matrix does not preserve the symplectic form."""


class SingularConditioningError(GaussentError):
    """Measurement conditioning hit a numerically singular block."""


class BadCountError(GaussentError):
    """Sample count below the minimum required for covariance estimates."""


class NotBisymmetricError(GaussentError):
    """State is not symmetric under exchange of the two unmeasured modes."""


class DomainError(GaussentError):
    """Closed-form expression evaluated outside its real domain."""
