"""Exception types shared across the library.

Names mirror the failure modes of the public operations.  Everything derives
from LocalSurfacesError so callers can catch library failures in one clause;
the CLI maps these to exit code 1 ("mathematical negative") as opposed to
usage errors (exit code 2).
"""


class LocalSurfacesError(Exception):
    """Base class for all library errors."""


class TagMismatch(LocalSurfacesError):
    """Arithmetic attempted between polynomials tagged with different charts."""


class NonInvertibleSubstitution(LocalSurfacesError):
    """A variable with negative exponent was mapped to a non-unit image."""


class NonUnitDeterminant(LocalSurfacesError):
    """A transition matrix whose determinant is not c*z^a with c != 0."""


class UnsupportedForDeformed(LocalSurfacesError):
    """Operation defined only on the undeformed surface was called with tau != 0."""


class NoZeroSection(LocalSurfacesError):
    """The zero section u = 0 does not exist on a nontrivially deformed surface."""


class WindowTooSmall(LocalSurfacesError):
    """No chart-holomorphic generator meets the requested window."""


class SupportOutsideWindow(LocalSurfacesError):
    """A cocycle has monomials outside the window it is being reduced in."""


class NotTrivial(LocalSurfacesError):
    """The cocycle represents a nonzero cohomology class; no certificate exists."""


class StepCapExceeded(LocalSurfacesError):
    """Window stabilization hit the growth cap before the value settled."""

    def __init__(self, message, last_value=None, last_window=None):
        super().__init__(message)
        self.last_value = last_value
        self.last_window = last_window


class BadCocycleSupport(LocalSurfacesError):
    """A deformation cocycle has terms outside the allowed degrees 1..k-1."""


class VerificationFailed(LocalSurfacesError):
    """A symbolic identity that must vanish did not."""


class CertificateNotFound(LocalSurfacesError):
    """No in-window splitting certificate exists (window too small, or the
    class is genuinely nontrivial)."""


class NotApplicable(LocalSurfacesError):
    """The requested constant is outside its domain of validity."""
