"""Exception types raised by mixcomp.

Every validation failure names the violated invariant and, where it makes
sense, the offending numerical residual, so callers can log the message
verbatim.
"""

from __future__ import annotations


class MixcompError(Exception):
    """Base class for all library errors."""


class InputError(MixcompError):
    """Malformed user input: bad file contents, bad flags, bad arguments."""


class NotHermitianError(InputError):
    """Matrix is not Hermitian within tolerance."""

    def __init__(self, residual: float, tol: float, context: str = "matrix"):
        self.residual = residual
        super().__init__(
            f"{context} is not Hermitian: max |A - A^dagger| = {residual:.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


class NotPSDError(InputError):
    """Matrix has an eigenvalue below the negativity tolerance."""

    def __init__(self, min_eigenvalue: float, tol: float, context: str = "matrix"):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            f"{context} is not positive semidefinite: minimum eigenvalue "
            f"{min_eigenvalue:.3e} is below -{tol:.3e}"
        )


class TraceError(InputError):
    """Density matrix trace differs from one."""

    def __init__(self, trace: float, tol: float, context: str = "matrix"):
        self.trace = trace
        super().__init__(
            f"{context} has trace {trace!r}, which differs from 1 by more than {tol:.3e}"
        )


class ShapeError(InputError):
    """Array has the wrong shape, or two arrays have incompatible shapes."""


class CandidateSetError(InputError):
    """Candidate set violates a structural invariant (size, dims, duplicates)."""


class ConditionNotMetError(MixcompError):
    """A constructor was called on a set that fails its precondition."""


class TupleTooShortError(MixcompError):
    """Tuple size n is smaller than the number of reduced candidates."""

    def __init__(self, n: int, r: int):
        self.n = n
        self.r = r
        super().__init__(
            f"tuple size n = {n} is smaller than the {r} reduced candidates; "
            f"the product construction needs n >= {r}"
        )


class CapExceededError(MixcompError):
    """Composite dimension d**n exceeds the configured cap.

    ``composite`` is d**n when the caller formed it; it is then printed.
    """

    def __init__(self, dim: int, n: int, cap: int, composite: int | None = None):
        self.dim = dim
        self.n = n
        self.cap = cap
        size = "" if composite is None else f" = {composite}"
        super().__init__(
            f"composite dimension {dim}**{n}{size} exceeds cap {cap}; "
            f"raise the cap to proceed"
        )


class InternalCheckError(MixcompError):
    """A self-check that should hold by construction failed. Always a bug."""
