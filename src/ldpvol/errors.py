"""Exception types shared across the library, and the number check that raises one."""

import numbers


class LdpvolError(Exception):
    """Base class for all library-specific errors."""


class InvalidKernelError(LdpvolError, ValueError):
    """Kernel parameters outside the admissible range."""


class AdmissibilityError(LdpvolError, ValueError):
    """Kernel slice fails the square-integrability / finiteness check."""


class DimensionError(LdpvolError, ValueError):
    """Array shapes inconsistent with the declared dimensions."""


class UnsupportedDomainError(LdpvolError, ValueError):
    """Operation requested outside the supported geometric class."""


class UnsupportedFormError(LdpvolError, ValueError):
    """Model not declared in a form the operation can handle."""


class DomainError(LdpvolError, ValueError):
    """Scalar input outside the operation's domain."""


class DivergenceError(LdpvolError, RuntimeError):
    """A solver iterate exceeded the blow-up threshold."""


class SingularVolatilityError(LdpvolError, RuntimeError):
    """Volatility matrix numerically singular along the evaluated path."""


class AssumptionError(LdpvolError, ValueError):
    """Model configuration does not declare an assumption the formula needs."""


class ConvergenceError(LdpvolError, RuntimeError):
    """Iteration failed to converge; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def require_number(value, what: str, kind=numbers.Real):
    """value itself; DomainError unless it is a ``kind`` number (``numbers.Real``
    or ``numbers.Integral``).  Booleans count as neither."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise DomainError(f"{what} must be {noun}, got {value!r}")
    return value
