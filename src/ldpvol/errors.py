"""Exception types shared across the library."""


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
