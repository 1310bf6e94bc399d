"""Exception hierarchy shared by all thermocap modules."""


class ModelError(Exception):
    """Base class for every error raised by this package."""


class NonPositiveConstant(ModelError):
    """A material constant that must be strictly positive is not."""


class IndefiniteGradientForm(ModelError):
    """Gradient-energy coefficients violate C > 0 and C*E - D**2 > 0."""


class InvalidConfig(ModelError):
    """A configuration value breaks a documented invariant."""


class CriticalIsotherm(ModelError):
    """Interface quantities requested exactly at T0 = T_c (width diverges)."""


class UndecayedTail(ModelError):
    """Profile has not relaxed to its bulk values at the domain ends."""


class NewtonDiverged(ModelError):
    """Damped Newton could not reduce the residual within the damping budget."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class MaxIterations(ModelError):
    """Newton iteration budget exhausted before reaching tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonPositiveData(ModelError):
    """Log-log fitting requires strictly positive abscissae and ordinates."""


class DegenerateSpan(ModelError):
    """Fit abscissae span less than one decade; the exponent is ill-posed."""
