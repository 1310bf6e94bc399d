"""Exception hierarchy shared by all thermocap modules."""


class ModelError(Exception):
    """Base class for every error raised by this package.

    report, when given, is the solver's record up to the failure (a
    NewtonReport); the CLI prints it under the message.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InvalidConfig(ModelError):
    """A configuration value breaks a documented invariant."""


class NonPositiveConstant(InvalidConfig):
    """A material constant that must be strictly positive is not."""


class IndefiniteGradientForm(InvalidConfig):
    """Gradient-energy coefficients violate C > 0 and C*E - D**2 > 0."""


class CriticalIsotherm(ModelError):
    """No interface to describe: T0 = T_c exactly (the width diverges), or an
    undercooling too small to separate rho_l from rho_v in floating point."""


class UndecayedTail(ModelError):
    """Profile has not relaxed to its bulk values at the domain ends, or holding
    the solved front at y = 0 takes a force that leaves its equations unsolved."""


class UnderResolved(ModelError):
    """The collocation's largest level leaves the profile's Chebyshev tail undecayed."""


class NewtonDiverged(ModelError):
    """Newton failed: a non-finite system, a singular Jacobian, a failed line
    search, or an iterate outside the density bracket."""


class MaxIterations(ModelError):
    """Newton iteration budget exhausted before reaching tolerance."""


class NonPositiveData(ModelError):
    """Data that must be finite and strictly positive is not: a log-log fit's
    abscissae and ordinates, or the vapor density rho_v that bulk_states finds."""


class DegenerateSpan(ModelError):
    """Fit abscissae span less than one decade; the exponent is ill-posed."""
