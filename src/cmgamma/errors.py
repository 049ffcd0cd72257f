"""Exception types shared across the package."""


class CmGammaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CmGammaError):
    """Argument outside the mathematical domain of the operation."""


class PrecisionError(CmGammaError):
    """A certified enclosure could not be tightened to the requested target."""


class QuadratureFailure(CmGammaError):
    """The (non-certified) quadrature estimate did not converge."""


class DegreeError(CmGammaError):
    """Numerator degree too large for a pure partial-fraction split."""


class FixtureMismatch(CmGammaError):
    """A computed object disagrees with its transcribed fixture.

    Carries a human-readable diff in ``args[0]``.
    """


class ConstantsFormatError(CmGammaError):
    """The constants file does not follow the documented grammar."""
