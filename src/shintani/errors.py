"""Exception taxonomy shared by all modules."""


class ShintaniError(Exception):
    """Base class for all library errors; exit_code is the CLI's exit code
    for it."""

    exit_code = 2


class DependentInput(ShintaniError):
    """Vectors required to be linearly independent are not: a zero vector,
    or the rows of a singular matrix."""

    exit_code = 3


class CellTooLarge(ShintaniError):
    """A pairing cell would have more than CELL_POINT_BUDGET points."""


class NotUnimodular(ShintaniError):
    """Integer matrix is not in SL_n(Z) where the action requires it."""


class NotStabilizer(ShintaniError):
    """Group element does not stabilize the given step function."""


class NonUnitDenominator(ShintaniError):
    """Denominator vectors repeat, so they cannot start a basis in which
    each factor 1 - delta_u is exactly -T_i."""


class NotAMeasure(ShintaniError):
    """The numerator does not vanish on a pole T_i = 0: the pseudo-measure
    has a genuine pole and is not a measure."""

    exit_code = 4


class SchemaError(ShintaniError):
    """Malformed JSON input for the CLI."""
