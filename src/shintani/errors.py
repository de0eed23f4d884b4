"""Exception taxonomy shared by all modules, and the base of the read-only value classes."""


class _ReadOnly:
    """Base of the value classes, whose fields are slots set once, in __init__."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __setstate__(self, state):  # copy and pickle hand over (None, {slot: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


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
    """Integer matrix is not in GL_n(Z) (det 1 or -1) where the action requires it."""


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
