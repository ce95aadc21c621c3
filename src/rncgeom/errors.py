"""Exception types shared across the package."""


class RncGeomError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(RncGeomError):
    """Vector / multi-index / matrix sizes do not agree."""


class DegenerateCurveError(RncGeomError):
    """A curve operation received an all-zero or constant curve."""


class DegenerateParametrizationError(RncGeomError):
    """A parametrization map does not have full generic rank."""


class DirectSumError(RncGeomError):
    """Projective subspaces expected in direct sum are not.

    Carries the achieved join dimension and the expected one.
    """

    def __init__(self, achieved_dim, expected_dim):
        self.achieved_dim = achieved_dim
        self.expected_dim = expected_dim
        super().__init__(
            f"join has projective dimension {achieved_dim}, expected {expected_dim}"
        )


class GeneralPositionError(RncGeomError):
    """Input points or subspaces violate a general-position precondition.

    ``witness`` names the degenerate subset when known.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class GenericityError(RncGeomError):
    """A randomized construction hit a rank drop; caller should resample."""


class SplittingFieldRequiredError(RncGeomError):
    """An intersection point lives in a quadratic extension of Q.

    Reported distinctly from genericity failures: resampling may or may
    not remove it, and the caller must decide.
    """

    def __init__(self, discriminant):
        self.discriminant = discriminant
        super().__init__(
            f"intersection requires adjoining a square root of {discriminant}"
        )


class SpecError(RncGeomError):
    """A variety specification document is malformed or out of range."""


class InvariantError(RncGeomError):
    """A mathematical invariant the code guarantees does not hold.

    This is a defect, not bad luck: campaigns never resample it away.
    """
