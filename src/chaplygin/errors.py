"""Exception types raised by the workbench.

Everything is a subclass of ValueError, ArithmeticError or MemoryError
(AllocationFailed alone), so callers that don't care about the distinction
can catch the builtin bases.
"""

# AllocationFailed stays out: the package's public names are a fixed set (tests/test_imports.py)
__all__ = ["AnnihilationViolated", "DegenerateDenominator", "NonFiniteState", "NonPositiveFactor",
           "ScenarioError", "SingularGauge", "SymmetricInput", "UnsupportedRank"]


class SymmetricInput(ValueError):
    """A matrix expected to be antisymmetric has a symmetric part above tolerance."""


class SingularGauge(ValueError):
    """The gauge deformation (E + B pi) is numerically singular; the gauged bracket is undefined."""


class NonPositiveFactor(ValueError):
    """A conformal factor must be strictly positive at the evaluation state."""


class AnnihilationViolated(ValueError):
    """A one-form expected to annihilate the characteristic distribution does not."""


class DegenerateDenominator(ArithmeticError):
    """The closed-form angular-velocity reconstruction hit a vanishing denominator."""


class UnsupportedRank(ValueError):
    """The requested object is not defined for this constraint rank."""


class NonFiniteState(ArithmeticError):
    """Integration or a monitor produced NaN or infinity, or a state's
    |gamma|^2 overflows in the angular-velocity reconstruction."""


class ScenarioError(ValueError):
    """A scenario file failed validation. ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"scenario field '{field}': {message}")


class AllocationFailed(MemoryError):
    """An array of the requested shape does not fit in memory."""

    def __init__(self, shape: tuple):
        self.shape = shape
        super().__init__(f"cannot allocate an array of shape {shape} (float64)")


# Raised on valid input when a computation cannot go on: the CLI exits 1 on these.
RUNTIME_ERRORS = (SymmetricInput, SingularGauge, NonPositiveFactor, AnnihilationViolated,
                  DegenerateDenominator, UnsupportedRank, NonFiniteState, AllocationFailed)
