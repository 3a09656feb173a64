"""Exception hierarchy.

Two broad families matter to callers (and to the CLI exit codes): bad input
(``InputError``) versus a computation that left its numerical domain
(``NumericalDomainError``).
"""


class GaussLiftError(Exception):
    """Base class for all library errors."""


class InputError(GaussLiftError, ValueError):
    """Malformed or inconsistent input (shapes, species, schema, guards)."""


class SizeGuardError(InputError):
    """Requested truncated representation exceeds the dense-storage guard."""


class InvalidStructureError(InputError):
    """A matrix fails the requirements of a complex structure or metric."""


class NumericalDomainError(GaussLiftError):
    """A formula was evaluated outside its numerical domain."""


class MatrixOverflowError(NumericalDomainError):
    """Matrix exponential overflowed for an extreme-norm argument."""


class SpectrumOnCutError(NumericalDomainError):
    """An eigenvalue sits on the branch cut of a principal matrix function."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class CommutationError(NumericalDomainError):
    """Operands that must commute with the complex structure do not."""


class UnitarilyOrthogonalError(NumericalDomainError):
    """The holomorphic determinant vanishes; the circle phase is undefined."""


class ResolventSingularError(NumericalDomainError):
    """A resolvent in a generator formula is genuinely singular.

    Nothing raises it (the lift forms no resolvent); it is kept because the
    benchmark counts failures by this class.
    """


class PathSingularityError(NumericalDomainError):
    """A phase path hit a persistent zero of the determinant.

    No library function raises it: the phase engine squares in the double
    cover and reports a singular C through the errors of the group law.
    """


class PhaseUndefinedError(NumericalDomainError):
    """A vacuum amplitude is numerically zero, so its phase is undefined."""
