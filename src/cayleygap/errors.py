"""Exception types shared across the toolkit."""


class CayleyGapError(Exception):
    """Base class for all toolkit errors."""


class InvalidTable(CayleyGapError):
    """A multiplication table violates the group axioms."""


class ClosureTooLarge(CayleyGapError):
    """Permutation closure exceeded the configured element cap."""


class GroupMismatch(CayleyGapError):
    """Operands live on different groups."""


class EmptySet(CayleyGapError):
    """Operation requires a nonempty subset."""


class KZero(CayleyGapError):
    """Iterated convolution order must be at least 1."""


class NoFiniteDiameter(CayleyGapError):
    """Powers of the set never cover the group."""


class NotCataloged(CayleyGapError):
    """No irreducible-representation catalog for this group family."""


class IncompleteCatalog(CayleyGapError):
    """Fourier coefficients do not cover the full catalog."""


class HypothesisFail(CayleyGapError):
    """A bound's hypothesis failed verification on the given instance."""


class NotRegular(CayleyGapError):
    """Graph is not regular, or Bohr set fails the regularity condition."""


class NotAbelian(CayleyGapError):
    """Operation is defined only for abelian groups."""


class EmptyRepList(CayleyGapError):
    """Bohr set needs at least one representation."""


class ZeroMass(CayleyGapError):
    """Function has zero total mass."""


class NegativeValues(CayleyGapError):
    """Function must be nonnegative."""


class SearchExhausted(CayleyGapError):
    """Guaranteed search found no witness; treated as a suite failure."""


class TrivialRep(CayleyGapError):
    """Operation requires a nontrivial representation."""


class GroupTooLarge(CayleyGapError):
    """Group order exceeds the cap for this exact enumeration."""


class DeltaOutOfRange(CayleyGapError):
    """Bohr radius outside the admissible range for this check."""


class NoneFound(CayleyGapError):
    """No regular radius found in the scan window; treated as a suite failure."""


class RangeViolation(CayleyGapError):
    """Parameter outside the admissible range for the check."""


class NotBk(CayleyGapError):
    """Constructed set is not a B_k set."""


class NotABasis(CayleyGapError):
    """Constructed set does not satisfy the coverage hypothesis."""


class LambdaResampleFail(CayleyGapError):
    """Random component failed its coverage property within the retry budget."""


class IoFailure(CayleyGapError):
    """Report emission failed."""
