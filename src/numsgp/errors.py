"""Exception hierarchy.

Three branches, matching how the CLI maps failures to exit codes: bad input
that can never define a numerical semigroup, preconditions of individual
operations, and campaign configuration problems.
"""


class SemigroupError(Exception):
    """Base class for everything raised by this package."""


class InvalidSemigroupInput(SemigroupError):
    """The generator list cannot define a numerical semigroup."""


class EmptyInput(InvalidSemigroupInput):
    """The generator list is empty."""


class NonCoprime(InvalidSemigroupInput):
    """gcd of the generators exceeds 1, so the complement is infinite."""


class ConductorCapExceeded(InvalidSemigroupInput):
    """The conductor would exceed the configured cap (NUMSGP_MAX_CONDUCTOR)."""


class PreconditionViolation(SemigroupError):
    """An operation was applied outside its stated domain."""


class IsTrivial(PreconditionViolation):
    """The operation is undefined for the semigroup of all nonnegative ints."""


class NotMaxGenerated(PreconditionViolation):
    """Largest minimal generator is not 2g + 1."""


class NotSymmetric(PreconditionViolation):
    """Frobenius number plus one is not twice the genus."""


class EmbeddingDimTooSmall(PreconditionViolation):
    """The operation needs embedding dimension at least 3."""


class GapTooSmall(PreconditionViolation):
    """The largest generator is below twice the multiplicity."""


class BadParameters(PreconditionViolation):
    """Family parameters outside the construction's domain."""


class CampaignConfigError(SemigroupError):
    """Bad campaign configuration; maps to a usage error in the CLI."""


class BoundTooLarge(CampaignConfigError):
    """Requested genus bound exceeds the supported enumeration depth."""


class UnknownProperty(CampaignConfigError):
    """Property name not in the campaign registry."""
