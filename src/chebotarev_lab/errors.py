"""Exception hierarchy shared by all modules.

Every error carries a stable machine-readable ``code`` so the CLI can render
failures uniformly.
"""

from __future__ import annotations


class ChebotarevLabError(Exception):
    """Base class; ``code`` is the stable machine-readable identifier."""

    code = "Error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class ValidationError(ChebotarevLabError):
    """Bad input or configuration detected before any computation."""

    code = "ValidationError"


class UnknownGroup(ValidationError):
    code = "UnknownGroup"


class LimitTooLarge(ValidationError):
    code = "LimitTooLarge"


class ParameterOutOfRange(ValidationError):
    code = "ParameterOutOfRange"


class CatalogError(ValidationError):
    code = "CatalogError"


class GroupMismatch(ValidationError):
    """A prime's factorization type is the cycle type (or order) of no element of the field's group."""

    code = "GroupMismatch"


class ComputationError(ChebotarevLabError):
    """Errors raised while computing on validated inputs."""

    code = "ComputationError"


class RamifiedPrime(ComputationError):
    code = "RamifiedPrime"


class NotCoprimeToDiscriminant(ComputationError):
    code = "NotCoprimeToDiscriminant"


class SieveRangeExceeded(ComputationError):
    code = "SieveRangeExceeded"


class AmbiguousClass(ComputationError):
    code = "AmbiguousClass"


class DomainTooSmall(ComputationError):
    code = "DomainTooSmall"


class UnsupportedSubgroupAction(ComputationError):
    code = "UnsupportedSubgroupAction"


class UndecidableIntersectionRule(ComputationError):
    code = "UndecidableIntersectionRule"


class NotQuadratic(ValidationError):
    code = "NotQuadratic"


class EqualFields(ValidationError):
    code = "EqualFields"
