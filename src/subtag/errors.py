"""Exception types shared across the package."""


class SubtagError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatch(SubtagError, TypeError):
    """Operands belong to different fields."""


class DivisionByZero(SubtagError, ZeroDivisionError):
    """Inversion or division by the zero element."""


class LengthMismatch(SubtagError, ValueError):
    """A coordinate vector has the wrong length."""


class DimensionMismatch(SubtagError, ValueError):
    """Matrix or kernel shapes do not line up."""


class RankDeficient(SubtagError, ValueError):
    """A matrix that must have full rank does not."""


class DependentBasis(SubtagError, ValueError):
    """Vectors that must be linearly independent are not."""


class InvalidParams(SubtagError, ValueError):
    """Scheme parameters violate a stated constraint."""


class TooLong(SubtagError, ValueError):
    """Requested code length exceeds the number of distinct evaluation points."""


class DuplicatePoint(SubtagError, ValueError):
    """Evaluation points must be pairwise distinct."""


class TooLargeToEnumerate(SubtagError, ValueError):
    """An exhaustive routine was asked to scan a space above its guard bound."""


class SingularCurve(SubtagError, ValueError):
    """The Weierstrass equation defines a singular (non-elliptic) curve."""


class TargetInCoalition(SubtagError, ValueError):
    """The attacked verifier may not be a member of the coalition."""


class CyclicGraph(SubtagError, ValueError):
    """Network topologies must be acyclic."""


class UnknownNode(SubtagError, KeyError):
    """A node name is not present in the topology."""

    def __str__(self) -> str:
        # KeyError would print the message in quotes
        return Exception.__str__(self)


class NotQualified(SubtagError, ValueError):
    """The coalition cannot determine the target's verification key."""


class PayloadInSubspace(SubtagError, ValueError):
    """A substituted payload must lie outside the observed message space."""


class InconsistentSystem(SubtagError, ValueError):
    """Constraint rows admit no master key at all (corrupted view)."""


class InvalidReport(SubtagError, ValueError):
    """A report does not match its published schema; the message names the
    JSON path of the failing value."""


class UnsupportedSchema(SubtagError, ValueError):
    """A report schema uses a keyword or form the report checker does not
    implement, or a report kind has no schema."""


class InvariantViolated(SubtagError):
    """An identity the scheme's guarantees rest on failed to hold.

    Raised explicitly (never via ``assert``) so the check survives
    ``python -O``.
    """
