"""Semantic exception hierarchy.

Every failure mode that callers are expected to handle gets its own class;
generic ValueError/TypeError are reserved for outright API misuse.
"""


class DispersionError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DispersionError):
    """A family-spec string or CLI argument does not match the grammar."""


class UnknownFamily(ParseError):
    """Family name is not in the registry."""


class ParamOutOfDomain(DispersionError):
    """A family parameter violates its legal range."""

    def __init__(self, family: str, name: str, value: float, legal: str):
        self.family = family
        self.name = name
        self.value = value
        self.legal = legal
        super().__init__(f"{family}: parameter {name}={value!r} outside legal range {legal}")


class DegenerateScale(DispersionError):
    """Affine transform with a = 0, or with a non-finite scale a or shift b."""


class WeightSumError(DispersionError):
    """Mixture weights do not sum to 1."""


class MixedKinds(DispersionError):
    """Mixture components do not share a support kind."""


class EmptyTail(DispersionError):
    """Truncation conditioning event has (numerically) zero probability."""


class UnsupportedKind(DispersionError):
    """Operation not defined for this support kind."""


class OutsideSupport(DispersionError):
    """Evaluation point lies outside the distribution's support."""


class TailExhausted(DispersionError):
    """Survival-function denominator underflowed to zero."""


class HeadExhausted(DispersionError):
    """CDF denominator underflowed to zero."""


class DivergentTail(DispersionError):
    """Tail integral failed to converge."""


class DivergentMoment(DispersionError):
    """Moment integral/sum failed to converge or is infinite."""


class GridEmpty(DispersionError):
    """A scan grid contained no usable points."""


class DegenerateY(DispersionError):
    """S_Y(t) underflowed: t is beyond the range of |X - X'|."""


class ContinuousInput(DispersionError):
    """Lattice-only operation called with a continuous distribution."""


class SupportTooLarge(DispersionError):
    """Retained lattice support exceeds the enumeration limit."""


class CriterionNeverHolds(DispersionError):
    """No threshold on the scanned grid satisfies the tail criterion."""


class ConsistencyViolation(DispersionError):
    """A theorem certificate contradicts the numeric SD - GMD sign.

    This always signals a bug in the caller or the library, never a
    legitimate analysis outcome; it must not be silently swallowed.
    """
