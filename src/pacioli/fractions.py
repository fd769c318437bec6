"""The multiplicative mirror of the T-term algebra: a group of fractions.

Ordered pairs of positive integers multiply entrywise, are equal when their
cross-multiples agree (``n1*d2 == n2*d1``), invert by swapping entries, and
reduce to lowest terms by dividing out the gcd.  Addition/zero/min in the
T-term world correspond to multiplication/one/gcd here.

Unlike :class:`fractions.Fraction` from the stdlib, values are *not*
canonicalized on construction; ``Fraction(28, 35)`` keeps both entries, and
reduction is an explicit step.  Entries are restricted to >= 1 so that every
element has an inverse.
"""

import math
from dataclasses import dataclass

__all__ = ["Fraction"]


def _shown(value) -> str:
    """`value` in an error message: its repr, or its type's name where no
    repr can be made (an int past the int/str digit limit has none).  The
    same as `algebra._shown`; this module imports no other pacioli module."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__}>"


@dataclass(frozen=True)
class Fraction:
    """A pair of positive integers under entrywise multiplication."""

    numerator: int
    denominator: int

    def __post_init__(self):
        for entry in (self.numerator, self.denominator):
            if not isinstance(entry, int) or isinstance(entry, bool):
                raise TypeError(f"fraction entry {_shown(entry)} is not an int")
            if entry < 1:
                raise ValueError(f"fraction entry {_shown(entry)} must be >= 1")

    @classmethod
    def unit(cls) -> "Fraction":
        return cls(1, 1)

    def __mul__(self, other: "Fraction") -> "Fraction":
        return Fraction(
            self.numerator * other.numerator,
            self.denominator * other.denominator,
        )

    def inverse(self) -> "Fraction":
        return Fraction(self.denominator, self.numerator)

    def equivalent(self, other: "Fraction") -> bool:
        """Group equality: cross-multiples agree."""
        return self.numerator * other.denominator == other.numerator * self.denominator

    def is_reduced(self) -> bool:
        return math.gcd(self.numerator, self.denominator) == 1

    def reduced(self) -> "Fraction":
        """The unique equivalent fraction in lowest terms."""
        g = math.gcd(self.numerator, self.denominator)
        return Fraction(self.numerator // g, self.denominator // g)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"
