"""Two-sided account arithmetic over unsigned integer vectors.

The central object is the T-term ``[debit // credit]``: an ordered pair of
equal-length vectors of unsigned integers.  T-terms add componentwise side
by side, and two T-terms count as equal when their cross-sums agree
(``[x // y] == [w // z]`` iff ``x + z == y + w``).  Under those definitions
the T-terms form a commutative group -- the group of differences, or
Pacioli group -- even though no negative number is ever stored: the inverse
of ``[x // y]`` is simply ``[y // x]``.

Signed vectors enter and leave the system only through the two encodings:
a debit-balance reading maps ``[x // y]`` to ``x - y`` and a credit-balance
reading maps it to ``y - x``.  Going the other way, a signed vector splits
into its disjoint positive and negative parts (Jordan decomposition) and
lands on one side or the other of a T-term.

Everything here is immutable and pure; dimensions are checked on every
binary operation.  Components are plain Python ints, so in memory
magnitudes are unbounded and no overflow handling is needed.  Text is
bounded by the interpreter's int/str digit limit (4300 digits by default,
see ``sys.get_int_max_str_digits``): a longer amount in a file is a parse
error, and ``ledger._text`` refuses to write or print a longer number.
"""

from dataclasses import dataclass
from operator import sub
from typing import Iterable, Iterator

__all__ = ["DimensionMismatch", "NatVec", "IntVec", "TTerm"]


class DimensionMismatch(ValueError):
    """An operation mixed vectors of different lengths."""


def _shown(value) -> str:
    """`value` in an error message: its repr, or its type's name where no
    repr can be made (an int past the int/str digit limit has none)."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__}>"


def _same_dimension(a, b) -> None:
    if a.dimension != b.dimension:
        raise DimensionMismatch(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )


def _signed_sum(vectors: Iterable["_Vec"], dimension: int) -> list[int]:
    """The componentwise sum of `vectors` as plain ints, `dimension` zeros
    if empty; a vector of another dimension raises `DimensionMismatch`."""
    result = [0] * dimension
    for v in vectors:
        if len(v.components) != dimension:
            raise DimensionMismatch(f"dimension mismatch: {dimension} vs {v.dimension}")
        for j, c in enumerate(v.components):
            result[j] += c
    return result


@dataclass(frozen=True)
class _Vec:
    """An ordered tuple of integers (dimension >= 1); the subclasses differ
    only in whether a component may be negative.  A plain `tuple` argument
    is kept, not copied; any other iterable is copied to a plain tuple."""

    components: tuple[int, ...]
    _signed = True

    def __post_init__(self):
        items = self.components
        if type(items) is not tuple:
            items = tuple(items)
            object.__setattr__(self, "components", items)
        if not items:
            raise ValueError("a vector needs at least one component")
        for c in items:  # `type(c) is int` first: it is by far the common case
            if type(c) is not int and (not isinstance(c, int) or isinstance(c, bool)):
                raise TypeError(f"vector component {_shown(c)} is not an int")
            if c < 0 and not self._signed:
                raise ValueError(
                    f"negative component {_shown(c)} in an unsigned vector"
                )

    @classmethod
    def of(cls, *components: int):
        return cls(components)

    @classmethod
    def zeros(cls, dimension: int):
        return cls((0,) * dimension)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self) -> Iterator[int]:
        return iter(self.components)

    def __getitem__(self, index: int) -> int:
        return self.components[index]

    def __add__(self, other):
        _same_dimension(self, other)
        return type(self)(tuple(a + b for a, b in zip(self.components, other.components)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)

    def __str__(self) -> str:
        if len(self.components) == 1:
            return str(self.components[0])
        return "(" + ", ".join(str(c) for c in self.components) + ")"


@dataclass(frozen=True)
class NatVec(_Vec):
    """An ordered tuple of unsigned integers (dimension >= 1)."""

    _signed = False

    def minimum(self, other: "NatVec") -> "NatVec":
        """Componentwise minimum."""
        _same_dimension(self, other)
        return NatVec(tuple(map(min, self.components, other.components)))

    def maximum(self, other: "NatVec") -> "NatVec":
        """Componentwise maximum."""
        _same_dimension(self, other)
        return NatVec(tuple(map(max, self.components, other.components)))

    def is_disjoint(self, other: "NatVec") -> bool:
        """True when the componentwise minimum is the zero vector."""
        _same_dimension(self, other)
        return all(min(a, b) == 0 for a, b in zip(self.components, other.components))

    def to_signed(self) -> "IntVec":
        return IntVec(self.components)


@dataclass(frozen=True)
class IntVec(_Vec):
    """An ordered tuple of signed integers (dimension >= 1)."""

    @classmethod
    def total(cls, vectors: Iterable["IntVec"], dimension: int) -> "IntVec":
        """Signed sum of `vectors`; the zero vector of `dimension` if empty.

        One pass on plain ints (`_signed_sum`): the sum is built as a vector
        once, at the end.
        """
        return cls(tuple(_signed_sum(vectors, dimension)))

    def __sub__(self, other: "IntVec") -> "IntVec":
        _same_dimension(self, other)
        return IntVec(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self) -> "IntVec":
        return IntVec(tuple(-c for c in self.components))

    def jordan(self) -> tuple[NatVec, NatVec]:
        """Split into disjoint unsigned positive and negative parts.

        Returns ``(pos, neg)`` with ``pos - neg == self`` and
        ``pos.is_disjoint(neg)``; the pair is the unique one with both
        properties.
        """
        pos = NatVec(tuple([c if c > 0 else 0 for c in self.components]))
        neg = NatVec(tuple([-c if c < 0 else 0 for c in self.components]))
        return pos, neg

    def to_unsigned(self) -> NatVec:
        """Reinterpret as unsigned; raises if any component is negative."""
        return NatVec(self.components)


def _reduce(debit: tuple[int, ...], credit: tuple[int, ...]):
    """The sides of the reduced ``[debit // credit]``: both minus their
    componentwise minimum, or the same tuples when that minimum is zero."""
    m = tuple(map(min, debit, credit))
    if not any(m):
        return debit, credit
    return tuple(map(sub, debit, m)), tuple(map(sub, credit, m))


@dataclass(frozen=True)
class TTerm:
    """A two-sided account value ``[debit // credit]``.

    ``==`` (and hashing) is structural: both sides componentwise identical.
    Group equality -- the thing that makes ``[12 // 5]`` the same balance as
    ``[7 // 0]`` -- is :meth:`equivalent`.  Keep structural identity for
    container keys and serialization, and `equivalent` for the mathematics.
    """

    debit: NatVec
    credit: NatVec

    def __post_init__(self):
        debit, credit = self.debit, self.credit
        if type(debit) is not NatVec or type(credit) is not NatVec:
            name = type(credit if type(debit) is NatVec else debit).__name__
            raise TypeError(f"a T-term side is a NatVec, not {name}")
        if len(debit.components) != len(credit.components):
            _same_dimension(debit, credit)

    @classmethod
    def zero(cls, dimension: int) -> "TTerm":
        return cls(NatVec.zeros(dimension), NatVec.zeros(dimension))

    @classmethod
    def from_debit_balance(cls, value: IntVec) -> "TTerm":
        """Encode a signed vector as a debit-balance T-term ``[v+ // v-]``.

        The result is reduced, and :meth:`debit_balance` inverts it.
        """
        pos, neg = value.jordan()
        return cls(pos, neg)

    @classmethod
    def from_credit_balance(cls, value: IntVec) -> "TTerm":
        """Encode a signed vector as a credit-balance T-term ``[v- // v+]``."""
        pos, neg = value.jordan()
        return cls(neg, pos)

    @property
    def dimension(self) -> int:
        return self.debit.dimension

    def __add__(self, other: "TTerm") -> "TTerm":
        return TTerm(self.debit + other.debit, self.credit + other.credit)

    def __neg__(self) -> "TTerm":
        return TTerm(self.credit, self.debit)

    def equivalent(self, other: "TTerm") -> bool:
        """Group equality: the cross-sums agree componentwise."""
        _same_dimension(self, other)
        return self.debit + other.credit == other.debit + self.credit

    def is_zero(self) -> bool:
        """True when debit equals credit componentwise (a zero-term)."""
        return self.debit == self.credit

    def is_reduced(self) -> bool:
        return self.debit.is_disjoint(self.credit)

    def reduced(self) -> "TTerm":
        """The unique equivalent T-term with disjoint sides; `self` when the
        sides are already disjoint.

        Subtracts the componentwise minimum from both sides; this is the
        only subtraction on unsigned vectors, and it cannot go negative.
        """
        debit, credit = _reduce(self.debit.components, self.credit.components)
        if debit is self.debit.components:
            return self
        return TTerm(NatVec(debit), NatVec(credit))

    def debit_balance(self) -> IntVec:
        """Signed value under the debit reading: debit - credit."""
        return IntVec(tuple(map(sub, self.debit.components, self.credit.components)))

    def credit_balance(self) -> IntVec:
        """Signed value under the credit reading: credit - debit."""
        return IntVec(tuple(map(sub, self.credit.components, self.debit.components)))

    def __str__(self) -> str:
        return f"[{self.debit} // {self.credit}]"
