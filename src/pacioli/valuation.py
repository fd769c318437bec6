"""Price-vector valuation: collapsing property vectors to scalar value.

Dotting each account's signed property vector with a vector of per-unit
prices turns a dimension-n property ledger into the ordinary dimension-1
value ledger.  Prices are exact rationals (stdlib Fraction), so the whole
pipeline stays exact; the dot product is linear, so valuation commutes
with posting.
"""

from dataclasses import dataclass
from fractions import Fraction as Rational
from math import lcm
from operator import mul
from typing import Union

from .algebra import DimensionMismatch, IntVec, NatVec
from .ledger import Account, Ledger, Side, _text

__all__ = ["PriceVector", "dot_value", "value_ledger"]


@dataclass(frozen=True)
class PriceVector:
    """Per-unit prices: non-negative exact rationals, one per dimension."""

    prices: tuple[Rational, ...]

    def __post_init__(self):
        prices = tuple(Rational(p) for p in self.prices)
        if not prices:
            raise ValueError("a price vector needs at least one price")
        for i, p in enumerate(prices, start=1):
            if p < 0:
                raise ValueError("negative price " + _text(p, "price %d (negative)", i))
        object.__setattr__(self, "prices", prices)

    @classmethod
    def of(cls, *prices) -> "PriceVector":
        return cls(prices)

    @property
    def dimension(self) -> int:
        return len(self.prices)


def dot_value(prices: PriceVector, quantities: Union[IntVec, NatVec]) -> Rational:
    """Exact scalar product of prices and a quantity vector."""
    if prices.dimension != quantities.dimension:
        raise DimensionMismatch(
            f"dimension mismatch: {prices.dimension} prices vs "
            f"{quantities.dimension} quantities"
        )
    return sum((p * q for p, q in zip(prices.prices, quantities)), Rational(0))


def value_ledger(
    ledger: Ledger, prices: PriceVector, unit_name: str = "value"
) -> Ledger:
    """Value every account and re-encode it, yielding a scalar ledger.

    Each balance is decoded on its account's side, dotted with the prices,
    and encoded back on the same side; account order, roles, and nominal
    flags carry over, so the zero-account property does too.  Raises if a
    valuation is not a whole number (balances are integers by construction;
    pick integral prices or rescale).
    """
    if prices.dimension != ledger.dimension:
        raise DimensionMismatch(
            f"dimension mismatch: {prices.dimension} prices vs "
            f"ledger dimension {ledger.dimension}"
        )
    # Integer weights over the prices' common denominator: an account's
    # value is its signed balance dotted with `weights`, over `scale`.
    scale = lcm(*(p.denominator for p in prices.prices))
    weights = [p.numerator * (scale // p.denominator) for p in prices.prices]
    accounts = []
    for acc in ledger.accounts:
        d, c = acc.balance.debit.components, acc.balance.credit.components
        scaled = sum(map(mul, weights, d)) - sum(map(mul, weights, c))
        if acc.role is Side.CR:
            scaled = -scaled
        value, remainder = divmod(scaled, scale)
        if remainder:
            owner = "account %r: a non-integer value"
            text = _text(Rational(scaled, scale), owner, acc.name)
            raise ValueError(f"account {acc.name!r} values to non-integer {text}")
        scalar = IntVec((value,))
        accounts.append(Account.from_signed(acc.name, acc.role, scalar, acc.nominal))
    return Ledger(1, (unit_name,), tuple(accounts))
