"""Price-vector valuation: collapsing property vectors to scalar value.

Dotting each side of each account's T-term with a vector of per-unit
prices turns a dimension-n property ledger into the ordinary dimension-1
value ledger; an account's role only decides how its value is read.
Prices are exact rationals (stdlib Fraction), so the whole pipeline stays
exact; the dot product is linear, so valuation commutes with posting.
"""

import re
import sys
from dataclasses import dataclass
from fractions import Fraction as Rational
from math import lcm
from operator import mul
from typing import Union

from .algebra import DimensionMismatch, IntVec, NatVec, TTerm
from .ledger import Account, Ledger, Side, _text

__all__ = ["PriceVector", "dot_value", "value_ledger"]


def _rational(price) -> Rational:
    """An int, a Fraction or the text of one, as a Fraction.  Fraction builds
    10**exponent unchecked: text past twice the digit limit is refused first."""
    if isinstance(price, (float, bool)):
        raise TypeError("a price is an int or a Fraction, not a float or bool")
    exp = isinstance(price, str) and re.search(r"[eE]([-+]?\d+(_\d+)*)\s*\Z", price)
    limit = 2 * getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if exp and limit and abs(int(exp[1])) > limit:
        raise ValueError(f"price {price!r}: exponent past twice the digit limit")
    return Rational(price)


@dataclass(frozen=True)
class PriceVector:
    """Per-unit prices, one per dimension, >= 0: ints, Fractions or their text
    (no floats), text refused past the exponent bound of `value --prices`."""

    prices: tuple[Rational, ...]

    def __post_init__(self):
        prices = tuple(map(_rational, self.prices))
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
    """Value every account's T-term, yielding a scalar ledger.

    The prices are dotted with each side of each balance, and the valued
    balance is the debit value less the credit value, reduced; account
    order, roles, and nominal flags carry over, so the zero-account property
    does too.  The role only decides how a value is read: a non-integer
    value raises, read on its account's own side (balances are integers by
    construction; pick integral prices or rescale).
    """
    if prices.dimension != ledger.dimension:
        raise DimensionMismatch(
            f"dimension mismatch: {prices.dimension} prices vs "
            f"ledger dimension {ledger.dimension}"
        )
    # Integer weights over the prices' common denominator: a side's value is
    # its vector dotted with `weights`, over `scale`.
    scale = lcm(*(p.denominator for p in prices.prices))
    weights = [p.numerator * (scale // p.denominator) for p in prices.prices]
    accounts = []
    for acc in ledger.accounts:
        debit = sum(map(mul, weights, acc.balance.debit.components))
        credit = sum(map(mul, weights, acc.balance.credit.components))
        value, remainder = divmod(debit - credit, scale)
        if remainder:
            scaled = credit - debit if acc.role is Side.CR else debit - credit
            owner = "account %r: a non-integer value"
            text = _text(Rational(scaled, scale), owner, acc.name)
            raise ValueError(f"account {acc.name!r} values to non-integer {text}")
        balance = TTerm.from_debit_balance(IntVec((value,)))
        accounts.append(Account(acc.name, acc.role, balance, acc.nominal))
    return Ledger(1, (unit_name,), tuple(accounts))
