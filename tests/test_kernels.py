"""The ledger-wide kernels on plain ints against their object-based oracles.

Reduction, decoding, the Jordan split, `render_ledger` and `value_ledger`
compute on component tuples; `support` keeps the versions that build a
vector per step.  Each pair must agree on the value, or on the exception's
type and message, for magnitudes up to the int/str digit limit and one
past it.
"""

from fractions import Fraction as Q

import hypothesis.strategies as st
from hypothesis import example, given

import support
from pacioli import (
    Account,
    Ledger,
    NatVec,
    PriceVector,
    Side,
    TTerm,
    render_ledger,
    value_ledger,
)

nv = NatVec.of

# The largest amount a file may hold is TOP - 1; TOP itself has one digit
# too many.  Without a digit limit, any wide number will do.
TOP = 10**support.DIGIT_LIMIT if support.DIGIT_LIMIT else 10**60


def outcome(func, *args, **kwargs):
    """The result, or the exception's type and message."""
    try:
        return func(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


# Small and digit-limit-wide terms, and already-reduced ones.
terms = st.one_of(
    support.tterms(),
    support.tterms(limit=TOP),
    support.tterms().map(support.reference_reduced),
)
any_ledgers = st.one_of(support.ledgers(), support.ledgers(limit=TOP))


@given(terms)
@example(TTerm(nv(TOP - 1, 0), nv(TOP, 5)))
def test_reduced_matches_reference(term):
    got = term.reduced()
    assert got == support.reference_reduced(term)
    assert got.is_reduced()
    if term.is_reduced():
        assert got is term


@given(terms)
def test_decoding_matches_reference(term):
    assert term.debit_balance() == support.reference_debit_balance(term)
    assert term.credit_balance() == support.reference_credit_balance(term)


@given(st.one_of(support.intvecs(), support.intvecs(limit=TOP)))
def test_jordan_matches_reference(value):
    assert value.jordan() == support.reference_jordan(value)


def wide_ledger(*balances: TTerm, nominal: bool = False) -> Ledger:
    """Accounts A0, A1, ... alternately debit- and credit-balance."""
    dim = balances[0].dimension
    accounts = tuple(
        Account(f"A{i}", (Side.DR, Side.CR)[i % 2], balance, nominal)
        for i, balance in enumerate(balances)
    )
    return Ledger(dim, tuple(f"u{k}" for k in range(dim)), accounts)


# A0 fits in a file once reduced but not raw; the last one fits exactly.
PAST_LIMIT_RAW = wide_ledger(TTerm(nv(TOP), nv(1)), TTerm(nv(0), nv(TOP - 1)))


@given(any_ledgers, st.booleans())
@example(PAST_LIMIT_RAW, True)
@example(PAST_LIMIT_RAW, False)
@example(wide_ledger(TTerm(nv(TOP - 1, 0), nv(0, 0)), nominal=True), True)
def test_render_ledger_matches_reference(ledger, reduced):
    assert outcome(render_ledger, ledger, reduced=reduced) == outcome(
        support.reference_render_ledger, ledger, reduced=reduced
    )


# Whole, fractional and zero prices; sometimes one too many.
price = st.builds(Q, st.integers(0, 30), st.sampled_from((1, 1, 2, 3, 7)))


@st.composite
def valuations(draw):
    ledger = draw(any_ledgers)
    dim = ledger.dimension + (draw(st.integers(0, 9)) == 0)
    prices = draw(st.lists(price, min_size=dim, max_size=dim))
    return ledger, PriceVector(tuple(prices))


SEVENS = wide_ledger(TTerm(nv(7), nv(0)), TTerm(nv(0), nv(7)))
MIXED = wide_ledger(TTerm(nv(5), nv(2)), TTerm(nv(1), nv(4)))
WIDE = wide_ledger(TTerm(nv(TOP, 3), nv(1, 9)))


@given(valuations())
@example((SEVENS, PriceVector.of(Q(3, 7))))
@example((MIXED, PriceVector.of(Q(3, 7))))  # non-integer
@example((WIDE, PriceVector.of(0, Q(1, 2))))
@example((WIDE, PriceVector.of(Q(1, 2), 0)))  # non-integer, 4300-digit numerator
@example((wide_ledger(TTerm(nv(10 * TOP + 1), nv(0))), PriceVector.of(Q(1, 2))))
def test_value_ledger_matches_reference(case):
    ledger, prices = case
    assert outcome(value_ledger, ledger, prices) == outcome(
        support.reference_value_ledger, ledger, prices
    )


def test_value_ledger_unit_name_matches_reference():
    ledger = wide_ledger(TTerm(nv(4, 1), nv(0, 3)), TTerm(nv(0, 0), nv(4, 0)))
    prices = PriceVector.of(Q(1, 2), 2)
    got = value_ledger(ledger, prices, "eur")
    assert got == support.reference_value_ledger(ledger, prices, "eur")
    # A0 decodes to (4, -2), worth 4/2 - 2*2 = -2; A1 to (4, 0), worth 2.
    assert got.account("A0").balance == TTerm(nv(0), nv(2))
    assert got.account("A1").balance == TTerm(nv(0), nv(2))
    assert got.unit_names == ("eur",)
