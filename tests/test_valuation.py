"""Price-vector valuation of property ledgers."""

import argparse
import random
from fractions import Fraction as Q

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import support
from pacioli import (
    Account,
    DimensionMismatch,
    IntVec,
    JournalEntry,
    Ledger,
    NatVec,
    Posting,
    PriceVector,
    Side,
    TTerm,
    decode_equation,
    dot_value,
    post,
    reduce_ledger,
    value_ledger,
)
from pacioli.cli import _price

nv = NatVec.of
iv = IntVec.of
PAPER_PRICES = PriceVector.of(1, 100, 40)


def test_dot_value_examples():
    assert dot_value(PAPER_PRICES, iv(9700, 40, 20)) == 14500
    assert dot_value(PAPER_PRICES, iv(0, 0, 0)) == 0
    assert dot_value(PAPER_PRICES, iv(500, 40, 20)) == 5300
    assert dot_value(PAPER_PRICES, iv(9200, 0, 0)) == 9200


def test_dot_value_is_exact_rational():
    prices = PriceVector.of(Q(1, 3), Q(1, 7))
    assert dot_value(prices, iv(1, 1)) == Q(10, 21)
    assert dot_value(prices, iv(-3, 7)) == 0


def test_price_vector_validation():
    with pytest.raises(ValueError):
        PriceVector.of(-1, 2)
    with pytest.raises(ValueError):
        PriceVector(())
    with pytest.raises(DimensionMismatch):
        dot_value(PAPER_PRICES, iv(1, 2))


@pytest.mark.parametrize("price", [0.1, 0.5, 2.0, True, False])
def test_price_vector_rejects_float_and_bool_prices(price):
    # Fraction(0.1) is the float's binary value, not 1/10.
    with pytest.raises(TypeError):
        PriceVector.of(1, price)


def test_price_vector_takes_ints_fractions_and_fraction_strings():
    prices = PriceVector.of(2, Q(1, 3), "3/4", "0.1")
    assert prices.prices == (2, Q(1, 3), Q(3, 4), Q(1, 10))
    assert all(type(p) is Q for p in prices.prices)
    assert PriceVector(iter(["1/2", 3])).prices == (Q(1, 2), 3)


# Twice the digit limit: the largest exponent a price's text may carry.
BOUND = 2 * support.DIGIT_LIMIT
EXPONENTS = st.one_of(
    st.integers(BOUND - 3, BOUND + 3),
    st.integers(-BOUND - 3, -BOUND + 3),
    st.integers(-20000, 20000),
)
PRICE_TEXTS = st.one_of(
    st.integers(0, 10**30).map(str),
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(0, 99)),
    st.decimals(0, 10**9, places=6).map(str),
    st.builds("{}e{}".format, st.integers(0, 999), EXPONENTS),
    st.text("0123456789eE/._+ x", max_size=8),
)


@support.needs_digit_limit
@example("1/0")
@example(f"1e{BOUND + 1}")
@example(f"1e-{BOUND + 1}")
@given(PRICE_TEXTS)
def test_prices_option_and_price_vector_agree(text):
    """`--prices` refuses exactly the text that `PriceVector` refuses, and
    both read the rest as the same Fraction."""
    try:
        price = _price(text)
    except argparse.ArgumentTypeError:
        with pytest.raises(ValueError):
            PriceVector.of(text)
    else:
        assert PriceVector.of(text).prices == (price,)


@support.needs_digit_limit
@pytest.mark.parametrize("text", ["1e30000000", f"1E{BOUND + 1}", f" 2e-{BOUND + 1} "])
def test_price_vector_refuses_text_past_the_exponent_bound(text):
    # Fraction would build 10**exponent first: for 1e30000000 that does not
    # return in any useful time.
    with pytest.raises(ValueError, match="exponent past twice the digit limit"):
        PriceVector.of(1, text)
    assert PriceVector.of(f"1e{BOUND}", f"1e-{BOUND}").prices == (
        Q(10**BOUND),
        Q(1, 10**BOUND),
    )


@pytest.mark.parametrize("text", ["1/0", "5/00", " 0/0 "])
def test_zero_denominator_is_a_value_error_that_names_the_price(text):
    with pytest.raises(ValueError, match=f"price {text!r}: zero denominator"):
        PriceVector.of(1, text)


@support.needs_digit_limit
def test_price_vector_raises_for_its_first_bad_price():
    # Each price is converted in turn: a float and bad text raise in order.
    with pytest.raises(ValueError, match="exponent"):
        PriceVector.of("1e30000000", 0.5)
    with pytest.raises(TypeError, match="float"):
        PriceVector.of(0.5, "1e30000000")


def test_value_ledger_collapses_ending_vector_ledger(vector_ledger, vector_journal):
    ended = reduce_ledger(post(vector_ledger, vector_journal))
    valued = value_ledger(ended, PAPER_PRICES, unit_name="usd")
    assert [acc.balance for acc in valued.accounts] == [
        TTerm(nv(14500), nv(0)),
        TTerm(nv(0), nv(9200)),
        TTerm(nv(0), nv(5300)),
    ]
    eq = decode_equation(valued)
    assert eq.lhs == (("Assets", iv(14500)),)
    assert eq.rhs == (("Liabilities", iv(9200)), ("Equity", iv(5300)))


def test_value_ledger_collapses_initial_vector_ledger(vector_ledger):
    eq = decode_equation(value_ledger(vector_ledger, PAPER_PRICES))
    assert eq.lhs == (("Assets", iv(15000)),)
    assert eq.rhs == (("Liabilities", iv(10000)), ("Equity", iv(5000)))


def test_value_ledger_matches_scalar_ledger_exactly(
    scalar_ledger, vector_ledger, vector_journal, scalar_journal
):
    scalar_ended = reduce_ledger(post(scalar_ledger, scalar_journal))
    vector_ended = reduce_ledger(post(vector_ledger, vector_journal))
    assert value_ledger(vector_ended, PAPER_PRICES, unit_name="usd") == scalar_ended


def test_value_all_zero_ledger():
    ledger = Ledger(
        2,
        ("a", "b"),
        (
            Account("X", Side.DR, TTerm.zero(2)),
            Account("Y", Side.CR, TTerm.zero(2)),
        ),
    )
    valued = value_ledger(ledger, PriceVector.of(3, 5))
    assert all(acc.balance.is_zero() for acc in valued.accounts)
    assert valued.dimension == 1


def test_value_negative_balance_decodes_signed():
    ledger = Ledger(
        2,
        ("a", "b"),
        (
            Account("X", Side.DR, TTerm.from_debit_balance(iv(-4, 1))),
            Account("Y", Side.CR, TTerm.from_credit_balance(iv(-4, 1))),
        ),
    )
    valued = value_ledger(ledger, PriceVector.of(1, 1))
    assert valued.account("X").balance == TTerm(nv(0), nv(3))
    assert valued.account("Y").balance == TTerm(nv(3), nv(0))
    assert decode_equation(valued).lhs == (("X", iv(-3)),)
    assert valued.is_balanced()


def test_value_rejects_non_integral_result():
    ledger = Ledger(
        1,
        ("thing",),
        (
            Account("X", Side.DR, TTerm(nv(1), nv(0))),
            Account("Y", Side.CR, TTerm(nv(0), nv(1))),
        ),
    )
    with pytest.raises(ValueError, match="non-integer"):
        value_ledger(ledger, PriceVector.of(Q(1, 2)))


def test_value_dimension_mismatch(vector_ledger):
    with pytest.raises(DimensionMismatch):
        value_ledger(vector_ledger, PriceVector.of(1, 100))


def test_dot_value_linearity():
    rng = random.Random(41)
    for _ in range(100):
        dim = rng.randint(1, 4)
        prices = PriceVector(
            tuple(Q(rng.randint(0, 50), rng.randint(1, 10)) for _ in range(dim))
        )
        x = support.random_intvec(rng, dim)
        y = support.random_intvec(rng, dim)
        assert dot_value(prices, x + y) == dot_value(prices, x) + dot_value(prices, y)


def test_basis_prices_extract_components():
    rng = random.Random(43)
    for _ in range(50):
        dim = rng.randint(1, 4)
        x = support.random_intvec(rng, dim)
        for i in range(dim):
            basis = PriceVector(tuple(Q(int(j == i)) for j in range(dim)))
            assert dot_value(basis, x) == x[i]


def test_valuing_sides_separately_matches_signed_value():
    rng = random.Random(53)
    for _ in range(100):
        dim = rng.randint(1, 4)
        prices = PriceVector(
            tuple(Q(rng.randint(0, 30), rng.randint(1, 5)) for _ in range(dim))
        )
        term = support.random_tterm(rng, dim)
        by_sides = dot_value(prices, term.debit) - dot_value(prices, term.credit)
        assert by_sides == dot_value(prices, term.debit_balance())


def test_valuation_commutes_with_posting():
    rng = random.Random(47)
    for _ in range(50):
        ledger = support.random_ledger(rng)
        journal = support.random_journal(rng, ledger)
        prices = PriceVector(
            tuple(Q(rng.randint(0, 20)) for _ in range(ledger.dimension))
        )
        left = value_ledger(post(ledger, journal), prices)
        valued_journal = [
            JournalEntry(
                entry.description,
                tuple(
                    Posting(p.account, p.side, nv(int(dot_value(prices, p.amount))))
                    for p in entry.postings
                ),
            )
            for entry in journal
        ]
        right = post(value_ledger(ledger, prices), valued_journal)
        for name in ledger.names():
            assert left.account(name).balance.equivalent(right.account(name).balance)
