"""The fraction group, checked against stdlib exact rationals."""

import re
from fractions import Fraction as Q  # independent oracle; auto-canonicalizing

import pytest
from hypothesis import given, strategies as st

import support
from pacioli import Fraction

entries = st.integers(1, 100)
small_entries = st.integers(1, 50)


@st.composite
def fracs(draw, limit=entries):
    return Fraction(draw(limit), draw(limit))


def test_multiply_examples():
    assert Fraction(2, 3) * Fraction(3, 2) == Fraction(6, 6)
    assert Fraction(6, 6).equivalent(Fraction.unit())
    assert Fraction(7, 9) * Fraction(1, 1) == Fraction(7, 9)
    assert Fraction(4, 5) * Fraction(7, 7) == Fraction(28, 35)


def test_equivalent_examples():
    assert Fraction(28, 35).equivalent(Fraction(4, 5))
    assert Fraction(1, 1).equivalent(Fraction(1, 1))
    assert not Fraction(2, 3).equivalent(Fraction(3, 2))  # cross-multiples 4 vs 9


def test_inverse_examples():
    assert Fraction(4, 5).inverse() == Fraction(5, 4)
    assert (Fraction(4, 5) * Fraction(4, 5).inverse()).equivalent(Fraction.unit())
    assert Fraction(1, 1).inverse() == Fraction(1, 1)
    assert Fraction(28, 35).inverse() == Fraction(35, 28)


def test_reduce_examples():
    assert Fraction(28, 35).reduced() == Fraction(4, 5)
    assert Fraction(1, 1).reduced() == Fraction(1, 1)
    assert Fraction(6, 6).reduced() == Fraction(1, 1)
    assert Fraction(28, 35).reduced().is_reduced()
    assert str(Fraction(28, 35)) == "28/35"


def test_construction_errors():
    with pytest.raises(ValueError):
        Fraction(0, 1)
    with pytest.raises(ValueError):
        Fraction(1, -2)
    with pytest.raises(TypeError):
        Fraction(1, 1.5)


@given(fracs(), fracs(), fracs())
def test_group_laws(a, b, c):
    unit = Fraction.unit()
    assert ((a * b) * c).equivalent(a * (b * c))
    assert (a * b).equivalent(b * a)
    assert (a * unit) == a
    assert (a * a.inverse()).equivalent(unit)


@given(fracs(), fracs(), fracs())
def test_equivalence_is_congruence(a, b, c):
    scaled = Fraction(a.numerator * 7, a.denominator * 7)
    assert scaled.equivalent(a)
    assert (scaled * c).equivalent(a * c)
    assert a.equivalent(b) == ((a * c).equivalent(b * c))


@given(fracs(), fracs())
def test_matches_rational_oracle(a, b):
    qa, qb = Q(a.numerator, a.denominator), Q(b.numerator, b.denominator)
    assert a.equivalent(b) == (qa == qb)
    product = a * b
    assert Q(product.numerator, product.denominator) == qa * qb
    reduced = a.reduced()
    assert (reduced.numerator, reduced.denominator) == (qa.numerator, qa.denominator)
    assert a.equivalent(b) == (a.reduced() == b.reduced())


@given(fracs(small_entries), fracs(small_entries))
def test_additive_multiplicative_analogy(a, b):
    # The same law shapes as the T-term group, with *, (1/1), and gcd in
    # place of +, [0 // 0], and min.
    assert (a * b).equivalent(b * a)
    assert (a * a.inverse()).equivalent(Fraction.unit())
    assert a.reduced().is_reduced()
    assert a.reduced().equivalent(a)
    assert a.reduced().reduced() == a.reduced()
    assert a.equivalent(b) == (a.reduced() == b.reduced())


# A refused entry is named by its repr, or by its type where it has none:
# an int past the int/str digit limit, also inside a container.
HUGE = 10 ** (support.DIGIT_LIMIT + 1)  # one digit past the int/str limit
@pytest.mark.parametrize(
    "numerator, denominator, error, message",
    [
        (1, 1.5, TypeError, "fraction entry 1.5 is not an int"),
        (1, -2, ValueError, "fraction entry -2 must be >= 1"),
        pytest.param(
            1, (HUGE,), TypeError, "fraction entry <tuple> is not an int",
            marks=support.needs_digit_limit,
        ),
        pytest.param(
            1, -HUGE, ValueError, "fraction entry <int> must be >= 1",
            marks=support.needs_digit_limit,
        ),
        pytest.param(
            [HUGE], 1, TypeError, "fraction entry <list> is not an int",
            marks=support.needs_digit_limit,
        ),
    ],
    ids=["float", "negative", "huge-in-tuple", "huge-negative", "huge-in-list"],
)
def test_a_refused_entry_is_named_in_the_error(numerator, denominator, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Fraction(numerator, denominator)
