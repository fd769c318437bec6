"""Worked examples and algebraic laws for the T-term group."""

import pytest
from hypothesis import given, strategies as st

import support
from pacioli import DimensionMismatch, IntVec, NatVec, TTerm

nv = NatVec.of
iv = IntVec.of


def tt(debit: int, credit: int) -> TTerm:
    return TTerm(nv(debit), nv(credit))


# --- componentwise min / max / disjointness ---


def test_minimum():
    assert nv(6, 0, 10).minimum(nv(0, 3, 0)) == nv(0, 0, 0)
    assert nv(5, 5).minimum(nv(5, 5)) == nv(5, 5)
    assert nv(12).minimum(nv(5)) == nv(5)


def test_maximum():
    assert nv(6, 0, 10).maximum(nv(0, 3, 0)) == nv(6, 3, 10)
    assert nv(0, 0).maximum(nv(0, 0)) == nv(0, 0)
    assert nv(12).maximum(nv(5)) == nv(12)


def test_disjoint():
    assert nv(6, 0, 10).is_disjoint(nv(0, 3, 0))
    assert nv(0, 0).is_disjoint(nv(0, 0))
    assert not nv(12).is_disjoint(nv(5))


# --- Jordan decomposition ---


def test_jordan_examples():
    assert iv(6, -3, 10).jordan() == (nv(6, 0, 10), nv(0, 3, 0))
    assert iv(0, 0, 0).jordan() == (nv(0, 0, 0), nv(0, 0, 0))
    assert iv(-2, 5, -2).jordan() == (nv(0, 5, 0), nv(2, 0, 2))


@given(support.intvecs())
def test_jordan_laws(x):
    pos, neg = x.jordan()
    assert pos.to_signed() - neg.to_signed() == x
    assert pos.is_disjoint(neg)


@given(support.natvecs())
def test_jordan_uniqueness(p):
    # Any disjoint unsigned pair is *the* decomposition of its difference.
    neg = NatVec(tuple(0 if a > 0 else a + 1 for a in p))
    assert p.is_disjoint(neg)
    assert (p.to_signed() - neg.to_signed()).jordan() == (p, neg)


# --- addition ---


def test_add_examples():
    assert tt(15000, 0) + tt(1500, 2000) == tt(16500, 2000)
    assert tt(7, 5) + tt(0, 0) == tt(7, 5)
    vec = TTerm(nv(9000, 40, 50), nv(0, 0, 0)) + TTerm(nv(0, 0, 0), nv(0, 0, 30))
    assert vec == TTerm(nv(9000, 40, 50), nv(0, 0, 30))


@given(support.tterm_triples())
def test_add_monoid_laws(terms):
    a, b, c = terms
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    zero = TTerm.zero(a.dimension)
    assert a + zero == a


# --- equality by cross-sums ---


def test_equivalent_examples():
    assert tt(16500, 2000).equivalent(tt(14500, 0))
    assert tt(0, 0).equivalent(tt(0, 0))
    assert not tt(7, 5).equivalent(tt(5, 7))  # cross-sums 14 vs 10


def test_structural_vs_group_equality():
    a, b = tt(12, 5), tt(7, 0)
    assert a.equivalent(b)
    assert a != b  # structural identity is a different relation
    assert len({a, b}) == 2  # and it is what containers use


@given(support.tterms(), st.integers(0, 50), st.integers(0, 50))
def test_equivalence_relation_and_congruence(a, k1, k2):
    pad1 = NatVec((k1,) * a.dimension)
    pad2 = NatVec((k2,) * a.dimension)
    b = a + TTerm(pad1, pad1)
    c = b + TTerm(pad2, pad2)
    assert a.equivalent(a)
    assert b.equivalent(a) and a.equivalent(b)
    assert a.equivalent(c)  # transitivity along the padding chain
    other = TTerm.zero(a.dimension) + TTerm(pad2, pad2)
    assert (a + other).equivalent(b + other)  # congruence


@given(support.tterm_pairs())
def test_equivalent_matches_oracle(pair):
    a, b = pair
    assert a.equivalent(b) == (support.signed_of(a) == support.signed_of(b))


# --- negation ---


def test_negate_examples():
    assert -tt(7, 5) == tt(5, 7)
    assert (tt(7, 5) + -tt(7, 5)).is_zero()
    assert -tt(0, 0) == tt(0, 0)
    assert -TTerm(nv(6, 0, 10), nv(0, 3, 0)) == TTerm(nv(0, 3, 0), nv(6, 0, 10))


@given(support.tterms())
def test_inverse_law(a):
    assert (a + -a).is_zero()
    assert support.signed_of(-a) == support.neg_signed(support.signed_of(a))


# --- reduction ---


def test_reduce_examples():
    assert tt(12, 5).reduced() == tt(7, 0)
    assert tt(0, 0).reduced() == tt(0, 0)
    raw = TTerm(nv(10500, 55, 50), nv(800, 15, 30))
    assert raw.reduced() == TTerm(nv(9700, 40, 20), nv(0, 0, 0))


@given(support.tterms())
def test_reduce_laws(a):
    r = a.reduced()
    assert r.is_reduced()
    assert r.equivalent(a)
    assert r.reduced() == r
    # reduced form is the Jordan decomposition of the signed value
    assert (r.debit.components, r.credit.components) == support.jordan_signed(
        support.signed_of(a)
    )


@given(support.tterm_pairs())
def test_canonical_form_characterizes_equality(pair):
    a, b = pair
    assert a.equivalent(b) == (a.reduced() == b.reduced())


# --- zero test ---


def test_is_zero_examples():
    assert tt(12, 12).is_zero()
    assert tt(0, 0).is_zero()
    assert not tt(7, 0).is_zero()
    assert tt(12, 12).equivalent(tt(0, 0))


# --- signed decodings ---


def test_debit_balance_examples():
    assert tt(16500, 2000).debit_balance() == iv(14500)
    assert tt(0, 0).debit_balance() == iv(0)
    vec = TTerm(nv(1000, 15, 30), nv(1500, 55, 50))
    assert vec.debit_balance() == iv(-500, -40, -20)


def test_credit_balance_examples():
    vec = TTerm(nv(1000, 15, 30), nv(1500, 55, 50))
    assert vec.credit_balance() == iv(500, 40, 20)
    assert tt(0, 0).credit_balance() == iv(0)
    assert tt(7, 5).credit_balance() == iv(-2)


@given(support.tterm_pairs())
def test_decoding_is_additive(pair):
    a, b = pair
    assert (a + b).debit_balance() == a.debit_balance() + b.debit_balance()
    assert a.credit_balance() == -a.debit_balance()


# --- signed encodings ---


def test_from_debit_balance_examples():
    assert TTerm.from_debit_balance(iv(15000)) == tt(15000, 0)
    assert TTerm.from_debit_balance(iv(0)) == tt(0, 0)
    assert TTerm.from_debit_balance(iv(6, -3, 10)) == TTerm(nv(6, 0, 10), nv(0, 3, 0))


def test_from_credit_balance_examples():
    assert TTerm.from_credit_balance(iv(10000)) == tt(0, 10000)
    assert TTerm.from_credit_balance(iv(0)) == tt(0, 0)
    assert TTerm.from_credit_balance(iv(-1000, 40, 50)) == TTerm(
        nv(1000, 0, 0), nv(0, 40, 50)
    )


@given(support.intvecs())
def test_encoding_round_trips(x):
    assert TTerm.from_debit_balance(x).debit_balance() == x
    assert TTerm.from_credit_balance(x).credit_balance() == x
    assert TTerm.from_debit_balance(x).is_reduced()


@given(support.tterms())
def test_decode_then_encode_recovers_up_to_equality(a):
    again = TTerm.from_debit_balance(a.debit_balance())
    assert again.equivalent(a)
    assert again == a.reduced()


# --- error handling ---


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        nv(1, 2).minimum(nv(1))
    with pytest.raises(DimensionMismatch):
        nv(1, 2).maximum(nv(1))
    with pytest.raises(DimensionMismatch):
        nv(1, 2).is_disjoint(nv(1))
    with pytest.raises(DimensionMismatch):
        nv(1, 2) + nv(1)
    with pytest.raises(DimensionMismatch):
        iv(1, 2) + iv(1)
    with pytest.raises(DimensionMismatch):
        TTerm(nv(1), nv(1, 2))
    with pytest.raises(DimensionMismatch):
        tt(1, 2) + TTerm(nv(1, 2), nv(0, 0))
    with pytest.raises(DimensionMismatch):
        tt(1, 2).equivalent(TTerm(nv(1, 2), nv(0, 0)))


def test_construction_errors():
    with pytest.raises(ValueError):
        NatVec((1, -2))
    with pytest.raises(ValueError):
        NatVec(())
    with pytest.raises(TypeError):
        NatVec((1, True))
    with pytest.raises(TypeError):
        IntVec((1.5,))
    with pytest.raises(ValueError):
        iv(-1).to_unsigned()


@pytest.mark.parametrize(
    "debit, credit",
    [(nv(1), iv(-1)), (iv(1), nv(1)), (1, 2), (nv(1), (1,)), (None, nv(1))],
)
def test_t_term_sides_are_natvecs(debit, credit):
    # `TTerm(nv(1), iv(-1))` would read as [1 // -1], outside the Pacioli group.
    with pytest.raises(TypeError, match="a T-term side is a NatVec"):
        TTerm(debit, credit)


def test_vector_conveniences():
    v = nv(9000, 40, 50)
    assert len(v) == 3 and v[1] == 40 and list(v) == [9000, 40, 50]
    assert str(v) == "(9000, 40, 50)"
    assert str(nv(14500)) == "14500"
    assert str(tt(16500, 2000)) == "[16500 // 2000]"
    assert str(TTerm(nv(10500, 55, 50), nv(800, 15, 30))) == (
        "[(10500, 55, 50) // (800, 15, 30)]"
    )


# --- what the shared vector base must keep apart ---


def test_vector_classes_stay_distinct():
    assert NatVec.of(1) != IntVec.of(1)
    assert type(nv(1) + nv(2)) is NatVec
    assert type(iv(1) + iv(2)) is IntVec
    assert type(NatVec.zeros(2)) is NatVec and type(IntVec.zeros(2)) is IntVec
    assert repr(nv(1)) == "NatVec(components=(1,))"
    assert repr(iv(-1)) == "IntVec(components=(-1,))"


small = st.lists(st.integers(0, 2), min_size=1, max_size=2).map(tuple)


@given(small, small)
def test_hash_agrees_with_eq(a, b):
    for cls in (NatVec, IntVec):
        x, y = cls(a), cls(b)
        assert (x == y) == (a == b)
        if x == y:
            assert hash(x) == hash(y)
