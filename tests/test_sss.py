"""The signed single-sided system and its equivalence to double entry."""

import random

import pytest

import support
from pacioli import (
    DimensionMismatch,
    IntVec,
    JournalEntry,
    LedgerError,
    NatVec,
    Posting,
    PostingError,
    Side,
    SignedAccount,
    SignedLedger,
    SignedRow,
    journal_to_signed,
    post,
    signed_post,
    to_signed,
    zero_row_check,
)

nv = NatVec.of
iv = IntVec.of


def test_to_signed_scalar(scalar_ledger):
    signed = to_signed(scalar_ledger)
    assert signed.balances() == (iv(15000), iv(-10000), iv(-5000))
    assert signed.is_zero_row()
    assert [acc.role for acc in signed.accounts] == [Side.DR, Side.CR, Side.CR]


def test_to_signed_vector(vector_ledger):
    signed = to_signed(vector_ledger)
    assert signed.balances() == (
        iv(9000, 40, 50),
        iv(-10000, 0, 0),
        iv(1000, -40, -50),
    )
    assert signed.is_zero_row()


def test_to_signed_empty():
    from pacioli import Ledger

    signed = to_signed(Ledger(2, ("a", "b")))
    assert signed.accounts == ()
    assert signed.is_zero_row()


def test_journal_to_signed_scalar(scalar_ledger, scalar_journal):
    rows = journal_to_signed(scalar_journal, scalar_ledger)
    assert rows[0].changes == (("Assets", iv(-1200)), ("Equity", iv(1200)))
    assert rows[1].changes == (("Assets", iv(1500)), ("Equity", iv(-1500)))
    assert rows[2].changes == (("Assets", iv(-800)), ("Liabilities", iv(800)))
    assert all(row.is_zero() for row in rows)


def test_journal_to_signed_degenerate(scalar_ledger):
    entry = JournalEntry(
        "wash",
        (Posting("Assets", Side.DR, nv(5)), Posting("Assets", Side.CR, nv(5))),
    )
    (row,) = journal_to_signed([entry], scalar_ledger)
    assert row.changes == (("Assets", iv(0)),)
    assert row.is_zero()


def test_journal_to_signed_vector(vector_ledger, vector_journal):
    rows = journal_to_signed(vector_journal, vector_ledger)
    # the production sale nets cash up and output inventory down on Assets
    assert rows[2].changes == (
        ("Assets", iv(1500, -15, 0)),
        ("Equity", iv(-1500, 15, 0)),
    )


def test_journal_to_signed_propagates_validation(scalar_ledger):
    entry = JournalEntry("bad", (Posting("Nowhere", Side.DR, nv(5)),))
    with pytest.raises(PostingError):
        journal_to_signed([entry], scalar_ledger)


def test_signed_post_scalar(scalar_ledger, scalar_journal):
    signed = to_signed(scalar_ledger)
    rows = journal_to_signed(scalar_journal, scalar_ledger)
    ended = signed_post(signed, rows)
    assert ended.balances() == (iv(14500), iv(-9200), iv(-5300))
    assert ended.is_zero_row()


def test_signed_post_vector(vector_ledger, vector_journal):
    signed = to_signed(vector_ledger)
    rows = journal_to_signed(vector_journal, vector_ledger)
    ended = signed_post(signed, rows)
    assert ended.balances() == (
        iv(9700, 40, 20),
        iv(-9200, 0, 0),
        iv(-500, -40, -20),
    )
    assert ended.is_zero_row()


def test_signed_post_empty_journal(scalar_ledger):
    signed = to_signed(scalar_ledger)
    assert signed_post(signed, []) == signed


def test_signed_post_rejects_bad_rows(scalar_ledger):
    signed = to_signed(scalar_ledger)
    with pytest.raises(LedgerError, match="sum to zero"):
        signed_post(signed, [SignedRow("bad", (("Assets", iv(5)),))])
    with pytest.raises(LedgerError, match="unknown"):
        signed_post(signed, [SignedRow("bad", (("Nowhere", iv(0)),))])
    with pytest.raises(DimensionMismatch):
        signed_post(signed, [SignedRow("bad", (("Assets", iv(1, -1)),))])


def test_signed_ledger_construction_errors():
    acc = SignedAccount("A", Side.DR, iv(1))
    with pytest.raises(LedgerError, match="duplicate"):
        SignedLedger(1, ("usd",), (acc, acc))
    with pytest.raises(DimensionMismatch):
        SignedLedger(2, ("a", "b"), (acc,))
    with pytest.raises(LedgerError, match="unit"):
        SignedLedger(1, ("bad unit",), (acc,))


def test_zero_row_check():
    assert zero_row_check([iv(15000), iv(-10000), iv(-5000)])
    assert zero_row_check([])
    assert not zero_row_check([iv(5), iv(-4)])
    with pytest.raises(DimensionMismatch):
        zero_row_check([iv(1), iv(1, 2)])


def test_commuting_square_on_examples(
    scalar_ledger, scalar_journal, vector_ledger, vector_journal
):
    for ledger, journal in (
        (scalar_ledger, scalar_journal),
        (vector_ledger, vector_journal),
    ):
        left = to_signed(post(ledger, journal))
        right = signed_post(to_signed(ledger), journal_to_signed(journal, ledger))
        assert left == right


def test_commuting_square_random():
    rng = random.Random(23)
    for _ in range(100):
        ledger = support.random_ledger(rng)
        journal = support.random_journal(rng, ledger)
        left = to_signed(post(ledger, journal))
        right = signed_post(to_signed(ledger), journal_to_signed(journal, ledger))
        assert left == right


def test_credit_convention_is_negation(vector_ledger):
    signed = to_signed(vector_ledger)
    credit_view = tuple(
        acc.balance.credit_balance() for acc in vector_ledger.accounts
    )
    assert credit_view == tuple(-b for b in signed.balances())


def test_signed_post_routes_through_no_double_entry_code(
    monkeypatch, scalar_ledger, scalar_journal, vector_ledger, vector_journal
):
    """The deliberate redundancy: with `post`, `validate_entry` and `_net`
    made to raise wherever `ledger` and `sss` look them up, `signed_post`
    gives the same ending, so the commuting square compares two
    independent implementations."""
    import pacioli.ledger
    import pacioli.sss

    cases = []
    for ledger, journal in (
        (scalar_ledger, scalar_journal),
        (vector_ledger, vector_journal),
    ):
        signed, rows = to_signed(ledger), journal_to_signed(journal, ledger)
        cases.append((signed, rows, signed_post(signed, rows)))

    def refuse(*args, **kwargs):
        raise AssertionError("signed_post reached the double-entry path")

    for module in (pacioli.ledger, pacioli.sss):
        for name in ("post", "validate_entry", "_net"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for signed, rows, expected in cases:
        assert signed_post(signed, rows) == expected
