"""The sparse report grid and the plain-int signed side path, each checked
against the dense or vector-at-a-time version it replaced (kept in
support.py)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

import support
from pacioli import (
    Account,
    DimensionMismatch,
    IntVec,
    Ledger,
    LedgerError,
    Side,
    SignedAccount,
    SignedLedger,
    SignedRow,
    TTerm,
    TransactionsTable,
    journal_to_signed,
    net_changes,
    signed_post,
    table_sums,
    to_signed,
)
from pacioli.reports import _grid, render_signed_report, render_table_report

NAMES = ("A1", "A2", "A3", "A4", "A5")
GHOST = "Ghost"  # never an account of a drawn ledger
texts = st.text(alphabet="ab1 .-\t", max_size=4)


def outcome(func, *args):
    """The result, or the exception's type and message."""
    try:
        return func(*args)
    except (LedgerError, DimensionMismatch) as exc:
        return type(exc), str(exc)


# --- the grid ---


@given(st.lists(st.lists(texts, max_size=6), min_size=1, max_size=6))
def test_grid_of_dense_rows_matches_reference(rows):
    assert _grid([enumerate(row) for row in rows]) == support.reference_grid(rows)


@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 5), texts), max_size=6),
        min_size=1,
        max_size=6,
    )
)
def test_grid_of_sparse_rows_matches_dense_reference(rows):
    """Left-out columns are blank, and a column named twice shows (and is
    as wide as) its last text only."""
    dense = []
    for row in rows:
        cells = dict(row)
        dense.append([cells.get(i, "") for i in range(max(cells, default=-1) + 1)])
    assert _grid(rows) == support.reference_grid(dense)


def test_grid_of_no_rows_is_empty():
    assert _grid([]) == ""


# --- the signed report ---


@st.composite
def signed_ledgers(draw, dim: int) -> SignedLedger:
    names = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=5))
    accounts = tuple(
        SignedAccount(name, draw(st.sampled_from(Side)), draw(support.intvecs(dim)))
        for name in names
    )
    return SignedLedger(dim, tuple(f"u{k + 1}" for k in range(dim)), accounts)


@st.composite
def report_rows(draw, dim: int) -> SignedRow:
    """Changes to any name, the ghost included, repeats and zeros allowed."""
    values = st.one_of(support.intvecs(dim, limit=50), st.just(IntVec.zeros(dim)))
    changes = draw(
        st.lists(st.tuples(st.sampled_from((*NAMES, GHOST)), values), max_size=5)
    )
    return SignedRow(draw(texts), tuple(changes))


@st.composite
def signed_reports(draw):
    dim = draw(st.integers(1, 3))
    ledger = draw(signed_ledgers(dim))
    rows = draw(st.none() | st.lists(report_rows(dim), max_size=6))
    ending = draw(st.none() | signed_ledgers(dim))  # any accounts: ragged rows
    return ledger, rows, ending


@given(signed_reports())
def test_signed_report_matches_reference(case):
    ledger, rows, ending = case
    assert render_signed_report(*case) == support.reference_render_signed_report(
        ledger, rows, ending
    )


def test_signed_report_shows_last_change_and_skips_unknown_accounts():
    ledger = SignedLedger(1, ("usd",), (SignedAccount("A", Side.DR, IntVec.of(0)),))
    changes = (("A", IntVec.of(123456)), (GHOST, IntVec.of(1)), ("A", IntVec.of(7)))
    row = SignedRow("t", changes)
    text = render_signed_report(ledger, [row])
    assert text == support.reference_render_signed_report(ledger, [row])
    lines = text.splitlines()
    assert lines[:3] == [" " * 11 + "A", "beginning  0", "1. t" + " " * 7 + "7"]


# --- the transactions-table report ---


@st.composite
def table_cases(draw):
    m = draw(st.integers(1, 5))
    names = NAMES[:m]
    cells = draw(
        st.lists(
            st.lists(st.integers(0, 3) | st.integers(0, 10**6), min_size=m, max_size=m),
            min_size=m,
            max_size=m,
        )
    )
    accounts = tuple(
        Account(name, draw(st.sampled_from(Side)), TTerm.zero(1)) for name in names
    )
    ledger = Ledger(1, ("usd",), accounts)
    table = TransactionsTable(names, cells)
    return table, table_sums(table), net_changes(table, ledger), ledger


@given(table_cases())
def test_table_report_matches_reference(case):
    assert render_table_report(*case) == support.reference_render_table_report(*case)


# --- the signed side path on plain ints ---


@st.composite
def ledgers_and_journals(draw):
    ledger = draw(support.ledgers())
    journal = draw(support.journals(ledger))
    if draw(st.booleans()):
        bad = draw(support.invalid_entries(ledger))
        journal.insert(draw(st.integers(0, len(journal))), bad)
    return ledger, journal


@given(ledgers_and_journals())
def test_journal_to_signed_matches_reference(case):
    ledger, journal = case
    assert outcome(journal_to_signed, journal, ledger) == outcome(
        support.reference_journal_to_signed, journal, ledger
    )


@st.composite
def posting_rows(draw, ledger: SignedLedger) -> SignedRow:
    """A zero row over the ledger's accounts, sometimes broken one way: an
    unknown account, a change of another dimension, or a nonzero sum."""
    dim = ledger.dimension
    names = ledger.names()
    changes = draw(
        st.lists(
            st.tuples(st.sampled_from(names), support.intvecs(dim, limit=50)),
            max_size=3,
        )
    )
    total = IntVec.total((v for _, v in changes), dim)
    changes.append((draw(st.sampled_from(names)), -total))
    kind = draw(st.sampled_from(("ok", "ok", "unknown", "dimension", "unbalanced")))
    i = draw(st.integers(0, len(changes) - 1))
    name, value = changes[i]
    if kind == "unknown":
        changes[i] = (GHOST, value)
    elif kind == "dimension":
        changes[i] = (name, IntVec.zeros(dim + 1))
    elif kind == "unbalanced":
        changes[i] = (name, value + IntVec((1,) * dim))
    return SignedRow(draw(texts), tuple(changes))


@st.composite
def signed_postings(draw):
    ledger = to_signed(draw(support.ledgers()))
    rows = draw(st.lists(posting_rows(ledger), max_size=5))
    return ledger, rows


@given(signed_postings())
def test_signed_post_matches_reference(case):
    ledger, rows = case
    assert outcome(signed_post, ledger, rows) == outcome(
        support.reference_signed_post, ledger, rows
    )


def test_signed_post_errors_match_reference():
    ledger = SignedLedger(
        2,
        ("a", "b"),
        (
            SignedAccount("A", Side.DR, IntVec.of(1, 2)),
            SignedAccount("B", Side.CR, IntVec.of(-1, -2)),
        ),
    )
    ok = SignedRow("ok", (("A", IntVec.of(3, 0)), ("B", IntVec.of(-3, 0))))
    for bad in (
        SignedRow("ghost", (("A", IntVec.of(0, 0)), (GHOST, IntVec.of(0, 0)))),
        SignedRow("wide", (("B", IntVec.of(0, 0, 0)),)),
        SignedRow("off", (("A", IntVec.of(1, 0)),)),
    ):
        got = outcome(signed_post, ledger, [ok, bad])
        assert got == outcome(support.reference_signed_post, ledger, [ok, bad])
        assert got[1].startswith("row 2")


# --- IntVec.total ---


@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(support.intvecs(d), max_size=6))
    )
)
def test_total_matches_fold(case):
    dim, vectors = case
    assert IntVec.total(vectors, dim) == support.reference_total(vectors, dim)


def test_total_rejects_another_dimension():
    vectors = [IntVec.of(1, 2), IntVec.of(3)]
    with pytest.raises(DimensionMismatch) as got:
        IntVec.total(vectors, 2)
    with pytest.raises(DimensionMismatch) as want:
        support.reference_total(vectors, 2)
    assert str(got.value) == str(want.value)
