"""The scalar transactions-table view."""

import random
import warnings

import hypothesis.strategies as st
import pytest
from hypothesis import given

import support
from pacioli import (
    JournalEntry,
    NatVec,
    Posting,
    Side,
    TableError,
    TransactionsTable,
    build_table,
    consistency_check,
    decode_equation,
    net_changes,
    post,
    reduce_ledger,
    table_sums,
)

nv = NatVec.of


def transfer(description, debited, credited, amount) -> JournalEntry:
    return JournalEntry(
        description,
        (Posting(debited, Side.DR, nv(amount)), Posting(credited, Side.CR, nv(amount))),
    )


def test_build_table_example(scalar_ledger, scalar_journal):
    table = build_table(scalar_journal, scalar_ledger)
    assert table.account_names == ("Assets", "Liabilities", "Equity")
    assert table.cell("Assets", "Equity") == 1500
    assert table.cell("Liabilities", "Assets") == 800
    assert table.cell("Equity", "Assets") == 1200
    assert sum(sum(row) for row in table.cells) == 1500 + 800 + 1200


def test_build_table_empty_journal(scalar_ledger):
    table = build_table([], scalar_ledger)
    assert all(cell == 0 for row in table.cells for cell in row)


def test_build_table_accumulates(scalar_ledger):
    journal = [
        transfer("a", "Assets", "Equity", 10),
        transfer("b", "Assets", "Equity", 5),
    ]
    table = build_table(journal, scalar_ledger)
    assert table.cell("Assets", "Equity") == 15


def test_build_table_rejects_vector_ledger(vector_ledger, vector_journal):
    with pytest.raises(TableError, match="scalar"):
        build_table(vector_journal, vector_ledger)


def test_build_table_rejects_compound_entry(scalar_ledger):
    compound = JournalEntry(
        "compound",
        (
            Posting("Assets", Side.DR, nv(10)),
            Posting("Liabilities", Side.CR, nv(4)),
            Posting("Equity", Side.CR, nv(6)),
        ),
    )
    with pytest.raises(TableError, match="split it into simple transfers"):
        build_table([compound], scalar_ledger)


def test_build_table_rejects_invalid_entry(scalar_ledger):
    unbalanced = JournalEntry(
        "bad",
        (Posting("Assets", Side.DR, nv(5)), Posting("Equity", Side.CR, nv(4))),
    )
    with pytest.raises(TableError, match="residual"):
        build_table([unbalanced], scalar_ledger)


def test_build_table_warns_on_diagonal(scalar_ledger):
    wash = transfer("wash", "Assets", "Assets", 5)
    with pytest.warns(UserWarning, match="diagonal"):
        table = build_table([wash], scalar_ledger)
    assert table.cell("Assets", "Assets") == 5


def test_table_sums_example(scalar_ledger, scalar_journal):
    sums = table_sums(build_table(scalar_journal, scalar_ledger))
    assert sums.row_sums == (1500, 800, 1200)
    assert sums.col_sums == (2000, 0, 1500)


def test_table_sums_zero(scalar_ledger):
    sums = table_sums(build_table([], scalar_ledger))
    assert sums.row_sums == (0, 0, 0)
    assert sums.col_sums == (0, 0, 0)


def test_net_changes_example(scalar_ledger, scalar_journal):
    table = build_table(scalar_journal, scalar_ledger)
    changes = net_changes(table, scalar_ledger)
    assert changes == {"Assets": -500, "Liabilities": -800, "Equity": 300}
    assert 15000 + changes["Assets"] == 14500
    assert 5000 + changes["Equity"] == 5300


def test_net_changes_zero_table(scalar_ledger):
    changes = net_changes(build_table([], scalar_ledger), scalar_ledger)
    assert set(changes.values()) == {0}


def test_table_construction_errors():
    with pytest.raises(TableError, match="must form a 2x2 grid"):
        TransactionsTable(("X", "Y"), ((0, 0),))
    with pytest.raises(TableError, match="must form a 2x2 grid"):
        TransactionsTable(("X", "Y"), ((0, 0), (0,)))
    with pytest.raises(TableError, match="unsigned"):
        TransactionsTable(("X", "Y"), ((0, -1), (0, 0)))
    table = TransactionsTable(("X", "Y"), ((0, 7), (0, 0)))
    assert table.cell("X", "Y") == 7
    with pytest.raises(TableError, match="unknown account 'Z'"):
        table.index("Z")


def test_net_changes_rejects_mismatched_accounts(scalar_ledger):
    table = TransactionsTable(("X", "Y"), ((0, 0), (0, 0)))
    with pytest.raises(TableError, match="match"):
        net_changes(table, scalar_ledger)


def test_consistency_example(scalar_ledger, scalar_journal):
    table = build_table(scalar_journal, scalar_ledger)
    assert consistency_check(table, scalar_journal, scalar_ledger)


def test_consistency_empty(scalar_ledger):
    assert consistency_check(build_table([], scalar_ledger), [], scalar_ledger)


def test_consistency_detects_tampering(scalar_ledger, scalar_journal):
    table = build_table(scalar_journal, scalar_ledger)
    cells = [list(row) for row in table.cells]
    cells[0][1] += 1
    tampered = TransactionsTable(table.account_names, tuple(tuple(r) for r in cells))
    assert not consistency_check(tampered, scalar_journal, scalar_ledger)


def test_grand_total_balances_on_random_journals():
    rng = random.Random(29)
    for _ in range(50):
        ledger = support.random_ledger(rng, dim=1)
        journal = support.random_journal(rng, ledger, simple=True)
        sums = table_sums(build_table(journal, ledger))
        assert sum(sums.row_sums) == sum(sums.col_sums)


def test_net_changes_agree_with_journal_terms():
    rng = random.Random(31)
    for _ in range(50):
        ledger = support.random_ledger(rng, dim=1)
        journal = support.random_journal(rng, ledger, simple=True)
        table = build_table(journal, ledger)
        changes = net_changes(table, ledger)
        totals = {name: (0, 0) for name in ledger.names()}
        for entry in journal:
            for name, term in entry.terms_by_account().items():
                d, c = totals[name]
                totals[name] = (d + term.debit[0], c + term.credit[0])
        for acc in ledger.accounts:
            d, c = totals[acc.name]
            expected = d - c if acc.role is Side.DR else c - d
            assert changes[acc.name] == expected


def test_table_pipeline_matches_posting():
    rng = random.Random(37)
    for _ in range(50):
        ledger = support.random_ledger(rng, dim=1)
        journal = support.random_journal(rng, ledger, simple=True)
        table = build_table(journal, ledger)
        changes = net_changes(table, ledger)
        decoded = decode_equation(reduce_ledger(post(ledger, journal)))
        for name, value in decoded.terms():
            start = ledger.account(name).signed_balance()[0]
            assert start + changes[name] == value[0]


@st.composite
def table_entries(draw, ledger):
    """A simple transfer (half the time), a self-transfer, any valid entry
    (compound ones and zero-amount postings included) or a broken one (an
    unknown account, a wrong dimension or unbalanced)."""
    kind = draw(st.sampled_from(("transfer", "transfer", "self", "valid", "invalid")))
    if kind == "valid":
        return draw(support.valid_entries(ledger))
    if kind == "invalid":
        return draw(support.invalid_entries(ledger))
    names = ledger.names()
    debited = draw(st.sampled_from(names))
    credited = debited if kind == "self" else draw(st.sampled_from(names))
    amount = draw(st.integers(0, 50))
    return transfer(draw(st.text("ab ", max_size=3)), debited, credited, amount)


def table_outcome(build, journal, ledger):
    """The cells or the `TableError` of `build`, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = build(journal, ledger).cells
        except TableError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


@given(st.data())
def test_build_table_matches_reference(data):
    ledger = data.draw(support.ledgers(max_dim=1))
    journal = data.draw(st.lists(table_entries(ledger), max_size=6))
    assert table_outcome(build_table, journal, ledger) == table_outcome(
        support.reference_build_table, journal, ledger
    )
