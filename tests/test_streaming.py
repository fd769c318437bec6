"""The streaming journal parser, checked against the list parser and the
vector constructor; the streamed `sss` and `matrix` reports, checked
against their text."""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import support
from pacioli import (
    Account,
    IntVec,
    JournalEntry,
    Ledger,
    LedgerError,
    NatVec,
    ParseError,
    Posting,
    Side,
    TTerm,
    build_table,
    iter_journal,
    journal_to_signed,
    net_changes,
    parse_journal,
    parse_ledger,
    post,
    render_journal,
    render_ledger,
    signed_post,
    table_sums,
    to_signed,
)
from pacioli.cli import run_command
from pacioli.fileformat import _journal, _row
from pacioli.reports import render_signed_report, render_table_report

SCALAR = support.DATA / "scalar.ledger"


@st.composite
def journal_texts(draw, ledgers=support.ledgers(), invalid: bool = False):
    """A ledger, a journal of it, and the journal's text; with `invalid`,
    sometimes one entry that fails to post."""
    ledger = draw(ledgers)
    journal = draw(support.journals(ledger))
    if invalid and draw(st.booleans()):
        bad = draw(support.invalid_entries(ledger))
        journal.insert(draw(st.integers(0, len(journal))), bad)
    try:
        text = render_journal(journal, ledger.dimension)
    except LedgerError:  # a posting of another dimension has no file form
        assume(False)
    return ledger, journal, text


@given(journal_texts())
def test_iter_journal_round_trips(case):
    _, journal, text = case
    assert list(iter_journal(text)) == journal


def assert_built_by_constructor(vec):
    built = NatVec(tuple(vec))
    assert type(vec) is NatVec
    assert vec == built and hash(vec) == hash(built) and repr(vec) == repr(built)


@given(journal_texts())
def test_parsed_amounts_equal_constructed_ones(case):
    ledger, _, text = case
    for entry in iter_journal(text):
        for posting in entry.postings:
            assert_built_by_constructor(posting.amount)
    text = render_ledger(ledger, reduced=False)
    reparsed = parse_ledger(text, require_balanced=False)
    for account in reparsed.accounts:
        assert_built_by_constructor(account.balance.debit)
        assert_built_by_constructor(account.balance.credit)


def post_of_list(ledger_path: Path, text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `post` when the whole journal is
    parsed before anything is posted."""
    try:
        journal = parse_journal(text)
    except ParseError as exc:
        return 2, "", f"error: {exc}\n"
    try:
        ended = post(parse_ledger(ledger_path.read_text()), journal)
    except LedgerError as exc:
        return 1, "", f"error: {exc}\n"
    return 0, render_ledger(ended), ""


LATE_SYNTAX_ERRORS = ("", "bogus\n", 'entry "late"\nend\n', 'entry "late"\ndr Assets x\n')


@given(
    journal_texts(st.just(parse_ledger(SCALAR.read_text())), invalid=True),
    st.sampled_from(LATE_SYNTAX_ERRORS),
)
def test_post_command_matches_post_of_list(case, tail):
    # A syntax error after an entry that fails to post still decides the
    # exit code and the message, though `post` reads the journal as a stream.
    _, _, text = case
    text += tail
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "j.journal"
        journal.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(["post", "--ledger", str(SCALAR), "--journal", str(journal)])
    assert (code, out.getvalue(), err.getvalue()) == post_of_list(SCALAR, text)


def parsed(items) -> tuple[list, str | None]:
    """The items a parse yields, and the message of the `ParseError` that
    ends it (None if it ends cleanly)."""
    got = []
    try:
        for item in items:
            got.append(item)
    except ParseError as exc:
        return got, str(exc)
    return got, None


@given(journal_texts(invalid=True), st.sampled_from(LATE_SYNTAX_ERRORS), st.data())
def test_raw_rows_equal_the_parsed_entries(case, tail, data):
    # The CLI's `post` nets the grammar's raw rows; `iter_journal` builds
    # entries from the same loop.  Field by field they agree, and a syntax
    # error (or a declared dimension other than the ledger's) stops both
    # at the same entry with the same message.
    ledger, _, text = case
    text += tail
    dimension = data.draw(st.sampled_from([None, ledger.dimension, ledger.dimension + 1]))
    rows, row_error = parsed(_journal(text, _row, dimension))
    entries, entry_error = parsed(iter_journal(text, dimension=dimension))
    assert row_error == entry_error
    assert rows == [
        (e.description, [(p.account, p.side, p.amount.components) for p in e.postings])
        for e in entries
    ]


def test_entries_before_a_syntax_error_are_yielded():
    text = (
        'pacioli-journal v1\ndimension 1\nentry "first"\ndr A 1\ncr B 1\nend\n'
        "bogus\n"
    )
    entries = iter_journal(text)
    assert next(entries).description == "first"
    with pytest.raises(ParseError, match="line 7: unknown directive 'bogus'"):
        next(entries)


# --- the streamed reports ---

NAMES = ("A1", "A2", "A3", "A4", "A5")


@st.composite
def scalar_books(draw) -> tuple[Ledger, list[JournalEntry]]:
    """A balanced scalar ledger and a journal of simple transfers, some from
    an account to itself; descriptions may end in spaces."""
    values = draw(st.lists(st.integers(-(10**6), 10**6), max_size=4))
    values.append(-sum(values))
    roles = st.sampled_from(Side)
    accounts = tuple(
        Account(name, draw(roles), TTerm.from_debit_balance(IntVec.of(v)))
        for name, v in zip(NAMES, values)
    )
    ledger = Ledger(1, ("usd",), accounts)
    names = st.sampled_from(ledger.names())
    journal = []
    for _ in range(draw(st.integers(0, 6))):
        amount = NatVec.of(draw(st.integers(1, 10**6)))
        postings = (
            Posting(draw(names), Side.DR, amount),
            Posting(draw(names), Side.CR, amount),
        )
        journal.append(JournalEntry(draw(st.text("ab ", max_size=4)), postings))
    return ledger, journal


@settings(max_examples=40, deadline=None)
@given(scalar_books())
def test_streamed_reports_equal_their_text(book):
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path, journal_path = Path(tmp) / "in.ledger", Path(tmp) / "in.journal"
        ledger_path.write_text(render_ledger(book[0]))
        journal_path.write_text(render_journal(book[1], 1))
        ledger = parse_ledger(ledger_path.read_text())
        journal = parse_journal(journal_path.read_text())
        signed = to_signed(ledger)
        rows = journal_to_signed(journal, ledger)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a self-transfer lands on the diagonal
            table = build_table(journal, ledger)
        table_args = table, table_sums(table), net_changes(table, ledger), ledger
        ending = signed_post(signed, rows)
        journal_args = ["--journal", str(journal_path)]
        expected = [
            (["sss"], render_signed_report(signed)),
            (["sss", *journal_args], render_signed_report(signed, rows, ending)),
            (["matrix", *journal_args], render_table_report(*table_args)),
        ]
        for argv, text in expected:
            out, err = io.StringIO(), io.StringIO()  # err: the diagonal warnings
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert run_command([*argv, "--ledger", str(ledger_path)]) == 0
            assert out.getvalue() == text + "\n"
