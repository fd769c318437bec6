"""The streaming journal parser, checked against the list parser and the
vector constructor; the streamed `sss` and `matrix` reports, checked
against their text."""

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
    TableError,
    TTerm,
    build_table,
    iter_journal,
    journal_to_signed,
    parse_journal,
    parse_ledger,
    post,
    render_journal,
    render_ledger,
    signed_post,
    to_signed,
    validate_entry,
)
from pacioli.fileformat import _journal
from pacioli.ledger import PostingError
from pacioli.reports import render_signed_report, render_table_report

SCALAR = support.DATA / "scalar.ledger"
LEDGERS = support.ledgers()


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
        outcome = support.run_cli("post", "--ledger", SCALAR, "--journal", journal)
    assert outcome == post_of_list(SCALAR, text)


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
    rows, row_error = parsed(_journal(text, dimension))
    entries, entry_error = parsed(iter_journal(text, dimension=dimension))
    assert row_error == entry_error
    assert rows == [
        (e.description, [(p.account, p.side, p.amount.components) for p in e.postings])
        for e in entries
    ]


@given(st.data())
def test_posting_error_carries_the_failing_entry(data):
    # `post` of entries and the CLI's netting of rows share one loop, which
    # rebuilds the failing entry from its row: it equals the caller's.
    ledger = data.draw(support.ledgers())
    journal = data.draw(support.journals(ledger))
    bad = data.draw(support.invalid_entries(ledger))
    journal.insert(data.draw(st.integers(0, len(journal))), bad)
    calls = [lambda: post(ledger, journal), lambda: post(ledger, iter(journal))]
    try:
        text = render_journal(journal, ledger.dimension)
    except LedgerError:  # a posting of another dimension has no file form
        pass
    else:
        calls.append(lambda: post(ledger, iter_journal(text)))
        calls.append(lambda: post(ledger, _journal(text, ledger.dimension)))
    expected = journal.index(bad), validate_entry(bad, ledger)
    messages = set()
    for call in calls:
        with pytest.raises(PostingError) as caught:
            call()
        error = caught.value
        assert (error.entry_index, error.report) == expected
        assert error.entry == journal[error.entry_index]
        messages.add(str(error))
    assert len(messages) == 1


@st.composite
def books_with_a_failure(draw, ledgers=st.one_of(support.ledgers(max_dim=1), LEDGERS)):
    """A ledger (scalar half the time) and a journal of it; sometimes with
    one entry that fails to post."""
    ledger = draw(ledgers)
    journal = draw(support.journals(ledger))
    if draw(st.booleans()):
        bad = draw(support.invalid_entries(ledger))
        journal.insert(draw(st.integers(0, len(journal))), bad)
    return ledger, journal


BOOKS_WITH_A_FAILURE = books_with_a_failure()


def outcome(call) -> tuple:
    """The result of `call()` or the parts of its error that name the
    failure, and the messages of the warnings it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except PostingError as exc:
            result = exc.entry_index, exc.report, exc.entry
        except TableError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


@settings(max_examples=60, deadline=None)
@given(BOOKS_WITH_A_FAILURE)
def test_entries_and_rows_net_alike(book):
    # An entry unpacks as the grammar's row, so `journal_to_signed` and
    # `build_table` of entries, of an iterator and of parsed rows agree,
    # in results, in errors and in warnings.
    ledger, journal = book
    for entry in journal:
        assert tuple(entry) == (entry.description, entry.postings)
        for p in entry.postings:
            assert tuple(p) == (p.account, p.side, p.amount.components)
    inputs = [lambda: journal, lambda: iter(journal)]
    try:
        text = render_journal(journal, ledger.dimension)
    except LedgerError:  # a posting of another dimension has no file form
        pass
    else:
        inputs.append(lambda: _journal(text, ledger.dimension))
    for consume in (journal_to_signed, build_table):
        expected = outcome(lambda: consume(journal, ledger))
        if isinstance(expected[0], tuple):  # a PostingError
            index, report, entry = expected[0]
            assert entry == journal[index]
            assert report == validate_entry(journal[index], ledger)
        for make in inputs:
            assert outcome(lambda: consume(make(), ledger)) == expected


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
        table_args = table, ledger
        ending = signed_post(signed, rows)
        journal_args = ["--journal", str(journal_path)]
        expected = [
            (["sss"], render_signed_report(signed)),
            (["sss", *journal_args], render_signed_report(signed, rows, ending)),
            (["matrix", *journal_args], render_table_report(*table_args)),
        ]
        for argv, text in expected:
            # stderr holds the diagonal warnings.
            code, out, _ = support.run_cli(*argv, "--ledger", ledger_path)
            assert code == 0
            assert out == text + "\n"
