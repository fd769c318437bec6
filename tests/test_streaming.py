"""The streaming journal parser, checked against the list parser and the
vector constructor."""

import contextlib
import io
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

import support
from pacioli import (
    LedgerError,
    NatVec,
    ParseError,
    iter_journal,
    parse_journal,
    parse_ledger,
    post,
    render_journal,
    render_ledger,
)
from pacioli.cli import run_command

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


def test_entries_before_a_syntax_error_are_yielded():
    text = (
        'pacioli-journal v1\ndimension 1\nentry "first"\ndr A 1\ncr B 1\nend\n'
        "bogus\n"
    )
    entries = iter_journal(text)
    assert next(entries).description == "first"
    with pytest.raises(ParseError, match="line 7: unknown directive 'bogus'"):
        next(entries)
