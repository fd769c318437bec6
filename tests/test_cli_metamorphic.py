"""Whole-CLI metamorphic properties: laws of the Pacioli group that relate
the output of one command run to another's, so they need no oracle.

Each command runs in-process through `run_command`, on a balanced ledger
(a `support.ledgers()` draw plus one account holding the negated total)
and journals from `support.journals`, written out as files.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

import support
from pacioli import Account, Ledger, Side, TTerm, render_journal, render_ledger
from pacioli.cli import run_command


def balanced(ledger: Ledger) -> Ledger:
    """`ledger` plus an account whose T-term [c // d] cancels its total [d // c]."""
    total = ledger.total()
    closing = Account("Z", Side.CR, TTerm(total.credit, total.debit))
    return Ledger(ledger.dimension, ledger.unit_names, (*ledger.accounts, closing))


# A balanced ledger and two journals on it.
BOOKS = support.ledgers().map(balanced).flatmap(
    lambda ledger: st.tuples(
        st.just(ledger), support.journals(ledger), support.journals(ledger)
    )
)


def run(*argv) -> str:
    """The stdout of a command that must succeed, with nothing on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command([str(arg) for arg in argv])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def row(report: str, label: str) -> list[str]:
    """The cells of the `sss` grid row `label`, as whitespace-split tokens
    (the zero-row checks below the grid start with the same words)."""
    grid = report.split("\n\n", 1)[0].splitlines()
    (line,) = (line for line in grid if line.split()[:1] == [label])
    return line.split()[1:]


@settings(max_examples=20, deadline=None)
@given(BOOKS)
def test_sss_ending_row_is_the_beginning_row_of_the_posted_ledger(book):
    # The commuting square, at file level: posting in the signed view (`sss`)
    # and in T-terms (`post`) end at the same balances.
    ledger, journal, _ = book
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path, journal_path = Path(tmp, "in.ledger"), Path(tmp, "in.journal")
        ended = Path(tmp, "ended.ledger")
        ledger_path.write_text(render_ledger(ledger))
        journal_path.write_text(render_journal(journal, ledger.dimension))
        books = ["--ledger", ledger_path, "--journal", journal_path]
        signed = run("sss", *books)
        run("post", *books, "--out", ended)
        assert row(signed, "ending") == row(run("sss", "--ledger", ended), "beginning")


@settings(max_examples=20, deadline=None)
@given(BOOKS)
def test_posting_two_journals_in_turn_is_posting_them_joined(book):
    ledger, first, second = book
    with tempfile.TemporaryDirectory() as tmp:

        def post(ledger_path: Path, entries, name: str) -> Path:
            """The ledger `post` writes to `name` from `entries` on `ledger_path`."""
            journal, ended = Path(tmp, f"{name}.journal"), Path(tmp, name)
            journal.write_text(render_journal(entries, ledger.dimension))
            run("post", "--ledger", ledger_path, "--journal", journal, "--out", ended)
            return ended

        start = Path(tmp, "in.ledger")
        start.write_text(render_ledger(ledger))
        in_turn = post(post(start, first, "e1"), second, "e2")
        joined = post(start, first + second, "e12")
        assert in_turn.read_bytes() == joined.read_bytes()
