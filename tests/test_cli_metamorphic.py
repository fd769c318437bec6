"""Whole-CLI metamorphic properties: laws of the Pacioli group that relate
the output of one command run to another's, so they need no oracle.

Each command runs in-process through `run_command`, on a balanced ledger
(a `support.ledgers()` draw plus one account, Z, holding the negated
total) and journals from `support.journals` or, for `matrix`, of simple
transfers, written out as files; the failing-journal property runs on
`tests/data/scalar.ledger`.
"""

import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

import support
from pacioli import (
    Account,
    JournalEntry,
    Ledger,
    NatVec,
    Posting,
    Side,
    TTerm,
    parse_ledger,
    render_journal,
    render_ledger,
)


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


def simple_transfers(ledger: Ledger):
    """Journals `matrix` can place: each entry moves 1-1000 from one account
    to another."""
    names = st.sampled_from(ledger.names())
    pair = st.lists(names, min_size=2, max_size=2, unique=True)
    transfer = st.tuples(pair, st.integers(1, 1000)).map(
        lambda t: JournalEntry(
            "t",
            (
                Posting(t[0][0], Side.DR, NatVec.of(t[1])),
                Posting(t[0][1], Side.CR, NatVec.of(t[1])),
            ),
        )
    )
    return st.lists(transfer, max_size=8)


# A balanced scalar ledger and a journal of simple transfers on it.
SCALAR_BOOKS = support.ledgers(max_dim=1).map(balanced).flatmap(
    lambda ledger: st.tuples(st.just(ledger), simple_transfers(ledger))
)


# Journals on `tests/data/scalar.ledger` of simple transfers around one entry,
# "bad", that fails: it names an account the ledger lacks (Nope), or it
# credits more than it debits.
SCALAR_LEDGER = Path(__file__).parent / "data" / "scalar.ledger"
SCALAR_TRANSFERS = simple_transfers(parse_ledger(SCALAR_LEDGER.read_text()))
NAMES_OR_NOPE = st.sampled_from(("Assets", "Liabilities", "Equity", "Nope"))
FAILING = (
    st.tuples(NAMES_OR_NOPE, NAMES_OR_NOPE, st.integers(1, 1000), st.integers(0, 1000))
    .filter(lambda t: "Nope" in t[:2] or t[3])
    .map(
        lambda t: JournalEntry(
            "bad",
            (
                Posting(t[0], Side.DR, NatVec.of(t[2])),
                Posting(t[1], Side.CR, NatVec.of(t[2] + t[3])),
            ),
        )
    )
)
# The failing entry's position is the length of the first list.
FAILING_JOURNALS = st.tuples(SCALAR_TRANSFERS, FAILING, SCALAR_TRANSFERS)


def run(*argv) -> str:
    """The stdout of a command that must succeed, with nothing on stderr."""
    code, out, err = support.run_cli(*argv)
    assert (code, err) == (0, "")
    return out


def row(report: str, label: str) -> list[str]:
    """The cells of the `sss` grid row `label`, as whitespace-split tokens
    (the zero-row checks below the grid start with the same words)."""
    grid = report.split("\n\n", 1)[0].splitlines()
    (line,) = (line for line in grid if line.split()[:1] == [label])
    return line.split()[1:]


def balances(report: str) -> dict[str, tuple[int, ...]]:
    """The balance per name in `report`'s two lines: names over values, the
    terms parted by " + " and " = " (a vector reads "(1, -2)")."""
    names, values = (re.split(r" [+=] ", line) for line in report.splitlines())
    return {
        name.strip(): tuple(int(c) for c in value.strip(" ()").split(","))
        for name, value in zip(names, values)
    }


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


@settings(max_examples=20, deadline=None)
@given(SCALAR_BOOKS)
def test_matrix_net_changes_are_the_report_differences_of_post(book):
    ledger, journal = book
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path, journal_path = Path(tmp, "in.ledger"), Path(tmp, "in.journal")
        ended = Path(tmp, "ended.ledger")
        ledger_path.write_text(render_ledger(ledger))
        journal_path.write_text(render_journal(journal, ledger.dimension))
        books = ["--ledger", ledger_path, "--journal", journal_path]
        table = run("matrix", *books)
        run("post", *books, "--out", ended)
        before = balances(run("report", "--ledger", ledger_path))
        after = balances(run("report", "--ledger", ended))
    lines = table.splitlines()
    changes = [line.split() for line in lines[lines.index("net changes:") + 1 :]]
    assert [name for name, _, _ in changes] == list(ledger.names())
    for name, _, change in changes:
        assert int(change) == after[name][0] - before[name][0]


@settings(max_examples=20, deadline=None)
@given(support.ledgers().map(balanced))
def test_close_zeroes_the_nominal_accounts_into_equity(ledger):
    # Closing moves each nominal balance into the equity account Z (on the
    # credit side): revenue (credit-balance) raises it, expense lowers it.
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path, closed = Path(tmp, "in.ledger"), Path(tmp, "closed.ledger")
        ledger_path.write_text(render_ledger(ledger))
        run("close", "--ledger", ledger_path, "--equity", "Z", "--out", closed)
        before = balances(run("report", "--ledger", ledger_path))
        after = balances(run("report", "--ledger", closed))
    moved = [0] * ledger.dimension
    for acc in ledger.accounts:
        if acc.nominal:
            assert after[acc.name] == (0,) * ledger.dimension
            sign = 1 if acc.role is Side.CR else -1
            moved = [m + sign * c for m, c in zip(moved, before[acc.name])]
        elif acc.name != "Z":
            assert after[acc.name] == before[acc.name]
    assert [a - b for a, b in zip(after["Z"], before["Z"])] == moved


@settings(max_examples=25, deadline=None)
@given(FAILING_JOURNALS)
def test_post_sss_and_matrix_fail_on_an_entry_with_one_error_line(parts):
    # The three journal commands that stop at a failed entry report it alike:
    # exit 1, nothing on stdout, and `post`'s one `error:` line naming the
    # entry by its number.
    before, failing, after = parts
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp, "in.journal")
        journal.write_text(render_journal([*before, failing, *after], 1))
        outcomes = [
            support.run_cli(command, "--ledger", SCALAR_LEDGER, "--journal", journal)
            for command in ("post", "sss", "matrix")
        ]
    line = outcomes[0][2]
    assert line.startswith(f"error: entry {len(before) + 1} ('bad'): ")
    assert line.count("\n") == 1 and line.endswith("\n")
    assert outcomes == [(1, "", line)] * 3
