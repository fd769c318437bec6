"""Plain-text rendering of balance sheets, trial balances, grids, and
signed-ledger views.  A number past the int/str digit limit raises the
:class:`LedgerError` of ``ledger._text``, naming its account or total.

The two grid reports run in two passes.  `iter_table_report` and
`iter_signed_report` make the first before they return: they format every
cell through ``_text`` and take the column widths.  The lines they return
come from the second pass, which pads each line as it is read, so a caller
can write the report without holding it.  `render_table_report` and
`render_signed_report` are those lines joined.

`iter_signed_report` also takes its zero-row verdicts before it returns,
after the cells it checks are formatted: the beginning and ending ledgers'
(`SignedLedger.is_zero_row`) and, up to the first FAIL, each transaction
row's (`SignedRow.is_zero`), all netted on plain ints by
``sss.zero_row_check``.
"""

from itertools import chain
from typing import Iterable, Iterator

from .algebra import TTerm
from .ledger import _AMOUNT, BalanceSheetEquation, Ledger, TrialBalance
from .ledger import _residual_text, _text
from .sss import SignedLedger, SignedRow
from .table import TransactionsTable, net_changes, table_sums

__all__ = [
    "render_balance_sheet",
    "render_trial_balance",
    "iter_table_report",
    "render_table_report",
    "iter_signed_report",
    "render_signed_report",
]


def _grid_lines(rows: Iterable[Iterable[tuple[int, str]]]) -> Iterator[str]:
    """Align sparse rows: first column left, the rest right, two-space gutters.

    Each row is an iterable of ``(column, text)`` pairs; a column the row
    leaves out is blank, and a column it names twice shows the last text.
    Widths come from the shown cells only.  The rows are read and measured
    now; each line is built when the returned iterator reaches it.
    """
    rows = [dict(row) for row in rows]
    widths: dict[int, int] = {}
    for row in rows:
        for column, text in row.items():
            widths[column] = max(widths.get(column, 0), len(text))
    ends, end = [], -2  # ends[i]: the offset just past column i
    for column in range(max(widths, default=-1) + 1):
        end += 2 + widths.get(column, 0)
        ends.append(end)
    return _aligned(rows, ends)


def _aligned(rows: list[dict[int, str]], ends: list[int]) -> Iterator[str]:
    """The second pass of `_grid_lines`: each row's line, its cells
    right-aligned at `ends` (the first, left)."""
    for row in rows:
        pieces, at = [], 0
        for column, text in sorted(row.items()):
            if column:
                pieces.append(text.rjust(ends[column] - at))
                at = ends[column]
            else:
                pieces.append(text)
                at = len(text)
        yield "".join(pieces).rstrip()


def render_balance_sheet(eq: BalanceSheetEquation) -> str:
    """Two lines: term names joined by '=' and '+', values aligned beneath."""
    if not eq.terms():
        return "(empty)"
    lhs = [(name, _text(v, _AMOUNT, name)) for name, v in eq.lhs] or [("0", "0")]
    rhs = [(name, _text(v, _AMOUNT, name)) for name, v in eq.rhs] or [("0", "0")]
    seps = ["", *[" + "] * (len(lhs) - 1), " = ", *[" + "] * (len(rhs) - 1)]
    header, values = [], []
    for sep, (name, value) in zip(seps, lhs + rhs):
        width = max(len(name), len(value))
        header.extend((sep, name.ljust(width)))
        values.extend((sep, value.rjust(width)))
    return "".join(header).rstrip() + "\n" + "".join(values).rstrip()


def render_trial_balance(tb: TrialBalance) -> str:
    """Both totals and the verdict."""
    lines = [
        f"{side} total:".ljust(14) + _text(total, "%s total", side)
        for side, total in (("debit", tb.debit_total), ("credit", tb.credit_total))
    ]
    if tb.balanced:
        lines.append("BALANCED")
    else:
        residual = TTerm(tb.debit_total, tb.credit_total).reduced()
        lines.append("UNBALANCED, " + _residual_text(residual))
    return "\n".join(lines)


def iter_table_report(table: TransactionsTable, ledger: Ledger) -> Iterator[str]:
    """The lines of the grid with its row and column sums (`table_sums`),
    then each account's net change (`net_changes`, whose `TableError` raises
    here).  Every cell is formatted before this returns: a number past the
    digit limit raises here, naming its row's account (its column's, for a
    column sum)."""
    sums = table_sums(table)
    changes = net_changes(table, ledger)
    names = table.account_names
    last = len(names) + 1
    rows = [enumerate(["Dr.\\Cr.", *names, "(row sum)"])]
    for i, name in enumerate(names):
        rows.append(
            [
                (0, name),
                *(
                    (j, _text(c, _AMOUNT, name))
                    for j, c in enumerate(table.cells[i], start=1)
                    if c
                ),
                (last, _text(sums.row_sums[i], _AMOUNT, name)),
            ]
        )
    col_sums = [_text(c, _AMOUNT, name) for name, c in zip(names, sums.col_sums)]
    rows.append(enumerate(["(col sum)", *col_sums, ""]))
    change_rows = [
        enumerate([acc.name, acc.role.value, _text(changes[acc.name], _AMOUNT, acc.name)])
        for acc in ledger.accounts
    ]
    return chain(_grid_lines(rows), ["", "net changes:"], _grid_lines(change_rows))


def render_table_report(table: TransactionsTable, ledger: Ledger) -> str:
    """The lines of `iter_table_report`, joined."""
    return "\n".join(iter_table_report(table, ledger))


def _balance_row(label: str, ledger: SignedLedger):
    cells = [_text(acc.balance, _AMOUNT, acc.name) for acc in ledger.accounts]
    return enumerate([label, *cells])


def iter_signed_report(
    ledger: SignedLedger,
    rows: Iterable[SignedRow] | None = None,
    ending: SignedLedger | None = None,
) -> Iterator[str]:
    """The lines of the single-sided signed view; with journal rows, the
    full posting table.  Every cell is formatted before this returns.

    `rows` is read once, into a list, so a one-shot iterator gets the same
    zero-row verdict as a list.  A transaction row shows only the accounts
    it changes, the last change where it names one twice; a change to an
    account not in `ledger` is not shown, but counts in the row's zero check.
    """
    column = {name: i for i, name in enumerate(ledger.names(), start=1)}
    grid = [enumerate(["", *column]), _balance_row("beginning", ledger)]
    checks = [f"beginning zero-row: {'OK' if ledger.is_zero_row() else 'FAIL'}"]
    if rows is not None:
        rows = list(rows)
        for i, row in enumerate(rows, start=1):
            cells = [(0, f"{i}. {row.description}")]
            for name, change in row.changes:
                if name in column:
                    cells.append((column[name], _text(change, _AMOUNT, name)))
            grid.append(cells)
        zero = all(row.is_zero() for row in rows)
        checks.append(f"transaction zero-rows: {'OK' if zero else 'FAIL'}")
    if ending is not None:
        grid.append(_balance_row("ending", ending))
        checks.append(f"ending zero-row: {'OK' if ending.is_zero_row() else 'FAIL'}")
    return chain(_grid_lines(grid), ["", *checks])


def render_signed_report(
    ledger: SignedLedger,
    rows: Iterable[SignedRow] | None = None,
    ending: SignedLedger | None = None,
) -> str:
    """The lines of `iter_signed_report`, joined."""
    return "\n".join(iter_signed_report(ledger, rows, ending))
