"""Plain-text rendering of balance sheets, trial balances, grids, and
signed-ledger views."""

from typing import Iterable

from .algebra import IntVec, TTerm
from .fileformat import _digit_limit_error
from .ledger import BalanceSheetEquation, Ledger, TrialBalance
from .sss import SignedLedger, SignedRow
from .table import TableSums, TransactionsTable

__all__ = [
    "render_balance_sheet",
    "render_trial_balance",
    "render_table_report",
    "render_signed_report",
]


def _grid(rows: Iterable[Iterable[tuple[int, str]]]) -> str:
    """Align sparse rows: first column left, the rest right, two-space gutters.

    Each row is an iterable of ``(column, text)`` pairs; a column the row
    leaves out is blank, and a column it names twice shows the last text.
    Widths come from the shown cells only.  Each line starts as a copy of
    the blank-padded columns, and only the row's own cells are padded and
    filled in.
    """
    rows = [dict(row) for row in rows]
    widths: dict[int, int] = {}
    for row in rows:
        for column, text in row.items():
            widths[column] = max(widths.get(column, 0), len(text))
    blank = [" " * widths.get(i, 0) for i in range(max(widths, default=-1) + 1)]
    lines = []
    for row in rows:
        cells = blank.copy()
        for column, text in row.items():
            if column:
                cells[column] = text.rjust(widths[column])
            else:
                cells[column] = text.ljust(widths[column])
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def render_balance_sheet(eq: BalanceSheetEquation) -> str:
    """Two lines: term names joined by '=' and '+', values aligned beneath.

    A value past the int/str digit limit raises :class:`LedgerError`.
    """
    if not eq.terms():
        return "(empty)"
    lhs = [(name, _cell(name, value)) for name, value in eq.lhs] or [("0", "0")]
    rhs = [(name, _cell(name, value)) for name, value in eq.rhs] or [("0", "0")]
    fields: list[tuple[str | None, str, str]] = []  # (separator, name, value)
    for i, (name, value) in enumerate(lhs):
        fields.append((None if i == 0 else "+", name, value))
    for i, (name, value) in enumerate(rhs):
        fields.append(("=" if i == 0 else "+", name, value))
    header = values = ""
    for sep, name, value in fields:
        if sep:
            header += f" {sep} "
            values += f" {sep} "
        width = max(len(name), len(value))
        header += name.ljust(width)
        values += value.rjust(width)
    return header.rstrip() + "\n" + values.rstrip()


def render_trial_balance(tb: TrialBalance) -> str:
    lines = [
        f"debit total:  {tb.debit_total}",
        f"credit total: {tb.credit_total}",
    ]
    if tb.balanced:
        lines.append("BALANCED")
    else:
        residual = TTerm(tb.debit_total, tb.credit_total).reduced()
        lines.append(f"UNBALANCED, residual {residual}")
    return "\n".join(lines)


def render_table_report(
    table: TransactionsTable, sums: TableSums, changes: dict[str, int], ledger: Ledger
) -> str:
    """The grid with its sums, then the net change per account.

    An amount past the int/str digit limit raises :class:`LedgerError`
    naming its row's account (its column's, for a column sum).
    """
    names = table.account_names
    last = len(names) + 1
    rows = [enumerate(["Dr.\\Cr.", *names, "(row sum)"])]
    for i, name in enumerate(names):
        rows.append(
            [
                (0, name),
                *(
                    (j, _cell(name, c))
                    for j, c in enumerate(table.cells[i], start=1)
                    if c
                ),
                (last, _cell(name, sums.row_sums[i])),
            ]
        )
    col_sums = [_cell(name, c) for name, c in zip(names, sums.col_sums)]
    rows.append(enumerate(["(col sum)", *col_sums, ""]))
    change_rows = [
        enumerate([acc.name, acc.role.value, _cell(acc.name, changes[acc.name])])
        for acc in ledger.accounts
    ]
    return "\n".join([_grid(rows), "", "net changes:", _grid(change_rows)])


def _cell(account: str, value: IntVec | int) -> str:
    """`value` as text; past the int/str digit limit, a `LedgerError`
    naming `account`."""
    try:
        return str(value)
    except ValueError:
        raise _digit_limit_error(account) from None


def _balance_row(label: str, ledger: SignedLedger):
    cells = [_cell(acc.name, acc.balance) for acc in ledger.accounts]
    return enumerate([label, *cells])


def render_signed_report(
    ledger: SignedLedger,
    rows: list[SignedRow] | None = None,
    ending: SignedLedger | None = None,
) -> str:
    """Single-sided signed view; with journal rows, the full posting table.

    A transaction row shows only the accounts it changes, the last change
    where it names one twice; a change to an account not in `ledger` is not
    shown.  A balance or change past the int/str digit limit raises
    :class:`LedgerError`.
    """
    column = {name: i for i, name in enumerate(ledger.names(), start=1)}
    grid = [enumerate(["", *column]), _balance_row("beginning", ledger)]
    checks = [f"beginning zero-row: {'OK' if ledger.is_zero_row() else 'FAIL'}"]
    if rows is not None:
        for i, row in enumerate(rows, start=1):
            grid.append(
                [
                    (0, f"{i}. {row.description}"),
                    *(
                        (column[name], _cell(name, change))
                        for name, change in row.changes
                        if name in column
                    ),
                ]
            )
        checks.append(
            "transaction zero-rows: "
            + ("OK" if all(row.is_zero() for row in rows) else "FAIL")
        )
    if ending is not None:
        grid.append(_balance_row("ending", ending))
        checks.append(f"ending zero-row: {'OK' if ending.is_zero_row() else 'FAIL'}")
    return "\n".join([_grid(grid), "", *checks])
