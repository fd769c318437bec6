"""The scalar transactions-table presentation of a journal.

For M accounts, an M x M grid of unsigned amounts: a simple transfer of
amount a, debiting account i and crediting account j, lands in cell (i, j).
Row i then sums all debits to account i and column i all credits to it;
netting row against column (which way round depends on the account's
balance side) gives the per-account change.  The grid carries exactly the
same information as summing the journal's T-terms, and `consistency_check`
verifies that.

Scalar only: the presentation does not extend to the vector case.  Compound
entries (more than one account debited or credited) have no defined cell
and are rejected rather than decomposed by guesswork.
"""

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import NatVec, TTerm
from .ledger import JournalEntry, Ledger, Side, _net, _triples, validate_entry

__all__ = [
    "TableError",
    "TransactionsTable",
    "TableSums",
    "build_table",
    "table_sums",
    "net_changes",
    "consistency_check",
]


class TableError(ValueError):
    """The journal or ledger cannot be presented as a transactions table."""


@dataclass(frozen=True)
class TransactionsTable:
    """Square grid of unsigned amounts; cell (i, j) debits i and credits j."""

    account_names: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "account_names", tuple(self.account_names))
        object.__setattr__(self, "cells", tuple(tuple(row) for row in self.cells))
        m = len(self.account_names)
        if len(self.cells) != m or any(len(row) != m for row in self.cells):
            raise TableError(f"cells must form a {m}x{m} grid")
        if any(cell < 0 for row in self.cells for cell in row):
            raise TableError("cells must be unsigned")

    def index(self, name: str) -> int:
        try:
            return self.account_names.index(name)
        except ValueError:
            raise TableError(f"unknown account {name!r}") from None

    def cell(self, debit_account: str, credit_account: str) -> int:
        return self.cells[self.index(debit_account)][self.index(credit_account)]


@dataclass(frozen=True)
class TableSums:
    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]


def _simple_transfer(entry: JournalEntry, ledger: Ledger) -> tuple[str, str, int]:
    """Return (debit account, credit account, amount) or raise TableError.

    The accounts with a nonzero debit (credit) sum from `_net` are the
    debited (credited) ones; the amount is the debited account's debit sum.
    """
    sums: dict[str, list[int]] = {}
    if not _net(_triples(entry), ledger, sums):
        report = validate_entry(entry, ledger)
        raise TableError(f"entry {entry.description!r}: {report.problems()}")
    dr_accounts = [name for name, (debit, _) in sums.items() if debit]
    cr_accounts = [name for name, (_, credit) in sums.items() if credit]
    if len(dr_accounts) != 1 or len(cr_accounts) != 1:
        raise TableError(
            f"entry {entry.description!r} debits {len(dr_accounts)} and credits "
            f"{len(cr_accounts)} account(s); split it into simple transfers of "
            "one debited and one credited account"
        )
    return dr_accounts[0], cr_accounts[0], sums[dr_accounts[0]][0]


def build_table(journal: Iterable[JournalEntry], ledger: Ledger) -> TransactionsTable:
    """Accumulate a journal of simple transfers into the M x M grid.

    Requires a scalar (dimension 1) ledger.  Transfers between an account
    and itself land on the diagonal and trigger a warning.
    """
    if ledger.dimension != 1:
        raise TableError(
            f"transactions table is scalar only; ledger has dimension {ledger.dimension}"
        )
    names = ledger.names()
    index = {name: i for i, name in enumerate(names)}
    cells = [[0] * len(names) for _ in names]
    for entry in journal:
        debited, credited, amount = _simple_transfer(entry, ledger)
        if debited == credited:
            warnings.warn(
                f"entry {entry.description!r} debits and credits {debited!r}; "
                "amount lands on the table diagonal"
            )
        cells[index[debited]][index[credited]] += amount
    return TransactionsTable(names, tuple(tuple(row) for row in cells))


def table_sums(table: TransactionsTable) -> TableSums:
    """Row sums (total debits per account) and column sums (total credits)."""
    rows = tuple(sum(row) for row in table.cells)
    cols = tuple(sum(col) for col in zip(*table.cells)) if table.cells else ()
    return TableSums(rows, cols)


def net_changes(table: TransactionsTable, ledger: Ledger) -> dict[str, int]:
    """Signed per-account change: row minus column on the account's side."""
    if set(table.account_names) != set(ledger.names()):
        raise TableError("table accounts do not match ledger accounts")
    sums = table_sums(table)
    changes = {}
    for acc in ledger.accounts:
        i = table.index(acc.name)
        row, col = sums.row_sums[i], sums.col_sums[i]
        changes[acc.name] = row - col if acc.role is Side.DR else col - row
    return changes


def consistency_check(
    table: TransactionsTable,
    journal: Sequence[JournalEntry],
    ledger: Ledger,
) -> bool:
    """Does the grid carry exactly the journal's per-account T-term sums?

    For every account, ``[row sum // column sum]`` must equal (by cross-sums)
    the sum of that account's T-terms across the journal.
    """
    sums = table_sums(table)
    totals = {name: TTerm.zero(1) for name in table.account_names}
    for entry in journal:
        for name, term in entry.terms_by_account().items():
            totals[name] = totals[name] + term
    for i, name in enumerate(table.account_names):
        from_table = TTerm(NatVec.of(sums.row_sums[i]), NatVec.of(sums.col_sums[i]))
        if not from_table.equivalent(totals[name]):
            return False
    return True
