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
from .ledger import JournalEntry, Ledger, Side, _net

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
    """Square grid of unsigned amounts; cell (i, j) debits i and credits j.
    Each row must build a `NatVec`, and the account names are distinct."""

    account_names: tuple[str, ...]
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "account_names", tuple(self.account_names))
        object.__setattr__(self, "cells", tuple(tuple(row) for row in self.cells))
        m = len(self.account_names)
        if len(self.cells) != m or any(len(row) != m for row in self.cells):
            raise TableError(f"cells must form a {m}x{m} grid")
        try:
            for row in self.cells:
                NatVec(row)
        except (TypeError, ValueError):
            raise TableError("cells must be unsigned ints") from None
        if len(set(self.account_names)) != m:
            raise TableError("account names must be distinct")

    def index(self, name: str) -> int:
        if name not in self.account_names:
            raise TableError(f"unknown account {name!r}")
        return self.account_names.index(name)

    def cell(self, debit_account: str, credit_account: str) -> int:
        return self.cells[self.index(debit_account)][self.index(credit_account)]


@dataclass(frozen=True)
class TableSums:
    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]


def _simple_transfer(i: int, description: str, postings, ledger: Ledger):
    """Entry `i`'s (debit account, credit account, amount); a failed entry
    raises `_net`'s :class:`PostingError`, a compound one a TableError.

    The accounts with a nonzero debit (credit) sum from `_net` are the
    debited (credited) ones; the amount is the debited account's debit sum.
    """
    sums: dict[str, list[int]] = {}
    _net(i, description, postings, ledger, sums)
    dr_accounts = [name for name, (debit, _) in sums.items() if debit]
    cr_accounts = [name for name, (_, credit) in sums.items() if credit]
    if len(dr_accounts) != 1 or len(cr_accounts) != 1:
        raise TableError(
            f"entry {description!r} debits {len(dr_accounts)} and credits "
            f"{len(cr_accounts)} account(s); split it into simple transfers of "
            "one debited and one credited account"
        )
    return dr_accounts[0], cr_accounts[0], sums[dr_accounts[0]][0]


def build_table(journal: Iterable[JournalEntry], ledger: Ledger) -> TransactionsTable:
    """Accumulate a journal of simple transfers into the M x M grid.

    `journal` holds entries or the journal grammar's rows, as `post` takes
    them.  Requires a scalar (dimension 1) ledger.  A failed entry raises
    its :class:`PostingError`, as `post` does.  A self-transfer lands on the
    diagonal with a warning.  `TransactionsTable` makes the rows tuples.
    """
    if ledger.dimension != 1:
        raise TableError(
            f"transactions table is scalar only; ledger has dimension {ledger.dimension}"
        )
    names = ledger.names()
    index = {name: i for i, name in enumerate(names)}
    cells = [[0] * len(names) for _ in names]
    for i, (description, postings) in enumerate(journal):
        debited, credited, amount = _simple_transfer(i, description, postings, ledger)
        if debited == credited:
            warnings.warn(
                f"entry {description!r} debits and credits {debited!r}; "
                "amount lands on the table diagonal"
            )
        cells[index[debited]][index[credited]] += amount
    return TransactionsTable(names, cells)


def table_sums(table: TransactionsTable) -> TableSums:
    """Row sums (total debits per account) and column sums (total credits)."""
    rows = tuple(sum(row) for row in table.cells)
    cols = tuple(sum(col) for col in zip(*table.cells)) if table.cells else ()
    return TableSums(rows, cols)


def net_changes(table: TransactionsTable, ledger: Ledger) -> dict[str, int]:
    """Signed per-account change, row minus column on its side, paired by position."""
    if set(table.account_names) != set(ledger.names()):
        raise TableError("table accounts do not match ledger accounts")
    sums = table_sums(table)
    by_name = dict(zip(table.account_names, zip(sums.row_sums, sums.col_sums)))
    changes = {}
    for acc in ledger.accounts:
        row, col = by_name[acc.name]
        changes[acc.name] = row - col if acc.role is Side.DR else col - row
    return changes


def consistency_check(table: TransactionsTable, journal: Sequence[JournalEntry]) -> bool:
    """Does the grid carry exactly the journal's per-account T-term sums?

    For every account, ``[row sum // column sum]`` must equal (by cross-sums)
    the sum of its T-terms across the journal; an account the grid lacks gives False.
    """
    sums = table_sums(table)
    totals = {name: TTerm.zero(1) for name in table.account_names}
    for entry in journal:
        for name, term in entry.terms_by_account().items():
            if name not in totals:
                return False
            totals[name] = totals[name] + term
    for name, row, col in zip(table.account_names, sums.row_sums, sums.col_sums):
        if not TTerm(NatVec.of(row), NatVec.of(col)).equivalent(totals[name]):
            return False
    return True
