"""Single-Sided accounts with Signed numbers: the rival recording system.

Mapping every T-term through its debit reading (debit minus credit) turns
a double-entry ledger into a list of signed balances that sum to the zero
vector (a zero-row), and turns each journal entry into a row of signed
per-account changes that also sums to zero.  Posting is then plain signed
addition.  Both systems produce the same ending equation from the same
start and the same transactions; the commuting-square tests pin that down.

Account roles are kept on signed accounts purely so reports can show
``A = L + E`` instead of the internal ``A - L - E = 0`` form.
"""

from dataclasses import dataclass, replace
from typing import Iterable

from .algebra import DimensionMismatch, IntVec
from .ledger import JournalEntry, Ledger, LedgerError, PostingError, Side, validate_entry
from .ledger import _Book

__all__ = [
    "SignedAccount",
    "SignedLedger",
    "SignedRow",
    "to_signed",
    "journal_to_signed",
    "signed_post",
    "zero_row_check",
]


@dataclass(frozen=True)
class SignedAccount:
    name: str
    role: Side
    balance: IntVec


@dataclass(frozen=True)
class SignedLedger(_Book):
    """A listing of `SignedAccount`s, checked on construction as a `Ledger` is."""

    def balances(self) -> tuple[IntVec, ...]:
        return tuple(acc.balance for acc in self.accounts)

    def is_zero_row(self) -> bool:
        return zero_row_check(self.balances())


@dataclass(frozen=True)
class SignedRow:
    """One transaction as net signed changes, one vector per account."""

    description: str
    changes: tuple[tuple[str, IntVec], ...]

    def __post_init__(self):
        object.__setattr__(self, "changes", tuple(tuple(c) for c in self.changes))

    def is_zero(self) -> bool:
        return zero_row_check(v for _, v in self.changes)


def zero_row_check(vectors: Iterable[IntVec]) -> bool:
    """True iff the signed sum of `vectors` is zero (vacuously for none)."""
    vectors = tuple(vectors)
    return not vectors or IntVec.total(vectors, vectors[0].dimension).is_zero()


def to_signed(ledger: Ledger) -> SignedLedger:
    """Map every balance through its debit reading."""
    accounts = tuple(
        SignedAccount(acc.name, acc.role, acc.balance.debit_balance())
        for acc in ledger.accounts
    )
    return SignedLedger(ledger.dimension, ledger.unit_names, accounts)


def journal_to_signed(
    journal: Iterable[JournalEntry], ledger: Ledger
) -> list[SignedRow]:
    """Map each entry to the net signed change per affected account.

    Entries must validate against `ledger`; a failure raises
    :class:`PostingError`.  Every produced row sums to zero.
    """
    rows = []
    for i, entry in enumerate(journal):
        report = validate_entry(entry, ledger)
        if not report.ok:
            raise PostingError(i, entry, report)
        changes = tuple(
            (name, term.debit_balance())
            for name, term in entry.terms_by_account().items()
        )
        rows.append(SignedRow(entry.description, changes))
    return rows


def signed_post(ledger: SignedLedger, rows: Iterable[SignedRow]) -> SignedLedger:
    """Add each row's signed changes to the balances, in order.

    Rows must name known accounts, match the ledger dimension, and sum to
    the zero vector; the zero-row property of the ledger is then preserved.
    """
    rows = list(rows)
    for i, row in enumerate(rows):
        for name, change in row.changes:
            if not ledger.has_account(name):
                raise LedgerError(f"row {i + 1}: unknown account {name!r}")
            if change.dimension != ledger.dimension:
                raise DimensionMismatch(
                    f"row {i + 1}: change for {name!r} has dimension "
                    f"{change.dimension}, ledger has {ledger.dimension}"
                )
        if not row.is_zero():
            raise LedgerError(
                f"row {i + 1} ({row.description!r}) does not sum to zero"
            )
    balances = {acc.name: acc.balance for acc in ledger.accounts}
    for row in rows:
        for name, change in row.changes:
            balances[name] = balances[name] + change
    accounts = tuple(
        replace(acc, balance=balances[acc.name]) for acc in ledger.accounts
    )
    return replace(ledger, accounts=accounts)
