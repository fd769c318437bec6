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
from .ledger import _Book, _net, _triples

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

    Each entry is netted per account by `_net`, in order of first
    appearance, and each change, debit minus credit, is built as an
    `IntVec` once.  `validate_entry` runs only to report a failure.
    """
    dim = ledger.dimension
    rows = []
    for i, entry in enumerate(journal):
        sums: dict[str, list[int]] = {}
        if not _net(_triples(entry), ledger, sums):
            raise PostingError(i, entry, validate_entry(entry, ledger))
        changes = tuple(
            (name, IntVec(tuple(d - c for d, c in zip(sides, sides[dim:]))))
            for name, sides in sums.items()
        )
        rows.append(SignedRow(entry.description, changes))
    return rows


def signed_post(ledger: SignedLedger, rows: Iterable[SignedRow]) -> SignedLedger:
    """Add each row's signed changes to the balances, in order.

    Rows must name known accounts, match the ledger dimension, and sum to
    the zero vector; the zero-row property of the ledger is then preserved.
    The first row that breaks one of these rules raises.

    One pass on plain ints: each touched balance accumulates in an int
    list, each row's sum in another, and each touched ending balance is
    built once.  Independent of `post`, `validate_entry` and `_net` by
    design: the commuting-square tests compare the two systems.
    """
    dim = ledger.dimension
    known = ledger._by_name
    sums: dict[str, list[int]] = {}
    for i, row in enumerate(rows, start=1):
        residual = [0] * dim
        for name, change in row.changes:
            balance = sums.get(name)
            if balance is None:
                if name not in known:
                    raise LedgerError(f"row {i}: unknown account {name!r}")
                balance = sums[name] = list(known[name].balance.components)
            if change.dimension != dim:
                raise DimensionMismatch(
                    f"row {i}: change for {name!r} has dimension "
                    f"{change.dimension}, ledger has {dim}"
                )
            for j, c in enumerate(change.components):
                balance[j] += c
                residual[j] += c
        if any(residual):
            raise LedgerError(f"row {i} ({row.description!r}) does not sum to zero")
    accounts = tuple(
        replace(acc, balance=IntVec(tuple(sums[acc.name])))
        if acc.name in sums
        else acc
        for acc in ledger.accounts
    )
    return replace(ledger, accounts=accounts)
