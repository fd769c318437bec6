"""Single-Sided accounts with Signed numbers: the rival recording system.

Mapping every T-term through its debit reading (debit minus credit) turns
a double-entry ledger into a list of signed balances that sum to the zero
vector (a zero-row), and turns each journal entry into a row of signed
per-account changes that also sums to zero.  Posting is then plain signed
addition.  Both systems produce the same ending equation from the same
start and the same transactions; the commuting-square tests pin that down.
So this path nets on its own: `journal_to_signed` reaches `ledger._net`
only for a failed entry, to raise the :class:`PostingError` `post` would.

Account roles are kept on signed accounts purely so reports can show
``A = L + E`` instead of the internal ``A - L - E = 0`` form.

Zero-row checks: `signed_post` sums each row it posts in its own pass.
`zero_row_check` nets any vectors on plain ints; `SignedLedger.is_zero_row`
and `SignedRow.is_zero` go through it, and ``reports.iter_signed_report``
calls them on the beginning and ending ledgers and on each row.
"""

from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter
from typing import Iterable

from .algebra import DimensionMismatch, IntVec, _signed_sum
from .ledger import JournalEntry, Ledger, LedgerError, Side, _Book, _check_account, _net

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

    def __post_init__(self):
        _check_account(self, IntVec)


@dataclass(frozen=True)
class SignedLedger(_Book):
    """A listing of `SignedAccount`s, checked on construction as a `Ledger` is."""

    _account = SignedAccount

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
        object.__setattr__(self, "changes", tuple(map(tuple, self.changes)))

    def is_zero(self) -> bool:
        return zero_row_check(map(itemgetter(1), self.changes))


def zero_row_check(vectors: Iterable[IntVec]) -> bool:
    """True iff the signed sum of `vectors` is zero (vacuously for none).
    One pass on plain ints at the first vector's dimension (the fold of
    `IntVec.total`), building no vector; one of another dimension raises
    `DimensionMismatch`."""
    vectors = iter(vectors)
    for first in vectors:
        return not any(_signed_sum(chain([first], vectors), first.dimension))
    return True


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

    Every produced row sums to zero.  `journal` holds entries or the
    journal grammar's rows, as `post` takes them.  Each is netted here, not
    by `post`'s `_net`: a debit adds to the account's change and a credit
    subtracts, in order of first appearance.  A failed entry goes to `_net`
    only to raise its :class:`PostingError`.
    """
    dim = ledger.dimension
    known = ledger._by_name
    debit, credit = Side.DR, Side.CR  # locals: looking up an enum member is a call
    rows = []
    for i, (description, postings) in enumerate(journal):
        sums: dict[str, list[int]] = {}
        for account, side, amount in postings:
            change = sums.get(account)
            if change is None:
                if account not in known:
                    break
                change = sums[account] = [0] * dim
            if len(amount) != dim:
                break
            if side is debit:
                for j, c in enumerate(amount):
                    change[j] += c
            elif side is credit:
                for j, c in enumerate(amount):
                    change[j] -= c
            else:
                break
        else:
            if not any(map(sum, zip(*sums.values()))):
                changes = [(name, IntVec(tuple(c))) for name, c in sums.items()]
                rows.append(SignedRow(description, changes))
                continue
        _net(i, description, postings, ledger, {})
        raise AssertionError(f"entry {i + 1}: refused by this loop, accepted by _net")
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
