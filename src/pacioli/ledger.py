"""The double-entry method proper.

A balance-sheet equation encodes as a ledger of T-term accounts that sum
to the zero T-term; transactions encode as journal entries whose postings
also sum to zero; posting the journal adds those zero-terms to the account
balances, so the ledger invariant survives every valid posting.  Decoding
the ended ledger yields the ending equation.  Decoding reads ``[d // c]``
as ``d - c`` (or ``c - d``), a function on the group's equivalence classes,
so it needs no reduction first; reduction only picks the canonical
representative, the form `render_ledger` writes.

Ledgers are immutable: `post` and friends return new values.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .algebra import DimensionMismatch, IntVec, NatVec, TTerm, _signed_sum

__all__ = [
    "Side",
    "Account",
    "Ledger",
    "Posting",
    "JournalEntry",
    "BalanceSheetEquation",
    "EntryValidation",
    "TrialBalance",
    "LedgerError",
    "PostingError",
    "encode_equation",
    "validate_entry",
    "post",
    "trial_balance",
    "reduce_ledger",
    "decode_equation",
    "close_nominal",
]


class LedgerError(ValueError):
    """A ledger or journal violates a structural requirement."""


# In memory a number is unbounded, but past the interpreter's int/str digit
# limit it has no decimal text: no file, report or message can hold it.
_PAST_LIMIT = "past the int/str digit limit"
# The owner of an account's amount, for `_text`.
_AMOUNT = "account %r: an amount"


def _text(value, owner: str, arg=(), render=str) -> str:
    """``render(value)``, by default ``str(value)``: the one format step for
    every number written or printed.

    A number past the digit limit raises the one `LedgerError` "<owner> past
    the int/str digit limit"; the owner is ``owner % arg``, formatted only on
    that path.  (Positional arguments: this runs once per printed cell.)
    """
    try:
        return render(value)
    except ValueError:
        raise LedgerError(f"{owner % arg} {_PAST_LIMIT}") from None


class Side(Enum):
    """Debit/credit marker, used both as an account's balance side and as a
    posting's side."""

    DR = "dr"
    CR = "cr"


def _check_name(name: str, what: str) -> None:
    if type(name) is not str:
        raise TypeError(f"{what} name {name!r} is not a str")
    if not name or name.split() != [name] or "#" in name:
        raise LedgerError(f"invalid {what} name {name!r}")


@dataclass(frozen=True)
class Account:
    """A named T-term balance with a fixed balance side.

    `nominal` marks temporary income-statement accounts (revenue, expense)
    that get closed into equity at period end.
    """

    name: str
    role: Side
    balance: TTerm
    nominal: bool = False

    def __post_init__(self):
        _check_name(self.name, "account")
        if type(self.role) is not Side:
            raise TypeError(f"account {self.name!r}: role {self.role!r} is not a Side")

    @classmethod
    def from_signed(cls, name: str, role: Side, value: IntVec, nominal=False):
        """The account whose :meth:`signed_balance` is `value`, reduced."""
        if role is Side.DR:
            return cls(name, role, TTerm.from_debit_balance(value), nominal)
        return cls(name, role, TTerm.from_credit_balance(value), nominal)

    def signed_balance(self) -> IntVec:
        """The balance decoded on the account's own side."""
        if self.role is Side.DR:
            return self.balance.debit_balance()
        return self.balance.credit_balance()


@dataclass(frozen=True)
class _Book:
    """An ordered listing of named accounts over a fixed dimension, shared
    by the T-term `Ledger` and the signed `SignedLedger`.

    Construction checks the dimension, the unit names, that every account
    is of the subclass's `_account` type, that account names are distinct
    and that every balance has the book's dimension, and indexes the
    accounts by name in the same pass.
    """

    dimension: int
    unit_names: tuple[str, ...]
    accounts: tuple = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise LedgerError(f"dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "unit_names", tuple(self.unit_names))
        object.__setattr__(self, "accounts", tuple(self.accounts))
        if len(self.unit_names) != self.dimension:
            raise LedgerError(
                f"{len(self.unit_names)} unit names for dimension {self.dimension}"
            )
        for unit in self.unit_names:
            _check_name(unit, "unit")
        if len(set(self.unit_names)) != len(self.unit_names):
            raise LedgerError("unit names must be distinct")
        by_name, kind = {}, self._account
        for acc in self.accounts:
            if type(acc) is not kind:
                book = type(self).__name__
                raise TypeError(f"a {book} holds {kind.__name__}s, not {acc!r}")
            if acc.name in by_name:
                raise LedgerError(f"duplicate account {acc.name!r}")
            by_name[acc.name] = acc
            if acc.balance.dimension != self.dimension:
                raise DimensionMismatch(
                    f"account {acc.name!r} has dimension "
                    f"{acc.balance.dimension}, ledger has {self.dimension}"
                )
        object.__setattr__(self, "_by_name", by_name)

    def names(self) -> tuple[str, ...]:
        return tuple(acc.name for acc in self.accounts)

    def has_account(self, name: str) -> bool:
        return name in self._by_name

    def account(self, name: str):
        try:
            return self._by_name[name]
        except KeyError:
            raise LedgerError(f"unknown account {name!r}") from None


@dataclass(frozen=True)
class Ledger(_Book):
    """A listing of T-term `Account`s.

    Construction does *not* check the zero-account property: an unbalanced
    ledger is representable (that is what a trial balance is for), it just
    cannot come out of `encode_equation` or `post`.
    """

    _account = Account

    def total(self) -> TTerm:
        """The sum of every balance: the debit sides and the credit sides
        each folded on plain ints (`_signed_sum`), built as vectors once."""
        debit = _signed_sum((a.balance.debit for a in self.accounts), self.dimension)
        credit = _signed_sum((a.balance.credit for a in self.accounts), self.dimension)
        return TTerm(NatVec(tuple(debit)), NatVec(tuple(credit)))

    def is_balanced(self) -> bool:
        return self.total().is_zero()

    def with_balances(self, balances: dict[str, TTerm]) -> "Ledger":
        accounts = tuple(
            Account(acc.name, acc.role, balances[acc.name], acc.nominal)
            if acc.name in balances
            else acc
            for acc in self.accounts
        )
        return Ledger(self.dimension, self.unit_names, accounts)


@dataclass(frozen=True)
class Posting:
    """One unsigned amount applied to one side of one account."""

    account: str
    side: Side
    amount: NatVec

    def __iter__(self):
        return iter((self.account, self.side, self.amount.components))

    def term(self) -> TTerm:
        zero = NatVec.zeros(self.amount.dimension)
        if self.side is Side.DR:
            return TTerm(self.amount, zero)
        return TTerm(zero, self.amount)


@dataclass(frozen=True)
class JournalEntry:
    """A described group of postings meant to sum to a zero-term."""

    description: str
    postings: tuple[Posting, ...]

    def __post_init__(self):
        object.__setattr__(self, "postings", tuple(self.postings))

    def __iter__(self):
        """``(description, postings)``: an entry unpacks as the journal
        grammar's row, and each posting as its triple."""
        return iter((self.description, self.postings))

    def terms_by_account(self) -> dict[str, TTerm]:
        """Net T-term per affected account, in order of first appearance."""
        terms: dict[str, TTerm] = {}
        for p in self.postings:
            t = p.term()
            terms[p.account] = terms[p.account] + t if p.account in terms else t
        return terms


@dataclass(frozen=True)
class BalanceSheetEquation:
    """Named signed-vector terms, left-hand side = right-hand side."""

    lhs: tuple[tuple[str, IntVec], ...]
    rhs: tuple[tuple[str, IntVec], ...]

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(tuple(t) for t in self.lhs))
        object.__setattr__(self, "rhs", tuple(tuple(t) for t in self.rhs))

    def terms(self) -> tuple[tuple[str, IntVec], ...]:
        return self.lhs + self.rhs

    def dimension(self) -> int | None:
        for _, value in self.terms():
            return value.dimension
        return None

    def balances(self) -> bool:
        dim = self.dimension()
        if dim is None:
            return True
        lhs = IntVec.total((v for _, v in self.lhs), dim)
        rhs = IntVec.total((v for _, v in self.rhs), dim)
        return lhs == rhs


@dataclass(frozen=True)
class EntryValidation:
    """Outcome of checking one journal entry against a ledger.

    `residual` is the raw sum of the postings' T-terms (over postings whose
    dimension matches the ledger); the entry balances iff it is a zero-term.
    `dimension_mismatches` holds 0-based posting indices.
    """

    ok: bool
    unknown_accounts: tuple[str, ...] = ()
    dimension_mismatches: tuple[int, ...] = ()
    residual: TTerm | None = None
    warnings: tuple[str, ...] = ()

    def problems(self) -> str:
        parts = []
        if self.unknown_accounts:
            parts.append("unknown account(s): " + ", ".join(self.unknown_accounts))
        if self.dimension_mismatches:
            indices = ", ".join(str(i + 1) for i in self.dimension_mismatches)
            parts.append(f"dimension mismatch in posting(s) {indices}")
        if self.residual is not None and not self.residual.is_zero():
            parts.append("unbalanced, " + _residual_text(self.residual))
        return "; ".join(parts) if parts else "ok"


def _residual_text(residual: TTerm) -> str:
    """The words "residual [d // c]", or past the limit those of `_text`'s error."""
    try:
        return "residual " + _text(residual, "residual")
    except LedgerError as exc:
        return str(exc)


class PostingError(LedgerError):
    """Posting aborted: one entry failed validation.

    Carries the 0-based index of the failing entry and its report; nothing
    was applied.
    """

    def __init__(self, entry_index: int, entry: JournalEntry, report: EntryValidation):
        self.entry_index = entry_index
        self.entry = entry
        self.report = report
        super().__init__(
            f"entry {entry_index + 1} ({entry.description!r}): {report.problems()}"
        )


@dataclass(frozen=True)
class TrialBalance:
    debit_total: NatVec
    credit_total: NatVec
    balanced: bool


def encode_equation(
    eq: BalanceSheetEquation, unit_names: Sequence[str] | None = None
) -> Ledger:
    """Encode a balanced equation as a ledger summing to the zero T-term.

    Left-hand terms become debit-balance accounts, right-hand terms
    credit-balance accounts.  The dimension is the terms' (1 for the empty
    equation), and `unit_names` default to "u1".."un".  `Ledger`
    construction rejects duplicate names and terms of another dimension.
    """
    dim = eq.dimension() or 1
    if not eq.balances():
        raise LedgerError("equation does not balance; cannot encode")
    if unit_names is None:
        unit_names = tuple(f"u{i + 1}" for i in range(dim))
    accounts = [Account.from_signed(name, Side.DR, value) for name, value in eq.lhs]
    accounts += [Account.from_signed(name, Side.CR, value) for name, value in eq.rhs]
    return Ledger(dim, tuple(unit_names), tuple(accounts))


def validate_entry(entry: JournalEntry, ledger: Ledger) -> EntryValidation:
    """Check an entry: known accounts, matching dimensions, zero-term sum."""
    dim = ledger.dimension
    known = ledger._by_name
    unknown = []
    mismatched = []
    debit = [0] * dim
    credit = [0] * dim
    dr_accounts = set()
    cr_accounts = set()
    dr, cr = Side.DR, Side.CR  # locals: looking up an enum member is a call
    for i, posting in enumerate(entry.postings):
        name = posting.account
        if name not in known and name not in unknown:
            unknown.append(name)
        if posting.side is dr:
            side = debit
            dr_accounts.add(name)
        elif posting.side is cr:
            side = credit
            cr_accounts.add(name)
        else:
            raise TypeError(
                f"entry {entry.description!r}, posting {i + 1} ({name!r}): "
                f"side {posting.side!r} is not a Side"
            )
        amount = posting.amount.components
        if len(amount) != dim:
            mismatched.append(i)
            continue
        for j, c in enumerate(amount):
            side[j] += c
    both = dr_accounts & cr_accounts  # rare: the warnings are built only then
    warnings = () if not both else tuple(
        f"account {name!r} is both debited and credited" for name in sorted(both)
    )
    return EntryValidation(
        ok=not unknown and not mismatched and debit == credit,
        unknown_accounts=tuple(unknown),
        dimension_mismatches=tuple(mismatched),
        residual=TTerm(NatVec(tuple(debit)), NatVec(tuple(credit))),
        warnings=warnings,
    )


def _entry(description: str, postings) -> JournalEntry:
    """The entry of a description and ``(account, side, components)`` triples."""
    return JournalEntry(description, [Posting(a, s, NatVec(v)) for a, s, v in postings])


def _net(i: int, description: str, postings, ledger: Ledger, sums) -> None:
    """Add entry `i`'s ``(account, side, components)`` posting triples into
    `sums`: account name -> debit components, then credit components, from
    zero, in order of first appearance.

    The one place a failed entry is reported: exactly when `validate_entry`
    is not ok (an unknown account, a wrong dimension, or debits unequal to
    credits), the entry is rebuilt from `description` and `postings` and
    its :class:`PostingError` raised, with `sums` partly updated.  A side
    that is not a `Side` fails the entry too: `validate_entry` then raises
    its `TypeError`.
    """
    dim = ledger.dimension
    known = ledger._by_name
    debit, credit = Side.DR, Side.CR  # locals: looking up an enum member is a call
    residual = [0] * dim
    for account, side, amount in postings:
        acc = sums.get(account)
        if acc is None:
            if account not in known:
                break
            acc = sums[account] = [0] * (2 * dim)
        if len(amount) != dim:
            break
        if side is debit:
            for j, c in enumerate(amount):
                acc[j] += c
                residual[j] += c
        elif side is credit:
            for j, c in enumerate(amount):
                acc[dim + j] += c
                residual[j] -= c
        else:
            break
    else:
        if not any(residual):
            return
    entry = _entry(description, postings)
    raise PostingError(i, entry, validate_entry(entry, ledger))


def post(ledger: Ledger, journal: Iterable[JournalEntry]) -> Ledger:
    """Add every entry's zero-terms to the account balances, in order.

    All-or-nothing: the first entry that fails validation raises
    :class:`PostingError` and nothing is applied.  Balances accumulate raw
    debits and credits; reduction is a separate, explicit step.

    `journal` holds entries or the journal grammar's rows, ``(description,
    posting triples)`` pairs, which is how an entry unpacks.  `_net` nets
    every one into one dict for the whole journal and raises the failed
    entry's :class:`PostingError`; each touched balance is built once at
    the end.
    """
    sums: dict[str, list[int]] = {}
    for i, (description, postings) in enumerate(journal):
        _net(i, description, postings, ledger, sums)
    dim = ledger.dimension
    known = ledger._by_name
    balances = {}
    for name, sides in sums.items():
        opening = known[name].balance
        for j, c in enumerate(opening.debit.components + opening.credit.components):
            sides[j] += c
        balances[name] = TTerm(NatVec(tuple(sides[:dim])), NatVec(tuple(sides[dim:])))
    return ledger.with_balances(balances)


def trial_balance(ledger: Ledger) -> TrialBalance:
    """Sum the debit sides and the credit sides of every account."""
    total = ledger.total()
    return TrialBalance(total.debit, total.credit, balanced=total.is_zero())


def reduce_ledger(ledger: Ledger) -> Ledger:
    """Replace every balance with its reduced form."""
    return ledger.with_balances(
        {acc.name: acc.balance.reduced() for acc in ledger.accounts}
    )


def decode_equation(ledger: Ledger) -> BalanceSheetEquation:
    """Decode each balance on its account's side, rebuilding the equation."""
    accounts = ledger.accounts
    lhs = tuple((a.name, a.signed_balance()) for a in accounts if a.role is Side.DR)
    rhs = tuple((a.name, a.signed_balance()) for a in accounts if a.role is Side.CR)
    return BalanceSheetEquation(lhs, rhs)


def close_nominal(
    ledger: Ledger, equity_account: str
) -> tuple[Ledger, list[JournalEntry]]:
    """Transfer every nominal balance into `equity_account` and post it.

    One entry per nominal account with a nonzero reduced balance; after
    posting, every nominal account holds a zero-term.  Returns the closed
    ledger together with the generated entries.
    """
    equity = ledger.account(equity_account)
    if equity.role is not Side.CR:
        raise LedgerError(f"equity account {equity_account!r} is not credit-balance")
    if equity.nominal:
        raise LedgerError(f"equity account {equity_account!r} is nominal")
    entries = []
    for acc in ledger.accounts:
        if not acc.nominal:
            continue
        balance = acc.balance.reduced()
        if balance.is_zero():
            continue
        postings = []
        if not balance.debit.is_zero():
            postings.append(Posting(acc.name, Side.CR, balance.debit))
            postings.append(Posting(equity_account, Side.DR, balance.debit))
        if not balance.credit.is_zero():
            postings.append(Posting(acc.name, Side.DR, balance.credit))
            postings.append(Posting(equity_account, Side.CR, balance.credit))
        entries.append(
            JournalEntry(f"close {acc.name} into {equity_account}", tuple(postings))
        )
    return post(ledger, entries), entries
