"""Shared test helpers.

The signed-integer oracle here works on raw component tuples with plain
Python int arithmetic and never routes through the library's own
operations, so it can independently adjudicate them.  The random-case
builders take a caller-seeded ``random.Random`` so every loop is
deterministic.
"""

import sys
import warnings
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import pytest

from pacioli import (
    LEDGER_MAGIC,
    Account,
    DimensionMismatch,
    EntryValidation,
    IntVec,
    JournalEntry,
    Ledger,
    LedgerError,
    NatVec,
    Posting,
    PostingError,
    PriceVector,
    Side,
    SignedLedger,
    SignedRow,
    TableError,
    TransactionsTable,
    TTerm,
    dot_value,
    validate_entry,
)

DATA = Path(__file__).parent / "data"

# The interpreter's int/str digit limit, the bound on every number in a
# file; 0 where there is none.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="the interpreter has no int/str digit limit"
)


# --- independent signed-integer oracle (raw tuples in, raw tuples out) ---


def signed_of(term: TTerm) -> tuple[int, ...]:
    return tuple(d - c for d, c in zip(term.debit.components, term.credit.components))


def add_signed(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def neg_signed(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in a)


def jordan_signed(a: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(max(x, 0) for x in a), tuple(-min(x, 0) for x in a)


# --- reference posting: validate, then fold T-terms with `+` ---
#
# The straightforward two-pass definition of posting, kept as an oracle for
# the library's single-pass integer version.  It finds accounts by scanning
# the ledger and adds whole T-terms, so it shares no lookup or accumulation
# code with the library.


def reference_validate_entry(entry: JournalEntry, ledger: Ledger) -> EntryValidation:
    names = ledger.names()
    unknown = []
    mismatched = []
    residual = TTerm.zero(ledger.dimension)
    for i, posting in enumerate(entry.postings):
        if posting.account not in names and posting.account not in unknown:
            unknown.append(posting.account)
        if posting.amount.dimension != ledger.dimension:
            mismatched.append(i)
        else:
            residual = residual + posting.term()
    dr_accounts = {p.account for p in entry.postings if p.side is Side.DR}
    cr_accounts = {p.account for p in entry.postings if p.side is Side.CR}
    warnings = [
        f"account {name!r} is both debited and credited"
        for name in sorted(dr_accounts & cr_accounts)
    ]
    return EntryValidation(
        ok=not unknown and not mismatched and residual.is_zero(),
        unknown_accounts=tuple(unknown),
        dimension_mismatches=tuple(mismatched),
        residual=residual,
        warnings=tuple(warnings),
    )


def reference_post(ledger: Ledger, journal) -> Ledger:
    entries = list(journal)
    for i, entry in enumerate(entries):
        report = reference_validate_entry(entry, ledger)
        if not report.ok:
            raise PostingError(i, entry, report)
    balances = {acc.name: acc.balance for acc in ledger.accounts}
    for entry in entries:
        for posting in entry.postings:
            balances[posting.account] = balances[posting.account] + posting.term()
    return ledger.with_balances(balances)


# --- reference signed side path: T-terms per posting, vectors per step ---
#
# The signed mapping and posting as first written, kept as oracles for the
# library's plain-int versions: each change is the debit reading of the
# entry's net T-term, and posting adds whole `IntVec`s after checking every
# row first.


def reference_journal_to_signed(journal, ledger: Ledger) -> list[SignedRow]:
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


def reference_signed_post(ledger: SignedLedger, rows) -> SignedLedger:
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


def reference_total(vectors, dimension: int) -> IntVec:
    result = IntVec.zeros(dimension)
    for v in vectors:
        result = result + v
    return result


# --- reference transactions table: validate, then scan the postings ---
#
# The table path as first written, kept as an oracle for the library's
# version that nets each entry per account: every entry gets a full
# `validate_entry` report, and the debited and credited accounts are those
# with a nonzero posting on that side.


def reference_simple_transfer(entry: JournalEntry, ledger: Ledger) -> tuple[str, str, int]:
    report = validate_entry(entry, ledger)
    if not report.ok:
        raise TableError(f"entry {entry.description!r}: {report.problems()}")
    dr_total = 0
    dr_accounts = []
    cr_accounts = []
    for p in entry.postings:
        if p.amount.is_zero():
            continue
        accounts = dr_accounts if p.side is Side.DR else cr_accounts
        if p.account not in accounts:
            accounts.append(p.account)
        if p.side is Side.DR:
            dr_total += p.amount[0]
    if len(dr_accounts) != 1 or len(cr_accounts) != 1:
        raise TableError(
            f"entry {entry.description!r} debits {len(dr_accounts)} and credits "
            f"{len(cr_accounts)} account(s); split it into simple transfers of "
            "one debited and one credited account"
        )
    return dr_accounts[0], cr_accounts[0], dr_total


def reference_build_table(journal, ledger: Ledger) -> TransactionsTable:
    if ledger.dimension != 1:
        raise TableError(
            f"transactions table is scalar only; ledger has dimension {ledger.dimension}"
        )
    names = ledger.names()
    index = {name: i for i, name in enumerate(names)}
    cells = [[0] * len(names) for _ in names]
    for entry in journal:
        debited, credited, amount = reference_simple_transfer(entry, ledger)
        if debited == credited:
            warnings.warn(
                f"entry {entry.description!r} debits and credits {debited!r}; "
                "amount lands on the table diagonal"
            )
        cells[index[debited]][index[credited]] += amount
    return TransactionsTable(names, tuple(tuple(row) for row in cells))


# --- reference ledger-wide kernels: one vector object per step ---
#
# Reduction, decoding, the Jordan split, ledger rendering and valuation as
# first written, kept as oracles for the library's plain-int versions: each
# step builds whole `NatVec`/`IntVec`/`TTerm` values, and valuation dots in
# `Fraction` arithmetic.


def reference_reduced(term: TTerm) -> TTerm:
    m = term.debit.minimum(term.credit)
    return TTerm(
        NatVec(tuple(a - b for a, b in zip(term.debit, m))),
        NatVec(tuple(a - b for a, b in zip(term.credit, m))),
    )


def reference_debit_balance(term: TTerm) -> IntVec:
    return term.debit.to_signed() - term.credit.to_signed()


def reference_credit_balance(term: TTerm) -> IntVec:
    return term.credit.to_signed() - term.debit.to_signed()


def reference_jordan(value: IntVec) -> tuple[NatVec, NatVec]:
    pos = NatVec(tuple(max(c, 0) for c in value.components))
    neg = NatVec(tuple(-min(c, 0) for c in value.components))
    return pos, neg


def reference_render_ledger(ledger: Ledger, *, reduced: bool = True) -> str:
    out = [LEDGER_MAGIC, f"dimension {ledger.dimension}"]
    out.append("units " + " ".join(ledger.unit_names))
    for acc in ledger.accounts:
        balance = reference_reduced(acc.balance) if reduced else acc.balance
        nominal = " nominal" if acc.nominal else ""
        try:
            debit = " ".join(str(c) for c in balance.debit)
            credit = " ".join(str(c) for c in balance.credit)
        except ValueError:
            raise LedgerError(
                f"account {acc.name!r}: an amount past the int/str digit limit"
            ) from None
        out.append(f"account {acc.name} {acc.role.value}{nominal} {debit} // {credit}")
    return "\n".join(out) + "\n"


def reference_value_ledger(
    ledger: Ledger, prices: PriceVector, unit_name: str = "value"
) -> Ledger:
    if prices.dimension != ledger.dimension:
        raise DimensionMismatch(
            f"dimension mismatch: {prices.dimension} prices vs "
            f"ledger dimension {ledger.dimension}"
        )
    accounts = []
    for acc in ledger.accounts:
        if acc.role is Side.DR:
            signed = reference_debit_balance(acc.balance)
        else:
            signed = reference_credit_balance(acc.balance)
        value = dot_value(prices, signed)
        if value.denominator != 1:
            try:
                text = str(value)
            except ValueError:
                raise LedgerError(
                    f"account {acc.name!r}: a non-integer value "
                    "past the int/str digit limit"
                ) from None
            raise ValueError(f"account {acc.name!r} values to non-integer {text}")
        pos, neg = reference_jordan(IntVec.of(int(value)))
        balance = TTerm(pos, neg) if acc.role is Side.DR else TTerm(neg, pos)
        accounts.append(Account(acc.name, acc.role, balance, acc.nominal))
    return Ledger(1, (unit_name,), tuple(accounts))


# --- reference reports: dense rows, every cell padded ---


def reference_grid(rows: list[list[str]]) -> str:
    widths = [0] * max(len(r) for r in rows)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in rows:
        cells = [
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        ]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def reference_render_table_report(table, sums, changes, ledger: Ledger) -> str:
    names = table.account_names
    rows = [["Dr.\\Cr.", *names, "(row sum)"]]
    for i, name in enumerate(names):
        cells = [str(c) if c else "" for c in table.cells[i]]
        rows.append([name, *cells, str(sums.row_sums[i])])
    rows.append(["(col sum)", *[str(c) for c in sums.col_sums], ""])
    out = [reference_grid(rows), "", "net changes:"]
    change_rows = []
    for acc in ledger.accounts:
        change_rows.append([acc.name, acc.role.value, str(changes[acc.name])])
    out.append(reference_grid(change_rows))
    return "\n".join(out)


def reference_render_signed_report(ledger: SignedLedger, rows=None, ending=None) -> str:
    names = ledger.names()
    grid = [["", *names]]
    grid.append(["beginning", *[str(acc.balance) for acc in ledger.accounts]])
    checks = [f"beginning zero-row: {'OK' if ledger.is_zero_row() else 'FAIL'}"]
    if rows is not None:
        for i, row in enumerate(rows, start=1):
            changes = dict(row.changes)
            grid.append(
                [
                    f"{i}. {row.description}",
                    *[str(changes[n]) if n in changes else "" for n in names],
                ]
            )
        checks.append(
            "transaction zero-rows: "
            + ("OK" if all(row.is_zero() for row in rows) else "FAIL")
        )
    if ending is not None:
        grid.append(["ending", *[str(acc.balance) for acc in ending.accounts]])
        checks.append(f"ending zero-row: {'OK' if ending.is_zero_row() else 'FAIL'}")
    return "\n".join([reference_grid(grid), "", *checks])


# --- deterministic random case builders ---


def random_natvec(rng, dim: int, hi: int = 1000, lo: int = 0) -> NatVec:
    return NatVec(tuple(rng.randint(lo, hi) for _ in range(dim)))


def random_intvec(rng, dim: int, lo: int = -1000, hi: int = 1000) -> IntVec:
    return IntVec(tuple(rng.randint(lo, hi) for _ in range(dim)))


def random_tterm(rng, dim: int, hi: int = 1000) -> TTerm:
    return TTerm(random_natvec(rng, dim, hi), random_natvec(rng, dim, hi))


def random_ledger(rng, dim: int | None = None) -> Ledger:
    """A balanced ledger: random signed values that sum to zero, encoded
    with random extra padding so balances are not necessarily reduced."""
    dim = dim or rng.randint(1, 4)
    n = rng.randint(2, 5)
    values = [random_intvec(rng, dim) for _ in range(n - 1)]
    total = (0,) * dim
    for v in values:
        total = add_signed(total, v.components)
    values.append(IntVec(neg_signed(total)))
    accounts = []
    for i, value in enumerate(values):
        role = rng.choice((Side.DR, Side.CR))
        balance = TTerm.from_debit_balance(value)
        if rng.random() < 0.5:
            pad = random_natvec(rng, dim, 50)
            balance = balance + TTerm(pad, pad)
        accounts.append(Account(f"A{i + 1}", role, balance))
    units = tuple(f"u{k + 1}" for k in range(dim))
    return Ledger(dim, units, tuple(accounts))


def random_journal(
    rng,
    ledger: Ledger,
    n_entries: int | None = None,
    simple: bool = False,
    hi: int = 1000,
) -> list[JournalEntry]:
    """Valid entries built from balanced transfers.

    `simple=True` restricts each entry to a single transfer between two
    distinct accounts (what the transactions table requires).
    """
    names = ledger.names()
    if n_entries is None:
        n_entries = rng.randint(0, 5)
    entries = []
    for i in range(n_entries):
        transfers = 1 if simple else rng.randint(1, 3)
        postings = []
        for _ in range(transfers):
            debited = rng.choice(names)
            credited = rng.choice(names)
            while simple and credited == debited:
                credited = rng.choice(names)
            amount = random_natvec(rng, ledger.dimension, hi, lo=1 if simple else 0)
            postings.append(Posting(debited, Side.DR, amount))
            postings.append(Posting(credited, Side.CR, amount))
        entries.append(JournalEntry(f"txn {i + 1}", tuple(postings)))
    return entries


# --- hypothesis strategies ---


def components(limit: int = 1000):
    return st.integers(0, limit)


@st.composite
def natvecs(draw, dim: int | None = None, limit: int = 1000) -> NatVec:
    d = dim if dim is not None else draw(st.integers(1, 4))
    return NatVec(tuple(draw(st.lists(components(limit), min_size=d, max_size=d))))


@st.composite
def intvecs(draw, dim: int | None = None, limit: int = 1000) -> IntVec:
    d = dim if dim is not None else draw(st.integers(1, 4))
    return IntVec(
        tuple(draw(st.lists(st.integers(-limit, limit), min_size=d, max_size=d)))
    )


@st.composite
def tterms(draw, dim: int | None = None, limit: int = 1000) -> TTerm:
    d = dim if dim is not None else draw(st.integers(1, 4))
    return TTerm(draw(natvecs(dim=d, limit=limit)), draw(natvecs(dim=d, limit=limit)))


@st.composite
def tterm_pairs(draw, limit: int = 1000) -> tuple[TTerm, TTerm]:
    d = draw(st.integers(1, 4))
    return draw(tterms(dim=d, limit=limit)), draw(tterms(dim=d, limit=limit))


@st.composite
def tterm_triples(draw, limit: int = 1000) -> tuple[TTerm, TTerm, TTerm]:
    d = draw(st.integers(1, 4))
    return (
        draw(tterms(dim=d, limit=limit)),
        draw(tterms(dim=d, limit=limit)),
        draw(tterms(dim=d, limit=limit)),
    )


@st.composite
def ledgers(draw, max_dim: int = 3, limit: int = 1000) -> Ledger:
    """A ledger of 1-6 accounts with arbitrary (not necessarily balanced,
    not necessarily reduced) balances."""
    dim = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, 6))
    accounts = tuple(
        Account(
            f"A{i + 1}",
            draw(st.sampled_from(Side)),
            draw(tterms(dim=dim, limit=limit)),
            draw(st.booleans()),
        )
        for i in range(n)
    )
    return Ledger(dim, tuple(f"u{k + 1}" for k in range(dim)), accounts)


@st.composite
def valid_entries(draw, ledger: Ledger, limit: int = 1000) -> JournalEntry:
    """1-2 balanced transfers (any two accounts, possibly the same one) and
    sometimes a lone zero posting."""
    names = ledger.names()
    postings = []
    for _ in range(draw(st.integers(1, 2))):
        amount = draw(natvecs(dim=ledger.dimension, limit=limit))
        postings.append(Posting(draw(st.sampled_from(names)), Side.DR, amount))
        postings.append(Posting(draw(st.sampled_from(names)), Side.CR, amount))
    if draw(st.booleans()):
        zero = NatVec.zeros(ledger.dimension)
        side = draw(st.sampled_from(Side))
        postings.insert(
            draw(st.integers(0, len(postings))),
            Posting(draw(st.sampled_from(names)), side, zero),
        )
    return JournalEntry(draw(st.text("abc ", max_size=5)), tuple(postings))


def journals(ledger: Ledger, max_size: int = 8):
    return st.lists(valid_entries(ledger), max_size=max_size)


@st.composite
def invalid_entries(draw, ledger: Ledger) -> JournalEntry:
    """A valid entry broken in one way: an unknown account, a wrong-dimension
    amount, or one posting's amount raised so the entry no longer balances."""
    entry = draw(valid_entries(ledger))
    postings = list(entry.postings)
    i = draw(st.integers(0, len(postings) - 1))
    p = postings[i]
    kind = draw(st.sampled_from(("unknown", "dimension", "unbalanced")))
    if kind == "unknown":
        postings[i] = Posting("Nowhere", p.side, p.amount)
    elif kind == "dimension":
        postings[i] = Posting(p.account, p.side, NatVec.zeros(ledger.dimension + 1))
    else:
        bump = draw(
            natvecs(dim=ledger.dimension, limit=50).filter(lambda v: not v.is_zero())
        )
        postings[i] = Posting(p.account, p.side, p.amount + bump)
    return JournalEntry(entry.description, tuple(postings))
