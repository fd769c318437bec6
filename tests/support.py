"""Shared test helpers.

The signed-integer oracle here works on raw component tuples with plain
Python int arithmetic and never routes through the library's own
operations, so it can independently adjudicate them.  The random-case
builders take a caller-seeded ``random.Random`` so every loop is
deterministic.
"""

from pathlib import Path

import hypothesis.strategies as st

from pacioli import (
    Account,
    EntryValidation,
    IntVec,
    JournalEntry,
    Ledger,
    NatVec,
    Posting,
    PostingError,
    Side,
    TTerm,
)

DATA = Path(__file__).parent / "data"


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
