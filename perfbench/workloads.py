"""Seeded workload generator and the command sequence each workload runs.

A workload is a ledger, a journal (and for `audit` a dirty copy of it) held
as plain Python ints, written out in the pacioli file formats.  The program
under test only ever sees the written files; the oracle works from the
in-memory `Book`.  The same (workload, seed) pair always gives the same
files, byte for byte.
"""

import random
from dataclasses import dataclass, field, replace

EQUITY = "Equity"
PRICE = 3  # the single price `value --prices` uses on period_close
MAX_AMOUNT = 10**6


@dataclass
class Account:
    name: str
    role: str  # "dr" or "cr"
    debit: list[int]
    credit: list[int]
    nominal: bool = False


@dataclass
class Entry:
    description: str
    postings: list[tuple[str, str, tuple[int, ...]]]  # (side, account, amounts)


@dataclass
class Book:
    dimension: int
    units: tuple[str, ...]
    accounts: list[Account]
    entries: list[Entry]
    dirty: list[Entry] | None = None  # validate's input on `audit`
    planted: list[int] = field(default_factory=list)  # 0-based invalid indices


@dataclass(frozen=True)
class Spec:
    """Workload parameters; the same numbers appear in BENCHMARK.json."""

    accounts: int
    entries: int
    dimension: int
    postings: tuple[int, int]  # min and max postings per entry
    nominal_share: float = 0.0
    invalid_every: int = 0  # one invalid entry in this many (dirty copy only)


SPECS = {
    "post_long": Spec(accounts=100, entries=20_000, dimension=3, postings=(2, 4)),
    "period_close": Spec(
        accounts=4_000, entries=3_000, dimension=1, postings=(2, 3), nominal_share=0.1
    ),
    "audit": Spec(
        accounts=200, entries=10_000, dimension=1, postings=(2, 2), invalid_every=100
    ),
}

# The CLI commands each workload runs, in order.  `{ledger}` and friends
# are filled in with paths by the harness; `metric` names the per-command
# time it reports.
SEQUENCES = {
    "post_long": [
        ("post_s", ["post", "--ledger", "{ledger}", "--journal", "{journal}",
                    "--out", "{posted}"]),
    ],
    "period_close": [
        ("post_s", ["post", "--ledger", "{ledger}", "--journal", "{journal}",
                    "--out", "{posted}"]),
        ("close_s", ["close", "--ledger", "{posted}", "--equity", EQUITY,
                     "--out", "{closed}"]),
        ("report_s", ["report", "--ledger", "{closed}"]),
        ("value_s", ["value", "--ledger", "{closed}", "--prices", str(PRICE)]),
    ],
    "audit": [
        ("validate_s", ["validate", "--ledger", "{ledger}", "--journal", "{dirty}"]),
        ("matrix_s", ["matrix", "--ledger", "{ledger}", "--journal", "{journal}"]),
        ("sss_s", ["sss", "--ledger", "{ledger}", "--journal", "{journal}"]),
    ],
}


def _split(total: int, parts: int, rng: random.Random) -> list[int]:
    """Split `total` into `parts` unsigned ints (zeros allowed)."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0, *cuts, total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _accounts(spec: Spec, rng: random.Random) -> list[Account]:
    dim = spec.dimension
    nominal_count = round(spec.accounts * spec.nominal_share)
    nominal = set(rng.sample(range(1, spec.accounts), nominal_count))
    accounts = []
    for i in range(spec.accounts):
        if i == 0 and spec.nominal_share:
            accounts.append(Account(EQUITY, "cr", [0] * dim, [0] * dim))
            continue
        role = rng.choice(("dr", "cr"))
        if i in nominal:
            prefix = "Expense" if role == "dr" else "Revenue"
        else:
            prefix = "Asset" if role == "dr" else "Liability"
        # Unreduced balances (both sides nonzero) so reducing does work.
        base = [rng.randint(0, MAX_AMOUNT) for _ in range(dim)]
        extra = [rng.randint(0, MAX_AMOUNT) for _ in range(dim)]
        debit, credit = (
            ([b + e for b, e in zip(base, extra)], base)
            if role == "dr"
            else (base, [b + e for b, e in zip(base, extra)])
        )
        accounts.append(Account(f"{prefix}_{i:05d}", role, debit, credit, i in nominal))
    # Make the accounts sum to a zero T-term by topping up one account.
    last = accounts[-1]
    for k in range(dim):
        debits = sum(a.debit[k] for a in accounts)
        credits = sum(a.credit[k] for a in accounts)
        if debits > credits:
            last.credit[k] += debits - credits
        else:
            last.debit[k] += credits - debits
    return accounts


def _entry(index: int, names: list[str], spec: Spec, rng: random.Random) -> Entry:
    count = rng.randint(*spec.postings)
    chosen = rng.sample(names, count)
    n_dr = rng.randint(1, count - 1)
    dr, cr = chosen[:n_dr], chosen[n_dr:]
    dr_amounts = [
        tuple(rng.randint(1, MAX_AMOUNT) for _ in range(spec.dimension))
        for _ in dr
    ]
    totals = [sum(a[k] for a in dr_amounts) for k in range(spec.dimension)]
    per_component = [_split(t, len(cr), rng) for t in totals]
    cr_amounts = [tuple(c[j] for c in per_component) for j in range(len(cr))]
    postings = [("dr", n, a) for n, a in zip(dr, dr_amounts)]
    postings += [("cr", n, a) for n, a in zip(cr, cr_amounts)]
    rng.shuffle(postings)
    return Entry(f"txn {index} batch {rng.randint(1, 99)}", postings)


def _corrupt(entry: Entry, rng: random.Random) -> Entry:
    """An invalid copy: unbalanced, or naming an account the ledger lacks."""
    postings = list(entry.postings)
    i = rng.randrange(len(postings))
    side, name, amounts = postings[i]
    if rng.random() < 0.5:
        postings[i] = (side, name, (amounts[0] + rng.randint(1, 999), *amounts[1:]))
    else:
        postings[i] = (side, f"Ghost_{rng.randint(0, 99999):05d}", amounts)
    return Entry(entry.description, postings)


def generate(workload: str, seed: int, scale: float = 1.0) -> Book:
    """Build the workload's book; `scale` shrinks it for self-tests."""
    spec = SPECS[workload]
    spec = replace(
        spec,
        accounts=max(4, round(spec.accounts * scale)),
        entries=max(2, round(spec.entries * scale)),
    )
    rng = random.Random(f"{workload}:{seed}")
    accounts = _accounts(spec, rng)
    names = [a.name for a in accounts]
    entries = [_entry(i + 1, names, spec, rng) for i in range(spec.entries)]
    book = Book(spec.dimension, tuple(f"unit{k}" for k in range(spec.dimension)),
                accounts, entries)
    if spec.invalid_every:
        book.planted = sorted(
            rng.sample(range(len(entries)), max(1, len(entries) // spec.invalid_every))
        )
        planted = set(book.planted)
        book.dirty = [
            _corrupt(e, rng) if i in planted else e for i, e in enumerate(entries)
        ]
    return book


def ledger_text(book: Book) -> str:
    """The input ledger, in a loose but valid layout (comments, padding)."""
    width = max(len(a.name) for a in book.accounts)
    out = [
        "# generated workload ledger",
        "pacioli-ledger v1",
        f"dimension {book.dimension}",
        "units " + " ".join(book.units),
        "",
    ]
    for a in book.accounts:
        nominal = " nominal" if a.nominal else ""
        out.append(
            f"account {a.name.ljust(width)} {a.role}{nominal} "
            f"{' '.join(map(str, a.debit))} // {' '.join(map(str, a.credit))}"
        )
    return "\n".join(out) + "\n"


def journal_text(book: Book, entries: list[Entry]) -> str:
    out = ["pacioli-journal v1", f"dimension {book.dimension}"]
    for e in entries:
        out.append("")
        out.append(f'entry "{e.description}"')
        for side, name, amounts in e.postings:
            out.append(f"{side} {name} {' '.join(map(str, amounts))}")
        out.append("end")
    return "\n".join(out) + "\n"
