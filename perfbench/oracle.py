"""Expected CLI results, computed with plain Python ints and never `pacioli`.

`expect(book, commands)` works out, once per run, everything a workload's
commands should produce; `CHECKS[metric]` then judges one command's exit
code, stdout and written file against it and returns a list of problems
(empty when the output is right).

Ledgers that `post` and `close` write are compared byte for byte with the
canonical form the file-format docs fix (`render`).  Reports are parsed back
and their numbers compared, so that column alignment is not part of the
contract: `validate` by entry index and verdict, `matrix` by cell, row sum,
column sum and net change, `sss` by beginning and ending rows and the three
zero-row verdicts, `report` and `value` by balance-sheet term.
"""

import re
from dataclasses import dataclass

from workloads import EQUITY, PRICE, Account, Book, Entry

LEDGER_MAGIC = "pacioli-ledger v1"
JOURNAL_MAGIC = "pacioli-journal v1"


def reduced(a: Account) -> Account:
    """The same balance with disjoint sides."""
    m = [min(d, c) for d, c in zip(a.debit, a.credit)]
    return Account(a.name, a.role, [d - k for d, k in zip(a.debit, m)],
                   [c - k for c, k in zip(a.credit, m)], a.nominal)


def signed(a: Account) -> list[int]:
    """The balance read on the account's own side."""
    if a.role == "dr":
        return [d - c for d, c in zip(a.debit, a.credit)]
    return [c - d for d, c in zip(a.debit, a.credit)]


def apply(accounts: list[Account], entries: list[Entry]) -> list[Account]:
    """Copies of `accounts` with every posting added to its side; no reduction."""
    out = [Account(a.name, a.role, list(a.debit), list(a.credit), a.nominal)
           for a in accounts]
    index = {b.name: b for b in out}
    for entry in entries:
        for side, name, amounts in entry.postings:
            target = index[name].debit if side == "dr" else index[name].credit
            for k, a in enumerate(amounts):
                target[k] += a
    return out


def render(units: tuple[str, ...], accounts: list[Account]) -> str:
    """The canonical (reduced) ledger file."""
    out = [LEDGER_MAGIC, f"dimension {len(units)}", "units " + " ".join(units)]
    for b in accounts:
        r = reduced(b)
        nominal = " nominal" if b.nominal else ""
        out.append(
            f"account {b.name} {b.role}{nominal} "
            f"{' '.join(map(str, r.debit))} // {' '.join(map(str, r.credit))}"
        )
    return "\n".join(out) + "\n"


def closing_entries(accounts: list[Account], equity: str) -> list[Entry]:
    entries = []
    for b in accounts:
        if not b.nominal:
            continue
        r = reduced(b)
        postings = []
        if any(r.debit):
            postings += [("cr", b.name, tuple(r.debit)), ("dr", equity, tuple(r.debit))]
        if any(r.credit):
            postings += [("dr", b.name, tuple(r.credit)), ("cr", equity, tuple(r.credit))]
        if postings:
            entries.append(Entry(f"close {b.name} into {equity}", postings))
    return entries


def render_entries(dimension: int, entries: list[Entry]) -> str:
    """The canonical journal file, as `close` prints it."""
    out = [JOURNAL_MAGIC, f"dimension {dimension}"]
    for e in entries:
        out.append(f'entry "{e.description}"')
        for side, name, amounts in e.postings:
            out.append(f"{side} {name} {' '.join(map(str, amounts))}")
        out.append("end")
    return "\n".join(out) + "\n"


def invalid_indices(accounts: list[Account], entries: list[Entry]) -> list[int]:
    """0-based indices of entries that name an unknown account or do not sum
    to a zero-term."""
    known = {a.name for a in accounts}
    bad = []
    for i, e in enumerate(entries):
        dim = len(e.postings[0][2])
        residual = [0] * dim
        for side, _, amounts in e.postings:
            sign = 1 if side == "dr" else -1
            for k, a in enumerate(amounts):
                residual[k] += sign * a
        if any(name not in known for _, name, _ in e.postings) or any(residual):
            bad.append(i)
    return bad


def _fmt(vec: list[int]) -> str:
    """How the CLI prints a signed vector: bare for scalars, else a tuple."""
    return str(vec[0]) if len(vec) == 1 else "(" + ", ".join(map(str, vec)) + ")"


@dataclass
class Expected:
    """Everything the workload's commands should produce."""

    entries: int = 0
    posted: str = ""  # `post --out` file
    closed: str = ""  # `close --out` file
    closing_journal: str = ""  # `close` stdout
    sheet: tuple = ()  # (lhs, rhs) of (name, value text) for `report`
    valued_sheet: tuple = ()  # the same for `value`
    invalid: tuple[int, ...] = ()  # 0-based, for `validate`
    cells: dict | None = None  # (debit name, credit name) -> amount
    names: tuple[str, ...] = ()
    row_sums: tuple[int, ...] = ()
    col_sums: tuple[int, ...] = ()
    net: dict | None = None  # name -> (role, change)
    signed_begin: tuple[str, ...] = ()
    signed_end: tuple[str, ...] = ()


def balance_sheet(accounts: list[Account], scale: int = 1) -> tuple:
    """(lhs, rhs) terms as the CLI prints them, values times `scale`."""
    lhs = tuple((a.name, _fmt([v * scale for v in signed(a)]))
                for a in accounts if a.role == "dr")
    rhs = tuple((a.name, _fmt([v * scale for v in signed(a)]))
                for a in accounts if a.role == "cr")
    return lhs, rhs


def expect(book: Book, commands: set[str]) -> Expected:
    """Expected results for the `commands` (metric names) a workload runs."""
    start = book.accounts
    posted = apply(start, book.entries)
    names = tuple(b.name for b in start)
    exp = Expected(entries=len(book.entries), names=names,
                   posted=render(book.units, posted))
    if "close_s" in commands:
        closing = closing_entries(posted, EQUITY)
        closed = apply(posted, closing)
        exp.closed = render(book.units, closed)
        exp.closing_journal = render_entries(book.dimension, closing)
        exp.sheet = balance_sheet(closed)
        exp.valued_sheet = balance_sheet(closed, PRICE)
    if "validate_s" in commands:
        exp.invalid = tuple(invalid_indices(start, book.dirty))
    if "matrix_s" in commands:
        cells: dict = {}
        for e in book.entries:
            (dr,) = [p for p in e.postings if p[0] == "dr"]
            (cr,) = [p for p in e.postings if p[0] == "cr"]
            key = (dr[1], cr[1])
            cells[key] = cells.get(key, 0) + dr[2][0]
        exp.cells = cells
        rows = dict.fromkeys(names, 0)
        cols = dict.fromkeys(names, 0)
        for (d, c), amount in cells.items():
            rows[d] += amount
            cols[c] += amount
        exp.row_sums = tuple(rows[n] for n in names)
        exp.col_sums = tuple(cols[n] for n in names)
        exp.net = {
            b.name: (b.role, rows[b.name] - cols[b.name] if b.role == "dr"
                     else cols[b.name] - rows[b.name])
            for b in start
        }
    if "sss_s" in commands:
        # The signed view reads every account on the debit side.
        exp.signed_begin = tuple(_fmt([d - c for d, c in zip(b.debit, b.credit)])
                                 for b in start)
        exp.signed_end = tuple(_fmt([d - c for d, c in zip(b.debit, b.credit)])
                               for b in posted)
    return exp


# --- checks -----------------------------------------------------------------


def _exit(code: int, want: int) -> list[str]:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def check_post(exp: Expected, code: int, stdout: str, written: str) -> list[str]:
    problems = _exit(code, 0)
    if written != exp.posted:
        problems.append("posted ledger differs from the oracle's")
    return problems


def check_close(exp: Expected, code: int, stdout: str, written: str) -> list[str]:
    problems = _exit(code, 0)
    if written != exp.closed:
        problems.append("closed ledger differs from the oracle's")
    if stdout != exp.closing_journal:
        problems.append("closing journal differs from the oracle's")
    return problems


def _check_sheet(want: tuple, code: int, stdout: str) -> list[str]:
    problems = _exit(code, 0)
    lines = stdout.splitlines()
    if len(lines) != 2:
        return problems + [f"balance sheet has {len(lines)} lines, expected 2"]
    header, values = lines[0].split(), lines[1].split()
    if len(header) != len(values):
        return problems + ["balance-sheet names and values do not line up"]
    lhs, rhs = want
    terms = [*lhs, *rhs]
    expected_header = []
    expected_values = []
    for i, (name, value) in enumerate(terms):
        if i:
            sep = "=" if i == len(lhs) else "+"
            expected_header.append(sep)
            expected_values.append(sep)
        expected_header.append(name)
        expected_values.append(value)
    if header != expected_header:
        problems.append("balance-sheet terms differ from the oracle's")
    elif values != expected_values:
        wrong = sum(a != b for a, b in zip(values, expected_values))
        problems.append(f"{wrong} balance-sheet value(s) differ from the oracle's")
    return problems


def check_report(exp: Expected, code: int, stdout: str, written: str) -> list[str]:
    return _check_sheet(exp.sheet, code, stdout)


def check_value(exp: Expected, code: int, stdout: str, written: str) -> list[str]:
    return _check_sheet(exp.valued_sheet, code, stdout)


_VERDICT = re.compile(r'entry (\d+) "[^"]*": (OK|INVALID)')


def check_validate(exp: Expected, code: int, stdout: str, written: str) -> list[str]:
    problems = _exit(code, 1 if exp.invalid else 0)
    verdicts = {}
    for line in stdout.splitlines():
        m = _VERDICT.search(line)
        if m:
            verdicts[int(m.group(1))] = m.group(2)
    if sorted(verdicts) != list(range(1, exp.entries + 1)):
        return problems + [f"{len(verdicts)} verdicts for {exp.entries} entries"]
    invalid = tuple(i - 1 for i, v in sorted(verdicts.items()) if v == "INVALID")
    if invalid != exp.invalid:
        problems.append(
            f"invalid entries {len(invalid)} differ from the oracle's {len(exp.invalid)}"
        )
    summary = (f"{len(exp.invalid)} of {exp.entries} entries invalid" if exp.invalid
               else f"all {exp.entries} entries valid")
    if summary not in stdout.splitlines()[-1:]:
        problems.append(f"summary line is not {summary!r}")
    return problems


def check_matrix(exp: Expected, code: int, stdout: str, written: str) -> list[str]:
    """Numbers are right-aligned, so a cell ends where its column header
    ends; that places the non-blank cells of the sparse grid."""
    problems = _exit(code, 0)
    lines = stdout.splitlines()
    names = exp.names
    m = len(names)
    try:
        blank = lines.index("")
    except ValueError:
        return problems + ["no blank line after the grid"]
    grid, tail = lines[:blank], lines[blank + 1:]
    if len(grid) != m + 2:
        return problems + [f"grid has {len(grid)} lines, expected {m + 2}"]
    head = [(t.group(), t.end()) for t in re.finditer(r"\S+", grid[0])]
    if [t for t, _ in head[1:m + 1]] != list(names):
        return problems + ["grid columns differ from the ledger's accounts"]
    column = {end: j for j, (_, end) in enumerate(head[1:m + 1])}
    sum_end = head[-1][1]
    cells = {}
    row_sums = []
    for i, line in enumerate(grid[1:m + 1]):
        tokens = [(t.group(), t.end()) for t in re.finditer(r"\S+", line)]
        if tokens[0][0] != names[i] or tokens[-1][1] != sum_end:
            return problems + [f"grid row {i + 1} is malformed"]
        row_sums.append(int(tokens[-1][0]))
        for text, end in tokens[1:-1]:
            if end not in column:
                return problems + [f"grid row {i + 1} has a misplaced cell"]
            cells[(names[i], names[column[end]])] = int(text)
    col_sums = tuple(int(t) for t in grid[m + 1].split()[2:])
    if cells != exp.cells:
        problems.append("grid cells differ from the oracle's")
    if tuple(row_sums) != exp.row_sums:
        problems.append("row sums differ from the oracle's")
    if col_sums != exp.col_sums:
        problems.append("column sums differ from the oracle's")
    net = {}
    for line in tail[1:]:
        name, role, change = line.split()
        net[name] = (role, int(change))
    if tail[:1] != ["net changes:"] or net != exp.net:
        problems.append("net changes differ from the oracle's")
    return problems


def check_sss(exp: Expected, code: int, stdout: str, written: str) -> list[str]:
    problems = _exit(code, 0)
    lines = stdout.splitlines()
    if not lines or tuple(lines[0].split()) != exp.names:
        return problems + ["signed view columns differ from the ledger's accounts"]
    rows = {}
    for line in lines[1:]:
        label, _, rest = line.partition(" ")
        if label in ("beginning", "ending"):  # the grid rows precede the verdicts
            rows.setdefault(label, tuple(rest.split()))
    if rows.get("beginning") != exp.signed_begin:
        problems.append("beginning row differs from the oracle's")
    if rows.get("ending") != exp.signed_end:
        problems.append("ending row differs from the oracle's")
    posted_rows = sum(1 for line in lines if re.match(r"\d+\. ", line))
    if posted_rows != exp.entries:
        problems.append(f"{posted_rows} transaction rows, expected {exp.entries}")
    for verdict in ("beginning zero-row: OK", "transaction zero-rows: OK",
                    "ending zero-row: OK"):
        if verdict not in lines:
            problems.append(f"missing {verdict!r}")
    return problems


CHECKS = {
    "post_s": check_post,
    "close_s": check_close,
    "report_s": check_report,
    "value_s": check_value,
    "validate_s": check_validate,
    "matrix_s": check_matrix,
    "sss_s": check_sss,
}
