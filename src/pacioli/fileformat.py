"""Plain-text file grammars for ledgers and journals.

Both formats are line oriented and UTF-8; ``#`` starts a comment running to
the end of the line, blank lines are ignored, and tokens are separated by
whitespace.  Amounts are unsigned base-10 integer literals, exactly one per
dimension.  The ``//`` separating an account's debit side from its credit
side is a standalone token.

Ledger file::

    pacioli-ledger v1
    dimension <n>
    units <name_1> ... <name_n>
    account <Name> <dr|cr> [nominal] <d_1> ... <d_n> // <c_1> ... <c_n>

A ledger file must encode a zero-account: the parser rejects a file whose
accounts do not sum to a zero T-term (the residual is reported).

Journal file::

    pacioli-journal v1
    dimension <n>
    entry "<description>"
    dr <Account> <a_1> ... <a_n>
    cr <Account> <a_1> ... <a_n>
    end

Amounts and the dimension may not exceed the interpreter's int/str digit
limit (4300 digits by default, see ``sys.get_int_max_str_digits``); a
longer number is a :class:`ParseError` with its line number.  A sum grown
past it is not written: ``ledger._text`` raises a :class:`LedgerError`.

Each entry holds one or more posting lines.  Descriptions are quoted and
may contain spaces but not ``"``, ``#`` or a line break.  The parser checks
shape only; whether an entry balances is the validator's business.

A journal is read as a stream.  The grammar is one loop, ``_journal``,
which reads each line in one step (no generator between it and the text)
and yields each entry at its ``end`` line as a row: its description and a
list of ``(account, Side, amount ints)`` triples, as a `JournalEntry`
unpacks.  `post`, `journal_to_signed` and `build_table` take entries or
rows alike; the CLI's ``post``, ``sss`` and ``matrix`` pass them the rows,
building no `NatVec`, `Posting` or `JournalEntry` per posting.
:func:`iter_journal` builds one `JournalEntry` from each row, so posting a
journal never holds its parsed entries as a list (the text and its lines
are still held whole)::

    ended = post(ledger, iter_journal(text))

:func:`parse_journal` is the list of those entries.  A syntax error is
raised when the stream reaches its line; posting applies nothing before
the stream ends, so it stays all-or-nothing.  Given the ledger's
``dimension``, a journal that declares another one is a
:class:`ParseError` at its ``dimension`` line, before any entry.

Ledgers are written back in reduced form: that is the canonical on-disk
representation.
"""

import re
from itertools import starmap
from typing import Iterator

from .algebra import NatVec, TTerm, _reduce
from .ledger import Account, JournalEntry, Ledger, LedgerError, Side
from .ledger import _AMOUNT, _PAST_LIMIT, _check_name, _entry, _residual_text, _text

__all__ = [
    "LEDGER_MAGIC",
    "JOURNAL_MAGIC",
    "ParseError",
    "parse_ledger",
    "parse_journal",
    "iter_journal",
    "render_ledger",
    "render_journal",
]

LEDGER_MAGIC = "pacioli-ledger v1"
JOURNAL_MAGIC = "pacioli-journal v1"

_SIDES = {side.value: side for side in Side}
_ENTRY_RE = re.compile(r'^entry\s+"([^"]*)"$')
# Fits a description on one quoted line; each `str.splitlines` break is a space.
_DESCRIPTION = str.maketrans(
    {'"': "'", "#": None, **dict.fromkeys("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", " ")}
)


class ParseError(ValueError):
    """A syntax or file-level semantic error, with a line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        self.message = message
        super().__init__(f"line {line_no}: {message}" if line_no else message)


def _logical_lines(numbered: Iterator[tuple[int, str]]) -> Iterator[tuple[int, str]]:
    """Yield `numbered`'s (line number, content) pairs, comments and blanks removed."""
    for i, raw in numbered:
        if "#" in raw:  # most lines have no comment: skip the split
            raw = raw.split("#", 1)[0]
        line = raw.strip()
        if line:
            yield i, line


def _is_amount(token: str) -> bool:
    """An unsigned base-10 literal: ASCII digits only (``isdigit`` alone
    also accepts other scripts' digits and superscripts)."""
    return token.isascii() and token.isdigit()


def _amounts(tokens: list[str], n: int, line_no: int) -> tuple[int, ...]:
    """Exactly `n` unsigned amount tokens as ints; a token longer than the
    interpreter's int/str digit limit is a parse error."""
    if len(tokens) != n:
        raise ParseError(f"expected {n} amount component(s), got {len(tokens)}", line_no)
    digits = "".join(tokens)  # tokens are never empty
    if not (digits.isascii() and digits.isdigit()):
        token = next(t for t in tokens if not _is_amount(t))
        raise ParseError(f"bad amount {token!r} (unsigned integer expected)", line_no)
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ParseError(f"number too long: {_PAST_LIMIT}", line_no) from None


def _parse_header(
    lines: Iterator[tuple[int, str]], magic: str, ledger_dimension: int | None = None
) -> int:
    """Consume the magic line and the dimension line; return the dimension,
    which must be `ledger_dimension` when that is given."""
    try:
        line_no, line = next(lines)
    except StopIteration:
        raise ParseError(f"empty file; expected {magic!r} header") from None
    if line != magic:
        raise ParseError(f"bad header {line!r}; expected {magic!r}", line_no)
    try:
        line_no, line = next(lines)
    except StopIteration:
        raise ParseError("missing 'dimension <n>' line") from None
    tokens = line.split()
    if tokens[0] != "dimension" or len(tokens) != 2 or not _is_amount(tokens[1]):
        raise ParseError("expected 'dimension <n>'", line_no)
    (dimension,) = _amounts(tokens[1:], 1, line_no)
    if dimension < 1:
        raise ParseError("dimension must be >= 1", line_no)
    if ledger_dimension is not None and dimension != ledger_dimension:
        raise ParseError(
            f"journal has dimension {dimension}, ledger has {ledger_dimension}", line_no
        )
    return dimension


def parse_ledger(text: str, *, require_balanced: bool = True) -> Ledger:
    """Parse a ledger file.  Each check that `Ledger` makes runs first, at
    its own line, so every error is a :class:`ParseError`.
    `require_balanced=False` skips the zero-account check so diagnostic
    tools can load a broken file and show where it is off.
    """
    lines = _logical_lines(enumerate(text.splitlines(), 1))
    dimension = _parse_header(lines, LEDGER_MAGIC)

    unit_names: tuple[str, ...] | None = None
    accounts: list[Account] = []
    seen: set[str] = set()
    for line_no, line in lines:
        tokens = line.split()
        if tokens[0] == "units":
            if unit_names is not None:
                raise ParseError("duplicate 'units' line", line_no)
            if len(tokens) - 1 != dimension:
                raise ParseError(
                    f"expected {dimension} unit name(s), got {len(tokens) - 1}", line_no
                )
            unit_names = tuple(tokens[1:])
            if len(set(unit_names)) != dimension:
                raise ParseError("unit names must be distinct", line_no)
        elif tokens[0] == "account":
            if unit_names is None:
                raise ParseError("'units' line must precede accounts", line_no)
            rest = tokens[1:]
            if len(rest) < 2:
                raise ParseError("expected 'account <Name> <dr|cr> ...'", line_no)
            name = rest[0]
            if name in seen:
                raise ParseError(f"duplicate account {name!r}", line_no)
            seen.add(name)
            role = _SIDES.get(rest[1])
            if role is None:
                raise ParseError(f"bad side {rest[1]!r}; expected 'dr' or 'cr'", line_no)
            rest = rest[2:]
            nominal = False
            if rest and rest[0] == "nominal":
                nominal = True
                rest = rest[1:]
            if rest.count("//") != 1:
                raise ParseError("expected one '//' between debit and credit", line_no)
            split = rest.index("//")
            debit = NatVec(_amounts(rest[:split], dimension, line_no))
            credit = NatVec(_amounts(rest[split + 1 :], dimension, line_no))
            accounts.append(Account(name, role, TTerm(debit, credit), nominal))
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", line_no)

    if unit_names is None:
        raise ParseError("missing 'units' line")
    ledger = Ledger(dimension, unit_names, tuple(accounts))
    if require_balanced and not ledger.is_balanced():
        residual = _residual_text(ledger.total())
        raise ParseError(f"ledger does not encode a zero-account; {residual}")
    return ledger


def _journal(text: str, dimension: int | None = None) -> Iterator[tuple[str, list]]:
    """The journal grammar (shape check only): at each ``end`` line, yield
    the row ``(description, postings)``, where `postings` is a new list of
    ``(account, Side, amount ints)`` triples.

    A syntax error is raised when the parse reaches its line, after every
    entry before it has been yielded.  With `dimension`, a journal that
    declares another one fails at its ``dimension`` line.

    One loop reads each line in one step: it cuts the comment, splits and
    skips a blank line itself (the header goes through `_logical_lines`).
    """
    numbered = enumerate(text.splitlines(), 1)
    dim = _parse_header(_logical_lines(numbered), JOURNAL_MAGIC, dimension)

    description: str | None = None
    postings: list = []
    last_line_no = 0
    for line_no, line in numbered:
        if "#" in line:
            line = line.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        last_line_no = line_no
        side = _SIDES.get(tokens[0])  # posting lines first: they are the bulk
        if side is not None:
            if description is None:
                raise ParseError(f"{tokens[0]!r} line outside an entry", line_no)
            if len(tokens) < 2:
                raise ParseError(f"expected '{tokens[0]} <Account> <amounts>'", line_no)
            postings.append((tokens[1], side, _amounts(tokens[2:], dim, line_no)))
        elif tokens[0] == "entry":
            if description is not None:
                raise ParseError("'entry' before previous entry's 'end'", line_no)
            match = _ENTRY_RE.match(line.strip())
            if not match:
                raise ParseError("expected 'entry \"<description>\"'", line_no)
            description = match.group(1)
            postings = []
        elif tokens[0] == "end":
            if description is None:
                raise ParseError("'end' outside an entry", line_no)
            if tokens != ["end"]:
                raise ParseError("unexpected tokens after 'end'", line_no)
            if not postings:
                raise ParseError("entry has no postings", line_no)
            yield description, postings
            description = None
            postings = []
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", line_no)
    if description is not None:
        raise ParseError(f"entry {description!r} is missing 'end'", last_line_no)


def iter_journal(text: str, *, dimension: int | None = None) -> Iterator[JournalEntry]:
    """Parse a journal file lazily, yielding the entry of each row of
    ``_journal`` at its ``end`` line (shape check only).

    A syntax error is raised when the parse reaches its line, after every
    entry before it has been yielded.  With `dimension` (the ledger's), a
    journal that declares another one fails at its ``dimension`` line.
    """
    return starmap(_entry, _journal(text, dimension))


def parse_journal(text: str, *, dimension: int | None = None) -> list[JournalEntry]:
    """Parse a journal file into a list of entries: ``list(iter_journal(text))``."""
    return list(iter_journal(text, dimension=dimension))


# The `render` of `_text` for an amount: its components, space separated.
_spaced = " ".join


def render_ledger(ledger: Ledger, *, reduced: bool = True) -> str:
    """Render a ledger file; reduced balances are the canonical form.

    A balance past the int/str digit limit raises :class:`LedgerError`.
    """
    out = [LEDGER_MAGIC, f"dimension {ledger.dimension}"]
    out.append("units " + " ".join(ledger.unit_names))
    for acc in ledger.accounts:
        debit, credit = acc.balance.debit.components, acc.balance.credit.components
        if reduced:
            debit, credit = _reduce(debit, credit)
        name, nominal = acc.name, " nominal" if acc.nominal else ""
        debit = _text(map(str, debit), _AMOUNT, name, _spaced)
        credit = _text(map(str, credit), _AMOUNT, name, _spaced)
        out.append(f"account {name} {acc.role.value}{nominal} {debit} // {credit}")
    return "\n".join(out) + "\n"


def render_journal(entries, dimension: int) -> str:
    """Render a journal file that parses back.

    An entry with no postings, a posting account that is not a valid
    account name, and an amount that is not of `dimension` or is past the
    int/str digit limit each raise :class:`LedgerError`.
    """
    out = [JOURNAL_MAGIC, f"dimension {dimension}"]
    for entry in entries:
        if not entry.postings:
            raise LedgerError(f"entry {entry.description!r} has no postings")
        out.append(f'entry "{entry.description.translate(_DESCRIPTION)}"')
        for p in entry.postings:
            _check_name(p.account, "account")
            if p.amount.dimension != dimension:
                raise LedgerError(
                    f"posting to {p.account!r} has dimension "
                    f"{p.amount.dimension}, journal has {dimension}"
                )
            amounts = _text(map(str, p.amount), _AMOUNT, p.account, _spaced)
            out.append(f"{p.side.value} {p.account} {amounts}")
        out.append("end")
    return "\n".join(out) + "\n"
