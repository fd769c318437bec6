"""Parsing and rendering of the ledger and journal grammars."""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import given

import support
from pacioli import (
    Account,
    JournalEntry,
    Ledger,
    LedgerError,
    NatVec,
    ParseError,
    Posting,
    Side,
    TTerm,
    iter_journal,
    parse_journal,
    parse_ledger,
    post,
    reduce_ledger,
    render_journal,
    render_ledger,
    trial_balance,
)

nv = NatVec.of
# Digits in the largest amount a file may hold.
DIGITS = support.DIGIT_LIMIT or 60

SCALAR_LEDGER = (support.DATA / "scalar.ledger").read_text()
SCALAR_JOURNAL = (support.DATA / "scalar.journal").read_text()
VECTOR_LEDGER = (support.DATA / "vector.ledger").read_text()
VECTOR_JOURNAL = (support.DATA / "vector.journal").read_text()


def test_parse_scalar_ledger():
    ledger = parse_ledger(SCALAR_LEDGER)
    assert ledger.dimension == 1
    assert ledger.unit_names == ("usd",)
    assert ledger.names() == ("Assets", "Liabilities", "Equity")
    assert ledger.account("Assets").balance == TTerm(nv(15000), nv(0))
    assert ledger.account("Assets").role is Side.DR
    assert ledger.account("Liabilities").balance == TTerm(nv(0), nv(10000))
    assert ledger.account("Equity").balance == TTerm(nv(0), nv(5000))
    assert ledger.is_balanced()


def test_parse_vector_ledger():
    ledger = parse_ledger(VECTOR_LEDGER)
    assert ledger.dimension == 3
    assert ledger.unit_names == ("cash", "widgets", "half-widgets")
    assert ledger.account("Assets").balance == TTerm(nv(9000, 40, 50), nv(0, 0, 0))
    assert ledger.account("Equity").balance == TTerm(nv(1000, 0, 0), nv(0, 40, 50))


def test_parse_empty_ledger():
    ledger = parse_ledger("pacioli-ledger v1\ndimension 2\nunits a b\n")
    assert ledger.accounts == ()
    assert ledger.is_balanced()


def test_parse_nominal_flag():
    text = (
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account Equity cr 0 // 0\n"
        "account Revenue cr nominal 0 // 0\n"
    )
    ledger = parse_ledger(text)
    assert ledger.account("Revenue").nominal
    assert not ledger.account("Equity").nominal


def test_parse_scalar_journal():
    journal = parse_journal(SCALAR_JOURNAL)
    assert len(journal) == 3
    first = journal[0]
    assert first.description == "input inventories used up, charged to equity"
    assert first.postings[0] == Posting("Assets", Side.CR, nv(1200))
    assert journal[2].postings[1].account == "Liabilities"


def test_parse_vector_journal():
    journal = parse_journal(VECTOR_JOURNAL)
    assert len(journal) == 4
    assert journal[2].postings[0].amount == nv(1500, 0, 0)
    assert len(journal[2].postings) == 4


def test_parse_empty_journal():
    assert parse_journal("pacioli-journal v1\ndimension 1\n") == []


def test_comments_and_blank_lines_ignored():
    text = (
        "# leading comment\n\n"
        "pacioli-ledger v1  # trailing comment\n"
        "dimension 1\n\n"
        "units usd # the only unit\n"
        "# nothing else\n"
    )
    assert parse_ledger(text).dimension == 1


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        ("pacioli-journal v1\ndimension 1\nunits usd\n", 1, "bad header"),
        ("", None, "empty file"),
        ("pacioli-ledger v1\nunits usd\n", 2, "dimension"),
        ("pacioli-ledger v1\ndimension 0\n", 2, ">= 1"),
        ("pacioli-ledger v1\ndimension 1\naccount A dr 0 // 0\n", 3, "units"),
        ("pacioli-ledger v1\ndimension 2\nunits a\n", 3, "2 unit name"),
        ("pacioli-ledger v1\ndimension 2\nunits a a\n", 3, "distinct"),
        (
            "pacioli-ledger v1\ndimension 1\nunits u\nunits v\n",
            4,
            "duplicate 'units'",
        ),
        (
            "pacioli-ledger v1\ndimension 1\nunits u\nledger A dr 0 // 0\n",
            4,
            "unknown directive",
        ),
        (
            "pacioli-ledger v1\ndimension 1\nunits u\naccount A dr 1 0\n",
            4,
            "expected one '//'",
        ),
        (
            "pacioli-ledger v1\ndimension 1\nunits u\naccount A dr 1 2 // 0\n",
            4,
            "expected 1 amount",
        ),
        (
            "pacioli-ledger v1\ndimension 2\nunits a b\naccount A dr 1 // 0 0\n",
            4,
            "expected 2 amount",
        ),
        (
            "pacioli-ledger v1\ndimension 1\nunits u\naccount A dr -1 // 0\n",
            4,
            "bad amount",
        ),
        (
            "pacioli-ledger v1\ndimension 1\nunits u\naccount A dr 1.5 // 0\n",
            4,
            "bad amount",
        ),
        (
            "pacioli-ledger v1\ndimension 1\nunits u\naccount A xx 1 // 0\n",
            4,
            "bad side",
        ),
        (
            "pacioli-ledger v1\ndimension 1\nunits u\n"
            "account A dr 1 // 0\naccount A dr 0 // 1\n",
            5,
            "duplicate account",
        ),
        # beyond the interpreter's int/str digit limit (4300 by default)
        pytest.param(
            "pacioli-ledger v1\ndimension 1\nunits u\naccount A dr "
            + "9" * 5000
            + " // 0\n",
            4,
            "number too long",
            id="5000-digit-amount",
        ),
        ("pacioli-ledger v1\n", None, "missing 'dimension <n>' line"),
        (
            "pacioli-ledger v1\ndimension 1\nunits u\naccount A\n",
            4,
            "expected 'account <Name> <dr|cr> ...'",
        ),
        ("pacioli-ledger v1\ndimension 1\n", None, "missing 'units' line"),
    ],
)
def test_ledger_parse_errors(text, line_no, fragment):
    with pytest.raises(ParseError) as info:
        parse_ledger(text)
    assert info.value.line_no == line_no
    assert fragment in str(info.value)


def test_unbalanced_ledger_reports_residual():
    text = "pacioli-ledger v1\ndimension 1\nunits u\naccount A dr 7 // 0\n"
    with pytest.raises(ParseError, match=r"residual \[7 // 0\]"):
        parse_ledger(text)
    # the lenient mode loads it anyway, for diagnostics
    ledger = parse_ledger(text, require_balanced=False)
    assert not trial_balance(ledger).balanced


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        ("pacioli-ledger v1\ndimension 1\n", 1, "bad header"),
        ("pacioli-journal v1\ndimension 1\ndr A 5\n", 3, "outside an entry"),
        ("pacioli-journal v1\ndimension 1\nend\n", 3, "outside an entry"),
        (
            'pacioli-journal v1\ndimension 1\nentry "a"\nentry "b"\n',
            4,
            "before previous",
        ),
        ("pacioli-journal v1\ndimension 1\nentry a\n", 3, "expected 'entry"),
        (
            'pacioli-journal v1\ndimension 1\nentry "a"\ndr A 5\n',
            4,
            "missing 'end'",
        ),
        (
            'pacioli-journal v1\ndimension 1\nentry "a"\nend\n',
            4,
            "no postings",
        ),
        (
            'pacioli-journal v1\ndimension 2\nentry "a"\ndr A 5\nend\n',
            4,
            "expected 2 amount",
        ),
        (
            'pacioli-journal v1\ndimension 1\nentry "a"\ncr A 5\nend extra\n',
            5,
            "after 'end'",
        ),
        (
            'pacioli-journal v1\ndimension 1\nentry "a"\npay A 5\nend\n',
            4,
            "unknown directive",
        ),
        # digits outside ASCII pass str.isdigit but are not amounts
        (
            'pacioli-journal v1\ndimension 2\nentry "a"\ndr A 5 \u0663\nend\n',
            4,
            "bad amount '\u0663'",
        ),
        (
            'pacioli-journal v1\ndimension 2\nentry "a"\ncr A \u00b2 5\nend\n',
            4,
            "bad amount '\u00b2'",
        ),
        ("pacioli-journal v1\ndimension \u00b2\n", 2, "expected 'dimension <n>'"),
        # beyond the interpreter's int/str digit limit (4300 by default)
        pytest.param(
            'pacioli-journal v1\ndimension 1\nentry "a"\ndr A ' + "1" * 5000 + "\nend\n",
            4,
            "number too long",
            id="5000-digit-amount",
        ),
        pytest.param(
            "pacioli-journal v1\ndimension " + "1" * 5000 + "\n",
            2,
            "number too long",
            id="5000-digit-dimension",
        ),
        (
            'pacioli-journal v1\ndimension 1\nentry "a"\ndr\nend\n',
            4,
            "expected 'dr <Account> <amounts>'",
        ),
    ],
)
def test_journal_parse_errors(text, line_no, fragment):
    with pytest.raises(ParseError) as info:
        parse_journal(text)
    assert info.value.line_no == line_no
    assert fragment in str(info.value)


def test_render_ledger_is_canonical_reduced():
    ledger = parse_ledger(SCALAR_LEDGER)
    posted = post(ledger, parse_journal(SCALAR_JOURNAL))
    text = render_ledger(posted)
    assert "account Assets dr 14500 // 0" in text
    again = parse_ledger(text)
    assert again == reduce_ledger(posted)
    assert render_ledger(again) == text  # stable


def test_render_ledger_raw_mode():
    ledger = parse_ledger(SCALAR_LEDGER)
    posted = post(ledger, parse_journal(SCALAR_JOURNAL))
    text = render_ledger(posted, reduced=False)
    assert "account Assets dr 16500 // 2000" in text
    assert parse_ledger(text) == posted


def test_ledger_round_trip_both_examples():
    for source in (SCALAR_LEDGER, VECTOR_LEDGER):
        ledger = parse_ledger(source)
        assert parse_ledger(render_ledger(ledger)) == reduce_ledger(ledger)


def test_journal_round_trip():
    journal = parse_journal(VECTOR_JOURNAL)
    text = render_journal(journal, dimension=3)
    assert parse_journal(text) == journal


def test_render_journal_sanitizes_descriptions():
    entry = JournalEntry('say "hi" # ok', (Posting("A", Side.DR, nv(0)),))
    text = render_journal([entry], dimension=1)
    parsed = parse_journal(text)
    assert parsed[0].description == "say 'hi'  ok"


# Every break that `str.splitlines` splits on, and the two-character "\r\n".
@pytest.mark.parametrize(
    "brk",
    ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\n"],
    ids=ascii,
)
def test_render_journal_folds_line_breaks(brk):
    entry = JournalEntry(f"a{brk}b", (Posting("A", Side.DR, nv(0)),))
    parsed = parse_journal(render_journal([entry], dimension=1))
    assert parsed[0].description == "a" + " " * len(brk) + "b"


@pytest.mark.parametrize("account", ["A B", "A\tB", "A#B", "A\nB", ""], ids=ascii)
def test_render_journal_rejects_unparseable_account(account):
    entry = JournalEntry("t", (Posting(account, Side.DR, nv(0)),))
    with pytest.raises(LedgerError, match="invalid account name"):
        render_journal([entry], dimension=1)


@pytest.mark.parametrize(
    "entry, message",
    [
        (JournalEntry("none", ()), "entry 'none' has no postings"),
        (
            JournalEntry("wide", (Posting("A", Side.DR, nv(1, 2)),)),
            "posting to 'A' has dimension 2, journal has 1",
        ),
    ],
    ids=["no postings", "other dimension"],
)
def test_render_journal_rejects_unparseable_entry(entry, message):
    with pytest.raises(LedgerError, match=re.escape(message)):
        render_journal([entry], dimension=1)


@support.needs_digit_limit
def test_render_rejects_amounts_past_the_digit_limit():
    big = nv(10**support.DIGIT_LIMIT)  # one digit more than a file may hold
    ledger = Ledger(
        1,
        ("usd",),
        (
            Account("A", Side.DR, TTerm(big, nv(0))),
            Account("B", Side.CR, TTerm(nv(0), big)),
        ),
    )
    with pytest.raises(LedgerError, match="account 'A': .* digit limit"):
        render_ledger(ledger)
    entry = JournalEntry("big", (Posting("B", Side.DR, big),))
    with pytest.raises(LedgerError, match="account 'B': .* digit limit"):
        render_journal([entry], dimension=1)


def is_name(text: str) -> bool:
    try:
        Ledger(1, (text,), (Account(text, Side.DR, TTerm.zero(1)),))
    except LedgerError:
        return False
    return True


RENAMED_BASES = st.one_of(support.ledgers(), support.ledgers(limit=10**DIGITS - 1))
RENAMED_NAMES = st.text(min_size=1, max_size=6).filter(is_name)


@st.composite
def renamed_ledgers(draw):
    """`support.ledgers` with magnitudes up to the largest amount a file may
    hold, and any valid account and unit names."""
    ledger = draw(RENAMED_BASES)
    names = RENAMED_NAMES
    n, dim = len(ledger.accounts), ledger.dimension
    accounts = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    units = draw(st.lists(names, min_size=dim, max_size=dim, unique=True))
    return Ledger(
        dim,
        tuple(units),
        tuple(
            Account(name, acc.role, acc.balance, acc.nominal)
            for name, acc in zip(accounts, ledger.accounts)
        ),
    )


@given(renamed_ledgers(), st.booleans())
def test_ledger_round_trip_property(ledger, reduced):
    """Raw rendering parses back to the same ledger, reduced rendering to
    its reduced form, nominal flags and dimensions included."""
    text = render_ledger(ledger, reduced=reduced)
    expected = reduce_ledger(ledger) if reduced else ledger
    assert parse_ledger(text, require_balanced=False) == expected


# The ten `str.splitlines` line breaks.
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


# Any character but `#` and the `str.isspace` ones: what a name may hold.
NAME_CHARACTERS = st.characters(
    exclude_categories=("Zs", "Zl", "Zp"),
    exclude_characters="\t\n\v\f\r\x1c\x1d\x1e\x1f\x85#",
)


def folded(description: str) -> str:
    """A description as it comes back from a journal file: each line break
    is a space, `"` is `'` and `#` is dropped."""
    return "".join(
        " " if c in LINE_BREAKS else "'" if c == '"' else c
        for c in description
        if c != "#"
    )


def named_journals(dim: int):
    """Entries of 1-4 postings (not necessarily balanced) with any
    descriptions, any valid account names and magnitudes up to the largest
    amount a file may hold, with their dimension."""
    names = st.text(NAME_CHARACTERS, min_size=1, max_size=6)
    component = st.one_of(st.integers(0, 1000), st.integers(0, 10**DIGITS - 1))
    amounts = st.tuples(*[component] * dim).map(NatVec)
    postings = st.builds(Posting, names, st.sampled_from(Side), amounts)
    text = st.text(st.one_of(st.sampled_from(LINE_BREAKS + '"#'), st.characters()))
    entries = st.builds(
        JournalEntry, text, st.lists(postings, min_size=1, max_size=4).map(tuple)
    )
    return st.tuples(st.lists(entries, max_size=4), st.just(dim))


@given(st.one_of(*map(named_journals, (1, 2, 3))))
def test_journal_round_trip_property(journal_and_dimension):
    journal, dimension = journal_and_dimension
    text = render_journal(journal, dimension)
    expected = [JournalEntry(folded(e.description), e.postings) for e in journal]
    assert list(iter_journal(text)) == expected
