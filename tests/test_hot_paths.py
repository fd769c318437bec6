"""The per-item shortcuts of the CLI's hot paths, each against the plain
path it stands for: the journal grammar's one-step loop, the vector
constructor's checks, the one netting step of every posting path, the
block writes to stdout and the frozen import heap of the process entry."""

import contextlib
import gc
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import pacioli
import support
from pacioli import (
    DimensionMismatch,
    IntVec,
    JournalEntry,
    NatVec,
    ParseError,
    Posting,
    PostingError,
    Side,
    TTerm,
    journal_to_signed,
    parse_journal,
    parse_ledger,
    signed_post,
    to_signed,
    validate_entry,
)
from pacioli.cli import run_command
from pacioli.fileformat import _journal
from pacioli.ledger import _net
from pacioli.reports import render_signed_report

SRC = Path(pacioli.__file__).resolve().parent.parent  # the package under test

# --- the journal grammar against the reference loop ---

# Valid journals as lines: a header, then entries of 1-3 posting lines.
DIMENSIONS = st.integers(1, 3)
ENTRIES = st.lists(
    st.tuples(
        st.text("ab ", max_size=3),
        st.lists(
            st.tuples(
                st.sampled_from(("dr", "cr")),
                st.sampled_from(("A", "B", "Cash")),
                st.lists(st.integers(0, 10**6), min_size=3, max_size=3),
            ),
            min_size=1,
            max_size=3,
        ),
    ),
    max_size=4,
)
BAD_AMOUNTS = ("٣", "+5", "5_000", "9" * ((support.DIGIT_LIMIT or 4300) + 1))
KINDS = (
    "comment line",
    "trailing comment",
    "blank line",
    "indent",
    "bad amount",
    "short",
    "long",
    "end x",
    "stray dr",
    "no end",
)
# Each mutation: a kind, a position (taken modulo the lines it can apply
# to), the white space it puts in and the bad amount it may use.
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(0, 1000),
        st.sampled_from(("", " ", "\t", " \t ")),
        st.sampled_from(BAD_AMOUNTS),
    ),
    max_size=3,
)
BREAKS = st.lists(st.sampled_from(("\n", "\n", "\r\n", "\f")), min_size=1, max_size=4)


def journal_lines(dimension: int, entries) -> list[str]:
    lines = ["pacioli-journal v1", f"dimension {dimension}"]
    for description, postings in entries:
        lines.append(f'entry "{description}"')
        for side, account, amounts in postings:
            lines.append(" ".join([side, account, *map(str, amounts[:dimension])]))
        lines.append("end")
    return lines


def mutate(lines: list[str], mutations) -> list[str]:
    lines = list(lines)
    for kind, at, space, bad in mutations:
        postings = [i for i, line in enumerate(lines)
                    if line.split()[:1] in (["dr"], ["cr"])]
        ends = [i for i, line in enumerate(lines) if line.strip() == "end"]
        entries = [i for i, line in enumerate(lines) if line.startswith("entry")]
        i = at % (len(lines) + 1)
        if kind == "comment line":
            lines.insert(i, f"{space}# comment")
        elif kind == "trailing comment" and i < len(lines):
            lines[i] += f"{space}# comment"
        elif kind == "blank line":
            lines.insert(i, space)
        elif kind == "indent" and i < len(lines):
            lines[i] = f" \t{lines[i]} "
        elif kind == "bad amount" and postings:
            j = postings[at % len(postings)]
            tokens = lines[j].split()
            if len(tokens) > 2:
                tokens[2 + at % (len(tokens) - 2)] = bad
            else:  # "short" has cut every amount: the bad one is appended
                tokens.append(bad)
            lines[j] = " ".join(tokens)
        elif kind == "short" and postings:
            j = postings[at % len(postings)]
            lines[j] = lines[j].rsplit(None, 1)[0]
        elif kind == "long" and postings:
            lines[postings[at % len(postings)]] += " 7"
        elif kind == "end x" and ends:
            lines[ends[at % len(ends)]] = "end x"
        elif kind == "stray dr" and entries:
            lines.insert(entries[at % len(entries)], "dr A 1")
        elif kind == "no end" and ends:
            del lines[ends[at % len(ends)]]
    return lines


def outcome(rows) -> tuple[list, tuple | None]:
    """The rows a parse yields, and the message and line number of the
    `ParseError` that ends it (None if it ends cleanly)."""
    got = []
    try:
        for row in rows:
            got.append(row)
    except ParseError as exc:
        return got, (exc.message, exc.line_no)
    return got, None


@settings(max_examples=150, deadline=None)
@given(DIMENSIONS, ENTRIES, MUTATIONS, BREAKS, st.sampled_from((None, 0, 1)))
def test_journal_grammar_matches_the_reference(
    dimension, entries, mutations, breaks, shift
):
    # Comments, blank and indented lines, other line breaks, bad amounts,
    # wrong arity and misplaced directives: the one-step loop yields the
    # same rows as the reference and stops with the same error.
    lines = mutate(journal_lines(dimension, entries), mutations)
    text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
    declared = None if shift is None else dimension + shift
    assert outcome(_journal(text, declared)) == outcome(
        support.reference_journal(text, declared)
    )


# --- the vector constructor ---

HUGE = 10 ** (support.DIGIT_LIMIT + 1)  # one digit past the int/str limit


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: NatVec((-1, "x")), ValueError,
         "negative component -1 in an unsigned vector"),
        (lambda: NatVec(("x", -1)), TypeError, "vector component 'x' is not an int"),
        (lambda: NatVec([1, True]), TypeError, "vector component True is not an int"),
        (lambda: IntVec((1.5,)), TypeError, "vector component 1.5 is not an int"),
        (lambda: NatVec(()), ValueError, "a vector needs at least one component"),
        (lambda: TTerm(NatVec.of(1), NatVec.of(1, 2)), DimensionMismatch,
         "dimension mismatch: 1 vs 2"),
        # A value past the int/str digit limit has no repr: its type is named.
        pytest.param(lambda: NatVec((-HUGE,)), ValueError,
                     "negative component <int> in an unsigned vector",
                     marks=support.needs_digit_limit),
        pytest.param(lambda: IntVec(((HUGE,),)), TypeError,
                     "vector component <tuple> is not an int",
                     marks=support.needs_digit_limit),
    ],
)
def test_constructor_errors_keep_type_message_and_order(build, error, message):
    # The first failing component decides, checked in order.
    with pytest.raises(error) as caught:
        build()
    assert caught.type is error and str(caught.value) == message


class Count(int):
    pass


class Pair(tuple):
    pass


@pytest.mark.parametrize(
    "argument", [[1, 2], (c for c in (1, 2)), Pair((1, 2)), (1, 2), (Count(1), 2)]
)
def test_components_end_up_a_plain_tuple(argument):
    vec = NatVec(argument)
    assert type(vec.components) is tuple and vec.components == (1, 2)
    assert vec == NatVec.of(1, 2) and hash(vec) == hash(NatVec.of(1, 2))


def test_a_plain_tuple_is_kept():
    components = (3, 4)
    assert NatVec(components).components is components
    assert IntVec(components).components is components


# --- the netting step against validate_entry and a per-account fold ---


@st.composite
def net_cases(draw):
    """A ledger, an entry index and an entry of it, valid or broken in one
    way, with some zero-amount postings and an account debited and
    credited alike put in anywhere."""
    ledger = draw(support.ledgers())
    entry = draw(st.one_of(
        support.valid_entries(ledger), support.invalid_entries(ledger)
    ))
    postings = list(entry.postings)
    names = st.sampled_from(ledger.names())
    zero = NatVec.zeros(ledger.dimension)
    extra = [Posting(draw(names), draw(st.sampled_from(Side)), zero)
             for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        name, amount = draw(names), draw(support.natvecs(dim=ledger.dimension))
        extra += [Posting(name, Side.DR, amount), Posting(name, Side.CR, amount)]
    for posting in extra:
        postings.insert(draw(st.integers(0, len(postings))), posting)
    index = draw(st.integers(0, 10**6))
    return ledger, index, JournalEntry(entry.description, tuple(postings))


NET_CASES = net_cases()


@settings(max_examples=50, deadline=None)
@given(NET_CASES, st.booleans())
def test_net_returns_exactly_for_a_valid_entry_and_else_raises_its_error(case, rows):
    # `_net` is the one place a failed entry is reported, for entries and
    # for the grammar's rows alike; a valid entry nets per account, debits
    # then credits, in order of first appearance.
    ledger, index, entry = case
    postings = [tuple(p) for p in entry.postings] if rows else entry.postings
    report = validate_entry(entry, ledger)
    sums = {}
    try:
        _net(index, entry.description, postings, ledger, sums)
    except PostingError as exc:
        assert not report.ok
        assert exc.entry_index == index and exc.entry == entry and exc.report == report
        return
    assert report.ok
    dim = ledger.dimension
    fold = {}
    for p in entry.postings:
        sides = fold.setdefault(p.account, [0] * (2 * dim))
        offset = 0 if p.side is Side.DR else dim
        for j, c in enumerate(p.amount.components):
            sides[offset + j] += c
    assert list(sums.items()) == list(fold.items())


# --- stdout in blocks, and the collector ---


class CountingSink(io.RawIOBase):
    """A raw byte sink that counts the writes it receives."""

    def __init__(self):
        self.data = bytearray()
        self.writes = 0

    def writable(self):
        return True

    def write(self, b):
        self.writes += 1
        self.data += b
        return len(b)


def test_sss_writes_its_report_in_blocks(tmp_path):
    # Unbuffered stdout (PYTHONUNBUFFERED) passes every write straight to
    # the sink; the report still goes out in blocks of about 64 KiB.
    ledger_path = support.DATA / "scalar.ledger"
    ledger = parse_ledger(ledger_path.read_text())
    names = ledger.names()
    lines = ["pacioli-journal v1", "dimension 1"]
    for i in range(10_000):
        debited, credited = names[i % len(names)], names[(i + 1) % len(names)]
        lines += [f'entry "t{i}"', f"dr {debited} {i}", f"cr {credited} {i}", "end"]
    journal_path = tmp_path / "long.journal"
    journal_path.write_text("\n".join(lines) + "\n")
    signed = to_signed(ledger)
    rows = journal_to_signed(parse_journal(journal_path.read_text()), ledger)
    report = render_signed_report(signed, rows, signed_post(signed, rows))
    expected = f"{report}\n".encode()

    sink = CountingSink()
    stdout = io.TextIOWrapper(sink, encoding="utf-8", write_through=True)
    try:
        with contextlib.redirect_stdout(stdout):
            argv = ["sss", "--ledger", str(ledger_path), "--journal", str(journal_path)]
            assert run_command(argv) == 0
    finally:
        stdout.detach()
    assert bytes(sink.data) == expected
    assert sink.writes <= math.ceil(len(expected) / 65536) + 1


def test_main_freezes_the_import_heap_and_keeps_the_collector():
    probe = (
        "import gc, sys\n"
        "from pacioli.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n"
    )
    ledger = str(support.DATA / "scalar.ledger")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe, "report", "--ledger", ledger],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stderr == "True True\n"


def test_run_command_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert run_command(["report", "--ledger", str(support.DATA / "scalar.ledger")]) == 0
    assert gc.get_freeze_count() == frozen and gc.isenabled()
    assert capsys.readouterr().out
