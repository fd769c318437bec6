"""The command line is total: mutated input files and random argv over all
eight commands end with exit status 0, 1 or 2 and at most a one-line
diagnostic, never a traceback or the interpreter's own digit-limit advice.

The inputs are the files in ``tests/data`` with byte edits, dropped,
duplicated or shuffled lines, and numbers at the int/str digit limit or
past it; ``--prices`` draws among values that are whole, fractional,
negative, past the limit or not numbers at all.
"""

import re

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import support
from pacioli import Ledger, ParseError, parse_ledger

COMMANDS = (
    "validate",
    "post",
    "trial-balance",
    "report",
    "matrix",
    "sss",
    "value",
    "close",
)
# The scalar and the vector file of each kind.
SOURCES = {
    kind: [path.read_bytes() for path in sorted(support.DATA.glob(f"*.{kind}"))]
    for kind in ("ledger", "journal")
}
# The widest number a file may hold, and one digit more.
WIDTH = support.DIGIT_LIMIT or 60
LONG_NUMBERS = ("9" * WIDTH, "1" * (WIDTH + 1))
PRICES = ("1", "0", "40", "1/2", "3/7", "-1/3", "1e-4400", "-1e-4400", "1/0", "x")
EQUITY = ("Equity", "Assets", "Liabilities", "Nope")


@st.composite
def mutated(draw, kind: str) -> bytes:
    """A file of `kind` from ``tests/data`` with up to three mutations."""
    data = draw(st.sampled_from(SOURCES[kind]))
    for _ in range(draw(st.integers(0, 3))):
        mutation = draw(
            st.sampled_from(("byte", "drop", "duplicate", "shuffle", "long"))
        )
        lines = data.split(b"\n")
        if mutation == "byte":
            at = draw(st.integers(0, len(data)))
            byte = bytes([draw(st.integers(0, 255))])
            cut = draw(st.integers(0, 1))  # 0 inserts, 1 replaces
            data = data[:at] + byte + data[at + cut :]
        elif mutation in ("drop", "duplicate"):
            i = draw(st.integers(0, len(lines) - 1))
            lines[i : i + 1] = [] if mutation == "drop" else [lines[i]] * 2
            data = b"\n".join(lines)
        elif mutation == "shuffle":
            data = b"\n".join(draw(st.permutations(lines)))
        else:
            numbers = list(re.finditer(rb"[0-9]+", data))
            if numbers:
                number = draw(st.sampled_from(numbers))
                long = draw(st.sampled_from(LONG_NUMBERS)).encode()
                data = data[: number.start()] + long + data[number.end() :]
    return data


SCALAR_LEDGER = (support.DATA / "scalar.ledger").read_bytes()
# The account lines twice: `Ledger` would reject the repeated names itself.
TWICE = SCALAR_LEDGER + b"\n".join(
    line for line in SCALAR_LEDGER.split(b"\n") if line.startswith(b"account")
)


@settings(max_examples=150, deadline=None)
@given(mutated("ledger"))
@example(TWICE)
def test_parse_ledger_fails_only_with_a_parse_error(data):
    # The parser runs each check `Ledger` makes at its own line first, so a
    # broken file is a ParseError, never an error from `Ledger` itself.
    text = data.decode("utf-8", errors="replace")
    for require_balanced in (True, False):
        try:
            ledger = parse_ledger(text, require_balanced=require_balanced)
        except Exception as exc:
            assert type(exc) is ParseError, repr(exc)
        else:
            assert type(ledger) is Ledger


@st.composite
def argvs(draw, paths) -> list[str]:
    """A command line: usually well formed, sometimes missing an option or
    carrying one it does not take."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if draw(st.integers(0, 9)):
        ledger = paths["ledger"] if draw(st.integers(0, 9)) else paths["missing"]
        argv += ["--ledger", str(ledger)]
    if command in ("validate", "post", "matrix", "sss") or not draw(st.integers(0, 9)):
        if draw(st.integers(0, 9)):
            argv += ["--journal", str(paths["journal"])]
    if command in ("post", "close") and draw(st.booleans()):
        argv += ["--out", str(paths["out"])]
    if command == "value" or not draw(st.integers(0, 9)):
        prices = draw(st.lists(st.sampled_from(PRICES), min_size=0, max_size=4))
        if prices and prices[0].startswith("-"):
            argv += [f"--prices={prices[0]}", *prices[1:]]
        else:
            argv += ["--prices", *prices]
    if command == "close" or not draw(st.integers(0, 9)):
        argv += ["--equity", draw(st.sampled_from(EQUITY))]
    if not draw(st.integers(0, 19)):
        argv.append(draw(st.sampled_from(("--help", "--bogus", "extra"))))
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return {name: root / name for name in ("ledger", "journal", "out", "missing")}


@st.composite
def cases(draw, paths):
    return draw(mutated("ledger")), draw(mutated("journal")), draw(argvs(paths))


def test_cli_is_total_on_mutated_inputs(paths):
    scalar = (support.DATA / "scalar.ledger").read_bytes()
    # Debits of 15000 and 10000 made the widest numbers: the residual of
    # this unbalanced file is one digit past the limit.
    wide = scalar.replace(b"15000", LONG_NUMBERS[0].encode())
    wide = wide.replace(b"10000", LONG_NUMBERS[0].encode())
    ledger = ["--ledger", str(paths["ledger"])]

    # About a second.  The examples are the three errors that once ended
    # with the interpreter's own digit-limit message.
    @settings(max_examples=200, deadline=None)
    @given(cases(paths))
    @example((scalar, b"", ["value", *ledger, "--prices", "1e-4400"]))
    @example((scalar, b"", ["value", *ledger, "--prices=-1e-4400"]))
    @example((wide, b"", ["report", *ledger]))
    def check(case):
        ledger, journal, argv = case
        support.write_new(paths["ledger"], ledger)
        support.write_new(paths["journal"], journal)
        code, _, err = support.run_cli(*argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert "set_int_max_str_digits" not in err

    check()
