"""The `pacioli` command's cases as data, run in-process or through the
installed console script.

Each `Case` is one run: its argv, any extra environment variables, the
expected exit status, what its stdout and stderr must hold, and the files
that must or must not exist afterwards.  ``{data}`` in an argument or an
expected text is `tests/data`, and ``{tmp}`` the case's own temporary
directory, which is also the working directory of every run.

Which `pacioli` runs follows from where the package was imported:

- From this checkout's ``src/`` (the plain test run), a case runs
  in-process through `support.run_cli`.  Only a case that needs a real
  process, one with environment variables or a pipe that the reader
  closes, spawns ``python -m pacioli.cli``.
- From anywhere else, such as an installed copy, every case runs through
  the `pacioli` script that `shutil.which` finds on PATH.  With no script
  there every case fails; none falls back to the in-process runner.  So
  ``pip install .`` and then this module, with no PYTHONPATH, cover the
  `[project.scripts]` entry point.
"""

import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import pacioli
import support

SRC = Path(__file__).resolve().parent.parent / "src"
IN_CHECKOUT = Path(pacioli.__file__).resolve().is_relative_to(SRC)


# --- what a stream must hold ---


@dataclass(frozen=True)
class Line:
    """Some line of the stream is exactly `text` (``grep -qx``)."""

    text: str

    def holds(self, stream: bytes) -> bool:
        return self.text.encode() in stream.splitlines()


@dataclass(frozen=True)
class Last:
    """The stream's last line is exactly `text` (``tail -n 1``)."""

    text: str

    def holds(self, stream: bytes) -> bool:
        return stream.splitlines()[-1:] == [self.text.encode()]


@dataclass(frozen=True)
class Search:
    """The regular expression `pattern` (Python's, where ``+`` is not
    literal as in grep's) matches within a line of the stream (``grep -q``)."""

    pattern: str

    def holds(self, stream: bytes) -> bool:
        return re.search(self.pattern.encode(), stream, re.MULTILINE) is not None


@dataclass(frozen=True)
class Same:
    """The stream is byte for byte the stdout of another run, made with the
    same runner (``cmp``)."""

    argv: tuple[str, ...]
    env: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Case:
    """One run of `pacioli`.  `stdout` and `stderr` are each the exact text,
    an expectation above or a tuple of them; stdout `None` is not checked.
    `files` are written to ``{tmp}`` first, and each argv of `given` runs
    before `argv` and must exit 0 with nothing on stderr.  `absent` holds
    glob patterns under ``{tmp}``.  `env` maps a variable to its value, or
    to `None` to unset it.  With `head`, the reader takes that many lines of
    stdout and closes the pipe."""

    name: str
    argv: tuple[str, ...]
    status: int = 0
    stdout: object = None
    stderr: object = ""
    env: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    given: tuple[tuple[str, ...], ...] = ()
    exists: tuple[str, ...] = ()
    absent: tuple[str, ...] = ()
    head: int | None = None


# --- inputs ---

SCALAR = ("--ledger", "{data}/scalar.ledger")
POST = ("post", *SCALAR, "--journal", "{data}/scalar.journal", "--out")
POST_SCALAR = (*POST, "ended.ledger")
POST_VECTOR = (
    "post",
    *("--ledger", "{data}/vector.ledger", "--journal", "{data}/vector.journal"),
    *("--out", "vended.ledger"),
)
CLOSE_SCALAR = ("close", *SCALAR, "--equity", "Equity", "--out", "closed.ledger")

UNBALANCED = "pacioli-ledger v1\ndimension 1\nunits usd\naccount A dr 5 // 0\n"
SELF = 'pacioli-journal v1\ndimension 1\nentry "self"\ndr Assets 5\ncr Assets 5\nend\n'
# Entry 2 fails; `BOGUS` adds a syntax error after it, on line 10.
BAD = (
    "pacioli-journal v1\ndimension 1\n"
    'entry "a"\ndr Assets 5\ncr Equity 5\nend\nentry "b"\ndr Assets 5\nend\n'
)
BOGUS = BAD + "bogus\n"


# 10000 transfers among the scalar ledger's accounts, in turn: the `sss`
# report outgrows a pipe.
NAMES = ("Assets", "Liabilities", "Equity")
LONG = "pacioli-journal v1\ndimension 1\n" + "".join(
    f'entry "t{i}"\ndr {NAMES[i % 3]} {i}\ncr {NAMES[(i + 1) % 3]} {i}\nend\n'
    for i in range(10000)
)
SSS_LONG = ("sss", *SCALAR, "--journal", "long.journal")

ERRORS = {"PYTHONWARNINGS": "error"}  # warnings as errors, outside pytest's capture
NO_FILE = "error: [Errno 2] No such file or directory: {}\n"
ENTRY_2 = "error: entry 2 ('b'): unbalanced, residual [5 // 0]\n"
LINE_10 = "error: line 10: unknown directive 'bogus'\n"


# --- the cases ---

CASES = [
    Case(
        "post-then-report",
        ("report", "--ledger", "ended.ledger"),
        stdout=Search(r"14500 =  *9200 \+  *5300"),
        given=(POST_SCALAR,),
    ),
    # Valued at 1, 100 and 40 per unit, the posted vector books are the
    # posted scalar books: `value` prints the valued ledger's `report`.
    Case(
        "value-of-posted-vector-books-is-posted-scalar-report",
        ("value", "--ledger", "vended.ledger", "--prices", "1", "100", "40"),
        stdout=Same(("report", "--ledger", "ended.ledger")),
        given=(POST_SCALAR, POST_VECTOR),
    ),
    # A value that is not a whole number is exit 1 with one `error:` line.
    # `Liabilities` is a credit-balance account: its value keeps its own
    # side's sign.
    Case(
        "value-to-non-integer",
        ("value", *SCALAR, "--prices", "1/3"),
        status=1,
        stdout="",
        stderr="error: account 'Liabilities' values to non-integer 10000/3\n",
    ),
    Case(
        "value-without-prices",
        ("value", *SCALAR),
        status=2,
        stderr=Search("the following arguments are required: --prices"),
    ),
    # An empty `--out` or `--journal` names no file: exit 2, one `error:`
    # line that names the path as given (not "." nor the temp file), and no
    # temp file left behind.
    Case(
        "post-to-empty-out",
        (*POST, ""),
        status=2,
        stdout="",
        stderr=NO_FILE.format("''"),
        absent=("**/*.tmp",),
    ),
    Case(
        "sss-of-empty-journal",
        ("sss", *SCALAR, "--journal", ""),
        status=2,
        stdout="",
        stderr=NO_FILE.format("''"),
    ),
    # So does an `--out` in a missing directory, where the temp file beside
    # it cannot be written either.
    Case(
        "post-to-out-in-missing-directory",
        (*POST, "{tmp}/missing/x.ledger"),
        status=2,
        stdout="",
        stderr=NO_FILE.format("'{tmp}/missing/x.ledger'"),
        absent=("**/*.tmp",),
    ),
    # `trial-balance` is the one command that loads an unbalanced ledger:
    # it prints the residual and exits 1.
    Case(
        "trial-balance-of-posted-books",
        ("trial-balance", "--ledger", "ended.ledger"),
        stdout=Last("BALANCED"),
        given=(POST_SCALAR,),
    ),
    Case(
        "trial-balance-of-unbalanced-ledger",
        ("trial-balance", "--ledger", "unbalanced.ledger"),
        status=1,
        stdout=Line("UNBALANCED, residual [5 // 0]"),
        files={"unbalanced.ledger": UNBALANCED},
    ),
    # With no nominal account, `close` prints an empty journal and writes a
    # ledger that reports as its input does.
    Case(
        "close-without-nominal-accounts",
        CLOSE_SCALAR,
        stdout="pacioli-journal v1\ndimension 1\n",
        exists=("closed.ledger",),
    ),
    Case(
        "closed-ledger-reports-as-its-input",
        ("report", "--ledger", "closed.ledger"),
        stdout=Same(("report", *SCALAR)),
        given=(CLOSE_SCALAR,),
    ),
    # `sss` without `--journal` shows and checks the beginning row only.
    Case(
        "sss-without-journal", ("sss", *SCALAR), stdout=Last("beginning zero-row: OK")
    ),
    # A diagonal transfer is a `warning:` line on stderr and exit 0, even
    # with warnings as errors.
    Case(
        "matrix-of-self-transfer-warns",
        ("matrix", *SCALAR, "--journal", "self.journal"),
        stderr=Line(
            "warning: entry 'self' debits and credits 'Assets'; "
            "amount lands on the table diagonal"
        ),
        env=ERRORS,
        files={"self.journal": SELF},
    ),
    # `validate` accepts the same entry and prints its warning on stdout.
    Case(
        "validate-of-self-transfer-warns",
        ("validate", *SCALAR, "--journal", "self.journal"),
        stdout=(
            'entry 1 "self": OK\n'
            "  warning: account 'Assets' is both debited and credited\n"
            "all 1 entries valid\n"
        ),
        env=ERRORS,
        files={"self.journal": SELF},
    ),
    # A posting error is exit 1 with only the `error:` line on stderr, and
    # `--out` is not written.
    Case(
        "post-of-unbalanced-entry",
        ("post", *SCALAR, "--journal", "bad.journal", "--out", "bad.ledger"),
        status=1,
        stdout="",
        stderr=ENTRY_2,
        env=ERRORS,
        files={"bad.journal": BAD},
        absent=("bad.ledger",),
    ),
    # `validate` reports every entry on stdout and exits 1, with nothing on
    # stderr.
    Case(
        "validate-of-unbalanced-entry",
        ("validate", *SCALAR, "--journal", "bad.journal"),
        status=1,
        stdout=(
            'entry 1 "a": OK\n'
            'entry 2 "b": INVALID (unbalanced, residual [5 // 0])\n'
            "1 of 2 entries invalid\n"
        ),
        env=ERRORS,
        files={"bad.journal": BAD},
    ),
    # `matrix` and `sss` stop at the same entry with `post`'s `error:` line,
    # exit 1 and print nothing.
    *(
        Case(
            f"{command}-of-unbalanced-entry",
            (command, *SCALAR, "--journal", "bad.journal"),
            status=1,
            stdout="",
            stderr=ENTRY_2,
            env=ERRORS,
            files={"bad.journal": BAD},
        )
        for command in ("matrix", "sss")
    ),
    # A later syntax error outranks the failed entry: exit 2, only the
    # `error:` line, and `--out` is not written.
    Case(
        "post-syntax-error-outranks-unbalanced-entry",
        ("post", *SCALAR, "--journal", "bad.journal", "--out", "bad.ledger"),
        status=2,
        stdout="",
        stderr=LINE_10,
        env=ERRORS,
        files={"bad.journal": BOGUS},
        absent=("bad.ledger",),
    ),
    # `matrix` and `sss` read the journal as a stream too, and `validate`
    # parses it whole: the same error outranks the entry, and nothing is
    # printed.
    *(
        Case(
            f"{command}-syntax-error-outranks-unbalanced-entry",
            (command, *SCALAR, "--journal", "bad.journal"),
            status=2,
            stdout="",
            stderr=LINE_10,
            env=ERRORS,
            files={"bad.journal": BOGUS},
        )
        for command in ("matrix", "sss", "validate")
    ),
    # stdout is written in blocks of about 64 KiB whether or not it is
    # buffered: both runs print the same bytes, and every one of the 10000
    # rows sums to zero.
    Case(
        "sss-buffered-is-unbuffered",
        SSS_LONG,
        stdout=(
            Line("transaction zero-rows: OK"),
            Same(SSS_LONG, env={"PYTHONUNBUFFERED": "1"}),
        ),
        env={"PYTHONUNBUFFERED": None},
        files={"long.journal": LONG},
    ),
    # A reader that closes stdout early is not an error: 10000 rows outgrow
    # the pipe, so the reader is gone while `sss` is still writing.
    Case(
        "sss-into-pipe-closed-after-two-lines",
        SSS_LONG,
        env=ERRORS,
        files={"long.journal": LONG},
        head=2,
    ),
]


# --- runners ---


@pytest.fixture(scope="module")
def script():
    """The `pacioli` script on PATH, or `None` where `pacioli` is imported
    from this checkout's src/ (the cases then run in-process)."""
    if IN_CHECKOUT:
        return None
    path = shutil.which("pacioli")
    if path is None:
        pytest.fail(
            f"pacioli is imported from {pacioli.__file__}, not from {SRC}, "
            "and no pacioli script is on PATH"
        )
    return path


def child_env(extra: dict) -> dict:
    """The environment of a spawned run: this one with `extra` applied and,
    in-checkout, src/ first on PYTHONPATH."""
    env = dict(os.environ)
    if IN_CHECKOUT:
        path = [str(SRC), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    for name, value in extra.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def run(script, argv, env, head=None) -> tuple[int, bytes, bytes]:
    """Exit status, stdout and stderr of one run in the working directory."""
    if script is None and not env and head is None:
        code, out, err = support.run_cli(*argv)
        return code, out.encode(), err.encode()
    command = [script] if script else [sys.executable, "-m", "pacioli.cli"]
    command += argv
    if head is None:
        done = subprocess.run(
            command, capture_output=True, env=child_env(env), timeout=60
        )
        return done.returncode, done.stdout, done.stderr
    with subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(env)
    ) as proc:
        out = b"".join(proc.stdout.readline() for _ in range(head))
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=60), out, err


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_case(case, script, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def fill(text: str) -> str:
        return text.replace("{data}", str(support.DATA)).replace("{tmp}", str(tmp_path))

    def argv(args) -> list[str]:
        return [fill(arg) for arg in args]

    for name, text in case.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for given in case.given:
        code, _, err = run(script, argv(given), {})
        assert (code, err) == (0, b""), given
    status, out, err = run(script, argv(case.argv), case.env, case.head)
    assert status == case.status, err
    for stream, expected in ((out, case.stdout), (err, case.stderr)):
        for expect in expected if isinstance(expected, tuple) else (expected,):
            if expect is None:
                continue
            if isinstance(expect, str):
                assert stream == fill(expect).encode()
            elif isinstance(expect, Same):
                code, ref, ref_err = run(script, argv(expect.argv), expect.env)
                assert (code, ref_err) == (0, b""), expect.argv
                assert stream == ref
            else:
                assert expect.holds(stream), (expect, stream[-2000:])
    for name in case.exists:
        assert (tmp_path / name).exists(), name
    for pattern in case.absent:
        assert not list(tmp_path.glob(pattern)), pattern


@support.needs_digit_limit
def test_price_vector_refuses_a_huge_exponent_at_once(tmp_path):
    # Exit 1 with a ValueError; a timeout means that `Fraction` went on to
    # build 10**30000000.
    code = "from pacioli import PriceVector; PriceVector.of('1e30000000')"
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=child_env({}),
        cwd=tmp_path,
        timeout=10,
    )
    assert done.returncode == 1
    assert Search("^ValueError: ").holds(done.stderr), done.stderr
