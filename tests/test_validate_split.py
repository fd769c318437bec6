"""`validate` of a journal of `cli._SPLIT_AT` characters or more forks one
child, which checks the entries past the first line "end" at or after its
midpoint.  Its report, exit status and `error:` line are those of the same
command in one process, and each run leaves no child process and no open
file behind.  A syntax error in either half of a `validate` or a `post` is
read once: the parent parses only its own half."""

import contextlib
import marshal
import os
import re
import signal
import sys
import threading
from functools import cache
from pathlib import Path

import pytest

import support
from pacioli import cli
from test_post_split import SPLITS, faulty, open_fds, run_post, sequential
from test_post_split import journals as post_journals
from test_post_split import forks, refused_forks  # noqa: F401 (fixtures)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def audit(seed: int, scale: float) -> tuple[str, str]:
    """The ledger and dirty journal text of an `audit`-shaped workload, with
    two more faults in each half: an entry that debits and credits one
    account (a warning, still valid) and one that also does not balance."""
    book = workloads.generate("audit", seed, scale)
    entries = book.dirty
    a, b = book.accounts[0].name, book.accounts[1].name
    for at in (0.25, 0.75):
        i = int(len(entries) * at)
        warned = [("dr", a, (5,)), ("cr", a, (3,)), ("cr", b, (2,))]
        entries[i] = workloads.Entry(entries[i].description, warned)
        unbalanced = [("dr", b, (5,)), ("cr", b, (4,))]
        entries[i + 1] = workloads.Entry(entries[i + 1].description, unbalanced)
    return workloads.ledger_text(book), workloads.journal_text(book, entries)


@cache
def journals() -> dict[str, tuple[str, str]]:
    return {"seed-1": audit(1, 0.7), "seed-2": audit(2, 0.7)}


@pytest.fixture
def forked_only(monkeypatch, forks):
    """The calls of `os.fork`, where the one-process path fails the test:
    a forked run that falls back gives the same report, only slower."""
    two_cores = cli._two_cores

    def checked(*args):
        halves = two_cores(*args)
        if halves is None:
            raise AssertionError("validate fell back to the one-process path")
        return halves

    if SPLITS:
        monkeypatch.setattr(cli, "_two_cores", checked)
    return forks


def run_validate(tmp_path, ledger_text: str, text: str) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of one `validate`, which must leave no
    child and no open file behind."""
    ledger, journal = tmp_path / "in.ledger", tmp_path / "in.journal"
    support.write_new(ledger, ledger_text.encode())
    support.write_new(journal, text.encode())
    before = open_fds()
    result = support.run_cli("validate", "--ledger", ledger, "--journal", journal)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == before
    return result


ONE_PROCESS: dict[tuple[str, str], tuple[int, str, str]] = {}


def one_process(tmp_path, ledger_text: str, text: str) -> tuple[int, str, str]:
    """What `run_validate` must give: the same command in one process, run
    once per pair of inputs."""
    if (ledger_text, text) not in ONE_PROCESS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_two_cores", lambda text, dimension, work: None)
            result = run_validate(tmp_path, ledger_text, text)
        ONE_PROCESS[ledger_text, text] = result
    return ONE_PROCESS[ledger_text, text]


@pytest.mark.parametrize("name", ["seed-1", "seed-2"])
def test_a_journal_past_the_cut_validates_as_in_one_process(
    name, tmp_path, forked_only
):
    ledger_text, text = journals()[name]
    assert len(text) >= cli._SPLIT_AT
    expected = one_process(tmp_path, ledger_text, text)
    assert run_validate(tmp_path, ledger_text, text) == expected
    assert forked_only == ([1] if SPLITS else [])
    code, stdout, stderr = expected
    assert (code, stderr) == (1, "")
    # Every entry is numbered in the whole journal, past the cut as well.
    verdicts = re.findall(r'^entry (\d+) "txn (\d+) batch \d+": (.*)$', stdout, re.M)
    assert [int(n) for n, _, _ in verdicts] == list(range(1, len(verdicts) + 1))
    assert all(n == m for n, m, _ in verdicts)
    # Each half has both kinds of INVALID entry and two warnings.
    first = text[: text.find("\nend\n", len(text) // 2)].count('\nentry "')
    at = stdout.index(f"\nentry {first + 1} ")
    for half in (stdout[:at], stdout[at:]):
        assert '": INVALID (unknown account(s): Ghost_' in half
        assert '": INVALID (unbalanced, residual [' in half
        assert half.count("' is both debited and credited\n") == 2
    invalid = sum(v.startswith("INVALID") for _, _, v in verdicts)
    assert stdout.endswith(f"\n{invalid} of {len(verdicts)} entries invalid\n")


def broken(text: str, at: float, line: str) -> str:
    """`text` with the first posting line at or past the fraction `at` of
    its lines replaced by `line`."""
    lines = text.split("\n")
    i = int(len(lines) * at)
    while not lines[i].startswith(("dr ", "cr ")):
        i += 1
    lines[i] = line
    return "\n".join(lines)


FAULTS = {
    "syntax-in-the-first-half": lambda t: broken(t, 0.25, "bogus"),
    "syntax-in-the-second-half": lambda t: broken(t, 0.75, "bogus"),
    "syntax-in-each-half": lambda t: broken(broken(t, 0.25, "bogus"), 0.75, "bogus"),
    # A form feed ends a line for the parser (`str.splitlines`), not for "\n".
    "syntax-in-the-second-half-past-form-feeds": lambda t: broken(
        t.replace("\nend\n", "\nend\n\f\n", 40), 0.75, "bogus"
    ),
    "another-dimension": lambda t: t.replace("dimension 1\n", "dimension 2\n", 1),
}


def child_reply_size(text: str) -> int:
    """About the size of the child's reply for `text`: a verdict for each
    entry past the cut."""
    second = text[text.find("\nend\n", len(text) // 2) + 5 :]
    verdicts = [
        (description, "OK", (), True)
        for description in re.findall(r'^entry "(.*)"$', second, re.M)
    ]
    return len(marshal.dumps((True, verdicts)))


@pytest.mark.parametrize("fault", FAULTS)
def test_a_syntax_error_in_either_half_fails_as_in_one_process(
    fault, tmp_path, monkeypatch
):
    ledger_text, text = journals()["seed-1"]
    text = FAULTS[fault](text)
    expected = one_process(tmp_path, ledger_text, text)
    assert expected[:2] == (2, "")
    assert expected[2].startswith("error: line ")
    # The child's reply outgrows the pipe (Linux's default 64 KiB), so a
    # child that is not killed may block on its write.
    assert child_reply_size(text) > 1 << 16
    kills, kill = [], os.kill
    monkeypatch.setattr(os, "kill", lambda pid, s: kills.append(s) or kill(pid, s))
    parses, parse = [], cli.parse_journal

    def counted(*args, **kwargs):
        parses.append(1)
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_journal", counted)
    assert run_validate(tmp_path, ledger_text, text) == expected
    # The child's verdicts are not wanted: it is killed, not waited for.
    assert kills == ([signal.SIGKILL] if SPLITS else [])
    # The error is the first half's or the child's: the parent parses only
    # its own half, with no second pass in one process.
    assert parses == [1]


@pytest.mark.parametrize("at", [0.25, 0.75], ids=["first-half", "second-half"])
def test_a_syntax_error_in_either_half_of_a_post_is_parsed_once(
    at, tmp_path, monkeypatch
):
    ledger_text, text = post_journals()["seed-1"]
    text = faulty(text, {at: "syntax"})
    expected = sequential(ledger_text, text)
    assert expected[0] == 2
    parses, parse = [], cli._journal
    monkeypatch.setattr(cli, "_journal", lambda *a: parses.append(1) or parse(*a))
    assert run_post(tmp_path, ledger_text, text) == expected
    assert parses == [1]


def head(text: str, size: int) -> str:
    """The entries of `text` that end within its first `size` characters."""
    return text[: text.rfind("\nend\n", 0, size) + 5]


@pytest.fixture
def short(monkeypatch):
    """The ledger and a 32 KiB journal past a cut lowered to 16 KiB: what
    keeps the one-process path does not depend on the journal's size."""
    monkeypatch.setattr(cli, "_SPLIT_AT", 1 << 14)
    ledger_text, text = journals()["seed-2"]
    return ledger_text, head(text, 1 << 15)


def test_a_failed_fork_is_the_one_process_path(tmp_path, refused_forks, short):
    ledger_text, text = short
    expected = one_process(tmp_path, ledger_text, text)
    assert run_validate(tmp_path, ledger_text, text) == expected
    assert refused_forks == ([1] if SPLITS else [])


@contextlib.contextmanager
def condition(name: str):
    """A process state in which the command runs: another thread, or
    SIGCHLD ignored or handled."""
    if name == "another-thread":
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
    elif name.startswith("sigchld-"):
        handler = signal.SIG_IGN if name == "sigchld-ignored" else lambda *_: None
        previous = signal.signal(signal.SIGCHLD, handler)
        try:
            yield
        finally:
            signal.signal(signal.SIGCHLD, previous)
    else:
        yield


@pytest.mark.parametrize(
    "name",
    ["past-the-cut", "under-the-cut", "another-thread", "sigchld-ignored",
     "sigchld-handled"],
)
def test_validate_forks_where_post_forks(name, tmp_path, forks, short):
    # Both commands ask `_two_cores`; only a journal past the cut, in a
    # process with one thread and SIGCHLD at its default, forks.
    size = (1 << 14) - 1 if name == "under-the-cut" else 1 << 15
    ledger_text, text = short[0], head(short[1], size)
    post_ledger, post_text = post_journals()["seed-2"]
    post_text = head(post_text, size)
    assert len(text) >= cli._SPLIT_AT or name == "under-the-cut"
    expected = one_process(tmp_path, ledger_text, text)
    seen = {}
    for command in ("validate", "post"):
        forks.clear()
        with condition(name):
            if command == "validate":
                assert run_validate(tmp_path, ledger_text, text) == expected
            else:
                result = run_post(tmp_path, post_ledger, post_text)
                assert result == sequential(post_ledger, post_text)
        seen[command] = len(forks)
    n = int(SPLITS and name == "past-the-cut")
    assert seen == {"validate": n, "post": n}
