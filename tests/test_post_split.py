"""`post` of a journal of `cli._SPLIT_AT` characters or more forks one
child, which nets the journal past the first line "end" at or after its
midpoint.  The ledger it writes, its exit status and its `error:` line are
those of the library's sequential calls, and each run leaves no child
process and no open file behind."""

import marshal
import os
import signal
import subprocess
import sys
import threading
from dataclasses import replace
from functools import cache
from pathlib import Path
from unittest import mock

import pytest

import pacioli
import support
from pacioli import LedgerError, ParseError, cli
from pacioli import iter_journal, parse_journal, parse_ledger, post, render_ledger

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# Where `post` may fork at all; elsewhere every run takes the one-process
# path, and the same outputs are expected.
SPLITS = (
    sys.platform == "linux"
    and hasattr(os, "fork")
    and len(os.sched_getaffinity(0)) >= 2
)


def post_long(seed: int, scale: float, dimension: int = 3) -> tuple[str, str]:
    """The ledger and journal text of a `post_long`-shaped workload."""
    spec = replace(workloads.SPECS["post_long"], dimension=dimension)
    with mock.patch.dict(workloads.SPECS, post_long=spec):
        book = workloads.generate("post_long", seed, scale)
    return workloads.ledger_text(book), workloads.journal_text(book, book.entries)


def loosened(text: str) -> str:
    """`text` with comments, blank lines, indented postings and every other
    "end" line indented with a comment, which the cut must skip."""
    out, ends = [], 0
    for line in text.splitlines():
        if line.startswith("entry"):
            out += ["", "# the next entry", line]
        elif line == "end":
            ends += 1
            out.append("end" if ends % 2 else "   end   # closed")
        elif line:
            out.append(f"    {line}  # a posting")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


@cache
def journals() -> dict[str, tuple[str, str]]:
    loose_ledger, loose = post_long(4, 0.4)
    return {
        "seed-1": post_long(1, 0.4),
        "seed-2": post_long(2, 0.4),
        "dimension-1": post_long(3, 0.6, dimension=1),
        "loose-layout": (loose_ledger, loosened(loose)),
    }


@pytest.fixture
def forks(monkeypatch):
    """The calls of `os.fork`, which still forks."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def forked_only(monkeypatch, forks):
    """The calls of `os.fork`, where the one-process path fails the test:
    a forked run that falls back gives the same output, only slower."""

    def fallback(*args):
        raise AssertionError("post fell back to the one-process path")

    if SPLITS:
        monkeypatch.setattr(cli, "_stream", fallback)
    return forks


@pytest.fixture
def refused_forks(monkeypatch):
    """The calls of an `os.fork` that fails as a full process table would."""
    calls = []

    def refused():
        calls.append(1)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refused)
    return calls


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def run_post(tmp_path, ledger_text: str, text: str) -> tuple[int, str, str, str | None]:
    """Exit status, stdout, stderr and `--out` text (None if not written)
    of one `post`, which must leave no child and no open file behind."""
    ledger, journal, out = (tmp_path / n for n in ("in.ledger", "in.journal", "out"))
    support.write_new(ledger, ledger_text.encode())
    support.write_new(journal, text.encode())
    out.unlink(missing_ok=True)
    before = open_fds()
    code, stdout, stderr = support.run_cli(
        "post", "--ledger", ledger, "--journal", journal, "--out", out
    )
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == before
    return code, stdout, stderr, out.read_text() if out.exists() else None


def sequential(ledger_text: str, text: str) -> tuple[int, str, str, str | None]:
    """What `run_post` must give, from the library's sequential calls."""
    ledger = parse_ledger(ledger_text)
    try:
        entries = parse_journal(text, dimension=ledger.dimension)
    except ParseError as exc:
        return 2, "", f"error: {exc}\n", None
    try:
        return 0, "", "", render_ledger(post(ledger, entries))
    except LedgerError as exc:
        return 1, "", f"error: {exc}\n", None


@pytest.mark.parametrize("name", ["seed-1", "seed-2", "dimension-1", "loose-layout"])
def test_a_journal_past_the_cut_posts_as_in_sequence(name, tmp_path, forked_only):
    ledger_text, text = journals()[name]
    assert len(text) >= cli._SPLIT_AT
    expected = render_ledger(post(parse_ledger(ledger_text), iter_journal(text)))
    assert run_post(tmp_path, ledger_text, text) == (0, "", "", expected)
    assert forked_only == ([1] if SPLITS else [])


def faulty(text: str, faults: dict[float, str]) -> str:
    """`text` with a fault at the first posting line at or past each
    fraction of its lines: a syntax error, an unknown account or an
    unbalanced amount."""
    lines = text.split("\n")
    for at, fault in faults.items():
        i = int(len(lines) * at)
        while not lines[i].startswith(("dr ", "cr ")):
            i += 1
        side, name, first, *rest = lines[i].split(" ")
        lines[i] = {
            "syntax": f"bogus {lines[i]}",
            "unknown": " ".join([side, "Ghost_00001", first, *rest]),
            "unbalanced": " ".join([side, name, str(int(first) + 7), *rest]),
        }[fault]
    return "\n".join(lines)


FAULTS = [
    *(({0.25: kind}, f"{kind}-in-the-first-half") for kind in
      ("syntax", "unknown", "unbalanced")),
    *(({0.75: kind}, f"{kind}-in-the-second-half") for kind in
      ("syntax", "unknown", "unbalanced")),
    *(({0.25: kind, 0.75: kind}, f"{kind}-in-each-half") for kind in
      ("syntax", "unknown", "unbalanced")),
    # A syntax error outranks a failed entry before it, in either half.
    ({0.25: "unbalanced", 0.75: "syntax"}, "unbalanced-then-syntax"),
    ({0.25: "unknown", 0.75: "syntax"}, "unknown-then-syntax"),
]


@pytest.mark.parametrize("faults", [f for f, _ in FAULTS], ids=[i for _, i in FAULTS])
def test_a_fault_in_either_half_fails_as_in_sequence(faults, tmp_path, monkeypatch):
    ledger_text, text = journals()["seed-1"]
    text = faulty(text, faults)
    expected = sequential(ledger_text, text)
    assert expected[0] != 0
    kills, kill = [], os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(sig) or kill(pid, sig))
    assert run_post(tmp_path, ledger_text, text) == expected
    # The child's sums are not wanted: it is killed, not waited for.
    assert kills == ([signal.SIGKILL] if SPLITS else [])


def test_a_second_half_without_entries_posts_as_in_sequence(tmp_path, forked_only):
    # One entry of 1 MiB: the only line "end" past the midpoint ends the
    # journal, and the child nets nothing.
    ledger_text = (support.DATA / "scalar.ledger").read_text()
    amount = "9" * 100
    legs = f"dr Assets {amount}\ncr Equity {amount}\n" * (cli._SPLIT_AT // 200)
    text = f'pacioli-journal v1\ndimension 1\nentry "big"\n{legs}end\n\n# done\n'
    assert run_post(tmp_path, ledger_text, text) == sequential(ledger_text, text)
    assert forked_only == ([1] if SPLITS else [])


def test_a_journal_under_the_cut_does_not_fork(tmp_path, forks):
    ledger_text, text = journals()["seed-1"]
    text = text[: text.rfind("\nend\n", 0, cli._SPLIT_AT) + 5]
    assert cli._SPLIT_AT - 200 < len(text) < cli._SPLIT_AT
    assert run_post(tmp_path, ledger_text, text) == sequential(ledger_text, text)
    assert forks == []


def test_a_failed_fork_is_the_one_process_path(tmp_path, refused_forks):
    ledger_text, text = journals()["seed-2"]
    assert run_post(tmp_path, ledger_text, text) == sequential(ledger_text, text)
    assert refused_forks == ([1] if SPLITS else [])


def test_no_fork_while_another_thread_runs(tmp_path, refused_forks):
    ledger_text, text = journals()["seed-2"]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        result = run_post(tmp_path, ledger_text, text)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert result == sequential(ledger_text, text)
    assert refused_forks == []


def test_no_fork_while_sigchld_is_not_at_its_default(tmp_path, refused_forks):
    ledger_text, text = journals()["seed-2"]
    for handler in (signal.SIG_IGN, lambda signum, frame: None):
        previous = signal.signal(signal.SIGCHLD, handler)
        try:
            result = run_post(tmp_path, ledger_text, text)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert result == sequential(ledger_text, text)
    assert refused_forks == []


def pacioli_env() -> dict[str, str]:
    """The environment of a subprocess that imports this `pacioli`."""
    src = str(Path(pacioli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_an_inherited_ignored_sigchld_posts_as_in_sequence(tmp_path):
    # A supervisor may start the command with SIGCHLD ignored, which exec
    # keeps; the kernel would then reap a child before `waitpid` could.
    ledger_text, text = journals()["seed-2"]
    (tmp_path / "in.ledger").write_text(ledger_text)
    (tmp_path / "in.journal").write_text(text)
    launch = (
        "import os, signal, sys; signal.signal(signal.SIGCHLD, signal.SIG_IGN); "
        "os.execv(sys.executable, [sys.executable, '-m', 'pacioli.cli', *sys.argv[1:]])"
    )
    done = subprocess.run(
        [sys.executable, "-c", launch, "post", "--ledger", "in.ledger",
         "--journal", "in.journal", "--out", "out.ledger"],
        capture_output=True, cwd=tmp_path, env=pacioli_env(), timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    expected = sequential(ledger_text, text)[3]
    assert (tmp_path / "out.ledger").read_text() == expected


def test_a_child_result_past_the_pipe_buffer_does_not_hang_a_failed_parent(tmp_path):
    # The child's sums for 4500 accounts outgrow the pipe, and the parent's
    # half fails at line 3: unless the parent closes the pipe before it
    # waits, the child blocks on its write and the parent on the child.
    names = [f"Account_{i:05d}" for i in range(4500)]
    ledger = "pacioli-ledger v1\ndimension 1\nunits u\n" + "".join(
        f"account {name} dr 0 // 0\n" for name in names
    )
    transfers = (
        f'entry "t{i}"\ndr {names[i % 4500]} {10**12 + i}\n'
        f"cr {names[(i + 1) % 4500]} {10**12 + i}\nend\n"
        for i in range(30000)
    )
    text = "pacioli-journal v1\ndimension 1\nbogus\n" + "".join(transfers)
    assert len(text) >= cli._SPLIT_AT
    net = [(name, side, [10**12]) for name in names for side in ("dr", "cr")]
    assert len(marshal.dumps(net)) > 1 << 16  # Linux's default pipe capacity
    (tmp_path / "in.ledger").write_text(ledger)
    (tmp_path / "in.journal").write_text(text)
    done = subprocess.run(
        [sys.executable, "-m", "pacioli.cli", "post", "--ledger", "in.ledger",
         "--journal", "in.journal", "--out", "out.ledger"],
        capture_output=True, cwd=tmp_path, env=pacioli_env(), timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        2, b"", b"error: line 3: unknown directive 'bogus'\n"
    )
    assert not (tmp_path / "out.ledger").exists()
