"""Command-line surface tying the engine together.

Exit status: 0 on success, 1 on validation failure, 2 on parse/IO/usage
errors.  Each `_cmd_*` takes the parsed `--ledger` and returns its exit
status, its stdout as an iterable of text chunks and the ledger text it
writes (or None).  A handler has formatted every number by the time it
returns (`sss` and `matrix` return the lines of the reports' second pass,
which only pads them); `post`, `sss` and `matrix` read the journal as a
stream (`_stream`).  `post` and `validate` of a journal of `_SPLIT_AT`
characters or more may fork one child for its second half (`_two_cores`),
with the same output and errors.  `run_command` alone parses `--ledger`,
writes the ledger text to `--out` (or after the report), then writes the
chunks in blocks of about 64 KiB and turns `UserWarning`s into `warning:`
lines on stderr.  So a command that fails writes only its `error:` line to
stderr, nothing to stdout, and leaves `--out` as it was.  A reader that
closes stdout early ends the output, not the command: the exit status is
the command's own.  `main`, the process entry, first freezes the import
heap.
"""

import argparse
import gc
import marshal
import os
import stat
import sys
import warnings
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .fileformat import (
    JOURNAL_MAGIC,
    ParseError,
    _journal,
    parse_journal,
    parse_ledger,
    render_journal,
    render_ledger,
)
from .ledger import Side, _netted, close_nominal, decode_equation, post, trial_balance
from .ledger import validate_entry
from .reports import (
    iter_signed_report,
    iter_table_report,
    render_balance_sheet,
    render_trial_balance,
)
from .sss import journal_to_signed, signed_post, to_signed
from .table import build_table
from .valuation import PriceVector, _rational, value_ledger

__all__ = ["build_parser", "run_command", "main"]

_BLOCK = 1 << 16  # characters of stdout per write: 64 KiB of ASCII
# Characters of journal from which `post` and `validate` fork (`_two_cores`):
# below it the fork and the second parse cost more than the second core
# saves.  `period_close`'s 271 KB `post` stays below it, where a split is
# slower; `audit`'s 792 KB `validate` is above it.
_SPLIT_AT = 1 << 19


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacioli",
        description="Exact double-entry bookkeeping over unsigned integer vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, help_text, journal=False, out=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--ledger", required=True, metavar="FILE", help="ledger file")
        if journal:
            p.add_argument(
                "--journal",
                required=journal == "required",
                metavar="FILE",
                help="journal file",
            )
        if out:
            p.add_argument("--out", metavar="FILE", help="write the ledger here")
        p.set_defaults(handler=handler)
        return p

    command(
        "validate", _cmd_validate, "check each journal entry", journal="required"
    )
    command(
        "post",
        _cmd_post,
        "post the journal and write the reduced ending ledger",
        journal="required",
        out=True,
    )
    command("trial-balance", _cmd_trial_balance, "sum debit and credit sides")
    command("report", _cmd_report, "decoded balance sheet")
    command(
        "matrix",
        _cmd_matrix,
        "scalar transactions table with sums and net changes",
        journal="required",
    )
    command(
        "sss", _cmd_sss, "signed single-sided view with zero-row checks", journal=True
    )
    value = command("value", _cmd_value, "valued scalar balance sheet")
    value.add_argument(
        "--prices",
        required=True,
        nargs="+",
        type=_price,
        metavar="P",
        help="one exact per-unit price per dimension (e.g. 1 100 40 or 1/2)",
    )
    close = command(
        "close", _cmd_close, "close nominal accounts into equity", out=True
    )
    close.add_argument(
        "--equity", required=True, metavar="NAME", help="equity account to close into"
    )
    return parser


def _price(text: str):
    """`text` as an exact price (`valuation._rational`); argparse names a bad one."""
    try:
        return _rational(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid price {text!r}") from None


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as file:  # Path("") would be "."
            return file.read()
    except UnicodeDecodeError as exc:
        message = f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})"
        raise ParseError(message) from None


def _write_out(path: str, text: str) -> None:
    """Replace `path` with `text` atomically: write a temp file beside it,
    then rename it over `path`.  On failure the temp file is removed and
    `path` is left as it was; an `OSError` names `path`, not the temp file.
    A `path` that is neither a regular file nor a directory (a device, a
    FIFO, a symlink) is refused: the rename would replace the node itself."""
    try:
        mode = os.lstat(path).st_mode
    except OSError:
        pass
    else:
        if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
            raise OSError(f"{path}: not a regular file")
    temp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(temp):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _print(chunks: Iterable[str]) -> None:
    """Write `chunks` to stdout in blocks of about `_BLOCK` characters, one
    write each even where stdout is unbuffered.  If the reader has closed the
    pipe, stop, and point stdout at the null device so that the interpreter's
    last flush does not fail again and print "Exception ignored"."""
    block, size = [], 0
    try:
        for chunk in chunks:
            block.append(chunk)
            size += len(chunk)
            if size >= _BLOCK:
                sys.stdout.write("".join(block))
                block, size = [], 0
        sys.stdout.write("".join(block))
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _lines(lines: Iterable[str]) -> Iterator[str]:
    return (f"{line}\n" for line in lines)


def _stream(text, ledger, consume):
    """``consume(rows)`` of the journal grammar's rows of `text`, parsed as
    consumed.

    A syntax error anywhere in the journal outranks a failed entry (exit 2,
    not 1), as when the whole journal is parsed first: on a `ValueError`,
    the rest of the journal is parsed before it is re-raised."""
    rows = _journal(text, ledger.dimension)
    try:
        return consume(rows)
    except ValueError:
        for _ in rows:
            pass
        raise


def _cmd_validate(args, ledger):
    text = _read(args.journal)

    def verdicts(half):  # per entry: description, verdict, warnings, ok
        rows = []
        for entry in parse_journal(half, dimension=ledger.dimension):
            report = validate_entry(entry, ledger)
            verdict = "OK" if report.ok else f"INVALID ({report.problems()})"
            rows.append((entry.description, verdict, report.warnings, report.ok))
        return rows

    halves = _two_cores(text, ledger.dimension, verdicts) or [verdicts(text)]
    lines = []
    invalid = count = 0
    for count, (description, verdict, notes, ok) in enumerate(chain(*halves), 1):
        lines.append(f'entry {count} "{description}": {verdict}\n')
        lines.extend(f"  warning: {note}\n" for note in notes)
        invalid += not ok
    if invalid:
        lines.append(f"{invalid} of {count} entries invalid\n")
    else:
        lines.append(f"all {count} entries valid\n")
    return (1 if invalid else 0), lines, None


def _two_cores(text, dimension, work):
    """``(work(text[:cut]), work(header + text[cut:]))``, the second in a
    forked child, or None where the one-process path must decide.

    `cut` is just after the first line "end" at or past the midpoint, and
    `header` the journal's magic and `dimension` lines.  If the first half
    parses, the grammar is between entries at the cut, so the rest parses
    alone as it would in sequence.  The child sends its result back through
    `marshal`.  A `ParseError` of the first half is the whole journal's
    first syntax error, and so is the child's if the first half succeeds
    (its line moved by the cut): `_two_cores` raises it.  None: a journal
    under `_SPLIT_AT` characters, one CPU, a second thread, SIGCHLD not at
    its default (another reaper might take the child), no such line, a
    failed pipe or fork, or any other `ValueError` in either half.  Unless
    both halves succeed, the child is killed before it is reaped."""
    if len(text) < _SPLIT_AT or sys.platform != "linux" or not hasattr(os, "fork"):
        return None
    import signal
    import threading

    cut = text.find("\nend\n", len(text) // 2) + 5
    if cut < 5 or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1:
        return None
    if signal.getsignal(signal.SIGCHLD) is not signal.SIG_DFL:
        return None
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:  # the child writes (True, result), (False, syntax error) or nothing
        try:
            os.close(read)
            rest = f"{JOURNAL_MAGIC}\ndimension {dimension}\n{text[cut:]}"
            try:
                reply = True, work(rest)
            except ParseError as exc:
                if exc.line_no is None:
                    raise
                reply = False, (exc.message, exc.line_no)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(reply))
        finally:
            os._exit(0)
    os.close(write)
    pipe = open(read, "rb")
    halves = None
    try:
        first = work(text[:cut])
        data = pipe.read()
        if data:
            done, second = marshal.loads(data)
            if not done:  # the child's line 3 is the line after the cut
                message, line_no = second
                raise ParseError(message, line_no - 2 + len(text[:cut].splitlines()))
            halves = first, second
    except ParseError:
        raise
    except (ValueError, EOFError):  # EOFError: a child cut off mid-write
        pass
    finally:
        pipe.close()  # first: a child blocked on a full pipe then exits
        if halves is None:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    return halves


def _cmd_post(args, ledger):
    text = _read(args.journal)
    dim = ledger.dimension

    # Each half nets to one zero-term entry; posting adds zero-terms, so the
    # two entries give the raw sides of the whole journal.
    def net(half):  # the entry's triples, each side by its value
        rows = _journal(half, dim)
        return [(a, side.value, sums) for a, side, sums in _netted(rows, ledger)]

    halves = _two_cores(text, dim, net)
    if halves is None:
        ended = _stream(text, ledger, lambda journal: post(ledger, journal))
    else:
        entries = [("", [(a, Side(s), sums) for a, s, sums in h]) for h in halves]
        ended = post(ledger, entries)
    return 0, [], render_ledger(ended)


def _cmd_trial_balance(args, ledger):
    tb = trial_balance(ledger)
    return (0 if tb.balanced else 1), [render_trial_balance(tb), "\n"], None


def _cmd_report(args, ledger):
    return 0, [render_balance_sheet(decode_equation(ledger)), "\n"], None


def _cmd_matrix(args, ledger):
    text = _read(args.journal)
    table = _stream(text, ledger, lambda journal: build_table(journal, ledger))
    return 0, _lines(iter_table_report(table, ledger)), None


def _cmd_sss(args, ledger):
    signed = to_signed(ledger)
    if args.journal is None:
        return 0, _lines(iter_signed_report(signed)), None
    text = _read(args.journal)
    rows = _stream(text, ledger, lambda journal: journal_to_signed(journal, ledger))
    ending = signed_post(signed, rows)
    return 0, _lines(iter_signed_report(signed, rows, ending)), None


def _cmd_value(args, ledger):
    return _cmd_report(args, value_ledger(ledger, PriceVector(tuple(args.prices))))


def _cmd_close(args, ledger):
    closed, entries = close_nominal(ledger, args.equity)
    return 0, [render_journal(entries, ledger.dimension)], render_ledger(closed)


def run_command(argv: Sequence[str]) -> int:
    """Parse and run one command; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    notes = []
    show = warnings.showwarning

    def note(message, category, *where):
        if issubclass(category, UserWarning):
            notes.append(f"warning: {message}\n")
        else:
            show(message, category, *where)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always", UserWarning)
            warnings.showwarning = note
            balanced = args.command != "trial-balance"  # it diagnoses a broken file
            ledger = parse_ledger(_read(args.ledger), require_balanced=balanced)
            status, chunks, ledger_text = args.handler(args, ledger)
        if ledger_text is not None:  # `post` and `close`: `chunks` is a list
            if args.out is not None:
                _write_out(args.out, ledger_text)
            else:
                chunks = [*chunks, "\n", ledger_text] if chunks else [ledger_text]
        _print(chunks)
    except (OSError, ValueError) as exc:  # ParseError, LedgerError, TableError, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, OSError)) else 1
    sys.stderr.write("".join(notes))
    return status


def main(argv: Sequence[str] | None = None) -> None:
    """Run one command and exit with its status.  The import heap is frozen
    first (`gc.freeze`): the collector, still on, then scans only what the
    command builds, also at exit.  `run_command` leaves it alone."""
    gc.freeze()
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
