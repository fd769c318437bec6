"""Command-line surface tying the engine together.

Exit status: 0 on success, 1 on validation failure, 2 on parse/IO/usage
errors.  Each `_cmd_*` takes the parsed `--ledger` and returns its exit
status, its stdout as an iterable of text chunks and the ledger text it
writes (or None).  A handler has formatted every number by the time it
returns (`sss` and `matrix` return the lines of the reports' second pass,
which only pads them); `post`, `sss` and `matrix` read the journal as a
stream (`_stream`).  `run_command` alone parses `--ledger`, writes the
ledger text to `--out` (or after the report), then writes the chunks in
blocks of about 64 KiB and turns `UserWarning`s into `warning:` lines on
stderr.  So a command that fails writes only its `error:` line to stderr,
nothing to stdout, and leaves `--out` as it was.  A reader that closes
stdout early ends the output, not the command: the exit status is the
command's own.  `main`, the process entry, first freezes the import heap.
"""

import argparse
import gc
import os
import sys
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .fileformat import (
    ParseError,
    _journal,
    parse_journal,
    parse_ledger,
    render_journal,
    render_ledger,
)
from .ledger import close_nominal, decode_equation, post, trial_balance, validate_entry
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
    `path` is left as it was; an `OSError` names `path`, not the temp file."""
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


def _stream(args, ledger, consume):
    """``consume(rows)`` of the journal grammar's rows, parsed as consumed.

    A syntax error anywhere in the journal outranks a failed entry (exit 2,
    not 1), as when the whole journal is parsed first: on a `ValueError`,
    the rest of the journal is parsed before it is re-raised."""
    rows = _journal(_read(args.journal), ledger.dimension)
    try:
        return consume(rows)
    except ValueError:
        for _ in rows:
            pass
        raise


def _cmd_validate(args, ledger):
    journal = parse_journal(_read(args.journal), dimension=ledger.dimension)
    lines = []
    invalid = 0
    for i, entry in enumerate(journal, start=1):
        report = validate_entry(entry, ledger)
        verdict = "OK" if report.ok else f"INVALID ({report.problems()})"
        lines.append(f'entry {i} "{entry.description}": {verdict}\n')
        lines.extend(f"  warning: {warning}\n" for warning in report.warnings)
        invalid += not report.ok
    if invalid:
        lines.append(f"{invalid} of {len(journal)} entries invalid\n")
    else:
        lines.append(f"all {len(journal)} entries valid\n")
    return (1 if invalid else 0), lines, None


def _cmd_post(args, ledger):
    ended = _stream(args, ledger, lambda journal: post(ledger, journal))
    return 0, [], render_ledger(ended)


def _cmd_trial_balance(args, ledger):
    tb = trial_balance(ledger)
    return (0 if tb.balanced else 1), [render_trial_balance(tb), "\n"], None


def _cmd_report(args, ledger):
    return 0, [render_balance_sheet(decode_equation(ledger)), "\n"], None


def _cmd_matrix(args, ledger):
    table = _stream(args, ledger, lambda journal: build_table(journal, ledger))
    return 0, _lines(iter_table_report(table, ledger)), None


def _cmd_sss(args, ledger):
    signed = to_signed(ledger)
    if args.journal is None:
        return 0, _lines(iter_signed_report(signed)), None
    rows = _stream(args, ledger, lambda journal: journal_to_signed(journal, ledger))
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
