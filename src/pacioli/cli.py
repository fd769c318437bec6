"""Command-line surface tying the engine together.

Exit status: 0 on success, 1 on validation failure, 2 on parse/IO/usage
errors.  Each `_cmd_*` takes the parsed `--ledger` and returns its exit
status, its stdout as an iterable of text chunks and the ledger text it
writes (or None).  A handler has formatted every number by the time it
returns (`sss` and `matrix` return the lines of the reports' second pass,
which only pads them).  `run_command` alone parses `--ledger`, writes the
ledger text to `--out` (or after the report), then writes the chunks and
turns `UserWarning`s into `warning:` lines on stderr.  So a command that
fails writes only its `error:` line to stderr, nothing to stdout, and
leaves `--out` as it was.  A reader that closes stdout early ends the
output, not the command: the exit status is the command's own.
"""

import argparse
import os
import sys
import warnings
from fractions import Fraction as Rational
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .fileformat import (
    ParseError,
    _journal,
    _row,
    parse_journal,
    parse_ledger,
    render_journal,
    render_ledger,
)
from .ledger import (
    PostingError,
    _post_rows,
    close_nominal,
    decode_equation,
    trial_balance,
    validate_entry,
)
from .reports import (
    iter_signed_report,
    iter_table_report,
    render_balance_sheet,
    render_trial_balance,
)
from .sss import journal_to_signed, signed_post, to_signed
from .table import build_table, net_changes, table_sums
from .valuation import PriceVector, value_ledger

__all__ = ["build_parser", "run_command", "main"]


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
        p.set_defaults(handler=handler, balanced=True)
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
    tb = command("trial-balance", _cmd_trial_balance, "sum debit and credit sides")
    tb.set_defaults(balanced=False)  # the command that diagnoses a broken file
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


def _price(text: str) -> Rational:
    # Rational builds 10**exponent unchecked, so an exponent past twice the
    # int/str digit limit (if any) is refused first; Rational("1/0") raises
    # ZeroDivisionError, which argparse would not catch.
    _, e, exponent = text.lower().rpartition("e")
    limit = 2 * getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        if e and limit and abs(int(exponent)) > limit:
            raise ValueError
        return Rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid price {text!r}") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        message = f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})"
        raise ParseError(message) from None


def _write_out(path: str, text: str) -> None:
    """Replace `path` with `text` atomically: write a temp file beside it,
    then rename it over `path`.  On failure the temp file is removed and
    `path` is left as it was."""
    temp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _print(chunks: Iterable[str]) -> None:
    """Write `chunks` to stdout.  If the reader has closed the pipe, stop,
    and point stdout at the null device so that the interpreter's last
    flush does not fail again and print "Exception ignored"."""
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _lines(lines: Iterable[str]) -> Iterator[str]:
    return (f"{line}\n" for line in lines)


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
    # Each entry is netted as it is parsed, from the grammar's raw rows: no
    # `NatVec`, `Posting` or `JournalEntry` per posting, and no list of
    # entries (the journal's text and its lines are still held).
    # `iter_journal` is the object form of the same grammar.
    rows = _journal(_read(args.journal), _row, ledger.dimension)
    try:
        ended = _post_rows(ledger, rows)
    except PostingError:
        # A syntax error anywhere in the journal outranks a posting error
        # (exit 2, not 1), as when the whole journal is parsed first.
        for _ in rows:
            pass
        raise
    return 0, [], render_ledger(ended)


def _cmd_trial_balance(args, ledger):
    tb = trial_balance(ledger)
    return (0 if tb.balanced else 1), [render_trial_balance(tb), "\n"], None


def _cmd_report(args, ledger):
    return 0, [render_balance_sheet(decode_equation(ledger)), "\n"], None


def _cmd_matrix(args, ledger):
    journal = parse_journal(_read(args.journal), dimension=ledger.dimension)
    table = build_table(journal, ledger)
    sums = table_sums(table)
    changes = net_changes(table, ledger)
    return 0, _lines(iter_table_report(table, sums, changes, ledger)), None


def _cmd_sss(args, ledger):
    signed = to_signed(ledger)
    if not args.journal:
        return 0, _lines(iter_signed_report(signed)), None
    journal = parse_journal(_read(args.journal), dimension=ledger.dimension)
    rows = journal_to_signed(journal, ledger)
    ending = signed_post(signed, rows)
    return 0, _lines(iter_signed_report(signed, rows, ending)), None


def _cmd_value(args, ledger):
    valued = value_ledger(ledger, PriceVector(tuple(args.prices)))
    return 0, [render_balance_sheet(decode_equation(valued)), "\n"], None


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
            ledger = parse_ledger(_read(args.ledger), require_balanced=args.balanced)
            status, chunks, ledger_text = args.handler(args, ledger)
        if ledger_text is not None:  # `post` and `close`: `chunks` is a list
            if args.out:
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
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
