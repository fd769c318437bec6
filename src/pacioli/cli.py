"""Command-line surface tying the engine together.

Exit status: 0 on success, 1 on validation failure, 2 on parse/IO/usage
errors.  Reports go to stdout, diagnostics to stderr.
"""

import argparse
import os
import sys
from fractions import Fraction as Rational
from pathlib import Path
from typing import Sequence

from .algebra import DimensionMismatch
from .fileformat import (
    ParseError,
    parse_journal,
    parse_ledger,
    render_journal,
    render_ledger,
)
from .ledger import (
    LedgerError,
    close_nominal,
    decode_equation,
    post,
    trial_balance,
    validate_entry,
)
from .reports import (
    render_balance_sheet,
    render_signed_report,
    render_table_report,
    render_trial_balance,
)
from .sss import journal_to_signed, signed_post, to_signed
from .table import TableError, build_table, net_changes, table_sums
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


def _price(text: str) -> Rational:
    # Rational("1/0") raises ZeroDivisionError, which argparse would not catch.
    try:
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


def _cmd_validate(args) -> int:
    ledger = parse_ledger(_read(args.ledger))
    journal = parse_journal(_read(args.journal))
    invalid = 0
    for i, entry in enumerate(journal, start=1):
        report = validate_entry(entry, ledger)
        verdict = "OK" if report.ok else f"INVALID ({report.problems()})"
        print(f'entry {i} "{entry.description}": {verdict}')
        for warning in report.warnings:
            print(f"  warning: {warning}")
        if not report.ok:
            invalid += 1
    if invalid:
        print(f"{invalid} of {len(journal)} entries invalid")
        return 1
    print(f"all {len(journal)} entries valid")
    return 0


def _cmd_post(args) -> int:
    ledger = parse_ledger(_read(args.ledger))
    # The journal is left unnamed so that it is freed once posted, before
    # render builds the reduced text of the ledger.
    text = render_ledger(post(ledger, parse_journal(_read(args.journal))))
    if args.out:
        _write_out(args.out, text)
    else:
        print(text, end="")
    return 0


def _cmd_trial_balance(args) -> int:
    # Lenient parse: this is the command that diagnoses a broken file.
    ledger = parse_ledger(_read(args.ledger), require_balanced=False)
    tb = trial_balance(ledger)
    print(render_trial_balance(tb))
    return 0 if tb.balanced else 1


def _cmd_report(args) -> int:
    ledger = parse_ledger(_read(args.ledger))
    print(render_balance_sheet(decode_equation(ledger)))
    return 0


def _cmd_matrix(args) -> int:
    ledger = parse_ledger(_read(args.ledger))
    journal = parse_journal(_read(args.journal))
    table = build_table(journal, ledger)
    sums = table_sums(table)
    changes = net_changes(table, ledger)
    print(render_table_report(table, sums, changes, ledger))
    return 0


def _cmd_sss(args) -> int:
    ledger = parse_ledger(_read(args.ledger))
    signed = to_signed(ledger)
    if args.journal:
        journal = parse_journal(_read(args.journal))
        rows = journal_to_signed(journal, ledger)
        ending = signed_post(signed, rows)
        print(render_signed_report(signed, rows, ending))
    else:
        print(render_signed_report(signed))
    return 0


def _cmd_value(args) -> int:
    ledger = parse_ledger(_read(args.ledger))
    prices = PriceVector(tuple(args.prices))
    print(render_balance_sheet(decode_equation(value_ledger(ledger, prices))))
    return 0


def _cmd_close(args) -> int:
    ledger = parse_ledger(_read(args.ledger))
    closed, entries = close_nominal(ledger, args.equity)
    # Both texts are rendered before either is printed, so a render error
    # prints nothing.
    journal = render_journal(entries, ledger.dimension)
    text = render_ledger(closed)
    print(journal, end="")
    if args.out:
        _write_out(args.out, text)
    else:
        print()
        print(text, end="")
    return 0


def run_command(argv: Sequence[str]) -> int:
    """Parse and run one command; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LedgerError, TableError, DimensionMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> None:
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
