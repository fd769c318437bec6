"""End-to-end behaviour of the command-line surface."""

import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pacioli
import support
from pacioli import parse_ledger, reduce_ledger, post, parse_journal
from pacioli import cli, decode_equation
from pacioli.cli import run_command


@pytest.fixture
def data(tmp_path):
    for name in ("scalar.ledger", "scalar.journal", "vector.ledger", "vector.journal"):
        shutil.copy(support.DATA / name, tmp_path / name)
    return tmp_path


def run(*argv):
    return run_command([str(a) for a in argv])


def test_report(data, capsys):
    assert run("report", "--ledger", data / "scalar.ledger") == 0
    out = capsys.readouterr().out.split()
    assert out == "Assets = Liabilities + Equity 15000 = 10000 + 5000".split()


def test_post_then_report(data, capsys):
    out_file = data / "ended.ledger"
    assert (
        run(
            "post",
            "--ledger",
            data / "scalar.ledger",
            "--journal",
            data / "scalar.journal",
            "--out",
            out_file,
        )
        == 0
    )
    assert run("report", "--ledger", out_file) == 0
    words = capsys.readouterr().out.split()
    assert words == "Assets = Liabilities + Equity 14500 = 9200 + 5300".split()


def test_post_writes_reduced_reparseable_ledger(data):
    out_file = data / "ended.ledger"
    run(
        "post",
        "--ledger",
        data / "vector.ledger",
        "--journal",
        data / "vector.journal",
        "--out",
        out_file,
    )
    ledger = parse_ledger(out_file.read_text())
    expected = reduce_ledger(
        post(
            parse_ledger((data / "vector.ledger").read_text()),
            parse_journal((data / "vector.journal").read_text()),
        )
    )
    assert ledger == expected


def test_post_to_stdout(data, capsys):
    assert (
        run(
            "post",
            "--ledger",
            data / "scalar.ledger",
            "--journal",
            data / "scalar.journal",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.startswith("pacioli-ledger v1\n")
    assert "account Assets dr 14500 // 0" in out


def test_trial_balance_balanced(data, capsys):
    assert run("trial-balance", "--ledger", data / "scalar.ledger") == 0
    out = capsys.readouterr().out
    assert "debit total:  15000" in out
    assert "credit total: 15000" in out
    assert "BALANCED" in out


def test_trial_balance_unbalanced(data, capsys):
    broken = data / "broken.ledger"
    broken.write_text(
        "pacioli-ledger v1\ndimension 1\nunits usd\naccount A dr 7 // 0\n"
    )
    assert run("trial-balance", "--ledger", broken) == 1
    out = capsys.readouterr().out
    assert "UNBALANCED" in out
    assert "[7 // 0]" in out


def test_validate_ok(data, capsys):
    assert (
        run(
            "validate",
            "--ledger",
            data / "scalar.ledger",
            "--journal",
            data / "scalar.journal",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count(": OK") == 3
    assert "all 3 entries valid" in out


def test_validate_reports_failures(data, capsys):
    bad = data / "bad.journal"
    bad.write_text(
        "pacioli-journal v1\ndimension 1\n"
        'entry "broken"\ndr Assets 5\ncr Equity 4\nend\n'
        'entry "fine"\ndr Assets 5\ncr Equity 5\nend\n'
    )
    assert run("validate", "--ledger", data / "scalar.ledger", "--journal", bad) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "residual [5 // 4]" in out
    assert '"fine": OK' in out


def test_validate_prints_warnings(data, capsys):
    journal = data / "both.journal"
    journal.write_text(
        "pacioli-journal v1\ndimension 1\n"
        'entry "round trip"\ndr Assets 5\ncr Assets 5\nend\n'
    )
    assert run("validate", "--ledger", data / "scalar.ledger", "--journal", journal) == 0
    assert capsys.readouterr().out.splitlines() == [
        'entry 1 "round trip": OK',
        "  warning: account 'Assets' is both debited and credited",
        "all 1 entries valid",
    ]


def test_report_on_ledger_without_accounts(data, capsys):
    empty = data / "empty.ledger"
    empty.write_text("pacioli-ledger v1\ndimension 1\nunits usd\n")
    assert run("report", "--ledger", empty) == 0
    assert capsys.readouterr().out == "(empty)\n"


def test_matrix_output(data, capsys):
    assert (
        run(
            "matrix",
            "--ledger",
            data / "scalar.ledger",
            "--journal",
            data / "scalar.journal",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Dr.\\Cr." in out and "net changes:" in out
    grid_text, changes_text = out.split("net changes:")
    grid = {
        line.split()[0]: line.split()
        for line in grid_text.splitlines()
        if line.strip()
    }
    assert grid["Assets"] == ["Assets", "1500", "1500"]
    assert grid["Liabilities"] == ["Liabilities", "800", "800"]
    assert grid["Equity"] == ["Equity", "1200", "1200"]
    assert grid["(col"][2:] == ["2000", "0", "1500"]
    changes = {
        line.split()[0]: line.split()
        for line in changes_text.splitlines()
        if line.strip()
    }
    assert changes["Assets"] == ["Assets", "dr", "-500"]
    assert changes["Liabilities"] == ["Liabilities", "cr", "-800"]
    assert changes["Equity"] == ["Equity", "cr", "300"]


def test_matrix_rejects_vector_ledger(data, capsys):
    assert (
        run(
            "matrix",
            "--ledger",
            data / "vector.ledger",
            "--journal",
            data / "vector.journal",
        )
        == 1
    )
    assert "scalar" in capsys.readouterr().err


def test_sss_ledger_only(data, capsys):
    assert run("sss", "--ledger", data / "scalar.ledger") == 0
    out = capsys.readouterr().out
    assert "15000" in out and "-10000" in out and "-5000" in out
    assert "beginning zero-row: OK" in out


def test_sss_with_journal(data, capsys):
    assert (
        run(
            "sss",
            "--ledger",
            data / "vector.ledger",
            "--journal",
            data / "vector.journal",
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "(9700, 40, 20)" in out
    assert "(-9200, 0, 0)" in out
    assert "(-500, -40, -20)" in out
    assert "transaction zero-rows: OK" in out
    assert "ending zero-row: OK" in out


def test_value_command(data, capsys):
    out_file = data / "vended.ledger"
    run(
        "post",
        "--ledger",
        data / "vector.ledger",
        "--journal",
        data / "vector.journal",
        "--out",
        out_file,
    )
    assert run("value", "--ledger", out_file, "--prices", "1", "100", "40") == 0
    words = capsys.readouterr().out.split()
    assert words == "Assets = Liabilities + Equity 14500 = 9200 + 5300".split()


def test_value_wrong_price_count(data, capsys):
    assert run("value", "--ledger", data / "vector.ledger", "--prices", "1") == 1
    assert "dimension" in capsys.readouterr().err


def test_close_command(data, capsys):
    ledger_file = data / "nominal.ledger"
    ledger_file.write_text(
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account Assets dr 5300 // 0\n"
        "account Equity cr 0 // 5000\n"
        "account Revenue cr nominal 0 // 1500\n"
        "account Expenses dr nominal 1200 // 0\n"
    )
    out_file = data / "closed.ledger"
    assert (
        run("close", "--ledger", ledger_file, "--equity", "Equity", "--out", out_file)
        == 0
    )
    out = capsys.readouterr().out
    assert 'entry "close Revenue into Equity"' in out
    assert 'entry "close Expenses into Equity"' in out
    closed = parse_ledger(out_file.read_text())
    assert closed.account("Equity").balance.debit_balance()[0] == -5300
    assert closed.account("Revenue").balance.is_zero()
    assert closed.account("Expenses").balance.is_zero()


def test_close_without_out_prints_journal_then_ledger(data, capsys):
    ledger_file = data / "nominal.ledger"
    ledger_file.write_text(
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account Assets dr 300 // 0\n"
        "account Equity cr 0 // 0\n"
        "account Revenue cr nominal 0 // 300\n"
    )
    assert run("close", "--ledger", ledger_file, "--equity", "Equity") == 0
    journal, ledger = capsys.readouterr().out.split("\n\n")
    assert parse_journal(journal) == [
        pacioli.JournalEntry(
            "close Revenue into Equity",
            (
                pacioli.Posting("Revenue", pacioli.Side.DR, pacioli.NatVec.of(300)),
                pacioli.Posting("Equity", pacioli.Side.CR, pacioli.NatVec.of(300)),
            ),
        )
    ]
    closed = parse_ledger(ledger)
    assert closed.account("Equity").balance.credit_balance()[0] == 300
    assert closed.account("Revenue").balance.is_zero()


def test_close_unknown_equity(data, capsys):
    assert run("close", "--ledger", data / "scalar.ledger", "--equity", "Nope") == 1
    assert "unknown" in capsys.readouterr().err


def test_parse_error_exit_code(data, capsys):
    bad = data / "bad.ledger"
    bad.write_text("not a ledger\n")
    assert run("report", "--ledger", bad) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_file_exit_code(data, capsys):
    assert run("report", "--ledger", data / "nope.ledger") == 2
    assert "error" in capsys.readouterr().err


def test_unbalanced_ledger_is_parse_error_for_report(data, capsys):
    broken = data / "broken.ledger"
    broken.write_text(
        "pacioli-ledger v1\ndimension 1\nunits usd\naccount A dr 7 // 0\n"
    )
    assert run("report", "--ledger", broken) == 2
    assert "residual" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run() == 2
    assert run("frobnicate") == 2
    assert run("report") == 2  # missing --ledger
    err = capsys.readouterr().err
    assert "usage" in err


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "COMMAND" in capsys.readouterr().out


def test_posting_failure_exit_code(data, capsys):
    bad = data / "bad.journal"
    bad.write_text(
        'pacioli-journal v1\ndimension 1\nentry "broken"\ndr Assets 5\ncr Equity 4\nend\n'
    )
    assert (
        run(
            "post",
            "--ledger",
            data / "scalar.ledger",
            "--journal",
            bad,
        )
        == 1
    )
    assert "residual" in capsys.readouterr().err


def test_post_parse_error_outranks_posting_error(data, capsys):
    # Entry 1 does not balance, and line 8 is malformed: the journal is
    # posted as it is parsed, yet the syntax error still decides the exit.
    bad = data / "bad.journal"
    bad.write_text(
        'pacioli-journal v1\ndimension 1\n'
        'entry "broken"\ndr Assets 5\ncr Equity 4\nend\n'
        'entry "later"\ndr Assets x\ncr Equity 1\nend\n'
    )
    out_file = data / "out.ledger"
    before = sorted(p.name for p in data.iterdir())
    argv = ["--ledger", data / "scalar.ledger", "--journal", bad, "--out", out_file]
    assert run("post", *argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: line 8: bad amount 'x' (unsigned integer expected)\n"
    assert sorted(p.name for p in data.iterdir()) == before


WIDE_ENTRY = 'entry "t"\ndr Assets 1 1\ncr Equity 1 1\nend\n'


@pytest.mark.parametrize(
    "entries",
    ["", WIDE_ENTRY, WIDE_ENTRY + "bogus\n"],
    ids=["empty", "entries", "later-syntax-error"],
)
@pytest.mark.parametrize("command", ["post", "validate", "sss", "matrix"])
def test_journal_of_another_dimension_is_parse_error(data, command, entries, capsys):
    # The journal's `dimension` line is checked against the ledger's, before
    # any entry, so it is the file's first error.
    journal = data / "wide.journal"
    journal.write_text(f"pacioli-journal v1\ndimension 2\n{entries}")
    argv = ["--ledger", data / "scalar.ledger", "--journal", journal]
    if command == "post":
        argv += ["--out", data / "out.ledger"]
    before = sorted(p.name for p in data.iterdir())
    assert run(command, *argv) == 2
    assert capsys.readouterr() == (
        "",
        "error: line 2: journal has dimension 2, ledger has 1\n",
    )
    assert sorted(p.name for p in data.iterdir()) == before


def test_zero_denominator_price_is_usage_error(data, capsys):
    assert run("value", "--ledger", data / "scalar.ledger", "--prices", "1/0") == 2
    err = capsys.readouterr().err
    assert "invalid price '1/0'" in err
    assert "Traceback" not in err


def test_non_utf8_input_exit_code(data, capsys):
    bad = data / "latin1.ledger"
    bad.write_bytes("pacioli-ledger v1\n# café\n".encode("latin-1"))
    assert run("report", "--ledger", bad) == 2
    err = capsys.readouterr().err
    assert "latin1.ledger" in err and "not UTF-8" in err


def test_over_long_amount_is_parse_error(data, capsys):
    huge = data / "huge.ledger"
    digits = "7" * 5000
    huge.write_text(
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        f"account A dr {digits} // 0\naccount B cr 0 // {digits}\n"
    )
    assert run("report", "--ledger", huge) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "number too long" in err
    assert "Traceback" not in err


def write_nines(path, text):
    """Write `text` with each ``{nines}`` a number of `DIGIT_LIMIT` nines:
    it fits a file, but a sum of two does not."""
    path.write_text(text.format(nines="9" * support.DIGIT_LIMIT))
    return path


@pytest.fixture
def posted_past_digit_limit(data):
    """--ledger and --journal arguments whose posted balance of A is one
    digit past the limit."""
    ledger = write_nines(
        data / "huge.ledger",
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account A dr {nines} // 0\naccount B cr 0 // {nines}\n",
    )
    journal = write_nines(
        data / "huge.journal",
        'pacioli-journal v1\ndimension 1\n'
        'entry "twice"\ndr A {nines}\ncr B {nines}\nend\n',
    )
    return ["--ledger", ledger, "--journal", journal]


def assert_digit_limit_error(capsys, account):
    out, err = capsys.readouterr()
    assert out == ""
    assert f"account {account!r}" in err and "digit limit" in err
    assert "Traceback" not in err


@support.needs_digit_limit
def test_post_past_digit_limit_writes_nothing(data, posted_past_digit_limit, capsys):
    out_file = data / "out.ledger"
    out_file.write_text("old\n")
    before = sorted(p.name for p in data.iterdir())
    assert run("post", *posted_past_digit_limit, "--out", out_file) == 1
    assert out_file.read_text() == "old\n"
    assert sorted(p.name for p in data.iterdir()) == before
    assert_digit_limit_error(capsys, "A")


@support.needs_digit_limit
def test_sss_past_digit_limit_prints_nothing(posted_past_digit_limit, capsys):
    assert run("sss", *posted_past_digit_limit) == 1
    assert_digit_limit_error(capsys, "A")


@support.needs_digit_limit
def test_close_past_digit_limit_prints_nothing(data, capsys):
    ledger = write_nines(
        data / "huge.ledger",
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account A dr {nines} // 0\naccount B dr {nines} // 0\n"
        "account Equity cr 0 // {nines}\naccount Revenue cr nominal 0 // {nines}\n",
    )
    assert run("close", "--ledger", ledger, "--equity", "Equity") == 1
    assert_digit_limit_error(capsys, "Equity")


@support.needs_digit_limit
def test_value_past_digit_limit_prints_nothing(data, capsys):
    ledger = write_nines(
        data / "huge.ledger",
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account A dr {nines} // 0\naccount B cr 0 // {nines}\n",
    )
    assert run("value", "--ledger", ledger, "--prices", "10") == 1
    assert_digit_limit_error(capsys, "A")


@support.needs_digit_limit
def test_matrix_past_digit_limit_prints_nothing(data, capsys):
    # Two transfers from A to B: cell (B, A) holds twice the nines.
    journal = write_nines(
        data / "huge.journal",
        'pacioli-journal v1\ndimension 1\n'
        'entry "one"\ndr B {nines}\ncr A {nines}\nend\n'
        'entry "two"\ndr B {nines}\ncr A {nines}\nend\n',
    )
    ledger = data / "small.ledger"
    ledger.write_text(
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account A dr 0 // 0\naccount B cr 0 // 0\n"
    )
    assert run("matrix", "--ledger", ledger, "--journal", journal) == 1
    assert_digit_limit_error(capsys, "B")


@support.needs_digit_limit
def test_trial_balance_past_digit_limit_names_total(data, capsys):
    ledger = write_nines(
        data / "huge.ledger",
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account X dr {nines} // 0\naccount Y dr {nines} // 0\n"
        "account Z cr 0 // {nines}\naccount W cr 0 // {nines}\n",
    )
    assert run("trial-balance", "--ledger", ledger) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "debit total" in err and "digit limit" in err
    assert "Traceback" not in err


@pytest.fixture
def residual_past_digit_limit(data):
    """--ledger and --journal arguments of one entry "big" whose two debits
    of A sum one digit past the limit, against a zero credit: its residual
    cannot be written as text."""
    ledger = data / "small.ledger"
    ledger.write_text(
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account A dr 0 // 0\naccount B cr 0 // 0\n"
    )
    journal = write_nines(
        data / "huge.journal",
        'pacioli-journal v1\ndimension 1\n'
        'entry "big"\ndr A {nines}\ndr A {nines}\ncr B 0\nend\n',
    )
    return ["--ledger", ledger, "--journal", journal]


@support.needs_digit_limit
def test_validate_residual_past_digit_limit_names_entry(
    residual_past_digit_limit, capsys
):
    assert run("validate", *residual_past_digit_limit) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        'entry 1 "big": INVALID (unbalanced, residual past the int/str digit limit)',
        "1 of 1 entries invalid",
    ]
    assert err == ""


@support.needs_digit_limit
@pytest.mark.parametrize("command", ["post", "sss", "matrix"])
def test_residual_past_digit_limit_names_entry(
    residual_past_digit_limit, command, capsys
):
    assert run(command, *residual_past_digit_limit) == 1
    out, err = capsys.readouterr()
    assert out == ""
    entry = "entry 'big'" if command == "matrix" else "entry 1 ('big')"
    assert err == f"error: {entry}: unbalanced, residual past the int/str digit limit\n"


@support.needs_digit_limit
def test_value_non_integer_past_digit_limit_names_account(data, capsys):
    # Assets values to 15000 / 10**4400 = 3 / (2 * 10**4396): 4397 digits.
    ledger = data / "scalar.ledger"
    assert run("value", "--ledger", ledger, "--prices", "1e-4400") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: account 'Assets': a non-integer value past the int/str digit limit\n"
    )


@support.needs_digit_limit
def test_negative_price_past_digit_limit_names_price(data, capsys):
    ledger = data / "scalar.ledger"
    assert run("value", "--ledger", ledger, "--prices=-1e-4400") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: price 1 (negative) past the int/str digit limit\n"


def test_negative_price_is_shown(data, capsys):
    assert run("value", "--ledger", data / "scalar.ledger", "--prices=-1/3") == 1
    assert capsys.readouterr().err == "error: negative price -1/3\n"


@support.needs_digit_limit
def test_unbalanced_ledger_residual_past_digit_limit_is_parse_error(data, capsys):
    ledger = write_nines(
        data / "huge.ledger",
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        "account A dr {nines} // 0\naccount B dr {nines} // 0\n",
    )
    assert run("report", "--ledger", ledger) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: ledger does not encode a zero-account; "
        "residual past the int/str digit limit\n"
    )


@support.needs_digit_limit
def test_over_long_number_names_the_limit(data, capsys):
    huge = data / "huge.ledger"
    huge.write_text(
        "pacioli-ledger v1\ndimension 1\nunits usd\n"
        f"account A dr {'7' * 5000} // 0\n"
    )
    assert run("report", "--ledger", huge) == 2
    assert capsys.readouterr().err == (
        "error: line 4: number too long: past the int/str digit limit\n"
    )


def out_argv(command, data, out_file):
    extra = {"post": ["--journal", data / "scalar.journal"], "close": ["--equity", "Equity"]}
    return [command, "--ledger", data / "scalar.ledger", *extra[command], "--out", out_file]


@pytest.mark.parametrize("command", ["close", "post"])
def test_out_replaces_target(data, command, capsys):
    out_file = data / "out.ledger"
    out_file.write_text("old\n")
    before = sorted(p.name for p in data.iterdir())
    assert run(*out_argv(command, data, out_file)) == 0
    assert parse_ledger(out_file.read_text()).dimension == 1
    assert sorted(p.name for p in data.iterdir()) == before


@pytest.mark.parametrize("command", ["close", "post"])
def test_out_failure_keeps_target(data, command, capsys, monkeypatch):
    out_file = data / "out.ledger"
    out_file.write_bytes(b"old contents\n")
    before = sorted(p.name for p in data.iterdir())

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    assert run(*out_argv(command, data, out_file)) == 2
    assert out_file.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in data.iterdir()) == before
    assert "rename refused" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(data):
    src = Path(pacioli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["report", "--ledger", data / "scalar.ledger"]
    result = subprocess.run(
        [sys.executable, "-m", "pacioli.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-5:] == "15000 = 10000 + 5000".split()


@pytest.mark.parametrize("command", ["close", "post"])
def test_out_failure_prints_nothing(data, command, capsys, monkeypatch):
    out_file = data / "out.ledger"
    out_file.write_bytes(b"old contents\n")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    assert run(*out_argv(command, data, out_file)) == 2
    assert out_file.read_bytes() == b"old contents\n"
    assert capsys.readouterr() == ("", "error: rename refused\n")


@pytest.mark.parametrize("action", ["default", "error"])
def test_matrix_diagonal_is_a_warning_line(data, action, capsys):
    journal = data / "self.journal"
    journal.write_text(
        'pacioli-journal v1\ndimension 1\nentry "self"\ndr Assets 5\ncr Assets 5\nend\n'
    )
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        assert run("matrix", "--ledger", data / "scalar.ledger", "--journal", journal) == 0
    out, err = capsys.readouterr()
    assert "Assets" in out
    assert err == (
        "warning: entry 'self' debits and credits 'Assets'; "
        "amount lands on the table diagonal\n"
    )


@pytest.mark.parametrize("action", ["default", "error"])
def test_other_warnings_keep_their_handling(data, action, monkeypatch, capsys):
    def deprecated(ledger):
        warnings.warn("old call", DeprecationWarning)
        return decode_equation(ledger)

    monkeypatch.setattr(cli, "decode_equation", deprecated)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        if action == "error":
            with pytest.raises(DeprecationWarning, match="old call"):
                run("report", "--ledger", data / "scalar.ledger")
        else:
            with pytest.warns(DeprecationWarning, match="old call"):
                assert run("report", "--ledger", data / "scalar.ledger") == 0
    assert "warning:" not in capsys.readouterr().err


@support.needs_digit_limit
@pytest.mark.parametrize(
    "exponent, code",
    [("1000000", 2), (f"{2 * support.DIGIT_LIMIT + 1}", 2),
     (f"-{2 * support.DIGIT_LIMIT + 1}", 2), (f"-{2 * support.DIGIT_LIMIT}", 1)],
)
def test_price_exponent_is_bounded(data, exponent, code, capsys):
    # Past twice the digit limit the exponent is refused before Fraction
    # builds 10**exponent; at the bound the price is valued (and its
    # non-integer values are past the limit).
    price = f"1e{exponent}"
    assert run("value", "--ledger", data / "scalar.ledger", f"--prices={price}") == code
    err = capsys.readouterr().err
    assert (f"invalid price {price!r}" in err) == (code == 2)


@pytest.mark.parametrize("command", ["post", "sss"])
def test_non_utf8_journal_names_the_byte(data, command, capsys):
    head = b'pacioli-journal v1\ndimension 1\nentry "caf'
    journal = data / "latin1.journal"
    journal.write_bytes(head + b'\xff"\ndr Assets 1\ncr Equity 1\nend\n')
    argv = ["--ledger", data / "scalar.ledger", "--journal", journal]
    assert run(command, *argv) == 2
    message = f"{journal}: not UTF-8 (invalid start byte at byte {len(head)})"
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["sss", "report"])
def test_reader_closing_stdout_early_is_not_an_error(data, command, buffered):
    # `sss` prints thousands of rows, which outgrow the pipe: the reader
    # takes one line and is gone while the command is still writing.
    # `report` fits the pipe, and its reader is gone before it writes.
    # Neither may complain, not even at the interpreter's last flush, in
    # development mode with warnings as errors.
    names = ("Assets", "Liabilities", "Equity")
    argv = [command, "--ledger", data / "scalar.ledger"]
    if command == "sss":
        entries = "".join(
            f'entry "t{i}"\ndr {names[i % 3]} {i}\ncr {names[(i + 1) % 3]} {i}\nend\n'
            for i in range(5000)
        )
        journal = data / "long.journal"
        journal.write_text(f"pacioli-journal v1\ndimension 1\n{entries}")
        argv += ["--journal", journal]
    src = Path(pacioli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    strict = ["-X", "dev", "-W", "error"]
    with subprocess.Popen(
        [sys.executable, *strict, "-m", "pacioli.cli", *map(str, argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        if command == "sss":
            assert proc.stdout.readline().split() == [n.encode() for n in names]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""
