"""The README's claims: its library example runs as written, its `report`
lines are the command's exact output, and its values are immutable."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pacioli
import support
from pacioli import (
    Account,
    BalanceSheetEquation,
    EntryValidation,
    Fraction,
    IntVec,
    JournalEntry,
    Ledger,
    NatVec,
    Posting,
    PriceVector,
    Side,
    SignedAccount,
    SignedLedger,
    SignedRow,
    TableSums,
    TransactionsTable,
    TrialBalance,
    TTerm,
)
from pacioli.cli import run_command

README = support.DATA.parent.parent / "README.md"


def test_readme_library_example_runs():
    root = README.parent
    readme = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    src = Path(pacioli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=root
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].split() == "Assets = Liabilities + Equity".split()
    assert lines[1].split() == "(9700, 40, 20) = (9200, 0, 0) + (500, 40, 20)".split()
    assert lines[3].split() == "14500 = 9200 + 5300".split()


def test_readme_report_lines_are_exact(tmp_path, capsys):
    """Byte for byte, padding included: both `report`s of the CLI session."""
    readme = README.read_text(encoding="utf-8")
    scalar, ended = support.DATA / "scalar.ledger", tmp_path / "ended.ledger"
    journal = support.DATA / "scalar.journal"
    argv = ["post", "--ledger", scalar, "--journal", journal, "--out", ended]
    assert run_command([str(a) for a in argv]) == 0
    for shown, path in (("tests/data/scalar.ledger", scalar), ("ended.ledger", ended)):
        capsys.readouterr()
        assert run_command(["report", "--ledger", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 2
        assert f"$ pacioli report --ledger {shown}\n{out}\n" in readme


# One instance of each public dataclass.
VALUES = [
    NatVec.of(1),
    IntVec.of(-1),
    TTerm.zero(1),
    Fraction(1, 2),
    Account("A", Side.DR, TTerm.zero(1)),
    Ledger(1, ("usd",), ()),
    Posting("A", Side.DR, NatVec.of(1)),
    JournalEntry("t", ()),
    BalanceSheetEquation((), ()),
    EntryValidation(True),
    TrialBalance(NatVec.of(0), NatVec.of(0), True),
    SignedAccount("A", Side.CR, IntVec.of(0)),
    SignedLedger(1, ("usd",), ()),
    SignedRow("t", ()),
    TransactionsTable((), ()),
    TableSums((), ()),
    PriceVector.of(1),
]


def test_values_cover_every_public_dataclass():
    public = [getattr(pacioli, name) for name in pacioli.__all__]
    types = [t for t in public if isinstance(t, type) and dataclasses.is_dataclass(t)]
    assert [type(value) for value in VALUES] == types


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_every_public_value_is_immutable(value):
    first = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, first, getattr(value, first))
