"""`close`'s two outputs agree: the closing journal it prints, posted to the
ledger it closed, writes its `--out` ledger byte for byte."""

import sys
from pathlib import Path

import pytest

import support

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_posting_the_printed_closing_journal_writes_the_closed_ledger(tmp_path, seed):
    book = workloads.generate("period_close", seed, 0.02)
    ledger, journal = tmp_path / "in.ledger", tmp_path / "in.journal"
    posted, closed = tmp_path / "posted.ledger", tmp_path / "closed.ledger"
    closing, reposted = tmp_path / "closing.journal", tmp_path / "reposted.ledger"
    support.write_new(ledger, workloads.ledger_text(book).encode("utf-8"))
    support.write_new(
        journal, workloads.journal_text(book, book.entries).encode("utf-8")
    )
    assert support.run_cli(
        "post", "--ledger", ledger, "--journal", journal, "--out", posted
    ) == (0, "", "")
    code, printed, err = support.run_cli(
        "close", "--ledger", posted, "--equity", workloads.EQUITY, "--out", closed
    )
    assert (code, err) == (0, "")
    assert printed.count("\nentry ") > 0  # closing entries, not an empty journal
    support.write_new(closing, printed.encode("utf-8"))
    assert support.run_cli(
        "post", "--ledger", posted, "--journal", closing, "--out", reposted
    ) == (0, "", "")
    assert closed.read_bytes() != posted.read_bytes()
    assert reposted.read_bytes() == closed.read_bytes()
