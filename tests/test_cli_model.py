"""Model-based test of the whole CLI: a state machine posts, closes and
validates through `run_command` on one ledger file, and after every step the
file must equal what `perfbench/oracle.py`'s plain-int model of the books
renders, and posting nothing writes the same bytes.

The book is a small `period_close` workload from `perfbench/workloads.py`;
the journals are drawn here, some with a failing entry.  `report` and
`value` are not checked: the oracle expects no term for an empty side of
the balance sheet, where the CLI prints `0`.
"""

import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

import support

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402
import workloads  # noqa: E402

# An entry as (debits, credited, fault): debits are (account index, amount)
# pairs, the debit total is split over the credited account indices, and an
# index is taken modulo the number of accounts.  A fault unbalances the
# entry or names an account the ledger lacks.
_ENTRY = st.tuples(
    st.lists(st.tuples(st.integers(0, 99), st.integers(1, 10**6)), min_size=1, max_size=2),
    st.lists(st.integers(0, 99), min_size=1, max_size=2),
    st.sampled_from([None, None, None, None, "unbalanced", "unknown"]),
)
_JOURNAL = st.lists(_ENTRY, max_size=4)


class CliModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.ledger = Path(self.dir.name, "books.ledger")
        self.journal = Path(self.dir.name, "drawn.journal")
        self.empty = Path(self.dir.name, "empty.journal")
        self.empty.write_text(oracle.render_entries(1, []), encoding="utf-8")

    def teardown(self):
        self.dir.cleanup()

    @initialize(seed=st.integers(0, 2**16), scale=st.sampled_from([0.003, 0.005]))
    def load(self, seed, scale):
        self.book = workloads.generate("period_close", seed, scale)
        self.accounts = self.book.accounts
        self.ledger.write_text(workloads.ledger_text(self.book), encoding="utf-8")
        # The generator's loose layout, rewritten in the canonical form.
        assert support.run_cli("post", "--ledger", self.ledger, "--journal", self.empty,
                               "--out", self.ledger)[:2] == (0, "")

    def _entries(self, journal) -> list[workloads.Entry]:
        names = [a.name for a in self.accounts]
        entries = []
        for i, (debits, credited, fault) in enumerate(journal):
            postings = [("dr", names[k % len(names)], (a,)) for k, a in debits]
            total = sum(a for _, a in debits)
            shares = [total // len(credited)] * len(credited)
            shares[-1] += total - sum(shares)
            postings += [("cr", names[k % len(names)], (a,))
                         for k, a in zip(credited, shares)]
            if fault == "unbalanced":
                side, name, (a,) = postings[-1]
                postings[-1] = (side, name, (a + 1,))
            elif fault == "unknown":
                postings[0] = ("dr", "Ghost", postings[0][2])
            entries.append(workloads.Entry(f"drawn {i}", postings))
        return entries

    def _write_journal(self, entries):
        support.write_new(self.journal,
                          workloads.journal_text(self.book, entries).encode("utf-8"))

    def _post(self, entries):
        self._write_journal(entries)
        before = self.ledger.read_bytes()
        code, out, _ = support.run_cli("post", "--ledger", self.ledger,
                                       "--journal", self.journal, "--out", self.ledger)
        assert out == ""
        if oracle.invalid_indices(self.accounts, entries):
            assert code == 1
            assert self.ledger.read_bytes() == before
        else:
            assert code == 0
            self.accounts = oracle.apply(self.accounts, entries)

    @rule(journal=_JOURNAL)
    def post(self, journal):
        self._post(self._entries(journal))

    @rule()
    def post_workload_journal(self):
        self._post(self.book.entries)

    @rule()
    def close(self):
        closing = oracle.closing_entries(self.accounts, workloads.EQUITY)
        code, out, _ = support.run_cli("close", "--ledger", self.ledger,
                                       "--equity", workloads.EQUITY, "--out", self.ledger)
        assert code == 0
        assert out == oracle.render_entries(1, closing)
        self.accounts = oracle.apply(self.accounts, closing)

    @rule(journal=_JOURNAL)
    def validate(self, journal):
        entries = self._entries(journal)
        self._write_journal(entries)
        code, out, _ = support.run_cli("validate", "--ledger", self.ledger,
                                       "--journal", self.journal)
        invalid = tuple(oracle.invalid_indices(self.accounts, entries))
        expected = oracle.Expected(entries=len(entries), invalid=invalid)
        assert oracle.check_validate(expected, code, out, "") == []

    @invariant()
    def trial_balance_balances(self):
        code, out, _ = support.run_cli("trial-balance", "--ledger", self.ledger)
        assert code == 0
        assert out.splitlines()[-1] == "BALANCED"

    @invariant()
    def ledger_is_the_model(self):
        text = self.ledger.read_text(encoding="utf-8")
        assert text == oracle.render(self.book.units, self.accounts)

    @invariant()
    def sss_beginning_row_is_zero(self):
        code, out, _ = support.run_cli("sss", "--ledger", self.ledger)
        assert code == 0
        assert out.splitlines()[-1] == "beginning zero-row: OK"

    @invariant()
    def posting_nothing_writes_the_same_bytes(self):
        # To a new file: the steps above cover `--out` over the ledger itself,
        # and each rename over a file forces a writeback on ext4.
        again = Path(self.dir.name, "again.ledger")
        assert support.run_cli("post", "--ledger", self.ledger, "--journal", self.empty,
                               "--out", again)[:2] == (0, "")
        assert again.read_bytes() == self.ledger.read_bytes()
        again.unlink()


CliModel.TestCase.settings = settings(
    max_examples=15, stateful_step_count=6, deadline=None
)
TestCliModel = CliModel.TestCase
