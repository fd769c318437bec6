"""The benchmark's own tests: `python3 -m pytest -q perfbench/selftest.py`.

Not named `test_*.py`, so the Tier-1 run does not collect them.  They use
small workloads and the real CLI, and take a few seconds.
"""

import json
import sys
import time
from pathlib import Path

import pytest

import oracle
import run
import tracer
import workloads

DATA = run.ROOT / "tests" / "data"


def read_book(ledger: Path, journal: Path) -> workloads.Book:
    """Load a ledger and journal into the oracle's plain-int form."""
    accounts = []
    dimension, units = 0, ()
    for raw in ledger.read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens[:1] == ["dimension"]:
            dimension = int(tokens[1])
        elif tokens[:1] == ["units"]:
            units = tuple(tokens[1:])
        elif tokens[:1] == ["account"]:
            name, role, *rest = tokens[1:]
            nominal = rest[:1] == ["nominal"]
            rest = rest[nominal:]
            split = rest.index("//")
            accounts.append(workloads.Account(
                name, role, [int(t) for t in rest[:split]],
                [int(t) for t in rest[split + 1:]], nominal))
    entries = []
    for raw in journal.read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens[:1] == ["entry"]:
            entries.append(workloads.Entry(raw.split('"')[1], []))
        elif tokens[:1] in (["dr"], ["cr"]):
            entries[-1].postings.append(
                (tokens[0], tokens[1], tuple(int(t) for t in tokens[2:])))
    return workloads.Book(dimension, units, accounts, entries)


def harness(tmp_path: Path, workload: str, book: workloads.Book,
            expected: oracle.Expected | None = None) -> run.Harness:
    commands = {metric for metric, _ in workloads.SEQUENCES[workload]}
    h = run.Harness(workload, tmp_path,
                    expected or oracle.expect(book, commands),
                    time.monotonic() + 120)
    run.write_inputs(book, h.paths)
    return h


def test_oracle_scalar_worked_example():
    book = read_book(DATA / "scalar.ledger", DATA / "scalar.journal")
    ended = oracle.apply(book.accounts, book.entries)
    assert oracle.balance_sheet(ended) == (
        (("Assets", "14500"),), (("Liabilities", "9200"), ("Equity", "5300")))


def test_oracle_vector_worked_example():
    book = read_book(DATA / "vector.ledger", DATA / "vector.journal")
    ended = oracle.apply(book.accounts, book.entries)
    assert oracle.balance_sheet(ended) == (
        (("Assets", "(9700, 40, 20)"),),
        (("Liabilities", "(9200, 0, 0)"), ("Equity", "(500, 40, 20)")),
    )
    assert oracle.render(book.units, ended).splitlines()[3:] == [
        "account Assets dr 9700 40 20 // 0 0 0",
        "account Liabilities cr 0 0 0 // 9200 0 0",
        "account Equity cr 0 0 0 // 500 40 20",
    ]


def test_cli_agrees_on_scalar_worked_example(tmp_path):
    book = read_book(DATA / "scalar.ledger", DATA / "scalar.journal")
    h = harness(tmp_path, "post_long", book)
    h.sequence()
    ended = oracle.apply(book.accounts, book.entries)
    expected = oracle.Expected(sheet=oracle.balance_sheet(ended))
    argv = ["report", "--ledger", h.paths["posted"]]
    code, _, _ = h.spawn([sys.executable, "-c", run.LAUNCH, *argv],
                         tmp_path / "report.out")
    assert oracle.check_report(expected, code, (tmp_path / "report.out").read_text(), "") == []
    assert (h.attempted, h.failed) == (1, 0)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SPECS)


def test_generation_is_deterministic():
    a = workloads.generate("audit", 5, scale=0.05)
    b = workloads.generate("audit", 5, scale=0.05)
    c = workloads.generate("audit", 6, scale=0.05)
    assert workloads.journal_text(a, a.dirty) == workloads.journal_text(b, b.dirty)
    assert workloads.ledger_text(a) == workloads.ledger_text(b)
    assert workloads.journal_text(a, a.entries) != workloads.journal_text(c, c.entries)


def test_planted_invalid_entries_are_the_oracles():
    book = workloads.generate("audit", 9, scale=0.2)
    exp = oracle.expect(book, {"validate_s"})
    assert list(exp.invalid) == book.planted
    assert len(book.planted) == len(book.entries) // 100


@pytest.mark.parametrize("workload", sorted(workloads.SPECS))
def test_small_workload_passes_timed_and_traced(tmp_path, workload):
    book = workloads.generate(workload, 3, scale=0.02)
    h = harness(tmp_path, workload, book)
    _, outcomes = h.sequence()
    _, traced = h.sequence(traced=True)
    assert h.problems == []
    assert h.failed == 0 and h.attempted == 2 * len(outcomes)
    traces = [json.loads((tmp_path / f"spans{i}.json").read_text())
              for i in range(len(traced))]
    layers = tracer.layer_metrics(traces, [o.wall for o in traced])
    assert set(layers) <= set(run.LAYER_UNITS)
    assert layers["algebra.vec_built_per_posting"] > 0
    assert layers["fileformat.parse_ledger.s"] > 0
    if workload == "audit":
        assert 0 < layers["ledger.validate_entry.ok_ratio"] < 1
        assert layers["sss.signed_post.s"] > 0 and layers["table.build_table.s"] > 0
    else:
        assert layers["ledger.validate_entry.ok_ratio"] == 1
        assert layers["ledger.post.self_s"] > 0


def test_corrupted_expectation_gives_failures(tmp_path):
    book = workloads.generate("post_long", 4, scale=0.02)
    exp = oracle.expect(book, {"post_s"})
    lines = exp.posted.splitlines(keepends=True)
    first = lines[-1].split()[3]  # account <name> <role> <first debit> ...
    lines[-1] = lines[-1].replace(f" {first} ", f" {int(first) + 1} ", 1)
    exp.posted = "".join(lines)
    h = harness(tmp_path, "post_long", book, exp)
    h.sequence()
    assert h.failed / h.attempted > 0
    assert h.problems == ["post: posted ledger differs from the oracle's"]
