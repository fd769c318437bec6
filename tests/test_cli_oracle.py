"""Whole-CLI differential property: each command of a benchmark workload,
run in-process through `run_command` on the workload's files, passes the
benchmark's own check against its plain-int oracle.

The workload generator, the input writer and the oracle live in
`perfbench/`; the oracle never imports pacioli, so it is an independent
model of every command.
"""

import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import assume, given, settings

import support

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(
    workload=st.sampled_from(sorted(workloads.SPECS)),
    seed=st.integers(0, 2**16),
    scale=st.sampled_from([0.001, 0.003, 0.01]),
)
def test_workload_commands_pass_the_oracle(workload, seed, scale):
    book = workloads.generate(workload, seed, scale)
    sequence = workloads.SEQUENCES[workload]
    expected = oracle.expect(book, {metric for metric, _ in sequence})
    # Oracle gap: when one side of the closed balance sheet has no account,
    # `report` and `value` print `0` for that side, and
    # `oracle.balance_sheet` expects no term there.  Drop this `assume`
    # once the oracle expects the `0`.
    assume(all(expected.sheet))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {
            key: str(Path(tmp, key))
            for key in ("ledger", "journal", "dirty", "posted", "closed")
        }
        run.write_inputs(book, paths)
        for metric, template in sequence:
            argv = [arg.format(**paths) for arg in template]
            code, out, err = support.run_cli(*argv)
            written = ""
            if "--out" in argv:
                target = Path(argv[argv.index("--out") + 1])
                written = target.read_text(encoding="utf-8") if target.exists() else ""
            problems = oracle.CHECKS[metric](expected, code, out, written)
            assert problems == [], (metric, err)
