"""pacioli CLI benchmark: one seeded workload, end to end and layer by layer.

    python3 perfbench/run.py --workload post_long --seed 1 --seconds 30 --trace 0

Run from anywhere; the program under test is the `src/` tree next to this
directory.  Each command is a fresh interpreter that calls
`pacioli.cli.main(argv)` through `python -c` with `PYTHONPATH=src`, the way
a user runs the CLI, timed from spawn to exit.  The last stdout line is one
JSON object: end-to-end metrics with `--trace 0`, per-layer metrics (from a
separate traced run, see tracer.py) with `--trace 1`; its times are in
reference seconds (see CALIBRATE_REF_S).  Every command's exit code and
output is checked against oracle.py.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# `python -m pacioli.cli` would measure nothing: the module has no
# `__main__` hook and exits 0 without running a command.
LAUNCH = "import sys; from pacioli.cli import main; main(sys.argv[1:])"
SETUP = "import pacioli.cli; pacioli.cli.build_parser()"
# A fixed pure-Python job in the style of the CLI's hot loops: parse tokens
# into small frozen dataclasses, keep them (tens of MB, as the commands do),
# then add them up in a dict.  It never imports pacioli, so no change to the
# program moves it; only the machine does.
CALIBRATE = """
from dataclasses import dataclass
@dataclass(frozen=True)
class Vec:
    components: tuple
    def __post_init__(self):
        if any(c < 0 for c in self.components):
            raise ValueError(self.components)
rows = []
for i in range(20000):
    _, name, *amounts = f"dr Account_{i % 97:05d} {i % 1013} {i % 89} {i % 7}".split()
    rows.append((name, Vec(tuple(int(a) for a in amounts)), Vec((i, i + 1, i + 2))))
totals = {}
for name, v, _ in rows:
    w = totals.get(name, Vec((0, 0, 0)))
    totals[name] = Vec(tuple(a + b for a, b in zip(v.components, w.components)))
"""
# Reported times are in reference seconds: raw seconds scaled by
# CALIBRATE_REF_S / (median calibration time of the same run).  A shared
# machine's speed drifts by tens of percent over minutes; the scaling takes
# that drift out, while a change to pacioli still moves the numbers by its
# full ratio.  The raw medians are printed beside them.
CALIBRATE_REF_S = 0.35
# Set-up and calibration probes: some before the timed loop and a few after
# each repetition, so that their medians span the whole run.
PROBES_FIRST = 4
PROBES_PER_REP = 2
BUDGET_S = 170.0  # a run must end within 180 s


# The metrics of the final JSON line, with their units; BENCHMARK.json
# lists the same names.
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "fileformat.parse_journal.us_per_entry": "us",
    "fileformat.parse_ledger.s": "s",
    "fileformat.render_ledger.s": "s",
    "fileformat.render_journal.s": "s",
    "ledger.validate_entry.us_per_posting": "us",
    "ledger.validate_entry.ok_ratio": "1",
    "ledger.post.self_s": "s",
    "ledger.reduce_ledger.s": "s",
    "ledger.close_nominal.s": "s",
    "ledger.decode_equation.s": "s",
    "algebra.vec_built_per_posting": "count",
    "algebra.tterm_built_per_posting": "count",
    "sss.journal_to_signed.s": "s",
    "sss.signed_post.s": "s",
    "table.build_table.s": "s",
    "valuation.value_ledger.s": "s",
    "reports.render_signed_report.s": "s",
    "reports.render_table_report.s": "s",
    "reports.render_balance_sheet.s": "s",
    "cli.overhead_s": "s",
    "io.in_bytes": "B",
    "io.out_bytes": "B",
    "count.accounts": "count",
    "count.entries": "count",
    "count.postings": "count",
    "trace.overhead_s": "s",
    "fail_ratio": "1",
}


@dataclass
class Outcome:
    metric: str
    code: int
    wall: float
    rss_mb: float
    stdout: Path
    written: Path | None


class Harness:
    """Spawns the CLI, one child at a time, and checks what it produced."""

    def __init__(self, workload: str, work: Path, expected: oracle.Expected,
                 deadline: float):
        self.workload = workload
        self.work = work
        self.expected = expected
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.paths = {
            key: str(work / name) for key, name in (
                ("ledger", "in.ledger"), ("journal", "in.journal"),
                ("dirty", "dirty.journal"), ("posted", "posted.ledger"),
                ("closed", "closed.ledger"))
        }
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple, list[str]] = {}

    def spawn(self, argv: list[str], stdout: Path) -> tuple[int, float, float]:
        """Run one child; return (exit code, wall seconds, peak RSS in MB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run budget exhausted")
        with open(stdout, "wb") as out, open(self.work / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def probe(self, setup: list[float], calibration: list[float]) -> None:
        """Time one set-up probe and one calibration probe."""
        code, wall, _ = self.spawn([sys.executable, "-c", SETUP],
                                   self.work / "setup.out")
        self._record([f"set-up probe exited {code}"] if code else [])
        setup.append(wall)
        code, wall, _ = self.spawn([sys.executable, "-c", CALIBRATE],
                                   self.work / "calibrate.out")
        if code:
            raise RuntimeError(f"calibration probe exited {code}")
        calibration.append(wall)

    def sequence(self, traced: bool = False) -> tuple[float, list[Outcome]]:
        """Run the workload's commands once, in order, checking each; the
        sequence's time is the sum of the commands' spawn-to-exit times."""
        outcomes = []
        for i, (metric, template) in enumerate(workloads.SEQUENCES[self.workload]):
            argv = [a.format(**self.paths) for a in template]
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"),
                       str(self.work / f"spans{i}.json"), *argv]
            else:
                cmd = [sys.executable, "-c", LAUNCH, *argv]
            stdout = self.work / f"{metric}.out"
            written = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            if written:
                written.unlink(missing_ok=True)  # no stale file from the last repetition
            code, wall, rss = self.spawn(cmd, stdout)
            outcomes.append(Outcome(metric, code, wall, rss, stdout, written))
            self.check(outcomes[-1])  # the next repetition overwrites its files
        return sum(o.wall for o in outcomes), outcomes

    def check(self, outcome: Outcome) -> None:
        """Judge one command; identical outputs are judged once per run."""
        stdout = outcome.stdout.read_bytes()
        written = b""
        if outcome.written and outcome.written.exists():
            written = outcome.written.read_bytes()
        key = (outcome.metric, outcome.code, stdout, written)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = oracle.CHECKS[outcome.metric](
                    self.expected, outcome.code, stdout.decode("utf-8"),
                    written.decode("utf-8"))
            except (ValueError, IndexError) as exc:
                self._verdicts[key] = [f"unreadable output ({exc})"]
        self._record([f"{outcome.metric[:-2]}: {p}" for p in self._verdicts[key]])

    def _record(self, problems: list[str]) -> None:
        """Count one command, failed if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [p for p in problems if p not in self.problems]


def tail(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples above it; the max
    when there are too few samples for one above the median."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    q = 100 * (n - 10) // n
    return f"p{q}", statistics.quantiles(values, n=100)[q - 1]


def write_inputs(book: workloads.Book, paths: dict[str, str]) -> None:
    Path(paths["ledger"]).write_text(workloads.ledger_text(book), encoding="utf-8")
    Path(paths["journal"]).write_text(
        workloads.journal_text(book, book.entries), encoding="utf-8")
    if book.dirty is not None:
        Path(paths["dirty"]).write_text(
            workloads.journal_text(book, book.dirty), encoding="utf-8")


def io_bytes(workload: str, paths: dict[str, str], outcomes: list[Outcome]) -> tuple:
    """(bytes the sequence read, bytes it wrote), inputs counted per read."""
    read = 0
    for _, template in workloads.SEQUENCES[workload]:
        for flag in ("--ledger", "--journal"):
            if flag in template:
                key = template[template.index(flag) + 1].strip("{}")
                read += os.path.getsize(paths[key])
    wrote = sum(o.stdout.stat().st_size + (o.written.stat().st_size if o.written else 0)
                for o in outcomes)
    return read, wrote


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    deadline = time.monotonic() + BUDGET_S
    book = workloads.generate(workload, seed)
    commands = {metric for metric, _ in workloads.SEQUENCES[workload]}
    harness = Harness(workload, work, oracle.expect(book, commands), deadline)
    write_inputs(book, harness.paths)
    postings = sum(len(e.postings) for e in book.entries)
    print(f"workload {workload} seed {seed}: {len(book.accounts)} accounts, "
          f"{len(book.entries)} entries, {postings} postings, "
          f"dimension {book.dimension}")

    setup: list[float] = []
    calibration: list[float] = []
    for _ in range(PROBES_FIRST):
        harness.probe(setup, calibration)
    walls: list[float] = []
    per_command: dict[str, list[float]] = {}
    peak_rss = 0.0
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, outcomes = harness.sequence()
        walls.append(wall)
        for o in outcomes:
            per_command.setdefault(o.metric, []).append(o.wall)
            peak_rss = max(peak_rss, o.rss_mb)
        for _ in range(PROBES_PER_REP):
            harness.probe(setup, calibration)

    fail_ratio = harness.failed / harness.attempted
    scale = CALIBRATE_REF_S / statistics.median(calibration)
    print(f"  calibration probe {statistics.median(calibration):.4f} s raw "
          f"(n={len(calibration)}); reference times = raw x {scale:.4f}")
    rows = [("setup_s", setup), ("wall_s", walls), *per_command.items()]
    for name, values in rows:
        label, high = tail(values)
        median = statistics.median(values)
        print(f"  {name:<12} {median * scale:10.4f} s ref  {median:.4f} s raw  "
              f"{label} {high:.4f} s raw  n={len(values)}")
    print(f"  {'peak_rss_mb':<12} {peak_rss:10.1f} MB")
    print(f"  {'fail_ratio':<12} {fail_ratio:10.4f} 1  "
          f"({harness.failed} of {harness.attempted} commands)")

    if not trace:
        values = {
            "setup_s": statistics.median(setup) * scale,
            "wall_s": statistics.median(walls) * scale,
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END_UNITS
    else:
        traced_walls: list[float] = []
        layers: list[dict] = []
        start = time.perf_counter()
        while not layers or time.perf_counter() - start < seconds / 2:
            wall, outcomes = harness.sequence(traced=True)
            traced_walls.append(wall)
            traces = [json.loads((work / f"spans{i}.json").read_text(encoding="utf-8"))
                      for i in range(len(outcomes))]
            layers.append(tracer.layer_metrics(traces, [o.wall for o in outcomes]))
        in_bytes, out_bytes = io_bytes(workload, harness.paths, outcomes)
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values.update({
            "io.in_bytes": in_bytes,
            "io.out_bytes": out_bytes,
            "count.accounts": len(book.accounts),
            "count.entries": len(book.entries),
            "count.postings": postings,
            "trace.overhead_s": statistics.median(traced_walls) - statistics.median(walls),
            "fail_ratio": harness.failed / harness.attempted,
        })
        units = LAYER_UNITS
        for name, unit in units.items():
            print(f"  {name:<40} {values[name]:14.6f} {unit}")

    for problem in harness.problems:
        print(f"FAIL {problem}")
    return {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pacioli" / "cli.py").is_file():
        print(f"error: no pacioli sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
