"""Traced run of one CLI command, recorded inside the process that runs it.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json COMMAND [ARGS...]

runs `pacioli.cli.main([COMMAND, ARGS...])` exactly as the timed run does,
with the public functions of the layer modules wrapped where every pacioli
module looks them up, so that a nested call such as `post` ->
`validate_entry` becomes a child span.  `algebra` objects are counted, not
timed: `NatVec`, `IntVec` and `TTerm` constructions are far too many and
too small for a span each.  Nothing under `src/` is edited; the wrapping
exists only in this process.  Spans stay in memory and are written to
SPANS.json when the command returns; `layer_metrics` turns the files of one
command sequence into the per-layer metrics.
"""

import functools
import importlib
import inspect
import json
import sys
import time

# `cli` is the root (its own cost is `cli.overhead_s`); `algebra` is counted;
# `fractions` is on no CLI path and left out.
TIMED_LAYERS = ("fileformat", "ledger", "sss", "table", "valuation", "reports")
COUNTED = ("NatVec", "IntVec", "TTerm")


class Recorder:
    """Spans as [name, start, end, parent index or -1], plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(
            [*COUNTED, "validated_entries", "validated_ok", "validated_postings",
             "parsed_entries", "parsed_postings"], 0
        )

    def wrap(self, name: str, func):
        clock = time.perf_counter
        spans, stack = self.spans, self.stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            self._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        counts = self.counts
        if name == "ledger.validate_entry":
            counts["validated_entries"] += 1
            counts["validated_ok"] += bool(result.ok)
            counts["validated_postings"] += len(args[0].postings)
        elif name == "fileformat.parse_journal":
            counts["parsed_entries"] += len(result)
            counts["parsed_postings"] += sum(len(e.postings) for e in result)

    def count_constructions(self, cls) -> None:
        original = cls.__post_init__
        counts, key = self.counts, cls.__name__

        def counted(obj):
            counts[key] += 1
            original(obj)

        cls.__post_init__ = counted


def install(recorder: Recorder) -> None:
    """Wrap every public layer function in every pacioli module namespace."""
    importlib.import_module("pacioli.cli")  # loads every module on a CLI path
    modules = [m for name, m in sys.modules.items()
               if name == "pacioli" or name.startswith("pacioli.")]
    for layer in TIMED_LAYERS:
        module = sys.modules[f"pacioli.{layer}"]
        for attr in module.__all__:
            func = getattr(module, attr)
            if not inspect.isfunction(func) or func.__module__ != module.__name__:
                continue
            traced = recorder.wrap(f"{layer}.{attr}", func)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is func:
                        setattr(m, key, traced)
    algebra = sys.modules["pacioli.algebra"]
    for name in COUNTED:
        recorder.count_constructions(getattr(algebra, name))


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from pacioli import cli

    try:
        cli.main(cli_argv)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"spans": recorder.spans, "counts": recorder.counts}, f)
    return code


def layer_metrics(traces: list[dict], walls: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced command sequence.

    `traces` are the SPANS.json contents of its commands and `walls` their
    spawn-to-exit times.  Layers the sequence never calls read 0.
    """
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    counts: dict[str, int] = {}
    overhead = 0.0
    for trace, wall in zip(traces, walls):
        spans = trace["spans"]
        children = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                children[parent] += end - start
            else:
                wall -= end - start
        for (name, start, end, _), child in zip(spans, children):
            total[name] = total.get(name, 0.0) + end - start
            self_time[name] = self_time.get(name, 0.0) + end - start - child
        overhead += wall
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def per(numerator: float, key: str, scale: float = 1.0) -> float:
        return scale * numerator / counts[key] if counts.get(key) else 0.0

    metrics = {
        "fileformat.parse_journal.us_per_entry":
            per(total.get("fileformat.parse_journal", 0.0), "parsed_entries", 1e6),
        "ledger.validate_entry.us_per_posting":
            per(total.get("ledger.validate_entry", 0.0), "validated_postings", 1e6),
        "ledger.validate_entry.ok_ratio":
            per(counts.get("validated_ok", 0), "validated_entries"),
        "ledger.post.self_s": self_time.get("ledger.post", 0.0),
        "algebra.vec_built_per_posting":
            per(counts.get("NatVec", 0) + counts.get("IntVec", 0), "parsed_postings"),
        "algebra.tterm_built_per_posting":
            per(counts.get("TTerm", 0), "parsed_postings"),
        "cli.overhead_s": overhead,
    }
    for name in (
        "fileformat.parse_ledger", "fileformat.render_ledger",
        "fileformat.render_journal", "ledger.reduce_ledger",
        "ledger.close_nominal", "ledger.decode_equation",
        "sss.journal_to_signed", "sss.signed_post", "table.build_table",
        "valuation.value_ledger", "reports.render_signed_report",
        "reports.render_table_report", "reports.render_balance_sheet",
    ):
        metrics[f"{name}.s"] = total.get(name, 0.0)
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
