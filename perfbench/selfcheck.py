"""Self-check of the benchmark harness on smoke-sized inputs.

    python3 perfbench/selfcheck.py [--seed N]

Runs one traced round of every workload twice with the same seed, plus an
`emit --json` op that reaches circuit.metrics. It fails (exit 1) when an
instrumentation site is missing, when an op's spans do not fire exactly as
its `Op.spans` lists them, when a span never fires at all, when an op is
wrong, or when the work counters or the stdout digests differ between the
two runs.

The span counts describe the algorithms of the code the benchmark was
written against, so a change in how often a layer is entered shows here
as a named difference. The benchmark's own traced runs record span calls
and work counters without judging them.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run as bench
import tracing
from workloads import WORKLOADS, Op


def _metrics_op() -> Op:
    def check(out: list[str], reports: list[dict]) -> list:
        return []

    argv = ["emit", "multi-controlled-x", "--controls", "3", "--json"]
    return Op("emit-json", [argv], [None], check,
              {"cli.main": 1, "constructions.build": 1, "text.emit": 1, "circuit.metrics": 1})


def _span_problems(where: str, ops: list[Op], op_spans: dict[str, dict[str, int]]) -> list[str]:
    """Each op's observed span calls against the ones it lists."""
    problems = []
    for op in ops:
        got = op_spans.get(op.label)
        if got is None:
            problems.append(f"{where} {op.label}: never traced")
            continue
        want = {name: calls for name, calls in op.spans.items() if calls}
        for name in sorted(set(want) | set(got)):
            if got.get(name, 0) != want.get(name, 0):
                problems.append(f"{where} {op.label}: span {name} fired "
                                f"{got.get(name, 0)} times, want {want.get(name, 0)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems: list[str] = []
    fired: set[str] = set()
    work = bench.ROOT / ".perfbench-work" / "selfcheck"
    try:
        for name in WORKLOADS:
            results = []
            for attempt in (1, 2):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                result, lines, ops, totals = bench.run_workload(
                    name, args.seed, 0, True, work, smoke=True)
                for calls in totals.op_spans.values():
                    fired.update(calls)
                if attempt == 1:
                    problems += _span_problems(name, ops, totals.op_spans)
                    problems += [f"{name}: {line}" for line in lines if line.startswith("error")]
                counts = {k: result["metrics"][k] for k in tracing.COUNTER_NAMES}
                results.append((counts, [line for line in lines if line.startswith("digest")]))
            if results[0] != results[1]:
                problems.append(f"{name}: counters or digests differ between two runs")
            print(f"{name}: {results[0][0]}")

        runner = bench.Runner(work)
        totals = bench.TraceTotals()
        op = _metrics_op()
        try:
            run = runner.run(op)
            bench.trace_op(op, run, tracing.SpanRecorder(), None, totals)
        except bench.CheckFailed as exc:
            problems.append(f"{op.label}: {exc}")
        finally:
            runner.close()
        for calls in totals.op_spans.values():
            fired.update(calls)
        problems += _span_problems("emit", [op], totals.op_spans)
        problems += runner.errors
    except tracing.HarnessError as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    problems += [f"span {s} never fired" for s in tracing.SPAN_NAMES if s not in fired]
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
