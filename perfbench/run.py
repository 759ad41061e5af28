"""Benchmark of the `tdo` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client: the benchmark starts one `python -m tdo.cli`
process at a time (with src/ on PYTHONPATH) through a small helper,
launch.py, which reports the child's time and own peak RSS. It waits for
each child and checks its exit code, its single stderr JSON line and its
stdout against an oracle.
Ops run in whole rounds of the workload's op list while the next round is
predicted to end within S seconds; at least one round always runs.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json. --trace 1
reports the per-layer metrics: each op then also runs in this process,
once untraced, once with spans (tracing.SpanRecorder) and, in the first
round, once with work counters (tracing.WorkCounter).

The last stdout line is one JSON object: correct, attempted, failed and
metrics. Earlier lines give the SHA-256 of every op's stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
from oracles import CheckFailed, require  # noqa: E402
from workloads import WORKLOADS, Op, setup_probe  # noqa: E402


@dataclass
class OpRun:
    """What one execution of an op produced."""

    seconds: float = 0.0
    rss_mb: float = 0.0
    out_bytes: int = 0
    outs: list[str] = field(default_factory=list)
    digest: str = ""
    stats: list[dict] = field(default_factory=list)
    error: str | None = None


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class Launcher:
    """Starts `tdo` children through perfbench/launch.py, one at a time.

    A child started from this process would report this process's peak
    RSS as its own (see launch.py), so a small helper starts them.
    """

    def __init__(self, work: Path) -> None:
        self.out_path = work / "child.stdout"
        self.err_path = work / "child.stderr"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=_child_env(), cwd=ROOT,
        )

    def spawn(self, argv: list[str]) -> tuple[int, bytes, bytes, float, float]:
        """Run `tdo ARGV`; (exit code, stdout, stderr, seconds, peak RSS in MB)."""
        request = {"argv": argv, "stdout": str(self.out_path), "stderr": str(self.err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise OSError(f"launch.py ended with code {self.proc.wait()}")
        reply = json.loads(line)
        return (reply["code"], self.out_path.read_bytes(), self.err_path.read_bytes(),
                reply["seconds"], reply["rss_mb"])

    def close(self) -> None:
        """End the helper after its current child, and wait for it."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def _report_line(err: str, command: str) -> dict:
    """The one stderr JSON line of a successful run."""
    require(err.endswith("\n") and err.count("\n") == 1,
            f"stderr is not exactly one line: {err[:200]!r}")
    report = json.loads(err)
    require(report.get("command") == command and report.get("status") == "ok",
            f"stderr report is not a success of {command!r}: {err[:200]!r}")
    return report


class Runner:
    """Runs ops as child processes and checks them, caching oracle results.

    Call close() when done, to end the launcher.
    """

    def __init__(self, work: Path) -> None:
        self.launcher = Launcher(work)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.check_s = 0.0
        self._checked: dict[tuple[str, str], list[dict]] = {}

    def run(self, op: Op) -> OpRun:
        self.attempted += 1
        run = OpRun()
        try:
            if op.prepare is not None:
                op.prepare()
            reports = []
            for argv, dest in zip(op.steps, op.to_file):
                code, out, err, seconds, rss = self.launcher.spawn(argv)
                run.seconds += seconds
                run.rss_mb = max(run.rss_mb, rss)
                run.out_bytes += len(out)
                require(code == 0, f"`tdo {' '.join(argv)}` exited {code}: {err[:300]!r}")
                reports.append(_report_line(err.decode("utf-8"), argv[0]))
                if dest is not None:
                    dest.write_bytes(out)
                run.outs.append(out.decode("utf-8"))
            run.digest = _digest(run.outs)
            key = (op.label, run.digest)
            if key not in self._checked:
                check_start = time.perf_counter()
                self._checked[key] = op.check(run.outs, reports)
                self.check_s += time.perf_counter() - check_start
            run.stats = self._checked[key]
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.fail(op, exc)
            run.error = str(exc)
        return run

    def fail(self, op: Op, exc: Exception) -> None:
        self.failed += 1
        self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")

    def close(self) -> None:
        self.launcher.close()


def _digest(outs: list[str]) -> str:
    h = hashlib.sha256()
    for text in outs:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def run_inprocess(op: Op) -> tuple[float, list[str]]:
    """Run an op's steps through tdo.cli.main in this process; (seconds, stdouts)."""
    import tdo.cli as cli

    tracing.reset_caches()
    # Park the benchmark's own objects outside the collector, so that a
    # collection inside the timed call scans no more than a fresh process would.
    gc.collect()
    gc.freeze()
    seconds = 0.0
    outs = []
    for argv, dest in zip(op.steps, op.to_file):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        code = cli.main(argv, out, err)
        seconds += time.perf_counter() - start
        require(code == 0, f"in-process `tdo {' '.join(argv)}` exited {code}")
        text = out.getvalue()
        if dest is not None:
            dest.write_text(text, encoding="utf-8")
        outs.append(text)
    return seconds, outs


@dataclass
class TraceTotals:
    """Per-layer sums over all rounds of a traced run."""

    inproc_s: float = 0.0
    traced_s: float = 0.0
    process_s: float = 0.0
    count_s: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)
    # Span calls of each op's first traced pass, by op label.
    op_spans: dict[str, dict[str, int]] = field(default_factory=dict)


def trace_op(op: Op, run: OpRun, spans: tracing.SpanRecorder,
             counter: tracing.WorkCounter | None, totals: TraceTotals) -> None:
    """Run one op in-process untraced, traced and (optionally) counted.

    Each pass must print what the child process printed. Span calls and
    work counters are recorded, not judged: how often a layer is entered
    is what an optimisation changes.
    """
    plain_s, outs = run_inprocess(op)
    require(outs == run.outs, "in-process stdout differs from the child's")
    before = dict(spans.calls)
    with spans.installed():
        traced_s, outs = run_inprocess(op)
    require(outs == run.outs, "traced stdout differs from the child's")
    totals.op_spans.setdefault(op.label, {
        name: calls - before.get(name, 0) for name, calls in spans.calls.items()
        if calls != before.get(name, 0)})
    totals.inproc_s += plain_s
    totals.traced_s += traced_s
    totals.process_s += run.seconds
    if counter is not None:
        count_start = time.perf_counter()
        with counter.installed():
            _, outs = run_inprocess(op)
        totals.count_s += time.perf_counter() - count_start
        require(outs == run.outs, "counted stdout differs from the child's")
        tracing.combine_counts(totals.counts, counter.take())


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 smoke: bool = False) -> tuple[dict, list[str], list[Op], TraceTotals]:
    """Run one workload; (result object, digest and error lines, ops, trace totals)."""
    ops = WORKLOADS[name](seed, smoke, work)
    runner = Runner(work)
    try:
        probe = setup_probe(work)
        setup_s = [] if trace else [runner.run(probe).seconds for _ in range(SETUP_PROBES)]

        spans = tracing.SpanRecorder()
        totals = TraceTotals()
        rounds: list[list[OpRun]] = []
        digests: dict[str, str] = {}
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            one_time_s = runner.check_s + totals.count_s
            runs = []
            counter = tracing.WorkCounter() if trace and not rounds else None
            for op in ops:
                run = runner.run(op)
                runs.append(run)
                if run.error is None and digests.setdefault(op.label, run.digest) != run.digest:
                    runner.fail(op, CheckFailed("stdout differs from the first round"))
                    run.error = "nondeterministic"
                if trace and run.error is None:
                    try:
                        trace_op(op, run, spans, counter, totals)
                    except (CheckFailed, tracing.HarnessError, OSError, ValueError) as exc:
                        runner.fail(op, exc)
                elif not trace:
                    # Probes spread over the run see the same machine as the ops.
                    setup_s.append(runner.run(probe).seconds)
            rounds.append(runs)
            # Oracle checks (cached by output digest) and the counting pass run
            # once; they count neither toward the measured time nor toward the
            # prediction of the next round.
            now = time.perf_counter()
            next_round = now - round_start - (runner.check_s + totals.count_s - one_time_s)
            measured = now - start - runner.check_s - totals.count_s
            if measured + next_round > seconds:
                break
    finally:
        runner.close()

    values = (_layer_metrics(rounds, spans, totals) if trace
              else _end_to_end_metrics(rounds, setup_s, runner))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": values,
    }
    lines = [f"digest {label} {digest}" for label, digest in digests.items()]
    lines += [f"error {message}" for message in runner.errors]
    return result, lines, ops, totals


def _end_to_end_metrics(rounds: list[list[OpRun]], setup_s: list[float], runner: Runner) -> dict:
    runs = [run for runs in rounds for run in runs]
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(sum(run.seconds for run in runs) for runs in rounds),
        "peak_rss_mb": max(run.rss_mb for run in runs),
        "ok_share": (runner.attempted - runner.failed) / runner.attempted,
        "out_bytes": statistics.fmean(run.out_bytes for run in runs),
    }


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _layer_metrics(rounds: list[list[OpRun]], spans: tracing.SpanRecorder,
                   totals: TraceTotals) -> dict:
    n = len(rounds)
    values: dict[str, float] = {
        metric: sum(spans.self_s[s] for s in names) / n
        for metric, names in tracing.LAYER_TIMES.items()
    }
    values.update({name: totals.counts.get(name, 0) for name in tracing.COUNTER_NAMES})
    inproc = totals.inproc_s / n
    values["trace.inproc_s"] = inproc
    # Failed ops add no time; with every op failed the shares read 0.
    values["trace.overhead_share"] = _share(totals.traced_s - totals.inproc_s, totals.inproc_s)
    values["trace.process_share"] = _share(totals.process_s - totals.inproc_s, totals.process_s)
    stats = [s for run in rounds[0] for s in run.stats]
    for key in ("gates", "t_depth", "ancillas"):
        values[f"out.{key}"] = statistics.fmean(s[key] for s in stats) if stats else 0
    return values


def _declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tdo" / "cli.py").is_file():
        print(f"perfbench: no tdo sources under {SRC}", file=sys.stderr)
        return 2
    declared = _declared_metrics(bool(args.trace))
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        result, lines, _, _ = run_workload(args.workload, args.seed, args.seconds,
                                           bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    values = result["metrics"]
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in declared.items()}
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
