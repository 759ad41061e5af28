"""Print every metric of every workload, by name and unit, as one table.

    python3 perfbench/report.py [--seed N]           end-to-end
    python3 perfbench/report.py --trace [--seed N]   per layer

Each workload runs in its own `perfbench/run.py` process for `run_seconds`
from BENCHMARK.json; the exit code is 1 if any run reports a wrong or
failed op.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="per-layer table")
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    columns = {}
    ok = True
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "1" if args.trace else "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: run failed ({proc.returncode}): {proc.stderr[-500:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith("error"):
                print(f"{name}: {line}", file=sys.stderr)
        ok &= result["correct"]
        columns[name] = result
        print(f"# {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    width = max(len(m["name"]) for m in metrics)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"{n:>16}" for n in names))
    for m in metrics:
        values = [columns[n]["metrics"][m["name"]]["value"] for n in names]
        cells = "".join(f"{v:>16}" if isinstance(v, int) else f"{v:>16.6g}" for v in values)
        print(f"{m['name']:<{width}}  {m['unit']:<6}{cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
