"""Start `tdo` children for run.py and report each one's time and peak RSS.

    python3 perfbench/launch.py      (started by run.py, not by hand)

Linux charges a child's ru_maxrss with the resident set of the process
that started it, as it stood at exec. run.py holds the workload's inputs
and oracle state, so children it started itself would report run.py's
peak instead of their own. This helper imports little and holds nothing,
so its children report their own peak.

Each stdin line is a JSON request {"argv", "stdout", "stderr"}: run
`python -m tdo.cli ARGV` with stdout and stderr going to the two named
files, wait for it with os.wait4, and answer with one stdout line
{"code", "seconds", "rss_mb"}. The helper exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "tdo.cli", *request["argv"]],
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "seconds": seconds,
                          "rss_mb": usage.ru_maxrss / 1024}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
