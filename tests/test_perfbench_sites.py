"""The benchmark's instrumentation still finds every `tdo` site it patches.

perfbench/tracing.py wraps library functions by module and name for traced
runs, and raises HarnessError when one is gone. This test reads that file
without changing it, so a refactor that drops or moves a site fails here
instead of in the next traced benchmark run.
"""

import importlib.util
import io
from pathlib import Path

import pytest

import tdo.cli
import tdo.sim

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pass_name", ["SpanRecorder", "WorkCounter"])
def test_benchmark_patch_sites_exist(pass_name):
    tracing = _tracing()
    recorder = getattr(tracing, pass_name)()
    original = tdo.sim.apply_circuit
    try:
        with recorder.installed():
            assert tdo.sim.apply_circuit is not original
            code = tdo.cli.main(["obstruct", "--builtin", "tht"], io.StringIO(), io.StringIO())
            assert code == 0
    except tracing.HarnessError as exc:
        pytest.fail(f"a traced benchmark run would fail: {exc}")
    assert tdo.sim.apply_circuit is original
