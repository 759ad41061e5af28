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


@pytest.mark.parametrize("argv, spans", [
    (["verify", "{f}", "{f}"], {"sim.equivalence_phase": 1}),
    (["obstruct", "--builtin", "tht"], {"obstruction.obstruction_verdict": 1}),
    # rewrite reports the rewriter's segment count and scans no output.
    (["rewrite", "{f}"], {"rewriter.rewrite_budgeted": 1, "circuit.t_depth_scheduled": 0}),
    (["emit", "toffoli-tdepth1", "--json"], {"constructions.build": 1, "circuit.metrics": 1}),
], ids=["verify", "obstruct", "rewrite", "emit"])
def test_each_command_records_its_layer_span(tmp_path, argv, spans):
    # A command that imported a layer's function itself, bypassing the name in
    # tdo.cli that tracing wraps, would leave the span at zero with no HarnessError.
    f = tmp_path / "c.tdo"
    f.write_text("qubits 2\nt 0\ncx 0 1\n")
    recorder = _tracing().SpanRecorder()
    with recorder.installed():
        code = tdo.cli.main([arg.format(f=f) for arg in argv], io.StringIO(), io.StringIO())
    assert code == 0
    assert {span: recorder.calls[span] for span in spans} == spans


def test_work_counter_counts_gate_steps_and_matrix_cells(tmp_path):
    # obstruct takes the packed kernel; these reach the dict kernel's
    # positional `_apply_gate` and the dense matrix's `dim`. verify runs the
    # four columns of each circuit as one group: 2 circuits x 2 gates.
    f = tmp_path / "c.tdo"
    f.write_text("qubits 2\nh 0\ncx 0 1\n")
    counter = _tracing().WorkCounter()
    with counter.installed():
        code = tdo.cli.main(["verify", str(f), str(f)], io.StringIO(), io.StringIO())
        assert code == 0
        assert counter.take()["sim.gate_applications"] == 4
        tdo.sim.induced_unitary(tdo.cli.parse(f.read_text()))
        assert counter.take()["sim.matrix_cells"] == 16
