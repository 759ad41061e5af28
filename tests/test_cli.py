"""Command-line interface: streams, exit codes, and determinism."""

import hashlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tdo
from tdo.circuit import BadWidthCap, Circuit
from tdo.cli import main
from tdo.obstruction import obstruction_verdict
from tdo.rewriter import NotAlmostClassical
from tdo.sim import AncillaContractViolated, TooWide, WidthMismatch
from tdo.text import SourceError, emit, parse
from tdo.constructions import (
    BadParams,
    NotAControlledCircuit,
    UnknownConstruction,
    multi_controlled_x,
    toffoli_tdepth1,
)

from conftest import FIXTURES
from test_text import source_texts


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def report_of(err: str) -> dict:
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1, "exactly one report line expected"
    report = json.loads(lines[0])
    assert ("payload" in report) != ("error" in report)
    return report


def test_metrics_fixture():
    code, out, err = run(["metrics", str(FIXTURES / "toffoli-nc.tdo"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["t_count"] == 7
    assert payload["t_depth_as_written"] == 6
    assert report_of(err)["payload"] == payload


def test_metrics_human_output():
    code, out, _ = run(["metrics", str(FIXTURES / "toffoli-ammr.tdo")])
    assert code == 0
    assert "t_depth_scheduled: 3" in out


def test_metrics_missing_file_exits_2():
    code, out, err = run(["metrics", str(FIXTURES / "absent.tdo")])
    assert code == 2
    assert out == ""
    assert report_of(err)["status"] == "error"


def test_metrics_parse_error_exits_1(tmp_path):
    bad = tmp_path / "bad.tdo"
    bad.write_text("qubits 1\nt 1\n")
    code, _, err = run(["metrics", str(bad)])
    assert code == 1
    error = report_of(err)["error"]
    assert (error["line"], error["column"]) == (2, 3)


def test_unicode_digit_in_gate_line_exits_1(tmp_path):
    # '\u00b9' (superscript one) passes str.isdigit but not int().
    bad = tmp_path / "bad.tdo"
    bad.write_text("qubits 2\ncx 0 \u00b9\n", encoding="utf-8")
    code, out, err = run(["parse", str(bad)])
    assert code == 1
    assert out == ""
    error = report_of(err)["error"]
    assert (error["line"], error["column"]) == (2, 6)


def test_non_utf8_file_exits_1(tmp_path):
    bad = tmp_path / "bad.tdo"
    bad.write_bytes(b"qubits 1\n\xff\xfe\n")
    code, out, err = run(["metrics", str(bad)])
    assert code == 1
    assert out == ""
    error = report_of(err)["error"]
    assert error["file"] == str(bad)
    assert "UTF-8" in error["message"]


@settings(max_examples=200)
@given(st.one_of(st.binary(), source_texts.map(str.encode)))
def test_parse_any_bytes_reports_once(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.tdo"
    path.write_bytes(data)
    code, out, err = run(["parse", str(path)])
    assert code in (0, 1, 2)
    assert report_of(err)["status"] == ("ok" if code == 0 else "error")
    if code:
        assert out == ""
    else:
        assert out == emit(parse(data.decode("utf-8")))


# Enough for the interpreter and a small circuit, far below a list per wire.
_ADDRESS_SPACE = 1 << 30


def run_limited(argv, address_space=_ADDRESS_SPACE):
    """`python -m tdo.cli ARGV` in a child whose address space is capped (1 GiB by default)."""
    src = str(Path(tdo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "tdo.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space)),
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command", ["metrics", "rewrite"])
def test_huge_declared_width_needs_no_per_wire_memory(tmp_path, command):
    # Schedules keep state only for wires that gates touch.
    huge = tmp_path / "huge.tdo"
    huge.write_text("qubits 3000000000\ncx 0 1\n")
    argv = [command, str(huge)] + (["--json"] if command == "metrics" else [])
    code, out, err = run_limited(argv)
    assert code == 0, err
    payload = report_of(err)["payload"]
    if command == "metrics":
        assert payload == {
            "t_count": 0, "t_depth_as_written": 0, "t_depth_scheduled": 0, "depth": 1,
            "gate_count": 1, "n_main": 3000000000, "n_anc": 0,
        }
        assert json.loads(out) == payload
    else:
        assert payload == {"stages": 1, "ancillas_added": 0, "t_depth": 0}
        assert out == "qubits 3000000000\ncx 0 1\n"


@pytest.mark.parametrize("controls, code", [("10000", 0), ("10001", 1), ("100000000", 1)])
def test_emit_control_count_is_bounded(controls, code):
    # Above MAX_CONTROLS the builder refuses before it allocates anything.
    got, out, err = run_limited(["emit", "multi-controlled-x", "--controls", controls])
    assert got == code, err
    report = report_of(err)
    if code:
        assert out == ""
        assert report["error"]["message"] == "control count must be at most 10000"
    else:
        assert report["payload"]["n_main"] == 10001


@pytest.mark.parametrize("body, equivalent", [
    ("cx 0 1\n", None),
    ("t 0\ncx 0 2999999999\ncx 0 2999999999\n", True),
])
def test_verify_ignores_untouched_ancillas(tmp_path, body, equivalent):
    # Only the ancillas that gates touch are simulated.
    path = tmp_path / "anc.tdo"
    path.write_text("qubits 1\nancillas 3000000000\n" + body)
    code, out, err = run_limited(["verify", str(path), str(path)])
    report = report_of(err)
    if equivalent is None:
        assert (code, out) == (1, "")
        assert report["error"]["basis_input"] == 1
    else:
        assert code == 0, err
        assert json.loads(out) == {"equivalent": True}


@pytest.mark.parametrize("argv, command", [
    (["verify", "a.tdo"], "verify"),
    (["frob"], None),
    ([], None),
    (["parse", "a.tdo", "b.tdo"], "parse"),
    (["rewrite", "a.tdo", "--stages", "abc"], "rewrite"),
    (["rewrite", "a.tdo", "--stages", "1_0"], "rewrite"),
    (["emit", "multi-controlled-x", "--controls", "\uff13"], "emit"),
], ids=["missing-file2", "unknown-command", "no-command", "extra-argument",
        "stages-abc", "stages-underscore", "controls-fullwidth"])
def test_usage_error_reports_one_json_line(argv, command):
    # argparse would print usage text and exit 2, the unreadable-file code.
    code, out, err = run(argv)
    assert (code, out) == (1, "")
    report = report_of(err)
    assert (report["command"], report["status"]) == (command, "error")


@pytest.mark.parametrize("argv, code, line", [
    (["rewrite", str(FIXTURES / "toffoli-nc.tdo"), "--stages", "0"], 1,
     '{"command": "rewrite", "error": {"message": "--stages must be at least 1"}, "status": "error"}'),
    (["parse", "adir"], 2,
     '{"command": "parse", "error": {"message": "cannot read adir: Is a directory"}, "status": "error"}'),
    (["parse", "absent.tdo"], 2,
     '{"command": "parse", "error": {"message": "cannot read absent.tdo: No such file or directory"}, '
     '"status": "error"}'),
    (["metrics", "bad.tdo"], 1,
     '{"command": "metrics", "error": {"file": "bad.tdo", "message": "not UTF-8 text: byte 0xff at offset 9"}, '
     '"status": "error"}'),
    (["verify", "a.tdo"], 1,
     '{"command": "verify", "error": {"message": "the following arguments are required: file2"}, '
     '"status": "error"}'),
    (["parse", "a.tdo", "b.tdo"], 1,
     '{"command": "parse", "error": {"message": "unrecognized arguments: b.tdo"}, "status": "error"}'),
    (["frob"], 1,
     '{"command": null, "error": {"message": "argument command: invalid choice: \'frob\' (choose from '
     '\'parse\', \'metrics\', \'emit\', \'rewrite\', \'verify\', \'obstruct\')"}, "status": "error"}'),
], ids=["stages-zero", "directory", "missing-file", "not-utf8", "missing-file2", "extra-argument",
        "unknown-command"])
def test_refusal_line_is_pinned(tmp_path, monkeypatch, argv, code, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "bad.tdo").write_bytes(b"qubits 1\n\xff\xfe\n")
    assert run(argv) == (code, "", line + "\n")


@pytest.mark.parametrize("argv, line", [
    (["metrics", str(FIXTURES / "toffoli-nc.tdo"), "--json"],
     '{"command": "metrics", "payload": {"depth": 12, "gate_count": 16, "n_anc": 0, "n_main": 3, '
     '"t_count": 7, "t_depth_as_written": 6, "t_depth_scheduled": 5}, "status": "ok"}'),
    (["emit", "toffoli-tdepth1", "--json"],
     '{"command": "emit", "payload": {"metrics": {"depth": 7, "gate_count": 25, "n_anc": 4, "n_main": 3, '
     '"t_count": 7, "t_depth_as_written": 1, "t_depth_scheduled": 1}, "n_anc": 4, "n_main": 3, '
     '"name": "toffoli-tdepth1"}, "status": "ok"}'),
], ids=["metrics", "emit"])
def test_metrics_report_line_is_pinned(argv, line):
    code, _, err = run(argv)
    assert (code, err) == (0, line + "\n")


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["emit", "--help"])
    assert exit_.value.code == 0
    assert "toffoli-nc, toffoli-nc4," in capsys.readouterr().out


def test_parse_echoes_canonical_text(tmp_path):
    noisy = tmp_path / "noisy.tdo"
    noisy.write_text("qubits 2\n# c\ncx  0   1\n")
    code, out, _ = run(["parse", str(noisy)])
    assert code == 0
    assert out == "qubits 2\ncx 0 1\n"


def test_emit_is_parseable_and_reports_metrics():
    code, out, err = run(["emit", "toffoli-tdepth1", "--json"])
    assert code == 0
    assert parse(out) == toffoli_tdepth1()
    payload = report_of(err)["payload"]
    assert payload["metrics"]["depth"] == 7


def test_emit_multi_controlled_x():
    code, out, _ = run(["emit", "multi-controlled-x", "--controls", "5"])
    assert code == 0
    assert parse(out) == multi_controlled_x(5)


# sha256 of `tdo emit` stdout, pinned before the construction registry
# replaced the name checks and the dispatch chain; every name appears with
# and without --no-ancilla, which six names ignore.
EMIT_SHA256 = {
    "toffoli-nc":
        "2071290cc78c299da4d27463482b21e3d65e3f3359d3f3f9172504b9ce17a773",
    "toffoli-nc --no-ancilla":
        "2071290cc78c299da4d27463482b21e3d65e3f3359d3f3f9172504b9ce17a773",
    "toffoli-nc4":
        "f3db24748fdc7b691f9073b9543467d5484832a28e091339f2eb7721b52f430b",
    "toffoli-nc4 --no-ancilla":
        "f3db24748fdc7b691f9073b9543467d5484832a28e091339f2eb7721b52f430b",
    "toffoli-ammr":
        "09600ae9739b1a0c720133147d346993b315db3b60a185a4493c25356765369a",
    "toffoli-ammr --no-ancilla":
        "09600ae9739b1a0c720133147d346993b315db3b60a185a4493c25356765369a",
    "ccz-tdepth1":
        "1c625f81ed11032ac5d0c839c8ce24fe4174dc4fa79cb37e317dfc02692bc985",
    "ccz-tdepth1 --no-ancilla":
        "1c625f81ed11032ac5d0c839c8ce24fe4174dc4fa79cb37e317dfc02692bc985",
    "toffoli-tdepth1":
        "d985e6b869f4727f221838daa80fdf7b3176871c5c9de74f89fd00ebf4a5319f",
    "toffoli-tdepth1 --no-ancilla":
        "d985e6b869f4727f221838daa80fdf7b3176871c5c9de74f89fd00ebf4a5319f",
    "cc-minus-iz":
        "abf0e9f3673b41d00de0210ef929b5e71558e6ed265dad7eda8fd46cbe2f9dc5",
    "cc-minus-iz --no-ancilla":
        "6f0193c7938d41c510656e58dda228022094b7afea00d656f3821c78df98e1f4",
    "cc-minus-iz-noanc":
        "6f0193c7938d41c510656e58dda228022094b7afea00d656f3821c78df98e1f4",
    "cc-minus-iz-noanc --no-ancilla":
        "6f0193c7938d41c510656e58dda228022094b7afea00d656f3821c78df98e1f4",
    "cc-minus-ix":
        "ae60181b6c76f7e9f19dea855e852adcb72adb7d02258a0b50eb9f75d0835261",
    "cc-minus-ix --no-ancilla":
        "13e12ef78ec6f0f2d846957a254bbfce3b3087eb8be1b43c3d4ac9cd7e30e139",
    "add-control":
        "c26c15a6c5338ca1ecf6f8c29e0da34e932a7beed222be1bb54674a549fb2c6a",
    "add-control --no-ancilla":
        "9d86d69d47e21d02beae78c5f006afec7ffd2088eaa6fa4aafa5bd8ffa7c43ae",
    "controlled-t":
        "ab568779b4817ab8ed4ba853a8a3eb8d6e950e1c7323e2551c51b5436c11967e",
    "controlled-t --no-ancilla":
        "417d9884fb4a39daebd7a50be4ddf34d1f9f094d4224c387e7e3cf69f226e5ec",
    "multi-controlled-x --controls 1":
        "60aca67c0825047c0952c09eaa4e7d12590c4da8e64f39d5ac5352fe97f77c16",
    "multi-controlled-x --controls 1 --no-ancilla":
        "60aca67c0825047c0952c09eaa4e7d12590c4da8e64f39d5ac5352fe97f77c16",
    "multi-controlled-x --controls 2":
        "d985e6b869f4727f221838daa80fdf7b3176871c5c9de74f89fd00ebf4a5319f",
    "multi-controlled-x --controls 2 --no-ancilla":
        "d985e6b869f4727f221838daa80fdf7b3176871c5c9de74f89fd00ebf4a5319f",
    "multi-controlled-x --controls 3":
        "98a0311f32e1a3375e6f4eb421c9537015540dd10f576e0bc33434c0ca3ecdfb",
    "multi-controlled-x --controls 3 --no-ancilla":
        "9ff92b245dca1f1997b4ad955db4da1bcd58653f46bfa589287c7be7f9d69040",
    "multi-controlled-x --controls 4":
        "dc325afba4ad167444186c81630d3292f1b61a998537a6fa2d33f16e748228a3",
    "multi-controlled-x --controls 4 --no-ancilla":
        "4cbcbb73b1d9caf0af50bbe3dd86cca84809d464645402b7211e21e8b5c00656",
    "multi-controlled-x --controls 5":
        "2eb76aef01d6c746693fdef64ed99f9edccce6120ebb83df2d6d9904d96afcd1",
    "multi-controlled-x --controls 5 --no-ancilla":
        "89eaf4c8355832386793e5f22e7fc2fa53c14825a87e7cbc4e9ab618afea585d",
    "multi-controlled-x --controls 6":
        "c3c5ed67dbaf64e83be6ee75ee71938e01a4f4f0198c1e6d351704d816194a33",
    "multi-controlled-x --controls 6 --no-ancilla":
        "0c6a312de742bd8a77e2c3edf9ebbcf3c651ad4f105695252a55f352c42acd6b",
}


@pytest.mark.parametrize("argv", sorted(EMIT_SHA256))
def test_emit_stdout_is_pinned(argv):
    code, out, _ = run(["emit", *argv.split()])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_SHA256[argv]


def test_emit_unknown_name_exits_1():
    code, _, err = run(["emit", "nosuch"])
    assert code == 1
    assert "unknown construction" in report_of(err)["error"]["message"]


def test_emit_missing_controls_exits_1():
    code, _, _ = run(["emit", "multi-controlled-x"])
    assert code == 1


def test_rewrite_core(tmp_path):
    core = tmp_path / "core.tdo"
    source = (FIXTURES / "toffoli-nc.tdo").read_text()
    stripped = "\n".join(line for line in source.splitlines() if not line.startswith("h ")) + "\n"
    core.write_text(stripped)
    code, out, err = run(["rewrite", str(core)])
    assert code == 0
    payload = report_of(err)["payload"]
    assert payload == {"stages": 1, "ancillas_added": 7, "t_depth": 1}
    rewritten = parse(out)
    assert rewritten.n_anc == 7

    code, _, err = run(["rewrite", str(core), "--stages", "2"])
    payload = report_of(err)["payload"]
    assert payload["ancillas_added"] == 4
    assert payload["t_depth"] <= 2


def test_rewrite_hadamard_exits_1(tmp_path):
    f = tmp_path / "h.tdo"
    f.write_text("qubits 1\nh 0\n")
    code, _, err = run(["rewrite", str(f)])
    assert code == 1
    assert report_of(err)["error"]["position"] == 0


def test_verify_constructions(tmp_path):
    a = tmp_path / "a.tdo"
    b = tmp_path / "b.tdo"
    _, text_a, _ = run(["emit", "cc-minus-iz"])
    _, text_b, _ = run(["emit", "cc-minus-iz-noanc"])
    a.write_text(text_a)
    b.write_text(text_b)
    code, out, _ = run(["verify", str(a), str(b)])
    assert code == 0
    assert json.loads(out) == {"equivalent": True}


def test_verify_toffoli_against_primitive(tmp_path):
    a = tmp_path / "a.tdo"
    b = tmp_path / "b.tdo"
    _, text_a, _ = run(["emit", "toffoli-tdepth1"])
    a.write_text(text_a)
    b.write_text("qubits 3\nccx 0 1 2\n")
    code, out, _ = run(["verify", str(a), str(b)])
    assert code == 0 and json.loads(out)["equivalent"] is True


def test_verify_distinguishes_t_from_tdg(tmp_path):
    a = tmp_path / "t.tdo"
    b = tmp_path / "tdg.tdo"
    a.write_text("qubits 1\nt 0\n")
    b.write_text("qubits 1\ntdg 0\n")
    code, out, _ = run(["verify", str(a), str(b)])
    assert code == 0 and json.loads(out)["equivalent"] is False


def test_verify_global_phase_reporting(tmp_path):
    a = tmp_path / "a.tdo"
    b = tmp_path / "b.tdo"
    a.write_text("qubits 1\nx 0\ns 0\nx 0\ns 0\n")
    b.write_text("qubits 1\n")
    code, out, _ = run(["verify", str(a), str(b), "--up-to-global-phase"])
    assert code == 0
    assert json.loads(out) == {"equivalent": True, "phase": "w^2"}


def test_verify_contract_violation_exits_1(tmp_path):
    a = tmp_path / "a.tdo"
    b = tmp_path / "b.tdo"
    a.write_text("qubits 1\nancillas 1\ncx 0 1\n")
    b.write_text("qubits 1\n")
    code, _, err = run(["verify", str(a), str(b)])
    assert code == 1
    assert report_of(err)["error"]["basis_input"] == 1


def test_verify_of_different_main_registers_exits_1(tmp_path):
    one = tmp_path / "one.tdo"
    two = tmp_path / "two.tdo"
    one.write_text("qubits 1\n")
    two.write_text("qubits 2\n")
    code, out, err = run(["verify", str(one), str(two)])
    assert (code, out) == (1, "")
    assert report_of(err) == {
        "command": "verify",
        "error": {"message": "circuits act on different main registers"},
        "status": "error",
    }


def test_verify_too_wide_exits_1(tmp_path, monkeypatch):
    monkeypatch.delenv("TDO_MAX_QUBITS", raising=False)
    wide = tmp_path / "wide.tdo"
    wide.write_text("qubits 16\n")
    code, out, err = run(["verify", str(wide), str(wide)])
    assert code == 1
    assert out == ""
    assert "cap" in report_of(err)["error"]["message"]


def test_verify_non_integer_width_cap_exits_1(tmp_path, monkeypatch):
    one = tmp_path / "one.tdo"
    one.write_text("qubits 1\nt 0\n")
    monkeypatch.setenv("TDO_MAX_QUBITS", "twelve")
    code, out, err = run(["verify", str(one), str(one)])
    assert code == 1
    assert out == ""
    assert "TDO_MAX_QUBITS" in report_of(err)["error"]["message"]


@pytest.mark.parametrize("cap", ["\u0661", " 1_0 "])
@pytest.mark.parametrize("command", ["parse", "metrics", "emit", "rewrite", "verify", "obstruct"])
def test_width_cap_must_be_ascii_digits(tmp_path, monkeypatch, command, cap):
    # int() reads '\u0661' (Arabic-Indic one) as 1 and ' 1_0 ' as 10. The
    # cap is checked before any file is read, so the absent file is not an
    # exit-2 read error.
    absent = str(tmp_path / "absent.tdo")
    argv = {
        "parse": ["parse", absent],
        "metrics": ["metrics", absent],
        "emit": ["emit", "toffoli-nc"],
        "rewrite": ["rewrite", absent],
        "verify": ["verify", absent, absent],
        "obstruct": ["obstruct", "--builtin", "tht"],
    }[command]
    monkeypatch.setenv("TDO_MAX_QUBITS", cap)
    code, out, err = run(argv)
    assert code == 1
    assert out == ""
    assert "TDO_MAX_QUBITS" in report_of(err)["error"]["message"]


@pytest.fixture
def int_digit_limit():
    """Python's default int-string limit of 4300 digits, restored after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("source, line, column, digits", [
    ("qubits " + "9" * 5000 + "\n", 1, 8, 5000),
    ("qubits 2\ncx 0 " + "1" * 4400 + "\n", 2, 6, 4400),
    # Accepted, this width would give the new ancilla a 4301-digit index.
    ("qubits " + "9" * 4300 + "\nancillas 1\nt 0\n", 1, 8, 4300),
], ids=["width", "wire", "ancilla-index"])
@pytest.mark.parametrize("command", ["parse", "metrics", "rewrite"])
def test_overlong_integer_in_file_exits_1(tmp_path, int_digit_limit, command, source, line, column, digits):
    path = tmp_path / "long.tdo"
    path.write_text(source)
    code, out, err = run([command, str(path)])
    assert (code, out) == (1, "")
    error = report_of(err)["error"]
    assert (error["line"], error["column"]) == (line, column)
    assert error["message"] == f"integer has {digits} digits, more than the 4299 allowed"


def test_longest_integer_still_prints_its_ancilla_index(tmp_path, int_digit_limit):
    path = tmp_path / "long.tdo"
    path.write_text("qubits " + "9" * 4299 + "\nancillas 1\nt 0\n")
    code, out, err = run(["rewrite", str(path)])
    assert code == 0
    assert report_of(err)["payload"]["ancillas_added"] == 1
    # The pool ancilla sits at the 4300-digit index 10^4299.
    assert f"\nt {10 ** 4299}\n" in out


def test_no_int_digit_limit_reads_any_length(tmp_path, int_digit_limit):
    sys.set_int_max_str_digits(0)
    path = tmp_path / "long.tdo"
    path.write_text("qubits " + "9" * 5000 + "\n")
    code, out, _ = run(["parse", str(path)])
    assert (code, out) == (0, "qubits " + "9" * 5000 + "\n")


def test_overlong_width_cap_exits_1(tmp_path, monkeypatch, int_digit_limit):
    # A cap past the ceiling bounds neither time nor memory; every such cap
    # is refused before any file is read.
    for value, message in [
        ("9" * 5000, "TDO_MAX_QUBITS has 5000 digits, more than the 4299 allowed"),
        ("40", "TDO_MAX_QUBITS must be at most 26, got 40"),
    ]:
        monkeypatch.setenv("TDO_MAX_QUBITS", value)
        code, out, err = run(["parse", str(tmp_path / "absent.tdo")])
        assert (code, out) == (1, "")
        assert report_of(err)["error"]["message"] == message


def test_overlong_stage_count_exits_1(int_digit_limit):
    code, out, err = run(["rewrite", str(FIXTURES / "toffoli-nc.tdo"), "--stages", "9" * 5000])
    assert (code, out) == (1, "")
    message = report_of(err)["error"]["message"]
    assert message == "argument --stages: has 5000 digits, more than the 4299 allowed"


def test_overlong_control_count_exits_1(int_digit_limit):
    code, out, err = run(["emit", "multi-controlled-x", "--controls", "9" * 5000])
    assert (code, out) == (1, "")
    message = report_of(err)["error"]["message"]
    assert message == "argument --controls: has 5000 digits, more than the 4299 allowed"


@pytest.mark.parametrize("name", ["controlled-t", "add-control"])
def test_emit_reports_width_cap_hit(monkeypatch, name):
    # These builders check their inner circuit by simulating it.
    monkeypatch.setenv("TDO_MAX_QUBITS", "0")
    code, out, err = run(["emit", name])
    assert (code, out) == (1, "")
    report = report_of(err)
    assert (report["command"], report["status"]) == ("emit", "error")
    assert "cap" in report["error"]["message"]


def test_verify_bounds_touched_ancilla_support(tmp_path):
    # Main width 1 is under the cap; 40 h gates on touched ancillas would
    # need 2^40 amplitudes.
    path = tmp_path / "wide-support.tdo"
    path.write_text("qubits 1\nancillas 40\n" + "".join(f"h {q}\n" for q in range(1, 41)))
    code, out, err = run_limited(["verify", str(path), str(path)])
    assert (code, out) == (1, ""), err
    assert "cap" in report_of(err)["error"]["message"]


def test_verify_out_of_memory_is_one_line(tmp_path, monkeypatch):
    # Under the highest cap, the bit-sliced run of 2^26 lanes cannot
    # allocate in 256 MiB.
    path = tmp_path / "wide.tdo"
    path.write_text("qubits 26\ncx 0 1\n")
    monkeypatch.setenv("TDO_MAX_QUBITS", "26")
    code, out, err = run_limited(["verify", str(path), str(path)], address_space=1 << 28)
    assert (code, out) == (1, ""), err
    assert len(err.splitlines()) == 1
    report = report_of(err)
    assert (report["command"], report["status"]) == ("verify", "error")
    assert report["error"] == {"message": "out of memory"}


def test_width_cap_ceiling_is_accepted(monkeypatch):
    monkeypatch.setenv("TDO_MAX_QUBITS", "26")
    code, out, _ = run(["verify", str(FIXTURES / "toffoli-nc.tdo"), str(FIXTURES / "toffoli-nc.tdo")])
    assert (code, out) == (0, '{"equivalent": true}\n')


def test_verify_holds_one_column_per_circuit(tmp_path):
    # Every column of h on all ten wires has full support: all 1024 columns
    # of both circuits at once do not fit in 256 MiB, one of each does.
    path = tmp_path / "all-h.tdo"
    path.write_text("qubits 10\n" + "".join(f"h {q}\n" for q in range(10)))
    code, out, err = run_limited(["verify", str(path), str(path)], address_space=1 << 28)
    assert (code, out) == (0, '{"equivalent": true}\n'), err


def test_verify_compiles_long_files_over_touched_wires(tmp_path):
    # 80000 cx on 40000 ancillas: one width-sized mask per gate qubit would
    # not fit in 256 MiB; one bit per touched wire, shared by its gates, does.
    n = 40000
    fans = [f"cx 0 {i}\n" for i in range(1, n + 1)]
    path = tmp_path / "restoring.tdo"
    path.write_text(f"qubits 1\nancillas {n}\nh 0\n" + "".join(fans + fans[::-1]) + "h 0\n")
    identity = tmp_path / "identity.tdo"
    identity.write_text("qubits 1\n")
    code, out, err = run_limited(["verify", str(path), str(identity)], address_space=1 << 28)
    assert (code, out) == (0, '{"equivalent": true}\n'), err


def test_domain_errors_share_one_base():
    # The CLI reports each of these as exit 1 through one handler; the ones
    # that were ValueErrors stay ValueErrors for Python callers.
    plain = [SourceError, NotAlmostClassical, AncillaContractViolated, NotAControlledCircuit]
    value_errors = [TooWide, WidthMismatch, UnknownConstruction, BadParams, BadWidthCap]
    for cls in plain + value_errors:
        assert issubclass(cls, tdo.DomainError), cls
    for cls in value_errors:
        assert issubclass(cls, ValueError), cls
    with pytest.raises(tdo.DomainError) as raised:
        obstruction_verdict(Circuit(2))
    assert isinstance(raised.value, ValueError)


def test_obstruct_builtin_tht():
    code, out, _ = run(["obstruct", "--builtin", "tht"])
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "no-tdepth1-possible"
    assert payload["e_zero"] == "0 + 1/2^1*sqrt2"
    assert payload["e_plus"] == "1/2^1 + 0*sqrt2"


def test_obstruct_file_variants(tmp_path):
    t = tmp_path / "t.tdo"
    t.write_text("qubits 1\nt 0\n")
    code, out, _ = run(["obstruct", str(t)])
    assert code == 0 and json.loads(out)["conclusion"] == "inconclusive"

    h = tmp_path / "h.tdo"
    h.write_text("qubits 1\nh 0\n")
    code, out, _ = run(["obstruct", str(h)])
    assert code == 0 and json.loads(out)["conclusion"] == "inapplicable-e-plus-zero"


def test_obstruct_too_wide_exits_1(tmp_path):
    f = tmp_path / "wide.tdo"
    f.write_text("qubits 1\nancillas 12\n")
    code, _, err = run(["obstruct", str(f)])
    assert code == 1
    assert "cap" in report_of(err)["error"]["message"]


@pytest.mark.parametrize("head, tail, e_zero", [
    ("", "", "0 + 0*sqrt2"),
    ("h 1\n", "h 0\n", "1 + 0*sqrt2"),
])
def test_obstruct_keeps_sparse_states_sparse(tmp_path, monkeypatch, head, tail, e_zero):
    # A cx chain over 24 wires at a cap of 24: the states have 2 or 4
    # amplitudes, so they must not cost the 2^24 fields of a dense layout.
    f = tmp_path / "chain.tdo"
    cx = "".join(f"cx {q - 1} {q}\n" for q in range(1 + bool(head), 24))
    f.write_text(f"qubits 1\nancillas 23\n{head}{cx}t 23\n{tail}")
    monkeypatch.setenv("TDO_MAX_QUBITS", "24")
    code, out, err = run_limited(["obstruct", str(f)], 1 << 28)
    assert code == 0, err
    assert json.loads(out) == {
        "conclusion": "inapplicable-e-plus-zero", "e_plus": "0 + 0*sqrt2",
        "e_zero": e_zero, "ratio_rational": None,
    }


def test_width_cap_env_override(tmp_path, monkeypatch):
    f = tmp_path / "wide.tdo"
    f.write_text("qubits 1\nancillas 12\n")
    monkeypatch.setenv("TDO_MAX_QUBITS", "14")
    code, out, _ = run(["obstruct", str(f)])
    assert code == 0
    assert json.loads(out)["conclusion"] == "inconclusive"


def test_byte_identical_reruns():
    first = run(["emit", "multi-controlled-x", "--controls", "3", "--json"])
    second = run(["emit", "multi-controlled-x", "--controls", "3", "--json"])
    assert first == second


# Runs in a fresh interpreter, because this one has loaded every module.
# Modules the interpreter loaded before `import tdo.cli` do not count.
_FOOTPRINT = """
import io, json, sys
before = set(sys.modules)
import tdo
added = {"import": sorted(set(sys.modules) - before)}
import tdo.cli
for argv in json.loads(sys.argv[1]):
    code = tdo.cli.main(argv, io.StringIO(), io.StringIO())
    assert code == 0, argv
    added[argv[0]] = sorted(set(sys.modules) - before)
print(json.dumps(added))
"""


def test_each_command_loads_only_what_it_runs(tmp_path):
    f = tmp_path / "c.tdo"
    f.write_text("qubits 2\nt 0\ncx 0 1\nt 1\n")
    commands = [["parse", str(f)], ["metrics", str(f)],
                ["emit", "multi-controlled-x", "--controls", "3"], ["rewrite", str(f)],
                ["verify", str(f), str(f)], ["obstruct", "--builtin", "tht"]]
    src = str(Path(tdo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    # The commands run in this order, so each list includes the ones before it.
    assert [m for m in added["import"] if m.startswith("tdo")] == ["tdo"]
    simulation = {"tdo.sim", "tdo.packed", "tdo.ring", "tdo.obstruction"}
    for command in ("parse", "metrics", "emit", "rewrite"):
        assert not simulation & set(added[command]), command
    assert "tdo.sim" in added["verify"] and "tdo.obstruction" not in added["verify"]
    assert "tdo.obstruction" in added["obstruct"]
    for command, modules in added.items():
        assert "dataclasses" not in modules, command
