"""Command-line interface: streams, exit codes, and determinism."""

import io
import json

from tdo.cli import main
from tdo.text import emit, parse
from tdo.constructions import multi_controlled_x, toffoli_tdepth1

from conftest import FIXTURES


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
