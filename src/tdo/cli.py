"""Command-line front end.

Circuit text goes to stdout so commands compose in pipelines; every run
also writes exactly one JSON report line to stderr with the shape
{"command", "status", "payload" | "error"}. Exit status: 0 success,
1 domain error (parse failure, unknown construction, failed contract),
2 I/O error. Output is byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .circuit import Circuit, Gate, metrics, t_depth_scheduled
from .constructions import (
    CONSTRUCTION_NAMES,
    BadParams,
    ConstructionId,
    UnknownConstruction,
    build,
)
from .obstruction import obstruction_verdict
from .rewriter import NotAlmostClassical, rewrite_budgeted
from .ring import render_real
from .sim import AncillaContractViolated, TooWide, equivalence_phase
from .text import SourceError, emit, parse

_BUILTIN_CIRCUITS = {
    "tht": Circuit(1, 0, (Gate("t", (0,)), Gate("h", (0,)), Gate("t", (0,)))),
}


class _CliFailure(Exception):
    def __init__(self, code: int, error: dict) -> None:
        super().__init__(error.get("message", ""))
        self.code = code
        self.error = error


def _read_circuit(path: str) -> Circuit:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise _CliFailure(2, {"message": f"cannot read {path}: {exc.strerror}"})
    except UnicodeDecodeError as exc:
        raise _CliFailure(
            1,
            {
                "message": f"not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                f"at offset {exc.start}",
                "file": path,
            },
        )
    try:
        return parse(source)
    except SourceError as exc:
        raise _CliFailure(
            1,
            {
                "message": exc.message,
                "file": path,
                "line": exc.line,
                "column": exc.column,
            },
        )


def _cmd_parse(args: argparse.Namespace) -> tuple[dict, str | None]:
    c = _read_circuit(args.file)
    payload = {"n_main": c.n_main, "n_anc": c.n_anc, "gates": len(c.gates)}
    return payload, emit(c)


def _cmd_metrics(args: argparse.Namespace) -> tuple[dict, str | None]:
    c = _read_circuit(args.file)
    payload = asdict(metrics(c))
    if args.json:
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        text = "".join(f"{key}: {payload[key]}\n" for key in sorted(payload))
    return payload, text


def _cmd_emit(args: argparse.Namespace) -> tuple[dict, str | None]:
    try:
        cid = ConstructionId(
            args.name,
            controls=args.controls,
            use_ancilla=not args.no_ancilla,
        )
        c = build(cid)
    except (UnknownConstruction, BadParams) as exc:
        raise _CliFailure(1, {"message": str(exc)})
    payload: dict = {"name": args.name, "n_main": c.n_main, "n_anc": c.n_anc}
    if args.json:
        payload["metrics"] = asdict(metrics(c))
    return payload, emit(c)


def _cmd_rewrite(args: argparse.Namespace) -> tuple[dict, str | None]:
    c = _read_circuit(args.file)
    if args.stages < 1:
        raise _CliFailure(1, {"message": "--stages must be at least 1"})
    try:
        out = rewrite_budgeted(c, args.stages)
    except NotAlmostClassical as exc:
        raise _CliFailure(
            1, {"message": str(exc), "position": exc.position, "kind": exc.kind}
        )
    payload = {
        "stages": args.stages,
        "ancillas_added": out.n_anc - c.n_anc,
        "t_depth": t_depth_scheduled(out),
    }
    return payload, emit(out)


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, str | None]:
    c1 = _read_circuit(args.file1)
    c2 = _read_circuit(args.file2)
    try:
        phase = equivalence_phase(c1, c2)
    except ValueError as exc:
        # WidthMismatch, TooWide and a non-integer TDO_MAX_QUBITS.
        raise _CliFailure(1, {"message": str(exc)})
    except AncillaContractViolated as exc:
        raise _CliFailure(1, {"message": str(exc), "basis_input": exc.basis_input})
    if args.up_to_global_phase:
        payload: dict = {"equivalent": phase is not None}
        if phase is not None:
            payload["phase"] = f"w^{phase}"
    else:
        payload = {"equivalent": phase == 0}
    return payload, json.dumps(payload, sort_keys=True) + "\n"


def _cmd_obstruct(args: argparse.Namespace) -> tuple[dict, str | None]:
    if args.builtin is not None:
        c = _BUILTIN_CIRCUITS[args.builtin]
    else:
        c = _read_circuit(args.file)
    try:
        verdict = obstruction_verdict(c)
    except (TooWide, ValueError) as exc:
        raise _CliFailure(1, {"message": str(exc)})
    payload = {
        "e_zero": render_real(verdict.e_zero),
        "e_plus": render_real(verdict.e_plus),
        "ratio_rational": verdict.ratio_rational,
        "conclusion": verdict.conclusion,
    }
    return payload, json.dumps(payload, sort_keys=True) + "\n"


_COMMANDS = {
    "parse": _cmd_parse,
    "metrics": _cmd_metrics,
    "emit": _cmd_emit,
    "rewrite": _cmd_rewrite,
    "verify": _cmd_verify,
    "obstruct": _cmd_obstruct,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdo",
        description="Exact Clifford+T circuit toolkit: metrics, constructions, "
        "single-T-stage rewriting, equivalence, and impossibility certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a circuit file and echo it canonically")
    p.add_argument("file")

    p = sub.add_parser("metrics", help="T-count, T-depths, depth, and sizes")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="print the payload as JSON")

    p = sub.add_parser("emit", help="print a library construction")
    p.add_argument("name", metavar="NAME", help=", ".join(CONSTRUCTION_NAMES))
    p.add_argument("--controls", type=int, default=None, help="control count for multi-controlled-x")
    p.add_argument("--no-ancilla", action="store_true", help="choose the ancilla-free variant")
    p.add_argument("--json", action="store_true", help="include metrics in the report")

    p = sub.add_parser("rewrite", help="compress all T stages using ancillas")
    p.add_argument("file")
    p.add_argument("--stages", type=int, default=1, help="T-stage budget (default 1)")

    p = sub.add_parser("verify", help="exact equivalence of two circuits")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--up-to-global-phase", action="store_true")

    p = sub.add_parser("obstruct", help="rationality certificate against one T stage")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("file", nargs="?")
    group.add_argument("--builtin", choices=sorted(_BUILTIN_CIRCUITS))
    return parser


def _report(command: str, status: str, body: dict, stream) -> None:
    key = "payload" if status == "ok" else "error"
    report = {"command": command, "status": status, key: body}
    print(json.dumps(report, sort_keys=True), file=stream)


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    args = _parser().parse_args(argv)
    try:
        payload, text = _COMMANDS[args.command](args)
    except _CliFailure as failure:
        _report(args.command, "error", failure.error, stderr)
        return failure.code
    if text is not None:
        stdout.write(text)
    _report(args.command, "ok", payload, stderr)
    return 0


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
