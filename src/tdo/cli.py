"""Command-line front end.

Circuit text goes to stdout so commands compose in pipelines; every run
also writes exactly one JSON report line to stderr with the shape
{"command", "status", "payload" | "error"}; "command" is null when the
command line is refused before its subcommand is known. Exit status:
0 success, 1 domain error (any `DomainError`, reported as its message and
its own fields, a command line argparse refuses, or running out of
memory), 2 I/O error. Output
is byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .circuit import Circuit, DomainError, Gate, is_ascii_decimal, metrics, t_depth_scheduled
from .constructions import CONSTRUCTIONS, build
from .obstruction import obstruction_verdict
from .rewriter import rewrite_budgeted
from .ring import render_real
from .sim import equivalence_phase, width_cap
from .text import SourceError, emit, parse

_BUILTIN_CIRCUITS = {
    "tht": Circuit(1, 0, (Gate("t", (0,)), Gate("h", (0,)), Gate("t", (0,)))),
}


class _UsageError(Exception):
    """A command line the parser refuses, for the subcommand it reached."""

    def __init__(self, command: str | None, message: str) -> None:
        super().__init__(message)
        self.command = command


class _ArgumentParser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print usage and exit 2."""

    subcommand: str | None = None

    def error(self, message: str):
        raise _UsageError(self.subcommand, message)


def _count(token: str) -> int:
    """A count spelled as in circuit files."""
    if not is_ascii_decimal(token):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {token!r}")
    return int(token)


class _CliFailure(Exception):
    """A failure the CLI finds itself: an unreadable or non-UTF-8 file, --stages 0."""

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
        exc.file = path  # reported with the exception's other fields
        raise


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
    c = build(args.name, controls=args.controls, use_ancilla=not args.no_ancilla)
    payload: dict = {"name": args.name, "n_main": c.n_main, "n_anc": c.n_anc}
    if args.json:
        payload["metrics"] = asdict(metrics(c))
    return payload, emit(c)


def _cmd_rewrite(args: argparse.Namespace) -> tuple[dict, str | None]:
    c = _read_circuit(args.file)
    if args.stages < 1:
        raise _CliFailure(1, {"message": "--stages must be at least 1"})
    out = rewrite_budgeted(c, args.stages)
    payload = {
        "stages": args.stages,
        "ancillas_added": out.n_anc - c.n_anc,
        "t_depth": t_depth_scheduled(out),
    }
    return payload, emit(out)


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, str | None]:
    c1 = _read_circuit(args.file1)
    c2 = _read_circuit(args.file2)
    phase = equivalence_phase(c1, c2)
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
    verdict = obstruction_verdict(c)
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
    parser = _ArgumentParser(
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
    p.add_argument("name", metavar="NAME", help=", ".join(CONSTRUCTIONS))
    p.add_argument("--controls", type=_count, default=None, help="control count for multi-controlled-x")
    p.add_argument("--no-ancilla", action="store_true", help="choose the ancilla-free variant")
    p.add_argument("--json", action="store_true", help="include metrics in the report")

    p = sub.add_parser("rewrite", help="compress all T stages using ancillas")
    p.add_argument("file")
    p.add_argument("--stages", type=_count, default=1, help="T-stage budget (default 1)")

    p = sub.add_parser("verify", help="exact equivalence of two circuits")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--up-to-global-phase", action="store_true")

    p = sub.add_parser("obstruct", help="rationality certificate against one T stage")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("file", nargs="?")
    group.add_argument("--builtin", choices=sorted(_BUILTIN_CIRCUITS))
    for name, subparser in sub.choices.items():
        subparser.subcommand = name
    return parser


def _report(command: str | None, status: str, body: dict, stream) -> None:
    key = "payload" if status == "ok" else "error"
    report = {"command": command, "status": status, key: body}
    print(json.dumps(report, sort_keys=True), file=stream)


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:
            raise _UsageError(args.command, f"unrecognized arguments: {' '.join(extra)}")
    except _UsageError as exc:
        _report(exc.command, "error", {"message": str(exc)}, stderr)
        return 1
    try:
        width_cap()  # a bad TDO_MAX_QUBITS fails every command, before any file is read
        payload, text = _COMMANDS[args.command](args)
    except DomainError as exc:
        _report(args.command, "error", {"message": str(exc), **vars(exc)}, stderr)
        return 1
    except MemoryError:
        _report(args.command, "error", {"message": "out of memory"}, stderr)
        return 1
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
