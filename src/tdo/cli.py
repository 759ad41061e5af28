"""Command-line front end.

Circuit text goes to stdout so commands compose in pipelines; every run
also writes exactly one JSON report line to stderr with the shape
{"command", "status", "payload" | "error"}; "command" is null when the
command line is refused before its subcommand is known. Exit status:
0 success; 1 for every refusal, each a `DomainError` reported as its
message and its own fields (a command line argparse refuses among them),
and for running out of memory; 2 only for a file that cannot be read.
Output is byte-identical for identical inputs.

Each command loads only the modules it runs, on first use: `verify` and
the simulating `emit`s (`add-control`, `controlled-t`) import `tdo.sim` and
its `tdo.packed` kernel but no ring, `obstruct` imports `tdo.obstruction`,
which brings in `tdo.sim` and `tdo.ring`, and the other commands load none.
"""

from __future__ import annotations

import argparse
import json
import sys

from .circuit import (
    Circuit, DomainError, Gate, decimal_too_long, is_ascii_decimal, metrics, t_depth_scheduled, width_cap,
)
from .constructions import CONSTRUCTIONS, build
from .rewriter import rewrite_budgeted
from .text import SourceError, emit, parse

_BUILTIN_CIRCUITS = {
    "tht": Circuit(1, 0, (Gate("t", (0,)), Gate("h", (0,)), Gate("t", (0,)))),
}


# Entry points into the layers that verify and obstruct load on first call.
# They stay names of this module, where perfbench/tracing.py wraps them.
def equivalence_phase(c1: Circuit, c2: Circuit) -> int | None:
    from .sim import equivalence_phase

    return equivalence_phase(c1, c2)


def obstruction_verdict(c: Circuit):
    from .obstruction import obstruction_verdict

    return obstruction_verdict(c)


class _UsageError(DomainError):
    """A command line the parser refuses."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print usage and exit 2."""

    def error(self, message: str):
        raise _UsageError(message)


class _NotUtf8(DomainError):
    """A circuit file whose bytes are not UTF-8 text."""

    def __init__(self, path: str, exc: UnicodeDecodeError) -> None:
        super().__init__(f"not UTF-8 text: byte {exc.object[exc.start]:#04x} at offset {exc.start}")
        self.file = path


def _count(token: str) -> int:
    """A count spelled as in circuit files."""
    if not is_ascii_decimal(token):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {token!r}")
    if too_long := decimal_too_long(token):
        raise argparse.ArgumentTypeError(too_long)
    return int(token)


def _read_circuit(path: str) -> Circuit:
    """Parse a circuit file; an OSError from reading it is main's exit 2."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except UnicodeDecodeError as exc:
        raise _NotUtf8(path, exc) from None
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
    payload = metrics(c)._asdict()
    if args.json:
        text = json.dumps(payload, sort_keys=True) + "\n"
    else:
        text = "".join(f"{key}: {payload[key]}\n" for key in sorted(payload))
    return payload, text


def _cmd_emit(args: argparse.Namespace) -> tuple[dict, str | None]:
    c = build(args.name, controls=args.controls, use_ancilla=not args.no_ancilla)
    payload: dict = {"name": args.name, "n_main": c.n_main, "n_anc": c.n_anc}
    if args.json:
        payload["metrics"] = metrics(c)._asdict()
    return payload, emit(c)


def _cmd_rewrite(args: argparse.Namespace) -> tuple[dict, str | None]:
    c = _read_circuit(args.file)
    if args.stages < 1:
        raise _UsageError("--stages must be at least 1")
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
        "e_zero": str(verdict.e_zero),
        "e_plus": str(verdict.e_plus),
        "ratio_rational": verdict.ratio_rational,
        "conclusion": verdict.conclusion,
    }
    return payload, json.dumps(payload, sort_keys=True) + "\n"


def _parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tdo",
        description="Exact Clifford+T circuit toolkit: metrics, constructions, "
        "single-T-stage rewriting, equivalence, and impossibility certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a circuit file and echo it canonically")
    p.set_defaults(run=_cmd_parse)
    p.add_argument("file")

    p = sub.add_parser("metrics", help="T-count, T-depths, depth, and sizes")
    p.set_defaults(run=_cmd_metrics)
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="print the payload as JSON")

    p = sub.add_parser("emit", help="print a library construction")
    p.set_defaults(run=_cmd_emit)
    p.add_argument("name", metavar="NAME", help=", ".join(CONSTRUCTIONS))
    p.add_argument("--controls", type=_count, default=None, help="control count for multi-controlled-x")
    p.add_argument("--no-ancilla", action="store_true", help="choose the ancilla-free variant")
    p.add_argument("--json", action="store_true", help="include metrics in the report")

    p = sub.add_parser("rewrite", help="compress all T stages using ancillas")
    p.set_defaults(run=_cmd_rewrite)
    p.add_argument("file")
    p.add_argument("--stages", type=_count, default=1, help="T-stage budget (default 1)")

    p = sub.add_parser("verify", help="exact equivalence of two circuits")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--up-to-global-phase", action="store_true")

    p = sub.add_parser("obstruct", help="rationality certificate against one T stage")
    p.set_defaults(run=_cmd_obstruct)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("file", nargs="?")
    group.add_argument("--builtin", choices=sorted(_BUILTIN_CIRCUITS))
    return parser


def _report(command: str | None, status: str, body: dict, stream) -> None:
    key = "payload" if status == "ok" else "error"
    report = {"command": command, "status": status, key: body}
    print(json.dumps(report, sort_keys=True), file=stream)


def main(argv: list[str] | None = None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    # argparse names the subcommand here before it parses that command's own
    # arguments, so a refused subcommand line still reports its command.
    args = argparse.Namespace(command=None)
    try:
        _parser().parse_args(argv, args)
        width_cap()  # a bad TDO_MAX_QUBITS fails every command, before any file is read
        payload, text = args.run(args)
    except DomainError as exc:
        _report(args.command, "error", {"message": str(exc), **vars(exc)}, stderr)
        return 1
    except MemoryError:
        _report(args.command, "error", {"message": "out of memory"}, stderr)
        return 1
    except OSError as exc:
        _report(args.command, "error", {"message": f"cannot read {exc.filename}: {exc.strerror}"}, stderr)
        return 2
    if text is not None:
        stdout.write(text)
    _report(args.command, "ok", payload, stderr)
    return 0


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
