"""Command-line front end.

Circuit text goes to stdout so commands compose in pipelines; every run
also writes exactly one JSON report line to stderr with the shape
{"command", "status", "payload" | "error"}; "command" is null when the
command line is refused before its subcommand is known. Exit status:
0 success; 1 for every refusal, each a `DomainError` reported as its
message and its own fields (a command line argparse refuses among them),
for running out of memory, and for stdout refusing the command's text
(`cannot write output: <reason>`, say when the reader of a pipe has
exited); 2 only for a file that cannot be read. Output is byte-identical
for identical inputs.

The `tdo` process runs with the cyclic garbage collector off (see
`main_entry`): a command makes no cyclic garbage worth freeing before it
exits, and each collection would walk every gate it holds. For the same
reason `main_entry` freezes the heap once the command has returned: the
interpreter still runs one full collection while it shuts down, which
would walk every object the process is about to drop.

Each command loads only the modules it runs, on first use: `emit` imports
`tdo.constructions`, `rewrite` imports `tdo.rewriter`, `verify` and the
simulating `emit`s (`add-control`, `controlled-t`) import `tdo.sim` and its
`tdo.packed` kernel but no ring, `obstruct` imports `tdo.obstruction`,
which brings in `tdo.sim` and `tdo.ring`, and `parse` and `metrics` load
none of these.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys

from .circuit import (
    Circuit, DomainError, Gate, decimal_too_long, is_ascii_decimal, metrics, t_count, width_cap,
)
# No command calls it; the name stays bound because perfbench/tracing.py
# wraps tdo.cli.t_depth_scheduled.
from .circuit import t_depth_scheduled  # noqa: F401
from .text import SourceError, emit, parse

_BUILTIN_CIRCUITS = {
    "tht": Circuit(1, 0, (Gate("t", (0,)), Gate("h", (0,)), Gate("t", (0,)))),
}


# Entry points into the layers that emit, rewrite, verify and obstruct load
# on first call. They stay names of this module, where perfbench/tracing.py
# wraps them.
def build(name: str, *, controls: int | None = None, use_ancilla: bool = True) -> Circuit:
    from .constructions import build

    return build(name, controls=controls, use_ancilla=use_ancilla)


def rewrite_budgeted(c: Circuit, stages: int) -> Circuit:
    from .rewriter import rewrite_budgeted

    return rewrite_budgeted(c, stages)


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

    # The `emit` parser's NAME argument, whose help lists the constructions.
    construction_name: argparse.Action | None = None

    def error(self, message: str):
        raise _UsageError(message)

    def format_help(self) -> str:
        # Filled in here, not when the parser is built, so that only a
        # command line asking for help loads the construction library.
        if self.construction_name is not None:
            from .constructions import CONSTRUCTIONS

            self.construction_name.help = ", ".join(CONSTRUCTIONS)
        return super().format_help()


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
    from .rewriter import segment_count

    out = rewrite_budgeted(c, args.stages)
    payload = {
        "stages": args.stages,
        "ancillas_added": out.n_anc - c.n_anc,
        "t_depth": segment_count(t_count(c), args.stages),
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
    p.construction_name = p.add_argument("name", metavar="NAME")
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
    try:
        if text is not None:
            _write_all(stdout, text)
    except OSError as exc:
        _report(args.command, "error", {"message": f"cannot write output: {exc.strerror}"}, stderr)
        return 1
    _report(args.command, "ok", payload, stderr)
    return 0


def _write_all(stream, text: str) -> None:
    """Write all of `text` to `stream`, or raise OSError.

    A text stream over a file is written below its buffers. Under
    PYTHONUNBUFFERED its binary layer is a raw file, which may take part of
    a write and return the count, and the text layer drops the rest without
    an error; here the rest is written again. Nothing is left buffered after
    a failure, so the flush at exit has nothing to fail on.
    """
    if stream is None:  # Python found file descriptor 1 closed at start-up
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    binary = getattr(stream, "buffer", None)
    if binary is None:
        stream.write(text)
        return
    stream.flush()
    raw = getattr(binary, "raw", binary)
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        written = raw.write(data)
        if written is None:  # a non-blocking file that is full
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        data = data[written:]


def main_entry() -> None:
    # A `Gate` is a tuple subclass, which the cycle collector tracks for
    # good, so each full collection walked every gate of a large rewrite.
    # The commands make almost no cyclic garbage: with the collector off, a
    # whole in-process run of each one (error exits too) left only the 242
    # objects of argparse's parser unreachable. Disabled here, at the
    # process entry, so library callers and in-process tests of `main` keep
    # the collector. Interpreter shutdown still runs one full collection,
    # over everything `site` and the command left alive; frozen objects are
    # outside it, and the process frees its memory when it exits anyway.
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main_entry()
