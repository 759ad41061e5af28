"""The four benchmark workloads: seeded inputs, CLI pipelines, answer checks.

One op is one CLI pipeline: a short list of `tdo` invocations, each run as
its own process, whose stdout may feed a file that the next one reads.
Every op carries a check against an oracle from `oracles.py` and the
span calls it causes on the seed code (see `tracing.py`); the harness
self-check compares those on smoke-sized inputs, so that a layer that is
no longer entered shows up there instead of reading zero.

Inputs depend only on the workload name and the seed. One round runs the
workload's op list once; every round replays the same inputs, so outputs
and work counters are the same in every round of a seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles
from oracles import require

# Stats about a circuit an op printed: gates, t_depth, ancillas.
OutStats = dict[str, int]


@dataclass
class Op:
    """One CLI pipeline of a round.

    ``steps`` are `tdo` argument lists; ``to_file[i]``, when set, receives
    the stdout of step i. ``check`` gets every step's stdout text and
    stderr report, raises CheckFailed on a wrong answer, and returns
    stats for the circuits the op printed. ``spans`` are the span calls
    the op makes on the seed code, which `selfcheck.py` asserts.
    """

    label: str
    steps: list[list[str]]
    to_file: list[Path | None]
    check: Callable[[list[str], list[dict]], list[OutStats]]
    spans: dict[str, int]
    prepare: Callable[[], None] | None = None


def _spans(*parts: dict[str, int]) -> dict[str, int]:
    total: dict[str, int] = {}
    for part in parts:
        for name, calls in part.items():
            total[name] = total.get(name, 0) + calls
    return total


def _verify_spans(n_main: int) -> dict[str, int]:
    return {
        "cli.main": 1,
        "text.parse": 2,
        "sim.equivalence_phase": 1,
        "sim.induced_unitary": 2,
        "sim.apply_circuit": 2 << n_main,
        "sim.from_columns": 2,
    }


def _rewrite_spans(gates: oracles.Gates) -> dict[str, int]:
    """The rewriter checks each distinct non-T gate kind once by simulating
    its matrix: one column per basis input, one matrix per kind."""
    kinds = {kind for kind, _ in gates if kind not in oracles.T_KINDS}
    return {
        "cli.main": 1,
        "text.parse": 1,
        "rewriter.rewrite_budgeted": 1,
        "sim.apply_circuit": sum(2 ** oracles.ARITY[kind] for kind in kinds),
        "sim.from_columns": len(kinds),
        "circuit.t_depth_scheduled": 1,
        "text.emit": 1,
    }


def _obstruct_spans(reads_file: bool) -> dict[str, int]:
    return {
        "cli.main": 1,
        "text.parse": 1 if reads_file else 0,
        "obstruction.obstruction_verdict": 1,
        "obstruction.expectation_direct": 2,
        "obstruction.apply_circuit": 2,
    }


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


def _stats(n_anc: int, gates: oracles.Gates) -> OutStats:
    return {
        "gates": len(gates),
        "t_depth": oracles.t_layers(gates),
        "ancillas": n_anc,
    }


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def setup_probe(work: Path) -> Op:
    """Spawn the CLI and parse a one-gate file: the fixed cost of any op."""
    source = "qubits 1\nx 0\n"
    path = _write(work / "one-gate.tdo", source)

    def check(out: list[str], reports: list[dict]) -> list[OutStats]:
        require(out[0] == source, "parse did not echo the one-gate file")
        return []

    return Op("setup", [["parse", str(path)]], [None], check,
              {"cli.main": 1, "text.parse": 1, "text.emit": 1})


# --- mcx-verify --------------------------------------------------------------

def _mcx_ladder(k: int) -> tuple[int, int, oracles.Gates]:
    """K-controlled X from ccx gates on k-2 scratch ancillas (k >= 3)."""
    anc = [k + 1 + i for i in range(k - 2)]
    compute = [("ccx", (0, 1, anc[0]))]
    compute += [("ccx", (i, anc[i - 2], anc[i - 1])) for i in range(2, k - 1)]
    core = ("ccx", (k - 1, anc[-1], k))
    return k + 1, k - 2, compute + [core] + compute[::-1]


def _mcx_image(k: int, x: int) -> int:
    """Basis index (wire 0 most significant) after X on wire k if wires 0..k-1 are 1."""
    controls = x >> 1
    return x ^ 1 if controls == (1 << k) - 1 else x


def _check_mcx_emit(k: int, text: str) -> OutStats:
    """Sparse float simulation of every main basis input, ancillas at 0."""
    n_main, n_anc, gates = oracles.parse_circuit(text)
    require(n_main == k + 1, f"emit gave {n_main} main qubits, want {k + 1}")
    width = n_main + n_anc
    for x in range(1 << n_main):
        state = oracles.sparse_run(width, gates, x << n_anc)
        want = _mcx_image(k, x) << n_anc
        require(len(state) == 1 and abs(state.get(want, 0) - 1) < 1e-9,
                f"emitted circuit is not {k}-controlled X on input {x}")
    return _stats(n_anc, gates)


def build_mcx_verify(seed: int, smoke: bool, work: Path) -> list[Op]:
    """emit multi-controlled-x in both forms, verify each against 3 ladders.

    The phase references of the two forms use omega^j and omega^(8-j), so
    the phase searches in `verify` make 8 scaled copies per round whatever
    j the seed picks, and a round costs the same on every seed.
    """
    rng = random.Random(f"mcx-verify:{seed}")
    k = 3 if smoke else 8
    n_main, n_anc, ladder = _mcx_ladder(k)
    samples = list(range(1 << n_main))
    lanes, full = oracles.lane_inputs(n_main, samples)
    wires, phase = oracles.monomial_action((n_main, n_anc, ladder), lanes, full)
    expected = oracles.lane_inputs(n_main, [_mcx_image(k, x) for x in samples])[0]
    require(wires == expected and phase == [0, 0, 0], "benchmark ladder is not MCX")

    j = rng.randint(1, 7)
    emitted: dict[str, OutStats] = {}
    ops = []
    for form, ref_phase in (("anc", j), ("noanc", 8 - j)):
        form_file = work / f"mcx-{form}.tdo"
        emit_argv = ["emit", "multi-controlled-x", "--controls", str(k)]
        if form == "noanc":
            emit_argv.append("--no-ancilla")

        wire = rng.randrange(n_main)
        half = [("s", (wire,))] * (ref_phase // 2) + [("t", (wire,))] * (ref_phase % 2)
        sandwich = [("x", (wire,))] + half + [("x", (wire,))] + half
        cz = ("cz", tuple(rng.sample(range(n_main), 2)))
        refs = (
            ("eq", ladder, [], {"equivalent": True}),
            ("phase", ladder + sandwich, ["--up-to-global-phase"],
             {"equivalent": True, "phase": f"w^{8 - ref_phase}"}),
            ("neq", ladder + [cz], [], {"equivalent": False}),
        )
        for ref_name, gates, flags, answer in refs:
            ref_file = _write(work / f"mcx-{form}-{ref_name}.tdo",
                              oracles.write_circuit(n_main, n_anc, gates))

            def check(out: list[str], reports: list[dict], answer=answer) -> list[OutStats]:
                if out[0] not in emitted:
                    emitted[out[0]] = _check_mcx_emit(k, out[0])
                require(out[1] == _json_line(answer),
                        f"verify printed {out[1]!r}, want {_json_line(answer)!r}")
                return [emitted[out[0]]]

            ops.append(Op(
                f"{form}/{ref_name}",
                [emit_argv, ["verify", str(form_file), str(ref_file), *flags]],
                [form_file, None],
                check,
                _spans({"cli.main": 1, "constructions.build": 1, "text.emit": 1},
                       _verify_spans(n_main)),
            ))
    return ops


# --- monomial inputs for the rewrite workloads ---------------------------------

# Non-T gates: all almost classical, cx-heavy like arithmetic circuits.
_MONOMIAL_KINDS = ("cx", "cx", "cx", "cx", "x", "y", "z", "s", "sdg",
                   "cz", "cs", "csdg", "swap", "ccx", "ccz")


def monomial_circuit(rng: random.Random, n: int, n_gates: int, t_share: float) -> oracles.Gates:
    """Random monomial gates with exactly round(t_share * n_gates) t/tdg."""
    n_t = round(t_share * n_gates)
    is_t = [True] * n_t + [False] * (n_gates - n_t)
    rng.shuffle(is_t)
    wires = range(n)
    gates: oracles.Gates = []
    for t in is_t:
        if t:
            gates.append((rng.choice(oracles.T_KINDS), (rng.randrange(n),)))
        else:
            kind = rng.choice(_MONOMIAL_KINDS)
            gates.append((kind, tuple(rng.sample(wires, oracles.ARITY[kind]))))
    return gates


def _check_rewrite(source: tuple[int, int, oracles.Gates], action, lanes, full,
                   stages: int, text: str, report: dict) -> OutStats:
    """A rewrite output must act like its input on the sampled lanes."""
    n_main, n_anc_in, gates_in = source
    n_main_out, n_anc, gates = oracles.parse_circuit(text)
    require(n_main_out == n_main, "rewrite changed the main register")
    added = n_anc - n_anc_in
    quota = -(-oracles.t_count(gates_in) // stages)
    require(added == quota, f"rewrite added {added} ancillas, want ceil(t/S) = {quota}")
    floor, layers = oracles.t_chain_floor(gates), oracles.t_layers(gates)
    require(layers <= stages, f"rewrite printed {layers} T layers, more than {stages}")
    payload = report["payload"]
    require(payload.keys() == {"stages", "ancillas_added", "t_depth"}
            and (payload["stages"], payload["ancillas_added"]) == (stages, added)
            and floor <= payload["t_depth"] <= layers,
            f"rewrite report {payload} disagrees with its output "
            f"(T-depth between {floor} and {layers})")
    got = oracles.monomial_action((n_main, n_anc, gates), lanes, full)
    require(got == action, "rewrite output acts differently from its input")
    return _stats(n_anc, gates)


def _rewrite_op(label: str, source, action, lanes, full, in_file: Path,
                stages: int, out_file: Path | None) -> Op:
    def check(out: list[str], reports: list[dict]) -> list[OutStats]:
        return [_check_rewrite(source, action, lanes, full, stages, out[0], reports[0])]

    return Op(label, [["rewrite", str(in_file), "--stages", str(stages)]], [out_file],
              check, _rewrite_spans(source[2]))


def build_rewrite_large(seed: int, smoke: bool, work: Path) -> list[Op]:
    """rewrite --stages 64 and --stages 1 of one 200k-gate, 20-wire circuit."""
    rng = random.Random(f"rewrite-large:{seed}")
    n, n_gates, budgets = (6, 2000, (4, 1)) if smoke else (20, 200_000, (64, 1))
    gates = monomial_circuit(rng, n, n_gates, 0.3)
    in_file = _write(work / "large.tdo", oracles.write_circuit(n, 0, gates))
    lanes, full = oracles.lane_inputs(n, [rng.getrandbits(n) for _ in range(256)])
    source = (n, 0, gates)
    action = oracles.monomial_action(source, lanes, full)
    return [_rewrite_op(f"stages-{s}", source, action, lanes, full, in_file, s, None)
            for s in budgets]


# --- rewrite-verify ----------------------------------------------------------

def build_rewrite_verify(seed: int, smoke: bool, work: Path) -> list[Op]:
    """rewrite --stages 1/8 of small circuits, then verify input vs output.

    Eight main qubits keep every basis input checkable: the oracle runs all
    256 of them, so its answers for `verify` are exact, not sampled. Each
    rewrite output also gets a mutant, so `verify` must tell apart a
    one-gate change in a stage-1 and in a stage-8 rewrite.
    """
    rng = random.Random(f"rewrite-verify:{seed}")
    n, n_gates, n_circuits = (4, 60, 1) if smoke else (8, 1000, 2)
    lanes, full = oracles.lane_inputs(n, list(range(1 << n)))
    ops = []
    for c in range(n_circuits):
        gates = monomial_circuit(rng, n, n_gates, 0.3)
        source = (n, 0, gates)
        action = oracles.monomial_action(source, lanes, full)
        in_file = _write(work / f"rv{c}.tdo", oracles.write_circuit(n, 0, gates))
        outs = {s: work / f"rv{c}-s{s}.tdo" for s in (1, 8)}
        mutants = {s: work / f"rv{c}-m{s}.tdo" for s in (1, 8)}
        flips = {s: rng.random() for s in (1, 8)}
        for s, out_file in outs.items():
            ops.append(_rewrite_op(f"c{c}/rewrite-{s}", source, action, lanes, full,
                                   in_file, s, out_file))

        def make_mutant(s: int, action=action, outs=outs, mutants=mutants, flips=flips) -> None:
            """Swap t and tdg at one seeded T gate of the stage-s rewrite."""
            n_main, n_anc, gates = oracles.parse_circuit(outs[s].read_text(encoding="utf-8"))
            t_gates = [i for i, (kind, _) in enumerate(gates) if kind in oracles.T_KINDS]
            require(bool(t_gates), f"stage-{s} rewrite has no T gate to mutate")
            i = t_gates[int(flips[s] * len(t_gates))]
            kind, qs = gates[i]
            gates[i] = ("tdg" if kind == "t" else "t", qs)
            got = oracles.monomial_action((n_main, n_anc, gates), lanes, full)
            require(got != action, "mutant acts like the input")
            _write(mutants[s], oracles.write_circuit(n_main, n_anc, gates))

        targets = [(outs[1], True, None), (outs[8], True, None),
                   (mutants[1], False, lambda m=make_mutant: m(1)),
                   (mutants[8], False, lambda m=make_mutant: m(8))]
        for target, answer, prepare in targets:
            def check(out: list[str], reports: list[dict], answer=answer) -> list[OutStats]:
                want = _json_line({"equivalent": answer})
                require(out[0] == want, f"verify printed {out[0]!r}, want {want!r}")
                return []

            ops.append(Op(f"c{c}/verify-{target.stem.split('-')[-1]}",
                          [["verify", str(in_file), str(target)]], [None], check,
                          _verify_spans(n), prepare))
    return ops


# --- obstruct-dense ----------------------------------------------------------

def _dense_gates(rng: random.Random, width: int, n: int,
                 one_qubit: tuple[str, ...]) -> oracles.Gates:
    """n gates that keep wire 0 coherent enough for a nonzero e_plus.

    Wire 0 is never a control, so ancilla branches do not record it; it
    takes rare single-qubit gates and, now and then, a cx from an ancilla.
    Every kind comes a fixed number of times (30% cx, then the one-qubit
    kinds in the proportions listed) in a seeded order, so the seed moves
    the cost of a circuit less than independently drawn kinds would.
    """
    n_cx = round(0.3 * n)
    kinds = ["cx"] * n_cx + [one_qubit[i % len(one_qubit)] for i in range(n - n_cx)]
    rng.shuffle(kinds)
    gates: oracles.Gates = []
    for kind in kinds:
        if kind == "cx":
            if rng.random() < 0.1:
                gates.append(("cx", (rng.randrange(1, width), 0)))
            else:
                gates.append(("cx", tuple(rng.sample(range(1, width), 2))))
        else:
            gates.append((kind, (0 if rng.random() < 0.05 else rng.randrange(1, width),)))
    return gates


def _spread(width: int) -> oracles.Gates:
    """h on every ancilla: the state is dense from the first gates on, so
    the cost of an op depends on its gate count more than on the seed."""
    return [("h", (q,)) for q in range(1, width)]


def random_dense(rng: random.Random, width: int, n_gates: int) -> oracles.Gates:
    return _spread(width) + _dense_gates(rng, width, n_gates - (width - 1),
                                         ("h", "h", "t", "tdg", "s"))


_CLIFFORD_INVERSE = {"h": "h", "x": "x", "z": "z", "s": "sdg", "sdg": "s", "cx": "cx"}


def clifford_t_clifford(rng: random.Random, width: int, n_gates: int, n_t: int) -> oracles.Gates:
    """h on the ancillas, Clifford W, one stage of t/tdg on distinct wires, W^-1.

    Conjugating the T stage by W keeps X_0 from ending on ancilla X or Y
    letters, which would make both expectations 0 and the check trivial.
    """
    w = _dense_gates(rng, width, (n_gates - n_t - (width - 1)) // 2,
                     ("h", "h", "s", "sdg", "x", "z"))
    stage = [(rng.choice(oracles.T_KINDS), (q,)) for q in rng.sample(range(width), n_t)]
    undo = [(_CLIFFORD_INVERSE[kind], qs) for kind, qs in reversed(w)]
    return _spread(width) + w + stage + undo


def _check_obstruct(width: int, gates: oracles.Gates, exact, text: str) -> list[OutStats]:
    """Values within 1e-9 of NumPy, equal to `exact` when given, verdict consistent."""
    payload = json.loads(text)
    e_zero = oracles.parse_real(payload["e_zero"])
    e_plus = oracles.parse_real(payload["e_plus"])
    for phi, value in (("zero", e_zero), ("plus", e_plus)):
        want = oracles.x0_expectation(width, gates, phi)
        require(abs(oracles.real_value(value) - want) < 1e-9,
                f"e_{phi} = {oracles.real_value(value)}, NumPy gives {want}")
    if exact is not None:
        require((e_zero, e_plus) == exact, f"{payload} disagrees with the Pauli-path values")
    if e_plus == (0, 0):
        verdict = (None, "inapplicable-e-plus-zero")
    else:
        rational = e_zero[1] * e_plus[0] - e_zero[0] * e_plus[1] == 0
        verdict = (rational, "inconclusive" if rational else "no-tdepth1-possible")
    require((payload["ratio_rational"], payload["conclusion"]) == verdict,
            f"verdict {payload['conclusion']} does not follow from its values")
    return []


def _pauli_path_values(width: int, gates: oracles.Gates):
    """Exact (p, q) pairs from the library's Pauli-path expansion.

    That algorithm conjugates X_0 backwards through the circuit; `obstruct`
    simulates the state forwards, so the two share no arithmetic path.
    """
    from tdo.circuit import Circuit, Gate
    from tdo.obstruction import expectation_pauli_path, split_tdepth1

    split = split_tdepth1(Circuit(1, width - 1, tuple(Gate(k, qs) for k, qs in gates)))
    values = [expectation_pauli_path(split, phi) for phi in ("zero", "plus")]
    return tuple((v.p, v.q) for v in values)


def build_obstruct_dense(seed: int, smoke: bool, work: Path) -> list[Op]:
    """obstruct on 10-wire circuits (1 main, 9 ancillas) plus the THT builtin.

    A round has eight random and eight Clifford-T-Clifford circuits and
    THT. The cost of one circuit moves with its seed by up to a fifth;
    over sixteen circuits the cost of a round moves far less.
    """
    rng = random.Random(f"obstruct-dense:{seed}")
    width, n_gates, n_t, shapes = ((4, 40, 2, ("random", "ctc")) if smoke else
                                   (10, 400, 6, ("random", "ctc") * 8))
    ops = []
    for i, shape in enumerate(shapes):
        if shape == "random":
            gates, exact = random_dense(rng, width, n_gates), None
        else:
            gates = clifford_t_clifford(rng, width, n_gates, n_t)
            exact = _pauli_path_values(width, gates)
        path = _write(work / f"ob-{i}.tdo", oracles.write_circuit(1, width - 1, gates))

        def check(out: list[str], reports: list[dict], gates=gates, exact=exact) -> list[OutStats]:
            stats = _check_obstruct(width, gates, exact, out[0])
            if exact is not None:
                conclusion = json.loads(out[0])["conclusion"]
                require(conclusion != "no-tdepth1-possible",
                        "a one-T-stage circuit was certified impossible")
            return stats

        ops.append(Op(f"{shape}-{i}", [["obstruct", str(path)]], [None], check,
                      _obstruct_spans(True)))

    tht = [("t", (0,)), ("h", (0,)), ("t", (0,))]

    def check_tht(out: list[str], reports: list[dict]) -> list[OutStats]:
        require(json.loads(out[0])["conclusion"] == "no-tdepth1-possible",
                "THT was not certified impossible")
        return _check_obstruct(1, tht, None, out[0])

    ops.append(Op("tht", [["obstruct", "--builtin", "tht"]], [None], check_tht,
                  _obstruct_spans(False)))
    return ops


WORKLOADS: dict[str, Callable[[int, bool, Path], list[Op]]] = {
    "mcx-verify": build_mcx_verify,
    "rewrite-large": build_rewrite_large,
    "rewrite-verify": build_rewrite_verify,
    "obstruct-dense": build_obstruct_dense,
}
