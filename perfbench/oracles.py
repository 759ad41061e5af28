"""Correctness oracles that share no code with the `tdo` package.

Everything here reads the CLI's text output with its own parser and
recomputes answers by a different method than the program uses:

  monomial    bit-sliced simulation of permutation-plus-phase circuits:
              each wire is one Python int whose bits are independent
              sampled basis inputs, and the phase is a 3-bit counter
              (exponent of omega mod 8) sliced the same way
  sparse      floating-point sparse state simulation of any gate list
  dense       NumPy state-vector simulation for the X_0 expectations
              of `tdo obstruct`
  T-depth     two bounds read off the printed gate list, T chains on
              one wire below and T layers as written above, that pin
              the scheduled T-depth `tdo rewrite` reports

Floating point is confined to this benchmark; the library stays exact.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

Gates = list[tuple[str, tuple[int, ...]]]

ARITY = {
    "x": 1, "y": 1, "z": 1, "h": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "cx": 2, "cz": 2, "cs": 2, "csdg": 2, "swap": 2, "ccx": 3, "ccz": 3,
}
T_KINDS = ("t", "tdg")


class CheckFailed(Exception):
    """An output disagrees with the oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_circuit(text: str) -> tuple[int, int, Gates]:
    """(n_main, n_anc, gates) from circuit text, rejecting anything odd."""
    n_main = None
    n_anc = 0
    gates: Gates = []
    for line in text.split("\n"):
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        head = words[0]
        if n_main is None:
            require(head == "qubits" and len(words) == 2, f"bad header {line!r}")
            n_main = int(words[1])
        elif head == "ancillas" and not gates:
            n_anc = int(words[1])
        else:
            require(ARITY.get(head) == len(words) - 1, f"bad gate line {line!r}")
            gates.append((head, tuple(int(w) for w in words[1:])))
    require(n_main is not None, "missing qubits header")
    width = n_main + n_anc
    for kind, qs in gates:
        require(all(0 <= q < width for q in qs) and len(set(qs)) == len(qs),
                f"bad qubits in {kind} {qs}")
    return n_main, n_anc, gates


def write_circuit(n_main: int, n_anc: int, gates: Gates) -> str:
    """Canonical circuit text, the same layout `tdo emit` prints."""
    lines = [f"qubits {n_main}"]
    if n_anc:
        lines.append(f"ancillas {n_anc}")
    lines.extend(" ".join((kind, *map(str, qs))) for kind, qs in gates)
    return "\n".join(lines) + "\n"


def t_layers(gates: Gates) -> int:
    """T layers of the circuit as printed: the T-depth a reader sees.

    A layer is a run of t/tdg lines on distinct wires with no other gate
    between them. Any schedule of the gates is at least as shallow, so
    this bounds the scheduled T-depth that `tdo` reports from above.
    """
    layers = 0
    open_wires: set[int] | None = None
    for kind, qs in gates:
        if kind not in T_KINDS:
            open_wires = None
        elif open_wires is not None and qs[0] not in open_wires:
            open_wires.add(qs[0])
        else:
            layers += 1
            open_wires = {qs[0]}
    return layers


def t_chain_floor(gates: Gates) -> int:
    """Most t/tdg gates on one wire: T gates on a wire never share a layer,
    so no schedule is shallower than this."""
    per_wire: dict[int, int] = {}
    for kind, qs in gates:
        if kind in T_KINDS:
            per_wire[qs[0]] = per_wire.get(qs[0], 0) + 1
    return max(per_wire.values(), default=0)


def t_count(gates: Gates) -> int:
    return sum(1 for kind, _ in gates if kind in T_KINDS)


# --- monomial (bit-sliced) -------------------------------------------------

# Omega exponent that each diagonal kind adds when all its wires are 1.
_PHASE_STEP = {"z": 4, "s": 2, "sdg": 6, "t": 1, "tdg": 7,
               "cz": 4, "cs": 2, "csdg": 6, "ccz": 4}


def _add_phase(p: list[int], lanes: int, step: int) -> None:
    """p += step * lanes (mod 8), lane by lane; p holds the 3 bit planes."""
    for bit in (0, 1, 2):
        if step >> bit & 1:
            carry = lanes
            for b in range(bit, 3):
                nxt = p[b] & carry
                p[b] ^= carry
                carry = nxt
                if not carry:
                    break


def run_monomial(width: int, gates: Gates, inputs: list[int], full: int) -> tuple[list[int], list[int]]:
    """Run a monomial gate list on sliced inputs (one int per wire).

    Returns the output wires and the phase bit planes. Raises CheckFailed
    on a gate that is not a permutation times a phase (such as h).
    """
    wires = list(inputs) + [0] * (width - len(inputs))
    phase = [0, 0, 0]
    for kind, qs in gates:
        if kind == "cx":
            wires[qs[1]] ^= wires[qs[0]]
        elif kind in _PHASE_STEP:
            lanes = wires[qs[0]]
            for q in qs[1:]:
                lanes &= wires[q]
            _add_phase(phase, lanes, _PHASE_STEP[kind])
        elif kind == "x":
            wires[qs[0]] ^= full
        elif kind == "ccx":
            wires[qs[2]] ^= wires[qs[0]] & wires[qs[1]]
        elif kind == "swap":
            a, b = qs
            wires[a], wires[b] = wires[b], wires[a]
        elif kind == "y":
            # Y|0> = i|1>, Y|1> = -i|0>: omega^2 everywhere, omega^4 more on 1.
            _add_phase(phase, full, 2)
            _add_phase(phase, wires[qs[0]], 4)
            wires[qs[0]] ^= full
        else:
            raise CheckFailed(f"gate {kind!r} is not monomial")
    return wires, phase


def lane_inputs(n_main: int, samples: list[int]) -> tuple[list[int], int]:
    """Slice basis indices (wire 0 = most significant bit) into wire ints."""
    wires = [0] * n_main
    for lane, x in enumerate(samples):
        for q in range(n_main):
            if x >> (n_main - 1 - q) & 1:
                wires[q] |= 1 << lane
    return wires, (1 << len(samples)) - 1


def monomial_action(circuit: tuple[int, int, Gates], inputs: list[int], full: int) -> tuple[list[int], list[int]]:
    """Main-wire outputs and phase planes; CheckFailed if an ancilla stays set."""
    n_main, n_anc, gates = circuit
    wires, phase = run_monomial(n_main + n_anc, gates, inputs, full)
    for q in range(n_main, n_main + n_anc):
        require(wires[q] == 0, f"ancilla {q} not returned to 0")
    return wires[:n_main], phase


# --- sparse floating point --------------------------------------------------

_W = cmath.exp(1j * math.pi / 4)
_R = 1 / math.sqrt(2)

# Columns of each gate over its own wires, first wire most significant:
# local input -> [(local output, amplitude)].
_COLUMNS: dict[str, list[list[tuple[int, complex]]]] = {
    "x": [[(1, 1)], [(0, 1)]],
    "y": [[(1, 1j)], [(0, -1j)]],
    "z": [[(0, 1)], [(1, -1)]],
    "h": [[(0, _R), (1, _R)], [(0, _R), (1, -_R)]],
    "s": [[(0, 1)], [(1, 1j)]],
    "sdg": [[(0, 1)], [(1, -1j)]],
    "t": [[(0, 1)], [(1, _W)]],
    "tdg": [[(0, 1)], [(1, _W.conjugate())]],
    "cx": [[(0, 1)], [(1, 1)], [(3, 1)], [(2, 1)]],
    "cz": [[(0, 1)], [(1, 1)], [(2, 1)], [(3, -1)]],
    "cs": [[(0, 1)], [(1, 1)], [(2, 1)], [(3, 1j)]],
    "csdg": [[(0, 1)], [(1, 1)], [(2, 1)], [(3, -1j)]],
    "swap": [[(0, 1)], [(2, 1)], [(1, 1)], [(3, 1)]],
    "ccx": [[(i, 1)] for i in range(6)] + [[(7, 1)], [(6, 1)]],
    "ccz": [[(i, 1)] for i in range(7)] + [[(7, -1)]],
}


def sparse_run(width: int, gates: Gates, index: int) -> dict[int, complex]:
    """Simulate one basis input (wire 0 = most significant bit)."""
    state = {index: 1 + 0j}
    for kind, qs in gates:
        bits = [1 << (width - 1 - q) for q in qs]
        mask = sum(bits)
        columns = _COLUMNS[kind]
        out: dict[int, complex] = {}
        for i, amp in state.items():
            local = 0
            for b in bits:
                local = local << 1 | (1 if i & b else 0)
            rest = i & ~mask
            for lo, a in columns[local]:
                j = rest
                for pos, b in enumerate(bits):
                    if lo >> (len(bits) - 1 - pos) & 1:
                        j |= b
                out[j] = out.get(j, 0) + amp * a
        state = {i: a for i, a in out.items() if abs(a) > 1e-12}
    return state


# --- dense NumPy -----------------------------------------------------------

def _dense_matrix(kind: str) -> np.ndarray:
    columns = _COLUMNS[kind]
    m = np.zeros((len(columns), len(columns)), dtype=complex)
    for col, entries in enumerate(columns):
        for row, a in entries:
            m[row, col] = a
    return m


def x0_expectation(width: int, gates: Gates, phi: str) -> float:
    """<psi| X_0 |psi> for psi = circuit(|phi> (x) |0..0>), in float64."""
    psi = np.zeros((2,) * width, dtype=complex)
    if phi == "zero":
        psi[(0,) * width] = 1
    else:
        psi[(0,) * width] = psi[(1,) + (0,) * (width - 1)] = _R
    for kind, qs in gates:
        k = len(qs)
        g = _dense_matrix(kind).reshape((2,) * (2 * k))
        psi = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), list(qs)))
        psi = np.moveaxis(psi, list(range(k)), list(qs))
    return float(np.vdot(psi, np.flip(psi, axis=0)).real)


# --- exact reals printed by `tdo obstruct` ---------------------------------

def _parse_dyadic(text: str) -> Fraction:
    if "/2^" in text:
        num, exp = text.split("/2^")
        return Fraction(int(num), 2 ** int(exp))
    return Fraction(int(text))


def parse_real(text: str) -> tuple[Fraction, Fraction]:
    """(p, q) from the rendered form 'p + q*sqrt2'."""
    p, q = text.split(" + ")
    require(q.endswith("*sqrt2"), f"bad real {text!r}")
    return _parse_dyadic(p), _parse_dyadic(q[: -len("*sqrt2")])


def real_value(pq: tuple[Fraction, Fraction]) -> float:
    return float(pq[0]) + float(pq[1]) * math.sqrt(2)
