import random
from pathlib import Path

import pytest

from tdo.circuit import GATES, Circuit, Gate
from tdo.sim import ExactMatrix, induced_unitary

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

CLIFFORD_POOL = ["x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap"]
MONOMIAL_POOL = ["x", "s", "sdg", "cx", "ccx", "ccz", "cs", "t", "tdg"]


def gate(kind, *qubits):
    return Gate(kind, tuple(qubits))


# Controlled-H on (0, 1). With wire 0 at |0> its columns are e_0 and e_1
# at k 0; with wire 0 at |1> they are H's, at k 1.
CONTROLLED_H = Circuit(2, 0, (gate("s", 1), gate("h", 1), gate("t", 1), gate("cx", 0, 1),
                              gate("tdg", 1), gate("h", 1), gate("sdg", 1)))


def gate_unitary(kind: str) -> ExactMatrix:
    """The library's matrix of one gate kind over its own wires."""
    n = GATES[kind].arity
    return induced_unitary(Circuit(n, 0, (Gate(kind, tuple(range(n))),)))


def random_gate(rng: random.Random, n: int, pool) -> Gate:
    kind = rng.choice([k for k in pool if GATES[k].arity <= n])
    return Gate(kind, tuple(rng.sample(range(n), GATES[kind].arity)))


def random_monomial_circuit(
    rng: random.Random, max_main: int = 4, max_t: int = 6, max_gates: int = 16
) -> Circuit:
    """A circuit over the rewriter's vocabulary with a bounded T budget."""
    n = rng.randint(1, max_main)
    gates = []
    t_used = 0
    for _ in range(rng.randint(0, max_gates)):
        g = random_gate(rng, n, MONOMIAL_POOL)
        if g.kind in ("t", "tdg"):
            if t_used == max_t:
                continue
            t_used += 1
        gates.append(g)
    return Circuit(n, 0, tuple(gates))


def random_tdepth1_circuit(rng: random.Random, max_qubits: int = 5, max_seg: int = 20) -> Circuit:
    """Clifford segment, one stage of t/tdg on a random qubit subset, Clifford segment."""
    n = rng.randint(1, max_qubits)
    def segment():
        return [random_gate(rng, n, CLIFFORD_POOL) for _ in range(rng.randint(0, max_seg))]
    layer = [
        Gate(rng.choice(["t", "tdg"]), (q,)) for q in range(n) if rng.random() < 0.5
    ]
    return Circuit(n, 0, tuple(segment() + layer + segment()))


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
