"""Exact Clifford+T circuit toolkit.

Represents circuits over the h/s/t/cx family exactly (amplitudes live in
Z[1/sqrt2, omega]), computes T-count/T-depth/depth metrics, builds a
library of low-T-depth constructions, rewrites monomial-gate circuits to
a single T stage using ancillas, and certifies when a single-wire
operator admits no single-T-stage implementation at all.
"""

from .circuit import Circuit, Gate, Metrics, dagger, depth, metrics, t_count, t_depth_as_written, t_depth_scheduled
from .constructions import build
from .obstruction import Verdict, obstruction_verdict
from .rewriter import rewrite_budgeted, rewrite_tdepth1, validate_gateset
from .ring import RealValue, RingScalar, omega_pow, ratio_is_rational
from .sim import ExactMatrix, ExactState, apply_circuit, equivalence_phase, induced_unitary
from .text import SourceError, emit, parse

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "ExactMatrix",
    "ExactState",
    "Gate",
    "Metrics",
    "RealValue",
    "RingScalar",
    "SourceError",
    "Verdict",
    "apply_circuit",
    "build",
    "dagger",
    "depth",
    "emit",
    "equivalence_phase",
    "induced_unitary",
    "metrics",
    "obstruction_verdict",
    "omega_pow",
    "parse",
    "ratio_is_rational",
    "rewrite_budgeted",
    "rewrite_tdepth1",
    "t_count",
    "t_depth_as_written",
    "t_depth_scheduled",
    "validate_gateset",
]
