"""Exact Clifford+T circuit toolkit.

Represents circuits over the h/s/t/cx family exactly (amplitudes live in
Z[1/sqrt2, omega]), computes T-count/T-depth/depth metrics, builds a
library of low-T-depth constructions, rewrites monomial-gate circuits to
a single T stage using ancillas, and certifies when a single-wire
operator admits no single-T-stage implementation at all.

Importing the package loads none of its modules. Each public name, and
each module as an attribute, is imported from its home module on first
use, so a program that only parses circuits never loads the simulator.
`__all__` is the sorted key list of `_HOMES`, the table that maps each
public name to its home module, so a name is listed in one place.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> home module.
_HOMES = {name: module for module, names in {
    "circuit": ("Circuit", "DomainError", "Gate", "Metrics", "dagger", "depth", "metrics",
                "t_count", "t_depth_as_written", "t_depth_scheduled"),
    "constructions": ("build",),
    "obstruction": ("Verdict", "obstruction_verdict"),
    "rewriter": ("rewrite_budgeted", "rewrite_tdepth1", "validate_gateset"),
    "ring": ("RealValue", "RingScalar", "omega_pow", "ratio_is_rational"),
    "sim": ("ExactMatrix", "ExactState", "apply_circuit", "equivalence_phase", "induced_unitary"),
    "text": ("SourceError", "emit", "parse"),
}.items() for name in names}

__all__ = sorted(_HOMES)

_MODULES = frozenset(("circuit", "cli", "constructions", "obstruction", "packed", "rewriter",
                      "ring", "sim", "text"))


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
