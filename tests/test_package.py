"""The package's public surface: each name resolves from its home module on
first use, and each checked value has one construction path."""

import sys

import pytest

import tdo
from tdo.circuit import Circuit, Gate
from tdo.obstruction import PauliString
from tdo.ring import ONE, RealValue
from tdo.sim import ExactMatrix, ExactState


def test_every_public_name_resolves_to_its_home_object():
    for name in tdo.__all__:
        value = getattr(tdo, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("tdo.") and getattr(home, name) is value, name


def test_dir_lists_every_public_name():
    assert set(tdo.__all__) <= set(dir(tdo))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from tdo import *", namespace)
    for name in tdo.__all__:
        assert namespace[name] is getattr(tdo, name), name


def test_modules_resolve_as_attributes(monkeypatch):
    import tdo.packed

    # Importing a module binds it on the package; without that, the hook does.
    monkeypatch.delattr(tdo, "packed")
    assert tdo.packed is sys.modules["tdo.packed"]


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="no_such_name"):
        tdo.no_such_name


def _error(build):
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("value, field, bad, message", [
    (Circuit(1, 0, (Gate("t", (0,)),)), "gates", (Gate("zz", (5,)),), "unknown gate kind 'zz'"),
    (PauliString(1, ("X",)), "sign", 2, "sign must be +1 or -1"),
    (ExactState.basis(2, 1), "amps", {9: (1, 0, 0, 0)}, "basis index 9 out of range"),
    (ExactState.basis(2, 1), "k", -1, "denominator exponent -1 is negative"),
    (ExactMatrix([[ONE]]), "rows", [[ONE, ONE]], "matrix must be square"),
    (RealValue(1, 2), "p", 0.1, "RealValue parts must be exact rationals"),
], ids=["circuit", "pauli", "state", "state-k", "matrix", "real"])
def test_replace_and_make_check_fields_like_the_constructor(value, field, bad, message):
    cls = type(value)
    fields = {**value._asdict(), field: bad}
    error = _error(lambda: cls(**fields))
    assert error[1].startswith(message)
    assert _error(lambda: value._replace(**{field: bad})) == error
    assert _error(lambda: cls._make(fields.values())) == error
    same = value._replace()
    assert same == value and type(same) is cls and repr(same) == repr(value)
