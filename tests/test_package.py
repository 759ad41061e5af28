"""The package resolves its public names from their home modules on first use."""

import sys

import pytest

import tdo


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
