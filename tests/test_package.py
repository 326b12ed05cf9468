"""Tests for the package's public namespace."""

from types import ModuleType

import ctreg


def test_all_lists_each_public_name_once():
    assert len(ctreg.__all__) == len(set(ctreg.__all__))
    for name in ctreg.__all__:
        assert hasattr(ctreg, name), name
    public = {
        name
        for name, value in vars(ctreg).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(ctreg.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from ctreg import *", namespace)
    assert set(ctreg.__all__) <= set(namespace)
