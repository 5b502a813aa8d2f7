"""The package's public namespace."""

import types

import opcast


def test_every_exported_name_resolves_to_an_api_object():
    assert len(opcast.__all__) == len(set(opcast.__all__))
    for name in opcast.__all__:
        value = getattr(opcast, name)
        assert not isinstance(value, types.ModuleType), name


def test_submodules_are_not_exported():
    namespace = {}
    exec("from opcast import *", namespace)
    assert "harness" not in namespace and "model" not in namespace
    assert {"IoHmmModel", "leave_one_week_out", "parse_dataset"} <= set(namespace)
