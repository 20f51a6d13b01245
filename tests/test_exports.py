"""The package's public surface: its export list is its modules' own lists."""

import types

import rankreg
from rankreg import bootstrap, copulas, errors, estimators, inference, ranks

# the modules whose public names the package re-exports
REEXPORTED = (ranks, estimators, inference, bootstrap, copulas, errors)


def test_every_exported_name_resolves_once():
    assert len(rankreg.__all__) == len(set(rankreg.__all__))
    for name in rankreg.__all__:
        assert hasattr(rankreg, name), name


def test_exports_are_the_modules_lists():
    names = ["__version__"] + [name for module in REEXPORTED for name in module.__all__]
    assert sorted(rankreg.__all__) == sorted(names)
    for module in REEXPORTED:
        for name in module.__all__:
            assert getattr(rankreg, name) is getattr(module, name), (module.__name__, name)


def test_other_public_attributes_are_submodules():
    for name in dir(rankreg):
        if not name.startswith("_") and name not in rankreg.__all__:
            assert isinstance(getattr(rankreg, name), types.ModuleType), name
