"""Public surface: the package exports exactly what its modules declare."""
import importlib

import pytest

import qrmt

MODULES = ("params", "sampler", "analytic", "spectral", "specfun")

# single-draw aliases folded into sample_ensemble; they must stay gone
REMOVED = ("sample_q_gt1", "sample_q_lt1", "sample_bounded_trace")


def test_package_all_is_the_union_of_module_all():
    declared = set()
    for name in MODULES:
        declared |= set(importlib.import_module(f"qrmt.{name}").__all__)
    assert set(qrmt.__all__) - {"__version__"} == declared
    assert len(qrmt.__all__) == len(set(qrmt.__all__))


def test_every_exported_name_resolves():
    for name in qrmt.__all__:
        assert getattr(qrmt, name) is not None
    for name in MODULES:
        module = importlib.import_module(f"qrmt.{name}")
        for attr in module.__all__:
            assert getattr(qrmt, attr) is getattr(module, attr)


@pytest.mark.parametrize("module", ["qrmt", "qrmt.sampler"])
@pytest.mark.parametrize("name", REMOVED)
def test_removed_aliases_cannot_be_imported(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_dir_lists_every_exported_name_and_module():
    assert set(qrmt.__all__) | set(MODULES) <= set(dir(qrmt))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qrmt.no_such_name
    assert not hasattr(qrmt, "__wrapped__")
