"""The traced benchmark's entry points still exist under their names.

``perfbench/spans.py`` wraps every ``TARGETS`` function by name and the
``HilbertOp.singular_values`` cached property by type; a rename would
crash every traced run, so it fails here first.  The file is only read.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, attr in _spans().TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_hilbert_singular_values_is_a_cached_property():
    from qha.weyl import HilbertOp

    assert isinstance(HilbertOp.__dict__["singular_values"], functools.cached_property)


def test_every_asymptotics_export_resolves():
    asymptotics = importlib.import_module("qha.asymptotics")
    for name in asymptotics.__all__:
        assert hasattr(asymptotics, name), name
