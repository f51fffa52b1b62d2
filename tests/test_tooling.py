"""The traced benchmark's entry points still exist under their names.

``perfbench/spans.py`` wraps every ``TARGETS`` function by name and the
``HilbertOp.singular_values`` cached property by type; a rename would
crash every traced run, so it fails here first.  The file is only read.
"""

import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "target, index",
    [("cli.emit_csv", 0), ("groups.write_group_function", 1), ("groups._read_indexed_csv", 0)],
)
def test_path_hooks_match_signatures(target, index):
    # The byte-counting hooks read the path by position; the signature must
    # still put it there.
    module_name, attr = target.split(".")
    fn = getattr(importlib.import_module(f"qha.{module_name}"), attr)
    params = list(inspect.signature(fn).parameters)
    assert params.index("path") == index
    before = _spans().HOOKS[target][0]
    args = tuple("sentinel.csv" if name == "path" else None for name in params)
    state = before(args, {})
    assert (state[0] if isinstance(state, tuple) else state) == "sentinel.csv"


def test_read_windowed_resolves_reader_at_call_time(tmp_path, monkeypatch):
    # Tracer.install rebinds qha.groups._read_indexed_csv after import;
    # cli._read_windowed must look it up when called to be wrapped.
    from qha import cli, groups

    calls = []
    original = groups._read_indexed_csv
    monkeypatch.setattr(groups, "_read_indexed_csv", lambda path: calls.append(path) or original(path))
    path = tmp_path / "w.csv"
    path.write_text("index,re,im\n-1,0,0\n0,1,0\n")
    assert cli._read_windowed(path).lo == -1
    assert calls == [path]
