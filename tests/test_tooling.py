"""The traced benchmark's entry points still exist under their names.

``perfbench/spans.py`` wraps every ``TARGETS`` function by name and the
``HilbertOp.singular_values`` cached property by type; a rename would
crash every traced run, so it fails here first.  ``spans.py`` and
``libops.py`` look modules up in ``sys.modules`` after ``import qha.cli``,
so that import must load them.  Both files are only read.
"""

import functools
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
LIBOPS = ROOT / "perfbench" / "libops.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, attr in _spans().TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def _fresh_python(code: str, *args: str) -> str:
    """Stdout of ``python -c code args`` in a fresh process on this ``src``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True, timeout=60).stdout


def test_cli_import_loads_every_traced_module():
    # What the child process does: import qha.cli, then read sys.modules.
    targets = [list(t) for t in _spans().TARGETS]
    code = ("import json, sys, qha.cli\n"
            "targets = json.loads(sys.argv[1])\n"
            "print(json.dumps({'loaded': sorted(sys.modules), 'unresolved': [\n"
            "    t for t in targets if not callable(getattr(sys.modules.get(t[0]), t[1], None))]}))")
    seen = json.loads(_fresh_python(code, json.dumps(targets)))
    looked_up = set(re.findall(r'_mod\("([\w.]+)"\)', LIBOPS.read_text()))
    assert "qha.asymptotics" in looked_up
    assert looked_up | {module for module, _ in targets} <= set(seen["loaded"])
    assert seen["unresolved"] == []


def test_bare_package_import_leaves_numpy_unloaded():
    # qha.cli pins BLAS to one thread before numpy loads; that needs a package
    # __init__ that imports nothing.
    assert _fresh_python("import sys, qha; print('numpy' in sys.modules)").strip() == "False"


def test_hilbert_singular_values_is_a_cached_property():
    from qha.weyl import HilbertOp

    assert isinstance(HilbertOp.__dict__["singular_values"], functools.cached_property)


def test_every_libops_module_attribute_resolves():
    # Every name libops reads off a module it looks up, directly or through a
    # local; qha.asymptotics binds only the two names read off it.
    text = LIBOPS.read_text()
    aliases = dict(re.findall(r'^\s*(\w+) = _mod\("([\w.]+)"\)$', text, re.M))
    reads = set(re.findall(r'_mod\("([\w.]+)"\)\.(\w+)', text))
    reads |= {(aliases[name], attr) for name, attr in re.findall(r"\b(\w+)\.(\w+)", text) if name in aliases}
    assert {("qha.asymptotics", "compactness_proxy"), ("qha.asymptotics", "halmos_operator")} <= reads
    for module_name, attr in reads:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)


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
