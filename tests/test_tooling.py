"""The traced benchmark's entry points still exist under their names.

``perfbench/spans.py`` wraps every ``TARGETS`` function by name and the
``HilbertOp.singular_values`` cached property by type; a rename would
crash every traced run, so it fails here first.  ``spans.py`` and
``libops.py`` look modules up in ``sys.modules`` after ``import qha.cli``,
so that import must load them.  Both files are only read.

The source's own bookkeeping is checked here too: derandomized hypothesis
tests, a command-table row for every CLI handler, a reader for every
private name, a caller or a stated reason for every public name, a caller
for every defaulted public parameter, and no numpy.random in the source.
"""

import ast
import collections
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


def _called(node: ast.AST) -> str | None:
    func = node.func if isinstance(node, ast.Call) else None
    return getattr(func, "id", getattr(func, "attr", None))


def test_every_hypothesis_settings_is_derandomized():
    # Tier-1 draws the same examples on every run: every settings(...) under
    # tests/ sets derandomize=True, and every @given test is decorated with one.
    seen = 0
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and _called(node.value) == "settings" for t in node.targets}
        for node in ast.walk(tree):
            where = f"{path.name}:{node.lineno}" if hasattr(node, "lineno") else path.name
            if _called(node) == "settings":
                seen += 1
                flag = {k.arg: k.value for k in node.keywords}.get("derandomize")
                assert isinstance(flag, ast.Constant) and flag.value is True, where
            if isinstance(node, ast.FunctionDef) and any(_called(d) == "given" for d in node.decorator_list):
                assert any(_called(d) == "settings" or getattr(d, "id", None) in named
                           for d in node.decorator_list), where
    assert seen >= 10


def test_every_handler_has_its_row():
    # Every _cmd_* function handles one row of the command table, except
    # _cmd_group, which branches on group_cmd for both group rows; a row has
    # a handler exactly when it is a leaf, not a group word.
    from qha import cli

    handlers = collections.Counter(handler.__name__ for *_, handler, _ in cli._COMMANDS if handler)
    defined = {name for name in vars(cli) if name.startswith("_cmd_")}
    assert handlers == {**dict.fromkeys(defined, 1), "_cmd_group": 2}
    group_words = {words.rpartition(" ")[0] for words, *_ in cli._COMMANDS} - {""}
    for words, _, handler, _ in cli._COMMANDS:
        assert (handler is None) == (words in group_words), words


def _names_read(tree: ast.AST) -> collections.Counter:
    """Every name a tree reads: loaded names and attributes, and imported names."""
    names = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names[node.name] += 1
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            names[node.id if isinstance(node, ast.Name) else node.attr] += 1
    return names


def _private_candidates(tree: ast.Module):
    """(name, its definition or None) for every top-level function, class and
    assigned name, every method, and every attribute a class assigns on self."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        yield from ((node.name, node) for node in cls.body if isinstance(node, ast.FunctionDef))
        yield from ((attr, None) for attr in {
            node.attr for node in ast.walk(cls) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store) and getattr(node.value, "id", None) == "self"})


def test_every_private_name_is_used():
    # No underscore-prefixed top-level name, method or self attribute of
    # src/qha is left that nothing in src/ reads outside its own definition
    # (an attribute: that nothing reads at all).
    trees = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))}
    read = sum(map(_names_read, trees.values()), collections.Counter())
    unused, seen, members = [], 0, 0
    for path, tree in trees.items():
        for name, node in _private_candidates(tree):
            if name.startswith("_") and not name.startswith("__"):
                seen += 1
                members += node is None or node not in tree.body
                if read[name] == (_names_read(node)[name] if node else 0):
                    unused.append(f"{path.relative_to(ROOT)}:{name}")
    assert seen > 20 and members > 5
    assert unused == []


#: Public names of src/qha that nothing in src/ reads and perfbench/ does not
#: name, each with the reason it stays in the library: a workbench object
#: whose tests check library code.
UNCALLED_PUBLIC = {
    "groups.lp_norm": "the weighted L^p norm of the convolution inequalities",
    "weyl.PhaseSpace.multiplier": "the Heisenberg multiplier m(x, y)",
    "weyl.PhaseSpace.pairing": "the symplectic pairing sigma(x, y)",
    "weyl.HilbertOp.op_norm": "the operator norm of the convolution inequalities",
    "weyl.HilbertOp.trace_norm": "the trace norm of the convolution inequalities",
    "weyl.op_parity": "the operator parity beta(A) = R A R",
    "weyl.op_modulate": "the operator modulation gamma_xi(B) = U_{-xi/2} B U_{-xi/2}",
    "wiener.corresponding_space": "the Wiener correspondence: the span of f * A over a function set",
    "tauber.greedy_l1_net": "the eps-net half of a NetCertificate",
    "tauber.localization_operator": "the localization operator f * (phi (x) psi)",
    "tauber.modulate_family_is_regular": "Wiener-type regularity of a window's modulations",
    "asymptotics.windowed.b0_diagnostic": "the vanishing-at-infinity verdict, a library call with no subcommand",
    "asymptotics.gridops.GridOperator.op_norm": "the grid operator's norm, the README's BLAS-thread example",
}


def _public_definitions(tree: ast.Module):
    """(qualified name, definition) for every public top-level function and
    class and every public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{member.name}", member) for member in node.body
                        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"))


def test_every_public_name_has_a_caller_or_a_reason():
    # The public twin of test_every_private_name_is_used: every public
    # top-level def, class and method of src/qha is read in src/ outside its
    # own definition or named in perfbench/, or it is on UNCALLED_PUBLIC with
    # its reason.  A ledger name that gains a caller fails too, so the ledger
    # cannot go stale; a name only the tests reach belongs in tests/.
    trees = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src").rglob("*.py"))}
    read = sum(map(_names_read, trees.values()), collections.Counter())
    named = set(re.findall(r"\w+", "".join(p.read_text() for p in sorted((ROOT / "perfbench").rglob("*.py")))))
    uncalled, seen = set(), 0
    for path, tree in trees.items():
        module = ".".join(path.relative_to(ROOT / "src" / "qha").with_suffix("").parts)
        for qualname, node in _public_definitions(tree):
            seen += 1
            if read[node.name] == _names_read(node)[node.name] and node.name not in named:
                uncalled.add(f"{module}.{qualname}")
    assert seen > 100
    assert uncalled == set(UNCALLED_PUBLIC)


def _names_numpy_random(node: ast.AST) -> bool:
    """Whether node reads np.random / numpy.random, in an annotation too, or imports it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and getattr(node.value, "id", None) in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.random") or (
            node.module == "numpy" and any(a.name == "random" for a in node.names))
    return False


def test_src_never_names_numpy_random():
    # Importing numpy.random costs ~10 ms a process, so nothing in the package
    # reaches it: every seeded draw comes from numerics.seeded_uniform.  No
    # routine takes a caller's Generator either, so not even an annotation
    # names it; test inputs drawn from a Generator live in tests/_reference.py.
    found = set()
    for path in sorted((ROOT / "src" / "qha").rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = ".".join(path.relative_to(ROOT / "src" / "qha").with_suffix("").parts)
        owner = {id(n): node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                 for n in ast.walk(node)}
        found |= {f"{module}.{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if _names_numpy_random(node)}
    assert found == set()


def _defaulted_parameters(tree: ast.Module):
    """(called name, parameter, its position in a call or, keyword-only, its
    name, where) per defaulted parameter of a public function or method; a
    class is called by its own name for __init__, and a method's self is
    never an argument."""
    scopes = [(None, tree.body)] + [(node.name, node.body) for node in tree.body
                                    if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    for cls, body in scopes:
        for node in body:
            if not isinstance(node, ast.FunctionDef) or (
                    node.name.startswith("_") and not (cls and node.name == "__init__")):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args][cls is not None:]
            positional = params[len(params) - len(args.defaults):] if args.defaults else []
            keyword = [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            name = cls if node.name == "__init__" else node.name
            where = f"{cls}.{node.name}" if cls else node.name
            for param in positional + keyword:
                yield name, param, params.index(param) if param in params else param, where


def _arguments_passed(tree: ast.Module) -> set:
    """(called name, keyword or index) per explicit argument of every call.
    Starred and ** arguments pass nothing, nor does a call inside a
    ``with pytest.raises(...)`` block (a value only rejected is not in use),
    and ``ref.`` calls reach the same-named oracles of tests/_reference.py,
    not src/qha."""
    raising = {id(node) for block in ast.walk(tree) if isinstance(block, ast.With)
               and any(_called(item.context_expr) == "raises" for item in block.items)
               for stmt in block.body for node in ast.walk(stmt)}
    passed = set()
    for node in ast.walk(tree):
        if (not isinstance(node, ast.Call) or id(node) in raising
                or getattr(getattr(node.func, "value", None), "id", None) == "ref"):
            continue
        name = _called(node)
        explicit = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)), len(node.args))
        passed |= {(name, i) for i in range(explicit)}
        passed |= {(name, k.arg) for k in node.keywords if k.arg is not None}
    return passed


def test_every_defaulted_parameter_has_a_caller():
    # A defaulted parameter of the public API that no call in src/, tests/ or
    # perfbench/ passes has one value in use: it is a constant, not a knob.
    passed = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            passed |= _arguments_passed(ast.parse(path.read_text()))
    unset, seen = [], 0
    for path in sorted((ROOT / "src" / "qha").rglob("*.py")):
        for name, param, index, where in _defaulted_parameters(ast.parse(path.read_text())):
            seen += 1
            if (name, param) not in passed and (name, index) not in passed:
                unset.append(f"{path.relative_to(ROOT)}:{where}({param})")
    assert seen > 20
    assert unset == []


def _owners(tree: ast.Module) -> dict[int, str]:
    """The function (``name`` or ``Class.name``) of every node inside a
    top-level function or method, by node id."""
    owner = {}
    for top in tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in members:
            if isinstance(node, ast.FunctionDef):
                name = node.name if node is top else f"{top.name}.{node.name}"
                owner.update((id(n), name) for n in ast.walk(node))
    return owner


def test_cli_errors_leave_only_through_dispatch():
    # dispatch is the one place an error becomes "error: ..." on stderr and
    # exit 2: no handler writes to stderr or returns 2 itself.
    tree = ast.parse((ROOT / "src" / "qha" / "cli.py").read_text())
    owner = _owners(tree)
    stderr = {owner.get(id(node), "<module>") for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr == "stderr"}
    twos = {owner.get(id(node), "<module>") for node in ast.walk(tree)
            if isinstance(node, ast.Return) and getattr(node.value, "value", None) == 2}
    assert stderr == twos == {"dispatch"}


def test_only_the_sequences_getitem_tests_for_a_slice():
    # Cell functions take index arrays only; ShiftedCopies and ModulationOrbit
    # keep slicing in __getitem__.
    found = set()
    for path in sorted((ROOT / "src" / "qha").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        found |= {f"{path.stem}.{owner.get(id(node), '<module>')}" for node in ast.walk(tree)
                  if _called(node) == "isinstance"
                  and any(getattr(n, "id", None) == "slice" for n in ast.walk(node.args[1]))}
    assert found == {"windowed.ShiftedCopies.__getitem__", "gridops.ModulationOrbit.__getitem__"}
