"""Every public name of the package has a caller outside the tests.

A public function, class or method that only the tests reach is API
nobody uses.  Callers are the package modules and the demos; a name
counts as used when an ``ast.Name`` or ``ast.Attribute`` loads it
outside its own definition.  Docstrings, comments and the re-exports of
``__init__`` (import statements and ``__all__`` strings) do not count.
Every name that ``perfbench/tracing.py`` wraps must exist, too.
"""

import ast
import importlib.util
import pathlib

import edgedist

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "edgedist").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "demos").glob("*.py"))
TRACING = ROOT / "perfbench" / "tracing.py"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    # public module-level functions and classes, and public methods
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_"))


def _loads(tree):
    # (name, line) of every name and attribute the module reads
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            yield node.attr, node.lineno


def test_every_public_name_has_a_caller():
    loads = {path: list(_loads(_parse(path))) for path in CALLERS}
    found, uncalled = set(), []
    for path in PACKAGE:
        for d in _definitions(_parse(path)):
            found.add(f"{path.stem}.{d.name}")
            # a load inside the definition (recursion, say) is no caller
            inside = range(d.lineno, d.end_lineno + 1)
            if not any(name == d.name
                       and not (other == path and line in inside)
                       for other, names in loads.items()
                       for name, line in names):
                uncalled.append(f"{path.stem}.{d.name} ({path.name}:"
                                f"{d.lineno})")
    # the scan sees the package and its methods
    assert {"specfun.ai_tail", "painleve.solve", "dist.cdf",
            "painleve.jet_at"} <= found
    assert uncalled == [], "public names with no caller outside the " \
        "tests: " + ", ".join(uncalled)


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these names and raises AttributeError
    # on one that is gone; a rename must move its TARGETS entry too
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert {"painleve.jet_at", "specfun.ai_tail"} <= {
        span for _, _, span in tracing.TARGETS}
    for mod_name, path, _ in tracing.TARGETS:
        owner = getattr(edgedist, mod_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, path)
