"""Source hygiene: every imported name is used, every definition in
``src/`` is reached from the command line, and every name that
``perfbench/tracer.py`` wraps is defined in ``src/``.

Both scans use the standard ``ast`` module and skip ``__init__.py``, whose
imports are the package's re-exports.  The import scan reads
``src/hopfdual/*.py`` and ``tests/*.py``; the reachability scan reads
``src/hopfdual/*.py`` from ``cli.main`` and from the names that
``perfbench/tracer.py`` wraps.  That scan matches names, so a dead method
whose name reached code reads for another object passes it; the runtime
trace closes that gap: under ``sys.setprofile`` it runs the command line on
the whole catalog and on every fixture, and the functions and methods of
``src/`` that never run must be exactly :data:`NEVER_CALLED`.
"""
import ast
import sys
from pathlib import Path

import pytest

from hopfdual import catalog, cli

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "hopfdual").glob("*.py")
                 if p.name != "__init__.py")
FILES = SOURCES + sorted((ROOT / "tests").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list:
    """The names bound by import statements in ``source`` and never read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_scanner_flags_only_unused_names():
    source = "import os, sys\nfrom a.b import c as d, e\nimport x.y\nprint(sys, e, x)\n"
    assert unused_imports(source) == ["line 1: os", "line 2: d"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _read_names(nodes) -> set:
    """Every ``Name`` id and ``Attribute`` name read under ``nodes``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for node in nodes for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def definitions(sources: dict):
    """The definitions in ``sources`` (module name -> source) by qualified
    name, ``module.name`` or ``module.Class.name``, each as (name, owning
    class or None, node), and the nodes outside any definition: every other
    module-level statement and each class's bases, decorators and non-method
    body.  Definitions are module-level functions, classes and single-name
    assignments, and methods."""
    defs = {}
    seen = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, DEFINITIONS):
                qual = f"{module}.{stmt.name}"
                defs[qual] = (stmt.name, None, stmt)
                if isinstance(stmt, ast.ClassDef):
                    seen += stmt.bases + stmt.keywords + stmt.decorator_list
                    for sub in stmt.body:
                        if isinstance(sub, DEFINITIONS):
                            defs[f"{qual}.{sub.name}"] = (sub.name, qual, sub)
                        else:
                            seen.append(sub)
            elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                  and isinstance(stmt.targets[0], ast.Name)):
                defs[f"{module}.{stmt.targets[0].id}"] = (
                    stmt.targets[0].id, None, stmt.value)
            else:
                seen.append(stmt)
    return defs, seen


def unreached(sources: dict, roots: set) -> list:
    """The :func:`definitions` in ``sources`` that nothing reached from
    ``roots`` names.

    Roots besides ``roots`` are the nodes outside any definition and the
    dunder methods of a reached class.  Reached code reaches a definition by
    reading its name, as a ``Name`` or an ``Attribute``, in any module; a
    method also needs its class reached.  Matching by name over-approximates
    what runs, so whatever the scan lists is dead.
    """
    defs, seen = definitions(sources)
    reached = set(roots) & set(defs)
    seen += [defs[qual][2] for qual in reached]
    names = set()
    while seen:
        names |= _read_names(seen)
        seen = []
        for qual, (name, owner, node) in defs.items():
            if qual in reached:
                continue
            if owner is None:
                named = name in names
            else:
                dunder = name.startswith("__") and name.endswith("__")
                named = owner in reached and (dunder or name in names)
            if named:
                reached.add(qual)
                seen.append(node)
    return sorted(set(defs) - reached)


def tracer_roots() -> set:
    """What ``perfbench/tracer.py`` resolves by name: its ``TIMED``,
    ``COUNTED`` and ``SWEEDLER`` paths, and ``RING_OPS`` on ``RING_CLASSES``."""
    tables = {stmt.targets[0].id: ast.literal_eval(stmt.value)
              for stmt in ast.parse(TRACER.read_text(encoding="utf-8")).body
              if isinstance(stmt, ast.Assign)
              and isinstance(stmt.targets[0], ast.Name)
              and stmt.targets[0].id in ("TIMED", "COUNTED", "SWEEDLER",
                                         "RING_CLASSES", "RING_OPS")}
    paths = [(module, path) for module, path, *_ in tables["TIMED"] + tables["COUNTED"]]
    paths += [("hopf", path) for path in tables["SWEEDLER"]]
    paths += [("rings", f"{cls}.{op}") for cls, _ in tables["RING_CLASSES"]
              for op in tables["RING_OPS"]]
    roots = set()
    for module, path in paths:
        parts = path.split(".")
        roots.update(f"{module}." + ".".join(parts[:k])
                     for k in range(1, len(parts) + 1))
    return roots


def test_reachability_scanner_flags_only_unreached_definitions():
    sources = {
        "cli": "import os\nLIMIT = 3\ndef main():\n    return run(LIMIT)\n",
        "lib": ("def run(n):\n    return Box(n).total()\n"
                "def helper():\n    return run(1)\n"
                "class Box:\n    def __init__(self, n):\n        self.n = n\n"
                "    def total(self):\n        return self.n\n"
                "    def scale(self, c):\n        return c\n"
                "class Unused:\n    def total(self):\n        return 0\n"
                "ALIAS = helper\n"
                "def traced():\n    return 0\n"
                "def setup():\n    return 0\n"
                "setup()\n"),
    }
    assert unreached(sources, {"cli.main", "lib.traced"}) == [
        "lib.ALIAS", "lib.Box.scale", "lib.Unused", "lib.Unused.total",
        "lib.helper"]


def sources() -> dict:
    return {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}


def test_every_definition_is_reached_from_the_cli():
    assert unreached(sources(), {"cli.main"} | tracer_roots()) == []


def test_every_tracer_target_is_defined():
    # the tracer resolves each target by name when it installs, so a renamed
    # or deleted one would fail only the traced benchmark run
    defs, _ = definitions(sources())
    assert sorted(tracer_roots() - set(defs)) == []


# The functions and methods of src/ that no command-line run in
# test_every_function_runs_from_the_command_line calls, each with its reason.
NEVER_CALLED = {
    **{f"rings.Ring.{name}": "abstract: every ring overrides it"
       for name in ("zero", "one", "of", "add", "sub", "mul", "neg", "is_unit", "inv")},
    "rings.Ring.sum": "a default no library path calls; the tests' oracles sum with it",
    "rings.IntegerRing.sub": "ring interface, wrapped by perfbench/tracer.py; over Z "
                             "elimination works on plain ints",
    "rings.IntegerRing.inv": "ring interface, wrapped by perfbench/tracer.py; nothing "
                             "divides over Z",
    "rings.Ring.__repr__": "cosmetic",
    "rings.ModularRing.__repr__": "cosmetic",
    "linalg.LinearMap.__repr__": "cosmetic",
    "linalg.LinearMap.__hash__": "maps are compared, never hashed, on these paths",
    "hopf.AlgebraData.__hash__": "tables are compared, never hashed, on these paths",
    "linalg.LinearMap.__setattr__": "the immutability guard: nothing assigns to a map",
    "errors.NotInvertible.__init__": "error constructor: no traced input raises it",
    "errors.NotConvInvertible.__init__": "error constructor: no traced input raises it",
    "errors.CommutativityFailure.__init__": "error constructor: no traced input raises it",
    "instancefile._fail": "input error of a malformed block: the exit-2 fixtures fail "
                          "at validation or at the digit cap",
    "hopf.CoalgebraData.sweedler": "wrapped by name in perfbench/tracer.py",
}


def _functions(package: Path) -> dict:
    """The module-level functions and methods of ``package``'s modules by
    (module, first line), the first decorator's line when decorated, as
    ``code.co_firstlineno`` numbers them, to their qualified names."""
    out = {}
    for path in sorted(package.glob("*.py")):
        def visit(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    out[path.stem, line] = f"{path.stem}.{prefix}{node.name}"
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
        visit(ast.parse(path.read_text(encoding="utf-8")).body, "")
    return out


def test_every_function_runs_from_the_command_line(monkeypatch, tmp_path, capsys):
    # the report, the export of every catalog entry and the verification of
    # every fixture (the exit-2 ones included), with the catalog rebuilt
    # inside the trace
    package = Path(cli.__file__).parent
    fixtures = sorted((ROOT / "tests" / "fixtures").glob("*.json"))
    runs = [["report", "--format", "json", "--canonical"]]
    runs += [["catalog", "export", name, str(tmp_path / f"{name}.json")]
             for name, _, _ in catalog.list_entries()]
    runs += [["verify", str(path), "--suite", "all"] for path in fixtures]
    monkeypatch.setattr(catalog, "_CATALOG", None)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes[:-len(fixtures)] == [0] * (len(runs) - len(fixtures))
    assert set(codes[-len(fixtures):]) <= {0, 2}
    ran = {(Path(code.co_filename).stem, code.co_firstlineno) for code in called
           if Path(code.co_filename).parent == package}
    never = sorted(name for key, name in _functions(package).items() if key not in ran)
    assert never == sorted(NEVER_CALLED)
