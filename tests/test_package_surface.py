"""The package holds only what a command, a script or the benchmark reads.

These checks read the source with ``ast`` and import nothing from it:

- no module of ``src/carnotpde`` imports a name it never uses;
- every non-dunder top-level function, every top-level class, and every
  non-dunder method of a top-level class, has a reader outside its own
  definition. A reader is a name or attribute reference anywhere in
  ``src/``, or a whole-word match in the text of ``scripts/*.py`` or
  ``perfbench/*.py`` (the benchmark swaps some functions by attribute name
  given as a string). Tests are not readers: a definition only tests read
  belongs on the test side;
- every entry of the package's lazy export table names a top-level
  function or class of the module it points to.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carnotpde"


def _modules() -> dict:
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _references(node) -> list:
    """(name, line) of every name and attribute reference under node."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append((sub.id, sub.lineno))
        elif isinstance(sub, ast.Attribute):
            out.append((sub.attr, sub.lineno))
    return out


def _unused_imports(tree) -> list:
    used = {name for name, _ in _references(tree)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    return unused


def _definitions(tree) -> list:
    """(qualified name, bare name, first line, last line) of each checked definition."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = []
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        if isinstance(node, functions) and node.name.startswith("__"):
            continue  # a module protocol hook such as PEP 562's __getattr__
        defs.append((node.name, node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("__"):
                    qual = f"{node.name}.{item.name}"
                    defs.append((qual, item.name, item.lineno, item.end_lineno))
    return defs


def test_no_unused_imports():
    found = [
        f"{path.name}: {name}"
        for path, tree in _modules().items()
        for name in _unused_imports(tree)
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def test_every_definition_has_a_reader():
    modules = _modules()
    refs = {path: _references(tree) for path, tree in modules.items()}
    text = "\n".join(
        p.read_text()
        for folder in ("scripts", "perfbench")
        for p in sorted((ROOT / folder).glob("*.py"))
    )
    unread = []
    for path, tree in modules.items():
        for qual, name, first, last in _definitions(tree):
            read = any(
                ref == name and (other != path or not first <= line <= last)
                for other, found in refs.items()
                for ref, line in found
            ) or re.search(rf"\b{re.escape(name)}\b", text)
            if not read:
                unread.append(f"{path.name}: {qual}")
    assert not unread, "definitions nothing outside the tests reads:\n" + "\n".join(unread)


def test_every_export_names_a_definition_of_its_module():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    (table,) = [
        node.value
        for node in init.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]
    ]
    missing = []
    for module, names in ast.literal_eval(table).items():
        path = PACKAGE / f"{module}.py"
        body = ast.parse(path.read_text()).body if path.is_file() else []
        defined = {
            node.name
            for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        missing += [f"{module}.{name}" for name in names if name not in defined]
    assert not missing, "exports with no definition behind them:\n" + "\n".join(missing)
