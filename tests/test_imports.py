"""Every imported name is used: an ``ast`` pass over the package and the tests.

``__init__.py`` files re-export by importing, so they are exempt; elsewhere a
name counts as used when the module references it or lists it in
``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    path
    for folder in (ROOT / "src" / "invkl", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """The names ``source`` imports but never references nor exports."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_unused_imports_are_found():
    source = "import os, sys\nfrom a import b as c, d\n__all__ = ['d']\nprint(sys)\n"
    assert unused_imports(source) == [(1, "os"), (2, "c")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in CHECKED
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)
