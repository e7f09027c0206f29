"""Imports: every imported name is used, and each command loads only its layers.

The first check is an ``ast`` pass over the package and the tests.
``__init__.py`` files re-export by importing, so they are exempt; elsewhere a
name counts as used when the module references it or lists it in
``__all__``.  The same kind of pass finds every ``assert`` statement in the
package, where none may stand: ``python -O`` strips them, so no check of the
package may depend on one.  A third pass holds each package module's
module-level imports to one table of allowed dependencies, so an import that
would drag a verification layer into the ``table`` or ``kl`` path fails
without starting an interpreter.  The last runs each command in a fresh
interpreter and lists the modules it adds to ``sys.modules``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "invkl").glob("*.py"))
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


def assert_lines(source):
    """The line numbers of the ``assert`` statements in ``source``."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    ]


def test_asserts_are_found():
    source = (
        "def f(x):\n    assert x, 'x'\n    return x\n"
        "class C:\n    def g(self):\n        assert self\n"
    )
    assert assert_lines(source) == [2, 6]
    assert assert_lines("def f(x):\n    if not x:\n        raise ValueError\n") == []


def test_no_asserts_in_the_package():
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in PACKAGE
        for line in assert_lines(path.read_text())
    ]
    assert PACKAGE and not found, "assert statements:\n" + "\n".join(found)


# The package modules each package module may import at module level.  A
# command compiles the closure of its ``cmd_*`` imports under this table.
_ALLOWED = {
    "__init__": {"coxeter", "errors", "laurent"},
    "__main__": {"cli"},
    "canonical": {"errors", "involutions", "laurent", "packed"},
    "cells": {"errors", "laurent"},
    "cli": {"coxeter", "errors", "laurent"},
    "coxeter": {"errors", "laurent"},
    "errors": set(),
    "involutions": set(),
    "invmodule": {"errors", "involutions", "laurent", "packed"},
    "klclassic": {"errors", "laurent", "packed"},
    "laurent": {"errors"},
    "packed": {"errors"},
    "specialize": {"coxeter", "errors"},
    "verify": {
        "canonical", "errors", "invmodule", "klclassic", "laurent", "packed",
        "specialize",
    },
}
# the layers only verify and the tests may compile
_VERIFICATION = {"invmodule", "verify"}


def package_imports(node, top_level=True):
    """The package modules imported under ``node``; with ``top_level``, those
    a module imports when it is loaded, outside any function body."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if top_level and isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(child, ast.ImportFrom) and child.level == 1:
            if child.module is None:
                found.update(alias.name for alias in child.names)
            else:
                found.add(child.module.split(".")[0])
        elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("invkl."):
            found.add(child.module.split(".")[1])
        elif isinstance(child, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in child.names
                if alias.name.startswith("invkl.")
            )
        found |= package_imports(child, top_level)
    return found


def test_package_imports_are_found():
    source = (
        "from .a import b\nimport invkl.g, os\nfrom invkl.h import i\n"
        "def f():\n    from .c import d\n"
        "class K:\n    from . import e\n    def m(self):\n        from .j import k\n"
        "if True:\n    from .l.m import n\n"
    )
    tree = ast.parse(source)
    assert package_imports(tree) == {"a", "e", "g", "h", "l"}
    assert package_imports(tree, top_level=False) == {"a", "c", "e", "g", "h", "j", "l"}


def test_module_level_imports_follow_the_layer_table():
    assert set(_ALLOWED) == {path.stem for path in PACKAGE}
    found = {
        path.stem: package_imports(ast.parse(path.read_text())) for path in PACKAGE
    }
    extra = {name: sorted(deps - _ALLOWED[name]) for name, deps in found.items()}
    assert not any(extra.values()), f"imports outside the layer table: {extra}"


def stdlib_imports(source):
    """The top-level names of the absolute imports anywhere in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_only_the_packed_kernel_imports_struct():
    """Slots are packed and read in one module: no other module of the
    package imports ``struct``, at module level or in a function body."""
    assert stdlib_imports("def f():\n    from struct import pack\n") == {"struct"}
    assert stdlib_imports("import struct.x, os\nfrom . import struct\n") == {"struct", "os"}
    importers = {
        path.stem for path in PACKAGE if "struct" in stdlib_imports(path.read_text())
    }
    assert importers == {"packed"}


def test_no_package_module_imports_rational_arithmetic():
    """Every scalar is an int or a polynomial over Z: no module of the
    package imports ``fractions``, ``decimal`` or ``numbers``, anywhere."""
    found = {
        path.stem: sorted(stdlib_imports(path.read_text()) & _RATIONAL)
        for path in PACKAGE
    }
    assert not any(found.values()), found


def test_commands_but_verify_stay_off_the_verification_layers():
    """The closure of each command's own imports under the layer table holds
    no verification layer, except for ``verify``."""
    tree = ast.parse((ROOT / "src" / "invkl" / "cli.py").read_text())
    commands = {
        node.name: package_imports(node, top_level=False)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    }
    assert set(commands) == {f"cmd_{c}" for c in ("table", "kl", "cells", "character", "verify")}
    for name, roots in commands.items():
        closure, frontier = set(), roots | _ALLOWED["cli"]
        while frontier:
            closure |= frontier
            frontier = set().union(*(_ALLOWED[m] for m in frontier)) - closure
        if name == "cmd_verify":
            assert {"invmodule", "verify"} <= closure
        else:
            assert not closure & _VERIFICATION, (name, sorted(closure))


# What each command adds to sys.modules in a fresh interpreter, run as
# ``python -m invkl`` runs it: the package, then ``cli.main``.
_ADDED = """
import sys
before = set(sys.modules)
{body}
sys.stdout.write(" ".join(sorted(set(sys.modules) - before)))
"""
_RUN = "from invkl.cli import main\nassert main({argv!r}) == 0"
# the stdlib modules the package modules import at module level, and what a
# parser loads on first use (argparse's gettext imports locale)
_STDLIB = (
    "import __future__, argparse, itertools, json, math, re, typing\n"
    "argparse.ArgumentParser()"
)
_BASE = {"invkl", "invkl.cli", "invkl.coxeter", "invkl.errors", "invkl.laurent"}
_LAYERS = {
    "table --type A3": {"invkl.involutions", "invkl.canonical", "invkl.packed"},
    "table --type A3 --classic": {
        "invkl.involutions", "invkl.canonical", "invkl.klclassic", "invkl.packed",
    },
    "kl --type A3": {"invkl.klclassic", "invkl.packed"},
    "cells --type A3": {
        "invkl.cells", "invkl.involutions", "invkl.klclassic", "invkl.packed",
    },
    "character --type A3": {"invkl.involutions", "invkl.specialize"},
    "verify --type A2": {
        "invkl.verify", "invkl.involutions", "invkl.invmodule", "invkl.canonical",
        "invkl.klclassic", "invkl.specialize", "invkl.packed",
    },
}
_LAYERS["verify --type B3"] = _LAYERS["verify --type A2"]
# what rational arithmetic would load: no command and no set-up needs it
_RATIONAL = {"fractions", "decimal", "numbers"}


def added_modules(body):
    """The names that running ``body`` adds to ``sys.modules``, fresh interpreter."""
    src = str(ROOT / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _ADDED.format(body=body)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def stdlib_deps():
    return added_modules(_STDLIB)


@pytest.mark.parametrize("command", sorted(_LAYERS))
def test_each_command_imports_only_its_layers(command, stdlib_deps):
    argv = command.split() + ["--out", os.devnull]
    added = added_modules(_RUN.format(argv=argv))
    assert not added & (_RATIONAL | {"dataclasses"})
    assert added - stdlib_deps == _BASE | _LAYERS[command]
    if command.startswith(("table", "character")):
        assert "invkl.invmodule" not in added   # the index, not the arithmetic


def test_the_t_basis_hecke_algebra_is_gone():
    """The T-basis products live on as a test oracle only."""
    assert not (ROOT / "src" / "invkl" / "hecke.py").exists()
    for path in PACKAGE:
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert not names & {"HeckeAlgebra", "HeckeBases", "expand_unitriangular"}, path


def test_the_hf_check_runs_on_the_involution_index():
    """The W-graph h/f check reads the canonical columns over the involution
    index, and never loads the module arithmetic."""
    added = added_modules(
        "import invkl\n"
        "from invkl.canonical import CanonicalBasis\n"
        "from invkl.cells import check_hf_relation\n"
        "from invkl.involutions import Involutions\n"
        "from invkl.klclassic import KLTable\n"
        "from invkl.laurent import ONE\n"
        'system = invkl.build_system("A3")\n'
        "basis = CanonicalBasis(Involutions(system))\n"
        "wid = basis.module.involution_ids[-1]\n"
        "report = check_hf_relation(wid, KLTable(system), basis)\n"
        "assert len(report) == 24 and report[0] == {wid: (ONE, ONE)}"
    )
    assert "invkl.cells" in added and "invkl.invmodule" not in added


def test_building_a_system_imports_no_dataclasses_or_fractions():
    """Set-up loads the element engine alone: no table kernel, no dataclasses
    or rational arithmetic, and it builds no reflection matrices."""
    for label in ("F4", "H3"):
        added = added_modules(f'import invkl\ninvkl.build_system("{label}")')
        assert not added & (_RATIONAL | {"dataclasses"})
        assert {m for m in added if m.startswith("invkl")} == {
            "invkl", "invkl.coxeter", "invkl.errors", "invkl.laurent",
        }
    from invkl import build_system
    from invkl.specialize import reflection_rep

    system = build_system("F4")
    mats = list(reflection_rep(system).values())
    assert not [v for v in vars(system).values() if v == mats or v == tuple(mats)]
