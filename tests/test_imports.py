"""Every module-level import of a ``nonterm`` module is used in it, and
every private module-level name is read somewhere in the package.

``__init__.py`` is left out of the import check: its imports are the
package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nonterm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["os", "d"]
    assert unused_imports("import os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level ``_name`` (not a dunder)
    defined in one of ``sources`` that no module reads outside the
    statement defining it."""
    defined, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [
                    n.id
                    for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                names = []
            defined += [
                (module, name, len(reads))
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
            reads.append(
                {
                    n.id
                    for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
            )
    return [
        f"{module}.{name}"
        for module, name, own in defined
        if not any(name in read for i, read in enumerate(reads) if i != own)
    ]


def test_orphaned_private_names_are_found():
    sources = {
        "a": "def _used():\n    pass\ndef _self(n):\n    return _self(n)\n_x = 1\n",
        "b": "from a import _used\n_used()\n",
    }
    assert orphaned_private_names(sources) == ["a._self", "a._x"]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert orphaned_private_names(sources) == []
