"""Every imported name is read: a name imported into a module of the
package or of the tests and never read there fails this test.  Names in a
module's ``__all__`` count as read (re-exports), and ``from __future__``
imports are exempt.  No module of the package imports ``dataclasses``."""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "eqctt").rglob("*.py"))
FILES = sorted([*SRC, *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_an_unread_import_is_found():
    src = ("from __future__ import annotations\n"
           "import os, sys\nfrom a import b, c as d\n"
           "__all__ = ['d']\n"
           "def f(x: os.PathLike) -> None: pass\n")
    assert unused_imports(src) == ["b (line 3)", "sys (line 2)"]


def test_no_module_imports_dataclasses():
    """Every run of the program imports every module before it reads its
    input, and building a dataclass costs far more import time than
    writing out a plain class, so the package writes plain classes."""
    importers = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importers.append(str(path.relative_to(ROOT)))
    assert importers == []
