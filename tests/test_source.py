"""Checks on the package's source that need no linter installed."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kgdialog"


def unused_imports(source: str) -> list[str]:
    """The names an import statement of ``source`` binds and no other code
    of it reads; a name read only in a string annotation counts as read."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    imported = [alias.asname or alias.name.split(".")[0] for node in nodes
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    annotations = [node.annotation for node in nodes
                   if isinstance(node, (ast.arg, ast.AnnAssign))]
    annotations += [node.returns for node in nodes
                     if isinstance(node, ast.FunctionDef)]
    quoted = [ast.parse(c.value, mode="eval") for a in annotations if a
              for c in ast.walk(a)
              if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    read = {n.id for root in (tree, *quoted) for n in ast.walk(root)
            if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from a import b as c, d\nd()\n", ["c"]),
    ("from __future__ import annotations\nfrom a import T\nx: 'T'\n", []),
    ("from a import T\ndef f(x: T): pass\n", []),
    ("from a import T\ndef f() -> 'list[T]': pass\n", []),
    ("import np\nx = 'np'\n", ["np"]),
])
def test_unused_imports_finds_exactly_the_unread_names(source, unused):
    assert unused_imports(source) == unused
