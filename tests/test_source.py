"""Checks on the package's source that need no linter installed."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kgdialog"
# the program code whose reads keep a public name alive; tests are not in it
READERS = ("src", "scripts", "perfbench")

# Public names that no program code reads, each kept for its reason.
TEST_ONLY = {
    "entity_similarity": "the per-entity reference the visual-route tests "
                         "hold acquire_visual_attributes to at exact "
                         "thresholds",
}


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


def whitespace_splits(source: str) -> list[int]:
    """The lines of ``source`` that call ``split`` or ``rsplit`` with no
    separator or a None one: a split on whitespace."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("split", "rsplit")):
            seps = node.args[:1] + [k.value for k in node.keywords
                                    if k.arg == "sep"]
            if all(isinstance(sep, ast.Constant) and sep.value is None
                   for sep in seps):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_splits_text_only_through_the_tokenizer(path):
    """Text is split into tokens by ``kb.tokenize`` alone, so that a KB
    string reaches every view as the same tokens."""
    assert whitespace_splits(path.read_text()) == []


@pytest.mark.parametrize("source, lines", [
    ("s.split()\n", [1]),
    ("x = 1\n[w.lower() for w in s.rsplit(maxsplit=1)]\n", [2]),
    ("s.split(None, 2)\ns.split(sep=None)\n", [1, 2]),
    ('s.split(":")\nre.split(r"[.:]", s)\ns.split(sep=",")\n', []),
    ("np.split(x, 3)\n", []),
])
def test_whitespace_splits_finds_exactly_the_separatorless_calls(source,
                                                                  lines):
    assert whitespace_splits(source) == lines


def public_definitions(source: str) -> list[str]:
    """The public module-level functions and classes of ``source``, and the
    public methods and properties of its classes, in source order."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (*defs, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, defs)]
    return [name for name in names if not name.startswith("_")]


def read_names(source: str) -> set[str]:
    """The names ``source`` reads: loaded names and attributes, and each
    part of a ``kgdialog.module:Class.method`` tracer target string."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.startswith("kgdialog.")):
            read.update(re.split(r"[.:]", node.value))
    return read


def test_every_public_name_is_read_outside_tests():
    read = set().union(*(read_names(path.read_text()) for folder in READERS
                         for path in sorted((ROOT / folder).rglob("*.py"))))
    unread = [(path.stem, name) for path in sorted(SRC.glob("*.py"))
              for name in public_definitions(path.read_text())
              if name not in read]
    assert [f"{module}.{name}" for module, name in unread
            if name not in TEST_ONLY] == []
    # an allowlisted name that code now reads, or that is gone, leaves it
    assert sorted(name for _, name in unread) == sorted(TEST_ONLY)


@pytest.mark.parametrize("source, names", [
    ("def f(): pass\nclass C:\n    def m(self): pass\n", ["f", "C", "m"]),
    ("class C:\n    @property\n    def p(self): pass\n", ["C", "p"]),
    ("def _f(): pass\nclass _C:\n    def m(self): pass\n"
     "    def __init__(self): pass\n", ["m"]),
    ("def f():\n    def inner(): pass\nx = 1\n", ["f"]),
    ("async def f(): pass\n", ["f"]),
])
def test_public_definitions_lists_module_functions_classes_and_methods(
        source, names):
    assert public_definitions(source) == names


@pytest.mark.parametrize("source, read", [
    ("f()\n", {"f"}),
    ("a.b.c\n", {"a", "b", "c"}),
    ("x = 1\nself.y = 2\n", {"self"}),
    ("def f(): pass\n", set()),
    ('"""f g"""\nx = "h"\n', set()),
    ('t = "kgdialog.model:DialogModel.loss_pair"\n',
     {"kgdialog", "model", "DialogModel", "loss_pair"}),
])
def test_read_names_finds_loads_attributes_and_tracer_targets(source, read):
    assert read_names(source) == read


# Annotated class fields that no program code reads, each kept for its reason.
UNREAD_FIELDS: dict[str, str] = {}


def annotated_fields(source: str) -> list[tuple[str, str]]:
    """The (class, field) pairs of ``source``: each plain name a class body
    annotates, such as a dataclass or NamedTuple field, in source order."""
    return [(node.name, item.target.id)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def attribute_reads(source: str) -> set[str]:
    """The attribute names ``source`` loads; a field is read through an
    attribute, so a local variable of the same name does not count."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def test_every_field_is_read_outside_tests():
    read = set().union(*(attribute_reads(path.read_text())
                         for folder in READERS
                         for path in sorted((ROOT / folder).rglob("*.py"))))
    unread = [f"{cls}.{field}" for path in sorted(SRC.glob("*.py"))
              for cls, field in annotated_fields(path.read_text())
              if field not in read]
    assert sorted(unread) == sorted(UNREAD_FIELDS)


@pytest.mark.parametrize("source, fields", [
    ("class C:\n    a: int\n    b: 'T' = 1\n", [("C", "a"), ("C", "b")]),
    ("class P(NamedTuple):\n    x: float\n", [("P", "x")]),
    ("class C:\n    X = 1\n    def f(self): pass\n", []),
    ("class C:\n    def f(self):\n        self.x: int = 1\n"
     "        y: int = 2\n", []),
    ("class A:\n    class B:\n        x: int\n    y: int\n",
     [("A", "y"), ("B", "x")]),
    ("x: int = 1\n", []),
])
def test_annotated_fields_lists_class_body_annotations(source, fields):
    assert annotated_fields(source) == fields


@pytest.mark.parametrize("source, read", [
    ("a.b.c\n", {"b", "c"}),
    ("self.x = 1\ndel self.y\n", set()),
    ("T_t = f(x)\ng(T_t)\n", set()),
    ('getattr(a, "x")\n', set()),
])
def test_attribute_reads_finds_loaded_attributes_only(source, read):
    assert attribute_reads(source) == read
