"""Every name a package module imports is used in that module, and every public
name it defines is named somewhere else in the sources."""

import ast
import re
from pathlib import Path

import pytest

import qgfourier

MODULES = sorted(
    p for p in Path(qgfourier.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
        "os (line 1)", "dumps (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ROOT = Path(__file__).resolve().parents[1]
SOURCES = {p: p.read_text() for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")}
PACKAGE = sorted((ROOT / "src" / "qgfourier").glob("*.py"))


def public_defs(tree: ast.Module):
    """(name, first line, last line) of each public top-level def, class and method."""
    for node in tree.body:
        for item in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
            if (isinstance(item, (ast.FunctionDef, ast.ClassDef))
                    and not item.name.startswith("_")):
                yield item.name, item.lineno, item.end_lineno


def unread_names(path, sources: dict) -> list[str]:
    """Public names defined in `path` that no source names outside their own def."""
    lines = sources[path].splitlines()
    unread = []
    for name, first, last in public_defs(ast.parse(sources[path])):
        pattern = re.compile(rf"\b{name}\b")
        rest = "\n".join(lines[:first - 1] + lines[last:])
        others = (text for p, text in sources.items() if p != path)
        if not any(pattern.search(text) for text in (rest, *others)):
            unread.append(f"{name} (line {first})")
    return unread


def test_detector_flags_an_unread_name():
    sources = {
        "a": "def used():\n    pass\n\n\ndef dead():\n    return dead()\n\n\n"
             "class K:\n    def __init__(self):\n        pass\n\n    def gone(self):\n        pass\n",
        "b": "used()\nK()\n",
    }
    assert unread_names("a", sources) == ["dead (line 5)", "gone (line 13)"]


@pytest.mark.parametrize("path", PACKAGE, ids=[p.stem for p in PACKAGE])
def test_every_public_name_is_read(path):
    assert unread_names(path, SOURCES) == []
