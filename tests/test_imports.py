"""Every name a package module imports is used in that module, every public
name it defines has a caller in the package or the benchmark, and importing
the CLI leaves the heavier modules it does not need unloaded."""

import ast
import io
import os
import subprocess
import sys
import tokenize
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
SOURCES = {
    p.relative_to(ROOT).as_posix(): p.read_text()
    for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")
}
PACKAGE = sorted(p for p in SOURCES if p.startswith("src/qgfourier/"))


def is_caller(path: str) -> bool:
    """Whether a name in `path` counts as a use: the package outside its
    re-exports, and the benchmark.  A name only tests name is a test
    reference, and lives in tests/."""
    return path.startswith(("src/", "bench/")) and not path.endswith("__init__.py")


def public_defs(tree: ast.Module):
    """(name, first line, last line) of each public top-level def, class and method."""
    for node in tree.body:
        for item in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
            if (isinstance(item, (ast.FunctionDef, ast.ClassDef))
                    and not item.name.startswith("_")):
                yield item.name, item.lineno, item.end_lineno


def code_names(source: str, skip=range(0)) -> set[str]:
    """The names `source` uses in code outside the lines in `skip`; a name in a
    comment or a string calls nothing."""
    return {tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.NAME and tok.start[0] not in skip}


def unread_names(path, sources: dict) -> list[str]:
    """Public names defined in `path` that no caller uses outside their own def."""
    called = set().union(*(code_names(text) for p, text in sources.items()
                           if p != path and is_caller(p)))
    return [f"{name} (line {first})"
            for name, first, last in public_defs(ast.parse(sources[path]))
            if name not in called | code_names(sources[path], range(first, last + 1))]


def test_detector_flags_an_unread_name():
    sources = {
        "src/a.py": "def used():\n    pass\n\n\ndef dead():\n    return dead()\n\n\n"
                    "class K:\n    def __init__(self):\n        pass\n\n    def gone(self):\n"
                    "        pass\n\n\ndef tested():\n    pass\n",
        "src/b.py": "used()\nK()\nprint('gone')  # dead() is not called here\n",
        "src/__init__.py": "from .a import dead, tested\n",
        "tests/test_a.py": "tested()\ngone()\n",
    }
    assert unread_names("src/a.py", sources) == [
        "dead (line 5)", "gone (line 13)", "tested (line 17)",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=[Path(p).stem for p in PACKAGE])
def test_every_public_name_is_read(path):
    assert unread_names(path, SOURCES) == []


def chunk_seeders(sources: dict) -> list[str]:
    """Package modules other than `random_series` whose code names
    `chunk_generator`: a Monte Carlo driver draws its chunks through
    `random_series._chunks`, not a seeding loop of its own."""
    return [p for p in sorted(sources)
            if p.startswith("src/") and not p.endswith("/random_series.py")
            and "chunk_generator" in code_names(sources[p])]


def test_detector_flags_a_hand_rolled_chunk_loop():
    sources = {
        "src/qgfourier/random_series.py": "def _chunks(seed):\n    return seed.chunk_generator(0)\n",
        "src/qgfourier/a.py": "for i in range(3):\n    rng = seed.chunk_generator(i)\n",
        "src/qgfourier/b.py": "# seed.chunk_generator(i)\nname = 'chunk_generator'\n",
        "tests/test_a.py": "rng = seed.chunk_generator(0)\n",
    }
    assert chunk_seeders(sources) == ["src/qgfourier/a.py"]


def test_only_random_series_seeds_chunks():
    assert chunk_seeders(SOURCES) == []


#: modules the CLI reaches only lazily: `leggauss` inside the quadrature build,
#: `traceback` in `run_one`'s handler; scipy is a test extra
LAZY_MODULES = ("numpy.polynomial", "traceback", "scipy")


def test_cli_import_leaves_lazy_modules_unloaded():
    # a fresh interpreter, since this one has loaded them already; each start
    # of the CLI pays for what its import pulls in
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = f"import sys, qgfourier.cli; print([m for m in {LAZY_MODULES!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
