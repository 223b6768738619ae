"""Code hygiene: every name that src/, tests/ or scripts/ imports is used,
every module-level private function in src/ has a caller, no function
nested in a src/ function keeps a cycle through its own name, and every
script starts.

A name counts as used when the module loads it somewhere, lists it in
`__all__`, or re-exports it explicitly with the redundant alias form
`from m import x as x`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SCANNED = SOURCES + sorted((ROOT / "tests").rglob("*.py")) + SCRIPTS


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.asname is None or alias.asname != alias.name:
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SCANNED
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_scanner_sees_unused_and_used_names():
    source = (
        "import os\nimport os.path as osp\nfrom a import b, c\nfrom d import e as e\n"
        "from f import g\n__all__ = ['g']\nprint(c, osp)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "b")]


def dead_private_functions(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """Module-level `_private` functions that no statement but their own def
    names, in any of the sources (as a name, an attribute or an import)."""
    defs: list[tuple[str, int, str]] = []
    used: set[str] = set()
    for label, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name.startswith("_")
                and not stmt.name.startswith("__")
            ):
                defs.append((label, stmt.lineno, stmt.name))
                names.discard(stmt.name)
            used |= names
    return [d for d in defs if d[2] not in used]


def test_no_dead_private_functions():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in SOURCES}
    found = [f"{label}:{line}: {name}" for label, line, name in dead_private_functions(sources)]
    assert not found, "private function never referenced:\n" + "\n".join(found)


def test_dead_helper_scanner_sees_callers():
    sources = {
        "a.py": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\n"
        "def _imported():\n    pass\n\ndef __dunder__():\n    pass\n",
        "b.py": "import a\nfrom a import _imported\n\ndef public():\n    a._used()\n",
    }
    assert dead_private_functions(sources) == [("a.py", 4, "_dead")]


def self_calling_closures(source: str) -> list[tuple[int, str]]:
    """Functions nested in a function that name themselves, so each call of
    the enclosing function leaves a reference cycle for the collector,
    unless the enclosing function `del`s that name."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        deleted = {
            t.id
            for node in ast.walk(outer)
            if isinstance(node, ast.Delete)
            for t in node.targets
            if isinstance(t, ast.Name)
        }
        for inner in ast.walk(outer):
            if (
                inner is not outer
                and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                and inner.name not in deleted
                and any(isinstance(n, ast.Name) and n.id == inner.name for n in ast.walk(inner))
            ):
                found.append((inner.lineno, inner.name))
    return sorted(set(found))


def test_no_self_calling_closures():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in self_calling_closures(path.read_text())
    ]
    assert not found, "closure refers to itself and is never deleted:\n" + "\n".join(found)


def test_closure_scanner_sees_self_calls():
    source = (
        "def kept():\n    def walk(k):\n        return walk(k - 1) if k else 0\n    return walk(3)\n\n"
        "def freed():\n    def walk(k):\n        return walk(k - 1) if k else 0\n"
        "    found = walk(3)\n    del walk\n    return found\n\n"
        "def flat():\n    def step(k):\n        return k + 1\n    return step(1)\n\n"
        "def _module(k):\n    return _module(k - 1) if k else 0\n\n"
        "class C:\n    def method(self):\n        return self.method\n"
    )
    assert self_calling_closures(source) == [(2, "walk")]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
