"""Import hygiene: every name that src/ or tests/ imports is used.

A name counts as used when the module loads it somewhere, lists it in
`__all__`, or re-exports it explicitly with the redundant alias form
`from m import x as x`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


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
