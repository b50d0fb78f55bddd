"""numpy is the package's only runtime dependency: every module imports only
the standard library, numpy and the package itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import duet

ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "duet"}


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, top-level module)`` of each absolute import in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_every_module_imports_only_the_standard_library_numpy_and_duet():
    root = Path(duet.__file__).parent
    modules = sorted(root.rglob("*.py"))
    assert len(modules) > 10
    outside = [
        f"{path.relative_to(root)}:{line} imports {module}"
        for path in modules
        for line, module in absolute_imports(path)
        if module not in ALLOWED
    ]
    assert outside == []


def test_the_guard_sees_each_form_of_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os, scipy.linalg\nfrom torch import nn\nfrom . import merge\nfrom numpy import ndarray\n"
    )
    assert [m for _, m in absolute_imports(module) if m not in ALLOWED] == ["scipy", "torch"]
