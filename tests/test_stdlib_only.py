"""The runtime is stdlib-only: every absolute import under src/sodatlas names
a standard-library module (relative imports stay inside the package)."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sodatlas"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_absolute_import_is_in_the_standard_library():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) >= 10
    foreign = [
        f"{path.relative_to(PACKAGE)}:{lineno}: {name}"
        for path in files
        for lineno, name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
