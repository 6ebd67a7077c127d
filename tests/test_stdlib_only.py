"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import hermrank

SOURCES = sorted(Path(hermrank.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_is_this_checkouts_source():
    # the tests must exercise src/ of this checkout, not an installed copy
    src = Path(__file__).resolve().parent.parent / "src"
    assert Path(hermrank.__file__).resolve().is_relative_to(src)


def test_every_absolute_import_is_stdlib():
    assert len(SOURCES) >= 10
    foreign = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert foreign == []
