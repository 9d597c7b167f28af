"""Every name a library module, a test module or `conftest.py` imports is used in that module.

`__init__.py` is left out: its imports are the public API. A name counts as
used when it appears as an `ast.Name` anywhere in the module, annotations
included; `from __future__` imports are not names.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).parent.parent
_SOURCES = sorted(p for p in (_ROOT / "src" / "edick").glob("*.py") if p.name != "__init__.py")
_SOURCES += sorted(Path(__file__).parent.glob("*.py")) + [_ROOT / "conftest.py"]


def _unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path: Path) -> None:
    unused = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not unused, [f"{path.name}:{line}: {name}" for line, name in unused]


def test_the_check_finds_an_unused_import() -> None:
    tree = ast.parse("from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nprint(a)\n")
    assert _unused_imports(tree) == [(2, "os"), (3, "c")]


def test_every_library_module_is_scanned() -> None:
    assert {p.name for p in _SOURCES} >= {"encodings.py", "converters.py", "decompose.py", "cli.py"}
    assert {p.name for p in _SOURCES} >= {"conftest.py", "test_cli.py", "test_unused_imports.py"}
