"""Every name a module of the package imports is used in that module.

No linter is a dependency of the package or of its tests, so this is
checked with the standard library's ast.  ``__init__.py`` is exempt: its
imports are the package's public names.
"""

import ast
import pathlib

import pytest

_PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rtbp_resonance"


def _unused_imports(source: str) -> list:
    """(line, name) of each name that an import of source binds (other than
    from __future__) and that no expression of it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nx = np.pi + len(sep)\n"
    assert _unused_imports(source) == [(1, "math"), (3, "path")]
