import ast
import pathlib

import pytest

import qbroadcast

MODULES = sorted(p for p in pathlib.Path(qbroadcast.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> set:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


class TestImports:
    # __init__.py only re-exports, so it is left out
    @pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
    def test_every_imported_name_is_read(self, path):
        assert unused_imports(path.read_text(encoding="utf-8")) == set()

    def test_detects_an_unused_name(self):
        assert unused_imports("import numpy as np\nfrom os import path, sep\nprint(sep)\n") == {"np", "path"}
