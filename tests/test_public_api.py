"""Every exported name resolves, so a deleted function cannot linger in an
`__all__` list or in the package's re-exports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import frameforge


def test_every_all_entry_resolves():
    checked = 0
    for info in pkgutil.iter_modules(frameforge.__path__, "frameforge."):
        module = importlib.import_module(info.name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{info.name}.__all__ names {attr!r}"
            checked += 1
    assert checked


def test_every_package_reexport_exists():
    tree = ast.parse(Path(frameforge.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"frameforge.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"frameforge.{node.module}.{alias.name}"
