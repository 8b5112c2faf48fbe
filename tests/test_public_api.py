"""Every exported name resolves, so a deleted function cannot linger in an
`__all__` list or in the package's re-exports; and the README lists exactly
the rejection reasons the source builds."""

import ast
import importlib
import pkgutil
import re
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


def _built_reasons(tree: ast.Module) -> set[str]:
    """The first argument of every Rejection(...) call in the module.  It is
    a string literal, or a parameter of the enclosing function, whose
    literal values are then read at that function's calls in the module."""
    reasons, passed = set(), []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Rejection"):
                continue
            code = call.args[0]
            if isinstance(code, ast.Constant):
                reasons.add(code.value)
            else:
                params = [a.arg for a in func.args.args]
                assert isinstance(code, ast.Name) and code.id in params, ast.dump(code)
                passed.append((func.name, params.index(code.id)))
    for name, index in passed:
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
        ]
        assert calls
        for call in calls:
            assert isinstance(call.args[index], ast.Constant), ast.dump(call)
            reasons.add(call.args[index].value)
    return reasons


def test_readme_lists_every_rejection_reason():
    built = set()
    for path in Path(frameforge.__file__).parent.glob("*.py"):
        built |= _built_reasons(ast.parse(path.read_text(encoding="utf-8")))
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Rejection reasons", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z0-9-]+)` \|", section, flags=re.MULTILINE)
    assert len(listed) == len(set(listed))
    assert set(listed) == built
