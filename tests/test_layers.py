"""The package is one import stack: each module imports only modules strictly
below it, and only at module level, so no lazy import can go back up."""

import ast
from pathlib import Path

import pytest

import polyschwarz

STACK = ("multiindex", "mapping", "quadrature", "bounds", "search", "cli", "__init__")
PACKAGE = Path(polyschwarz.__file__).parent


def _imported_modules(node: ast.ImportFrom | ast.Import) -> list[str]:
    """Package modules named by an import statement."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return [p[1] for p in parts if p[0] == "polyschwarz" and len(p) > 1]
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts[0] != "polyschwarz":
            return []
        if len(parts) > 1:
            return [parts[1]]
        return [alias.name for alias in node.names]
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def _violations(path: Path) -> list[str]:
    name = path.stem
    rank = STACK.index(name)
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{name}:{node.lineno}: import inside a function")
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for target in _imported_modules(node):
                if target not in STACK or STACK.index(target) >= rank:
                    found.append(f"{name}:{node.lineno}: imports {target}, "
                                 f"which is not below {name} in the stack")
    return found


def test_every_module_is_in_the_stack():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(STACK)


@pytest.mark.parametrize("name", STACK)
def test_module_imports_only_downward_at_module_level(name):
    assert _violations(PACKAGE / f"{name}.py") == []


def test_checker_flags_lazy_and_upward_imports(tmp_path):
    path = tmp_path / "mapping.py"
    path.write_text("from .multiindex import as_index\n"
                    "from . import bounds\n"
                    "def f():\n"
                    "    from .quadrature import cauchy_derivative\n")
    assert sorted(_violations(path)) == [
        "mapping:2: imports bounds, which is not below mapping in the stack",
        "mapping:4: import inside a function",
        "mapping:4: imports quadrature, which is not below mapping in the stack",
    ]
