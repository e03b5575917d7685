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


def _size_comparisons(source: str) -> list[int]:
    """Lines of the comparisons that read MAX_SAMPLE_BYTES."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(getattr(sub, "id", getattr(sub, "attr", None)) == "MAX_SAMPLE_BYTES"
                          for sub in ast.walk(node)))


def test_each_input_rule_has_one_home():
    # The size rule (check_tensor_size) and the point rule (check_points) live in mapping;
    # every other module calls them instead of repeating the comparison or the message.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [name for name, text in sources.items() if _size_comparisons(text)] == ["mapping"]
    point = "point lies on or outside the unit polydisk"
    assert {name: text.count(point) for name, text in sources.items() if point in text} \
        == {"mapping": 1}


def test_size_comparison_checker_sees_names_and_attributes():
    assert _size_comparisons("if size > MAX_SAMPLE_BYTES:\n    pass\n"
                             "ok = mapping.MAX_SAMPLE_BYTES >= size\n"
                             "cap = MAX_SAMPLE_BYTES // 16\n") == [1, 3]


def _ndim_homes(path: Path) -> set[tuple[str, str | None]]:
    """(module, innermost enclosing function) of each line that mentions np.ndim(."""
    text = path.read_text()
    funcs = [f for f in ast.walk(ast.parse(text))
             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    homes = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if "np.ndim(" in line:
            inside = [f.name for f in funcs if f.lineno <= lineno <= f.end_lineno]
            homes.add((path.stem, inside[-1] if inside else None))
    return homes


def test_the_point_or_stack_rule_has_one_home():
    # One point or a stack is decided by np.ndim in mapping.one_or_stack alone;
    # derivative_exact and the verify_*_bound routines call it.
    homes = set().union(*(_ndim_homes(p) for p in PACKAGE.glob("*.py")))
    assert homes == {("mapping", "one_or_stack")}


def test_ndim_checker_names_the_enclosing_function(tmp_path):
    path = tmp_path / "bounds.py"
    path.write_text("one = np.ndim(z) < 2\n"
                    "def f(z):\n"
                    "    def g():\n"
                    "        return np.ndim(z)\n"
                    "    return np.ndim(z)\n")
    assert _ndim_homes(path) == {("bounds", None), ("bounds", "g"), ("bounds", "f")}
