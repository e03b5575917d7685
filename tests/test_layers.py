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


def _text_homes(sources: dict[str, str], text: str) -> dict[str, int]:
    """How often each module that holds `text` holds it."""
    return {name: source.count(text) for name, source in sources.items() if text in source}


def test_each_input_rule_has_one_home():
    # The size rule (check_tensor_size) and the point rule (check_points) live in mapping;
    # every other module calls them instead of repeating the comparison or the message.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [name for name, text in sources.items() if _size_comparisons(text)] == ["mapping"]
    assert _text_homes(sources, "point lies on or outside the unit polydisk") == {"mapping": 1}


def test_the_order_cap_has_one_home():
    # check_exact_order in mapping caps the exact derivative orders of closed forms;
    # derivative_exact, verify_derivative_bound and the search call it.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _text_homes(sources, "derivative orders above") == {"mapping": 1}
    assert _text_homes(sources, "> MAX_CLOSED_FORM_ORDER") == {"mapping": 1}


def test_the_radius_rule_has_one_home():
    # bounds._check_radius keeps moduli and radii in [0, 1); the rhs_* functions and the
    # CLI's --radius-cap call it.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _text_homes(sources, "must lie in [0, 1)") == {"bounds": 1}


def test_text_home_checker_counts_each_holder():
    assert _text_homes({"mapping": "a rule; a rule", "bounds": "a ru le", "search": "(a rule)"},
                       "a rule") == {"mapping": 2, "search": 1}


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


def _map_classes(source: str) -> set[str]:
    """PluriharmonicMap and every class of the source derived from one of them."""
    found = {"PluriharmonicMap"}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in found
                                                  for b in node.bases):
            found.add(node.name)
    return found


def _named_map_classes(path: Path, classes: set[str]) -> set[str]:
    """The classes of `classes` that a module imports by name or reads as an attribute."""
    tree = ast.parse(path.read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names & classes


def test_the_range_certificate_has_one_home():
    # Each map class states its sup_bound in mapping, and a declared bound is read there
    # alone; bounds and quadrature dispatch on no closed-form class.
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert [name for name, text in sources.items() if "certified_sup" in text] == ["mapping"]
    classes = _map_classes(sources["mapping"])
    assert {"SeriesMap", "ColonnaMap", "BlaschkeProduct", "ComposedMap"} <= classes
    for name in ("bounds", "quadrature"):
        assert _named_map_classes(PACKAGE / f"{name}.py", classes) \
            <= {"PluriharmonicMap", "SeriesMap"}


def test_map_class_checker_sees_subclasses_imports_and_attributes(tmp_path):
    assert _map_classes("class PluriharmonicMap:\n    pass\n"
                        "class A(PluriharmonicMap):\n    pass\n"
                        "class B(A):\n    pass\n"
                        "class C:\n    pass\n") == {"PluriharmonicMap", "A", "B"}
    path = tmp_path / "bounds.py"
    path.write_text("from .mapping import (ColonnaMap, SeriesMap, to_pairs)\n"
                    "from polyschwarz.mapping import ComposedMap\n"
                    "from . import mapping\n"
                    "kind = mapping.BlaschkeProduct\n")
    assert _named_map_classes(path, {"SeriesMap", "ColonnaMap", "ComposedMap", "BlaschkeProduct",
                                     "PluriharmonicMap"}) \
        == {"SeriesMap", "ColonnaMap", "ComposedMap", "BlaschkeProduct"}


def _dict_names(source: str) -> list[int]:
    """Lines that name __dict__, as an attribute, a name or a string."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if "__dict__" in (getattr(node, "attr", None), getattr(node, "id", None),
                                    getattr(node, "value", None)))


def test_no_module_names_an_object_dict():
    # A map holds what its constructor built and its cached_property values; no
    # module stores anything else in it through its __dict__.
    assert {p.stem: lines for p in PACKAGE.glob("*.py") if (lines := _dict_names(p.read_text()))} \
        == {}


def test_dict_checker_sees_attributes_names_and_strings():
    assert _dict_names("cache = mapping.__dict__.setdefault('c', {})\n"
                       "d = __dict__\n"
                       "e = getattr(f, '__dict__')\n"
                       "g = vars(f)\n"
                       "h = f.dict\n") == [1, 2, 3]


def _cache_decorators(source: str) -> list[int]:
    """Lines of the decorators that name lru_cache or cache, called or not, as a name
    or as an attribute (functools.cache)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) in ("lru_cache", "cache"):
                    found.append(dec.lineno)
    return sorted(found)


def test_quadrature_keeps_no_cache():
    # A cache keyed on a map keeps the map and its tensors alive after the caller drops
    # it; quadrature recomputes what it needs.  The integer-keyed caches of bounds and
    # mapping (_start_grid, and _axis_weights for the weights of one order on one axis)
    # hold no map.
    assert _cache_decorators((PACKAGE / "quadrature.py").read_text()) == []


def test_cache_checker_sees_names_attributes_and_calls():
    assert _cache_decorators("@lru_cache(maxsize=2)\ndef f(m):\n    pass\n"
                             "@functools.cache\ndef g(m):\n    pass\n"
                             "@cache\ndef h(m):\n    pass\n"
                             "@functools.lru_cache\ndef k(m):\n    pass\n"
                             "@cached_property\ndef p(self):\n    pass\n") == [1, 4, 7, 10]


def _sampling_names(source: str) -> list[int]:
    """Lines that name eval_grid, eval_points or an FFT as a name, an attribute, a
    definition or an import (not in a string)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        for name in (getattr(node, key, None) for key in ("id", "attr", "name", "module")):
            if isinstance(name, str) and any(part in ("eval_grid", "eval_points")
                                             or part.startswith("fft")
                                             for part in name.split(".")):
                found.add(node.lineno)
    return sorted(found)


def test_quadrature_reaches_map_values_only_through_kernel_sums():
    # Coefficient extraction and Cauchy derivatives are both kernel_sums calls, so
    # quadrature neither samples a grid nor runs an FFT of its own.
    assert _sampling_names((PACKAGE / "quadrature.py").read_text()) == []


def test_sampling_name_checker_sees_imports_attributes_and_definitions():
    assert _sampling_names("import numpy.fft\n"
                           "from numpy.fft import fftn\n"
                           "v = f.eval_grid(axes)\n"
                           "F = np.fft.fftn(v)\n"
                           "def eval_points(Z):\n    pass\n"
                           "s = 'eval_grid, fft'\n"
                           "g = grid_rows(axes)\n") == [1, 2, 3, 4, 5]


def _method_homes(source: str, method: str) -> list[str | None]:
    """The class of each definition of `method` in the source (None outside a class)."""
    tree = ast.parse(source)
    owners = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body}
    return sorted((owners.get(id(node)) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and node.name == method), key=str)


def test_kernel_sums_has_one_definition():
    # kernel_sums checks the kernels and pairs them with their conjugates for every map
    # class; a class computes its sums in _grid_sums and nowhere else.
    assert {p.stem: homes for p in PACKAGE.glob("*.py")
            if (homes := _method_homes(p.read_text(), "kernel_sums"))} \
        == {"mapping": ["PluriharmonicMap"]}


def test_method_home_checker_names_the_enclosing_class():
    assert _method_homes("class A:\n    def kernel_sums(self):\n        pass\n"
                         "class B(A):\n    async def kernel_sums(self):\n        pass\n"
                         "    def other(self):\n        def kernel_sums():\n            pass\n"
                         "def kernel_sums():\n    pass\n", "kernel_sums") == ["A", "B", None, None]


def _file_writes(source: str) -> list[tuple[int, str | None]]:
    """(line, innermost enclosing function) of each call that may open a file for writing:
    os.open, write_text, write_bytes, and an open(...) or x.open(...) whose mode (argument 1
    of open, argument 0 of a method, or mode=) is given and is not a constant of r, b and t."""
    tree = ast.parse(source)
    funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "open" and getattr(getattr(func, "value", None), "id", None) == "os":
            writes = True
        elif name == "open":
            at = 1 if isinstance(func, ast.Name) else 0
            modes = node.args[at:at + 1] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            writes = any(not (isinstance(m, ast.Constant) and set(str(m.value)) <= set("rbt"))
                         for m in modes)
        else:
            writes = name in ("write_text", "write_bytes")
        if writes:
            inside = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            found.append((node.lineno, inside[-1] if inside else None))
    return sorted(found, key=lambda f: f[0])


def test_every_file_is_written_by_one_helper():
    # mapping._write_file writes report files, CSV tables, sharpness results and map files
    # in place; no other function of the package opens a file for writing.
    homes = {(p.stem, func) for p in PACKAGE.glob("*.py") for _, func in _file_writes(p.read_text())}
    assert homes == {("mapping", "_write_file")}


def test_file_write_checker_sees_modes_os_open_and_path_methods():
    assert _file_writes("import os\n"
                        "def save(p):\n"
                        "    open(p, 'w')\n"
                        "    open(p, mode='a')\n"
                        "    open(p, 'r+b')\n"
                        "def load(p, m):\n"
                        "    open(p)\n"
                        "    open(p, 'rb')\n"
                        "    p.open()\n"
                        "    p.open('rt')\n"
                        "    p.open('w')\n"
                        "    open(p, m)\n"
                        "    p.write_text('x')\n"
                        "    p.read_text()\n"
                        "fd = os.open('f', os.O_WRONLY)\n") == [
        (3, "save"), (4, "save"), (5, "save"), (11, "load"), (12, "load"), (13, "load"), (15, None)]


def _names_of(source: str, names: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each reference to one of `names`: a name, an attribute or an import
    (not in a string)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, ast.alias):
            name = node.name
        if name in names:
            found.append((node.lineno, name))
    return sorted(found)


def _half_reads(source: str) -> list[tuple[int, str]]:
    """(line, text) of each attribute named a or b that the source reads or writes."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("a", "b"))


def test_the_coefficient_layout_has_one_home():
    # A SeriesMap holds one tensor c, a stacked over b: only mapping splits it into its
    # halves, and the other modules use c whole.  cli reads the extremal command's option a.
    assert {p.stem: [text for _, text in lines] for p in PACKAGE.glob("*.py")
            if p.stem != "mapping" and (lines := _half_reads(p.read_text()))} == {"cli": ["args.a"]}


def test_half_read_checker_sees_reads_writes_and_calls():
    assert _half_reads("x = f.a[0]\n"
                       "mapping.b = y\n"
                       "z = g().a\n"
                       "w = f.c, f.ab, a, 'f.a'\n") == [(1, "f.a"), (2, "mapping.b"), (3, "g().a")]


def _grid_reads(source: str) -> list[tuple[int, str]]:
    """(line, text) of each attribute named indices or degrees: an index grid (np.indices), or
    a SeriesMap.degrees that would hold one."""
    return sorted((node.lineno, ast.unparse(node)) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("indices", "degrees"))


def test_the_degree_structure_has_one_home():
    # |k| over the tensor c is mapping's: SeriesMap.degree and SeriesMap.homogeneous_part build
    # their index grids there, and bounds evaluates the part instead of masking c.
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if _grid_reads(p.read_text())) == ["mapping"]


def test_grid_read_checker_sees_attributes_only():
    assert _grid_reads("grid = np.indices(shape).sum(axis=0)\n"
                       "part = f.c * (f.degrees == 2)\n"
                       "indices = enumerate_indices(2, 3)\n"
                       "doc = 'np.indices'\n") == [(1, "np.indices"), (2, "f.degrees")]


def test_bounds_runs_cauchy_checks_on_inputs_it_has_checked():
    # verify_derivative_bound checks sup, alpha and the points once and calls quadrature's
    # private rule and derivative bodies; the public cauchy_rule and cauchy_derivative
    # would check every point again.
    assert _names_of((PACKAGE / "bounds.py").read_text(), {"cauchy_rule", "cauchy_derivative"}) == []


def test_name_checker_sees_calls_attributes_and_imports():
    assert _names_of("from .quadrature import (QuadratureSpec, cauchy_rule)\n"
                     "A, B = quadrature.cauchy_derivative(f, z, alpha)\n"
                     "rule = _cauchy_rule(t, alpha, sup, spec)\n"
                     "doc = 'cauchy_rule sizes the rule'\n"
                     "run = cauchy_derivative\n",
                     {"cauchy_rule", "cauchy_derivative"}) \
        == [(1, "cauchy_rule"), (2, "cauchy_derivative"), (5, "cauchy_derivative")]


def _callers(source: str, name: str) -> list[tuple[str | None, str | None]]:
    """(innermost enclosing class, innermost enclosing function) of each call of `name`, as a
    name or an attribute."""
    tree = ast.parse(source)
    scopes = [s for s in ast.walk(tree)
              if isinstance(s, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            inside = [s for s in scopes if s.lineno <= node.lineno <= s.end_lineno]
            classes = [s.name for s in inside if isinstance(s, ast.ClassDef)]
            funcs = [s.name for s in inside if not isinstance(s, ast.ClassDef)]
            found.append((classes[-1] if classes else None, funcs[-1] if funcs else None))
    return sorted(found, key=str)


def test_series_contractions_have_two_homes():
    # A series contracts its tensor c in SeriesMap._derivative, at points (values and exact
    # derivatives, one table per axis), and in SeriesMap._grid_sums, against kernel sums.
    assert {p.stem: callers for p in PACKAGE.glob("*.py")
            if (callers := _callers(p.read_text(), "_contract_rows"))} \
        == {"mapping": [("SeriesMap", "_derivative"), ("SeriesMap", "_grid_sums")]}


def test_caller_checker_names_the_enclosing_class_and_function():
    assert _callers("x = _contract_rows(c, t)\n"
                    "class S:\n"
                    "    def f(self):\n"
                    "        def g():\n"
                    "            return mapping._contract_rows(c, t)\n"
                    "        return _contract_rows(c, t)\n"
                    "    async def h(self):\n"
                    "        run = _contract_rows\n"
                    "        return '_contract_rows(c, t)'\n"
                    "def k():\n"
                    "    return _contract_rows_other(c)\n", "_contract_rows") \
        == [("S", "f"), ("S", "g"), (None, None)]
