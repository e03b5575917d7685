"""Spans around calls into polyschwarz, recorded from outside the package.

``Tracer.install`` replaces each traced function at every name it is bound
to in the package's modules (``bounds.cauchy_derivative`` as well as
``quadrature.cauchy_derivative``, since ``from .quadrature import ...``
copies the binding), and each traced method on its class.  Spans are kept
in memory with a parent link; ``summary`` derives self time, top-level
totals and the Cauchy sample-cache counts from them.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter

MODULES = ("polyschwarz", "polyschwarz.multiindex", "polyschwarz.mapping",
           "polyschwarz.quadrature", "polyschwarz.bounds", "polyschwarz.search",
           "polyschwarz.cli")

VERIFY_FUNCTIONS = ("verify_derivative_bound", "verify_gradient_bound", "verify_growth_bound",
                    "verify_coefficient_bound", "verify_homogeneous_bound", "verify_l2_bound")

# (module, function) -> span name.  Map construction and evaluation spans
# share one name each so that nesting (random_bounded_map -> SeriesMap,
# ComposedMap.eval_points -> SeriesMap.eval_points) is counted once.
FUNCTIONS = {
    ("mapping", "load_map"): "mapping.load_map",
    ("mapping", "derivative_exact"): "mapping.derivative_exact",
    ("mapping", "random_bounded_map"): "mapping.build",
    ("quadrature", "cauchy_derivative"): "quadrature.cauchy_derivative",
    ("quadrature", "extract_coefficients"): "quadrature.extract_coefficients",
    ("bounds", "require_certified"): "bounds.require_certified",
    ("search", "direction_max"): "search.direction_max",
    ("search", "sharpness_ratio"): "search.sharpness_ratio",
    ("search", "sharpness_search"): "search.sharpness_search",
    ("cli", "main"): "cli.main",
    **{("bounds", name): f"bounds.{name}" for name in VERIFY_FUNCTIONS},
}
METHODS = {
    ("SeriesMap", "__init__"): "mapping.build",
    ("ColonnaMap", "to_series"): "mapping.build",
    ("SeriesMap", "eval_points"): "mapping.eval_points",
    ("ComposedMap", "eval_points"): "mapping.eval_points",
    ("ColonnaMap", "eval_points"): "mapping.eval_points",
    ("BlaschkeProduct", "eval_points"): "mapping.eval_points",
}
COUNTED = {("multiindex", "as_index"): "multiindex.as_index"}

COMPLEX_BYTES = 16
QUADRATURE_SPANS = ("quadrature.cauchy_derivative", "quadrature.extract_coefficients")


class Tracer:
    def __init__(self):
        # span: [name, parent index or -1, start, end, nested in a span of the
        #        same name, output shape of eval_points]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple] = []

    def _span(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, active[name] > 0, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            active[name] += 1
            rec[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                active[name] -= 1
                stack.pop()
            if name == "mapping.eval_points":
                rec[5] = out.shape
            return out

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = {m: importlib.import_module(m) for m in MODULES}
        for table, make in ((FUNCTIONS, self._span), (COUNTED, self._counter)):
            for (home, attr), name in table.items():
                original = getattr(modules[f"polyschwarz.{home}"], attr)
                wrapper = make(name, original)
                for module in modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)
        mapping = modules["polyschwarz.mapping"]
        for (cls_name, attr), name in METHODS.items():
            cls = getattr(mapping, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def mark(self) -> tuple:
        return len(self.spans), Counter(self.counts)

    def summary(self, mark: tuple) -> dict:
        """Per-layer totals over the spans recorded since ``mark``."""
        first, counts_before = mark
        spans = self.spans
        child_time = Counter()
        for name, parent, start, end, _, _ in spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start

        def ancestor(i, names):
            p = spans[i][1]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][1]
            return p

        calls, incl, self_s = Counter(), Counter(), Counter()
        for i, (name, parent, start, end, nested, _) in enumerate(spans[first:], first):
            if nested:
                continue
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child_time[i]
        missed = set()
        points = sample_bytes = 0
        for i, (name, _, _, _, nested, shape) in enumerate(spans[first:], first):
            if name != "mapping.eval_points" or nested or shape is None:
                continue
            points += math.prod(shape[:-1])
            quad = ancestor(i, QUADRATURE_SPANS)
            if quad >= 0:
                sample_bytes += math.prod(shape) * COMPLEX_BYTES
                if spans[quad][0] == "quadrature.cauchy_derivative":
                    missed.add(quad)
        cauchy = calls["quadrature.cauchy_derivative"]
        out = {
            "cli.main.calls": calls["cli.main"],
            "cli.main.self_s": self_s["cli.main"],
            "mapping.load_map.s": incl["mapping.load_map"],
            "mapping.eval_points.points": points,
            "mapping.eval_points.s": incl["mapping.eval_points"],
            "mapping.derivative_exact.calls": calls["mapping.derivative_exact"],
            "mapping.derivative_exact.s": incl["mapping.derivative_exact"],
            "mapping.build.calls": calls["mapping.build"],
            "mapping.build.s": incl["mapping.build"],
            "quadrature.cauchy_derivative.calls": cauchy,
            "quadrature.cauchy_derivative.self_s": self_s["quadrature.cauchy_derivative"],
            "quadrature.sample_misses": len(missed),
            "quadrature.sample_hit_ratio": (cauchy - len(missed)) / cauchy if cauchy else 0.0,
            "quadrature.sample_bytes": sample_bytes,
            "quadrature.extract_coefficients.s": incl["quadrature.extract_coefficients"],
            "bounds.require_certified.calls": calls["bounds.require_certified"],
            "bounds.require_certified.s": incl["bounds.require_certified"],
            "search.direction_max.calls": calls["search.direction_max"],
            "search.direction_max.s": incl["search.direction_max"],
            "search.sharpness_ratio.s": incl["search.sharpness_ratio"],
            "search.sharpness_search.self_s": self_s["search.sharpness_search"],
            "multiindex.as_index.calls": (self.counts["multiindex.as_index"]
                                          - counts_before["multiindex.as_index"]),
        }
        for name in VERIFY_FUNCTIONS:
            out[f"bounds.{name}.self_s"] = self_s[f"bounds.{name}"]
        return out

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for i, (name, parent, start, end, nested, shape) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": start - origin, "end": end - origin,
                                     "nested": nested, "shape": shape}) + "\n")
