"""The benchmark's tracer wraps package functions by name.  Installing it
here makes a refactor that moves or drops one of those names fail the
tests, instead of a traced benchmark run later."""

import importlib
import importlib.util
from pathlib import Path

import polyschwarz as ps

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the tracer imports only the standard library
    return module


def test_tracer_installs_and_uninstalls_on_the_package():
    tracer_module = _load_tracer()
    targets = [(importlib.import_module(f"polyschwarz.{home}"), attr)
               for home, attr in (*tracer_module.FUNCTIONS, *tracer_module.COUNTED)]
    targets += [(getattr(ps.mapping, cls), attr) for cls, attr in tracer_module.METHODS]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(targets, originals))
        mark = tracer.mark()
        f = ps.random_bounded_map(2, 1, 3, seed=1)
        ps.derivative_exact(f, [0.1, 0.2j], (1, 1))
        summary = tracer.summary(mark)
        assert summary["mapping.build.calls"] == 1
        assert summary["mapping.derivative_exact.calls"] == 1
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(targets, originals))
