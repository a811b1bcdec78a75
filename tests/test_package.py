import importlib
import os
import subprocess
import sys

import pytest

import tropmono

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_exports_are_the_defining_modules_objects():
    for name in tropmono.__all__:
        module = importlib.import_module(f"tropmono.{tropmono._EXPORTS[name]}")
        assert getattr(tropmono, name) is getattr(module, name), name
    assert set(tropmono.__all__) <= set(dir(tropmono))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'Engin'"):
        tropmono.Engin


def test_package_import_is_lazy_and_submodules_still_import():
    """``import tropmono`` loads no layer; ``from tropmono import engine``
    and ``tropmono.Engine`` load the engine, and the error classes keep one
    identity under every import path."""
    code = (
        f"import sys; sys.path.insert(0, {SRC!r})\n"
        "import tropmono\n"
        "print(sorted(m for m in sys.modules if m.startswith('tropmono.')))\n"
        "from tropmono import engine\n"
        "print(engine is sys.modules['tropmono.engine'], tropmono.Engine is engine.Engine)\n"
        "from tropmono import errors, graphs, polygons\n"
        "print(graphs.CertificationError is errors.CertificationError,\n"
        "      engine.DerivationError is errors.DerivationError,\n"
        "      engine.ReplayError is errors.ReplayError,\n"
        "      polygons.SmoothnessError is errors.SmoothnessError)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True True", "True True True True"]


def test_every_traced_layer_resolves():
    """Every target the benchmark's tracer wraps names a function of the
    library, so renaming or deleting one fails here before it crashes a
    traced benchmark run.  The tracer is read and run from source (no
    bytecode is written next to it) and is not installed."""
    path = os.path.join(os.path.dirname(SRC), "perfbench", "tracer.py")
    with open(path) as fh:
        tracer = {"__name__": "perfbench_tracer"}
        exec(compile(fh.read(), path, "exec"), tracer)
    targets = [t for ts in tracer["LAYERS"].values() for t in ts]
    assert len(targets) == len(set(targets)) >= 24
    for target in targets:
        found = tracer["_resolve"](target)
        assert found and all(callable(fn) for fn in found), target
