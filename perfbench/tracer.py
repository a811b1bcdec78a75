"""Spans around tropmono's layer functions, installed from outside the package.

Modules import public functions by name (``graphs`` calls its own binding of
``subdivision_from_heights``, ``engine`` calls the module-level
``pipeline_interior_d`` as well as the method), so wrapping one attribute is
not enough: ``install`` replaces every binding of each wrapped function in
every loaded ``tropmono.*`` module and in every class defined there, and
``uninstall`` puts the originals back.

Per layer it records calls, calls that raised, inclusive seconds (outermost
activation only, so recursion and nested builders are not double counted)
and self seconds (span minus the spans of wrapped callees).
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

# metric name -> targets ("module.attr" or "module.Class.attr"; a trailing
# "*" matches every function of the module with that prefix)
LAYERS = {
    "subdivision.unimodular_refinement": ["subdivision.unimodular_refinement"],
    "subdivision.subdivision_from_heights": ["subdivision.subdivision_from_heights"],
    "linprog.solve_lp": ["linprog.solve_lp"],
    "graphs.certify_admissible": ["graphs.certify_admissible"],
    "graphs.AdmissibilityCertificate.from_json": ["graphs.AdmissibilityCertificate.from_json"],
    "graphs.AdmissibilityCertificate.verify": ["graphs.AdmissibilityCertificate.verify"],
    "builders.build": ["builders.build_*"],
    **{
        f"engine.Engine.pipeline_{p}": [f"engine.Engine.pipeline_{p}"]
        for p in ("corner", "side", "gcdedges", "gcd1", "gcd2", "propagate",
                  "interior", "interior_d", "interior_dd")
    },
    "engine.Engine.homological_bridges": ["engine.Engine.homological_bridges"],
    "engine.replay_certificate": ["engine.replay_certificate"],
    "homology.SurfaceModel": ["homology.SurfaceModel.__init__"],
    "intlinalg.smith_normal_form": ["intlinalg.smith_normal_form"],
    "homology.SurfaceModel.dehn_twist_matrix": ["homology.SurfaceModel.dehn_twist_matrix"],
    "homology.subgroup_order_mod_p": ["homology.subgroup_order_mod_p"],
    "polygons.analyze": ["polygons.analyze"],
    "geometry.LatticePolygon.lattice_points": ["geometry.LatticePolygon.lattice_points"],
}


class Stat:
    __slots__ = ("calls", "raised", "s", "self_s", "active")

    def __init__(self):
        self.calls = self.raised = self.active = 0
        self.s = self.self_s = 0.0


def _resolve(target: str) -> list:
    """Functions named by a target; methods are returned unbound (the
    function inside a staticmethod or classmethod)."""
    module, _, rest = target.partition(".")
    owner = importlib.import_module(f"tropmono.{module}")
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr.endswith("*"):
        return [
            v for k, v in sorted(vars(owner).items())
            if k.startswith(attr[:-1]) and callable(v)
            and getattr(v, "__module__", None) == owner.__name__
        ]
    raw = vars(owner)[attr]
    return [raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw]


def _bindings():
    """Every (owner, name, value) in loaded tropmono modules and their classes."""
    for name, mod in sorted(sys.modules.items()):
        if not (name == "tropmono" or name.startswith("tropmono.")):
            continue
        for key, val in list(vars(mod).items()):
            yield mod, key, val
            if isinstance(val, type) and val.__module__ == name:
                for ckey, cval in list(vars(val).items()):
                    yield val, ckey, cval


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in LAYERS}
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outermost = stat.active == 0
            stat.active += 1
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - children[0]
                if outermost:
                    stat.s += dt
                if stack:
                    stack[-1][0] += dt

        return span

    def install(self) -> "Tracer":
        importlib.import_module("tropmono")
        wrappers = {}
        for name, targets in LAYERS.items():
            for target in targets:
                for fn in _resolve(target):
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for owner, key, val in list(_bindings()):
            inner = val.__func__ if isinstance(val, (staticmethod, classmethod)) else val
            hit = wrappers.get(id(inner))  # the originals stay alive, so ids are stable
            if hit is None:
                continue
            new = hit[1]
            if isinstance(val, (staticmethod, classmethod)):
                new = type(val)(new)
            self._saved.append((owner, key, val))
            setattr(owner, key, new)
        return self

    def uninstall(self) -> None:
        for owner, key, val in reversed(self._saved):
            setattr(owner, key, val)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def snapshot(self) -> dict[str, dict]:
        return {
            name: {"calls": st.calls, "raised": st.raised, "s": st.s, "self_s": st.self_s}
            for name, st in self.stats.items()
        }


def merge(total: dict, part: dict) -> None:
    """Add one snapshot into another (for spans recorded in child processes)."""
    for name, st in part.items():
        acc = total.setdefault(name, {"calls": 0, "raised": 0, "s": 0.0, "self_s": 0.0})
        for k in acc:
            acc[k] += st[k]
