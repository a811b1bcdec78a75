"""tropmono: exact lattice-polygon combinatorics deciding and certifying the
surjectivity of the geometric and algebraic monodromy maps for curves in
smooth toric surfaces.

The names below, and the submodules, resolve on first access (PEP 562), so
importing the package loads no layer: ``from tropmono import Engine`` loads
the engine and what it needs, ``from tropmono import analyze`` only
``geometry`` and ``polygons``.
"""

import importlib

# exported name -> the module defining it
_EXPORTS = {
    **dict.fromkeys(["LatticePolygon", "UnimodularMap", "seg"], "geometry"),
    **dict.fromkeys(
        ["PolygonAnalysis", "Surjectivity", "Verdict", "adjoint_polygon", "analyze",
         "divisibility", "is_smooth", "normalize_at_vertex", "root_order"],
        "polygons",
    ),
    **dict.fromkeys(
        ["HeightFunction", "RegularSubdivision", "TropicalCurve", "dual_tropical_curve",
         "extend_subdivision", "subdivision_from_heights", "trivial_subdivision",
         "unimodular_refinement"],
        "subdivision",
    ),
    **dict.fromkeys(
        ["AdmissibilityCertificate", "Bridge", "Snake", "WeightedSegmentGraph",
         "build_snake", "certify_admissible", "check_balancing"],
        "graphs",
    ),
    **dict.fromkeys(["Loop", "SurfaceModel", "sp_order", "subgroup_order_mod_p"], "homology"),
    **dict.fromkeys(["Engine", "replay_certificate"], "engine"),
}

__all__ = list(_EXPORTS)

# submodules, which ``import tropmono`` does not load either
_MODULES = ("builders", "cli", "engine", "errors", "geometry", "graphs", "homology",
            "intlinalg", "linprog", "polygons", "subdivision")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
