"""The certification kernel against its earlier bodies.

``wrap_oracle``, ``extend_oracle`` and ``refinement_oracle`` are
``subdivision_from_heights``, ``extend_subdivision`` and
``unimodular_refinement`` as they were before the extension wrapped only its
new ring and the pull loop and the closing check were tightened.  The
kernel must give the same cells, witness, planes and unused support on
every subdivision that the T3, T4, SQ4, T6, SQ5 and T8 derivations wrap,
extend or refine, and on seeded random heights over random smooth
polygons.
"""

import random
from itertools import count
from math import gcd, lcm

from hypothesis import given, settings, strategies as st

import tropmono.graphs
import tropmono.subdivision
from test_polygons import random_smooth_polygon
from tropmono.engine import Engine
from tropmono.geometry import LatticePolygon, Point, orient
from tropmono.subdivision import (
    _MAX_DOUBLINGS,
    HeightFunction,
    RegularSubdivision,
    SubdivisionError,
    _boundary_chain_edges,
    _drop_exponent,
    _lowest_plane,
    _norm_plane,
    _plane_through,
    _spans,
    _touching,
    extend_subdivision,
    subdivision_from_heights,
    unimodular_refinement,
    verify_subdivision,
)

# ---------------------------------------------------------------------------
# the oracles: the earlier bodies
# ---------------------------------------------------------------------------


def wrap_oracle(poly: LatticePolygon, heights) -> RegularSubdivision:
    """``subdivision_from_heights`` as it gift-wrapped the whole lift: each
    facet's plane by ``_lowest_plane``, its points by ``_touching``."""
    hf = heights if isinstance(heights, HeightFunction) else HeightFunction.of(heights)
    h, _ = hf.lift()
    pts = list(h)
    if not _spans(poly, h):
        outside = next((p for p in sorted(pts) if poly.side(p) < 0), None)
        if outside is not None:
            raise SubdivisionError(f"support point {outside} outside the polygon")
        raise SubdivisionError("support does not span the polygon")
    if poly.dimension != 2:
        raise SubdivisionError("support does not span a two-dimensional polygon")
    lifted = [(x, y, h[x, y]) for x, y in pts]

    queue = _boundary_chain_edges(poly, lifted)
    boundary_keys = {(min(a, b), max(a, b)) for a, b in queue}
    done: set[tuple[Point, Point]] = set()
    facets: dict[tuple, tuple[LatticePolygon, list[Point]]] = {}

    while queue:
        a, b = queue.pop()
        if (a, b) in done:
            continue
        done.add((a, b))
        plane = _norm_plane(_lowest_plane(a, b, h, lifted))
        on = _touching(plane, lifted)
        if on is None:
            raise AssertionError("gift wrapping produced a non-supporting plane")
        cell = LatticePolygon(on)
        if cell.dimension != 2:
            raise AssertionError("degenerate facet")
        facets[plane] = (cell, on)
        for u, w in cell.edges():
            done.add((u, w))
            if (min(u, w), max(u, w)) not in boundary_keys:
                queue.append((w, u))

    ordered = sorted(facets.items(), key=lambda kv: kv[1][0].vertices)
    cells = tuple(cell for _, (cell, _) in ordered)
    areas = [c.area2() for c in cells]
    if sum(areas) != poly.area2():
        raise AssertionError("facets do not tile the polygon")
    used = {p for _, on in facets.values() for p in on}
    unused = tuple(sorted(set(pts) - used))
    unimodular = all(a == 1 and len(c.vertices) == 3 for a, c in zip(areas, cells))
    return RegularSubdivision(poly, cells, hf, tuple(plane for plane, _ in ordered), unused, unimodular)


def extend_oracle(poly: LatticePolygon, inner: RegularSubdivision) -> RegularSubdivision:
    """``extend_subdivision`` as it gift-wrapped the whole extended lift."""
    inner_poly = inner.polygon
    for v in inner_poly.vertices:
        if poly.side(v) < 0:
            raise SubdivisionError("subpolygon not contained in the polygon")
    if inner_poly == poly:
        return inner
    new_vertices = [v for v in poly.vertices if inner_poly.side(v) < 0]
    h, scale = inner.witness.lift()
    shift = scale - min(h.values())
    base = {p: v + shift for p, v in h.items()}  # the least height is 1, that is scale
    planes = [_plane_through(*c.vertices[:3], base) for c in inner.cells]
    z = max(base.values()) + scale
    for _ in range(_MAX_DOUBLINGS):
        if all(nx * x + ny * y + nz * z > d for nx, ny, nz, d in planes for x, y in new_vertices):
            lift = {**base, **dict.fromkeys(new_vertices, z)}
            return wrap_oracle(poly, HeightFunction.lifted(lift, scale))
        z *= 2
    raise SubdivisionError("extension height search did not converge")


def refinement_oracle(sub_div: RegularSubdivision) -> RegularSubdivision:
    """``unimodular_refinement`` as it pulled before the pull loop collected
    link edges and planes in one pass and built cone planes in place."""
    if sub_div.is_unimodular():
        return sub_div
    poly = sub_div.polygon
    cells: dict[int, tuple[Point, ...]] = {}
    where, inside, owner, seed = {}, {}, {}, {}
    for i, (c, (nx, ny, nz, d)) in enumerate(zip(sub_div.cells, sub_div.planes)):
        cells[i] = t = c.vertices
        inside[i] = list(t) if len(t) == 3 and orient(*t) == 1 else c.lattice_points()
        for q in inside[i]:
            where.setdefault(q, []).append(i)
            if q not in seed:  # the surface is continuous: any cell gives it
                v = d - nx * q[0] - ny * q[1]
                g = gcd(v, nz)
                seed[q] = (v // g, nz // g)  # the surface at q, in lowest terms
        owner.update(dict.fromkeys(zip(t, t[1:] + t[:1]), i))
    scale = lcm(*{den for _, den in seed.values()})
    h = {q: v * (scale // den) for q, (v, den) in seed.items()}
    planes = {i: _plane_through(*t[:3], h) for i, t in cells.items()}
    fresh = count(len(cells))
    e = 0

    for p in poly.lattice_points():
        affected = where.pop(p)
        if all(len(cells[i]) == 3 and p in cells[i] for i in affected):
            continue  # pulling is a combinatorial no-op
        x, y = p
        links = []  # per affected cell, its edges that miss p
        for i in affected:
            t = cells[i]
            u, edges = t[-1], []
            for w in t:
                if (w[0] - u[0]) * (y - u[1]) > (w[1] - u[1]) * (x - u[0]):  # orient(u, w, p) > 0
                    edges.append((u, w))
                u = w
            links.append((i, edges))
        across = [planes[j] for _, edges in links for u, w in edges if (j := owner.get((w, u))) is not None]
        surface = planes[affected[0]]
        e = _drop_exponent(p, surface, across, scale, e)
        nx, ny, nz, d = surface
        # the new height N/nz - scale 2**-e, in lowest terms num / den
        num, den = ((d - nx * x - ny * y) << e) - scale * nz, nz << e
        g = gcd(num, den)
        m = den // g
        if m > 1:
            scale *= m
            for q in h:
                h[q] *= m
            planes = {i: (a * m, b * m, c, f * m) for i, (a, b, c, f) in planes.items()}
        h[p] = num // g

        for i in affected:
            del planes[i]
            t = cells.pop(i)
            for edge in zip(t, t[1:] + t[:1]):
                del owner[edge]
        star: dict[Point, list[int]] = {}
        for i, edges in links:
            cones = []
            for u, w in edges:
                k = next(fresh)
                cells[k], planes[k], inside[k] = (p, u, w), _plane_through(p, u, w, h), []
                owner[p, u] = owner[u, w] = owner[w, p] = k
                cones.append((k, u[0] - x, u[1] - y, w[0] - x, w[1] - y))
            for q in inside.pop(i):
                if q in where:
                    qx, qy = q[0] - x, q[1] - y
                    here = star.setdefault(q, [])
                    for k, ux, uy, wx, wy in cones:
                        if ux * qy - uy * qx >= 0 and qx * wy - qy * wx >= 0:
                            here.append(k)
                            inside[k].append(q)
        for q, here in star.items():
            where[q] = [i for i in where[q] if i not in affected] + here

    witness = HeightFunction.lifted(h, scale)
    result = verify_subdivision(poly, [LatticePolygon(t) for t in cells.values()], witness)
    if result is None:
        raise AssertionError("pulled witness failed global verification")
    return result


# ---------------------------------------------------------------------------
# the comparisons
# ---------------------------------------------------------------------------


def same(got, want):
    assert got.polygon == want.polygon and got.cells == want.cells
    assert (got.witness, got.planes, got.unused_support) == (want.witness, want.planes, want.unused_support)
    assert got.unimodular == want.unimodular


POLYGONS = {
    "T3": [(0, 0), (3, 0), (0, 3)],
    "T4": [(0, 0), (4, 0), (0, 4)],
    "SQ4": [(0, 0), (4, 0), (4, 4), (0, 4)],
    "T6": [(0, 0), (6, 0), (0, 6)],
    "SQ5": [(0, 0), (5, 0), (5, 5), (0, 5)],
    "T8": [(0, 0), (8, 0), (0, 8)],
}


def test_derivation_kernels_match_the_oracles(monkeypatch):
    """Every wrap, extension and refinement of the six derivations gives
    what the earlier bodies give on the same input."""
    seen = dict.fromkeys(("wrap", "extend", "refine"), 0)
    real = {name: getattr(tropmono.graphs, name) for name in
            ("subdivision_from_heights", "extend_subdivision", "unimodular_refinement")}

    def wrap(poly, heights):
        seen["wrap"] += 1
        got = real["subdivision_from_heights"](poly, heights)
        same(got, wrap_oracle(poly, heights))
        return got

    def extend(poly, inner):
        seen["extend"] += inner.polygon != poly
        got = real["extend_subdivision"](poly, inner)
        same(got, extend_oracle(poly, inner))
        return got

    def refine(sub_div):
        seen["refine"] += not sub_div.is_unimodular()
        got = real["unimodular_refinement"](sub_div)
        same(got, refinement_oracle(sub_div))
        return got

    monkeypatch.setattr(tropmono.graphs, "subdivision_from_heights", wrap)
    monkeypatch.setattr(tropmono.graphs, "extend_subdivision", extend)
    monkeypatch.setattr(tropmono.graphs, "unimodular_refinement", refine)
    for vertices in POLYGONS.values():
        Engine(LatticePolygon(vertices)).derive_surjectivity()
    assert min(seen.values()) > 100, seen


def test_no_extension_wraps_an_inner_cell(monkeypatch):
    """An extension gift-wraps only its new ring: no facet it finds is a
    cell of the subdivision it extends (the earlier body wrapped the whole
    lift, inner cells included)."""
    real_extend, real_touching = tropmono.graphs.extend_subdivision, tropmono.subdivision._touching
    inner_cells, rewrapped, grown = set(), [], [0]

    def touching(plane, lifted):
        on = real_touching(plane, lifted)
        if on is not None and LatticePolygon(on) in inner_cells:
            rewrapped.append(on)
        return on

    def extend(poly, inner):
        grown[0] += inner.polygon != poly
        inner_cells.update(inner.cells)
        try:
            return real_extend(poly, inner)
        finally:
            inner_cells.clear()

    monkeypatch.setattr(tropmono.subdivision, "_touching", touching)
    monkeypatch.setattr(tropmono.graphs, "extend_subdivision", extend)
    for name in ("T4", "SQ4", "T6"):
        Engine(LatticePolygon(POLYGONS[name])).derive_surjectivity()
    assert grown[0] > 20 and rewrapped == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_random_heights_match_the_oracles(seed):
    """Seeded random heights on a random smooth polygon and on the hull of
    some of its lattice points: the wrap, the extension of the smaller
    subdivision to the polygon and both refinements match the oracles."""
    rng = random.Random(seed)
    poly = random_smooth_polygon(rng)
    pts = poly.lattice_points()
    if poly.dimension < 2 or len(pts) > 80:
        return
    heights = {p: rng.randint(0, 9) for p in pts}
    whole = subdivision_from_heights(poly, heights)
    same(whole, wrap_oracle(poly, heights))
    same(unimodular_refinement(whole), refinement_oracle(whole))
    inner = LatticePolygon(rng.sample(pts, min(len(pts), rng.randint(3, 8))))
    if inner.dimension < 2:
        return
    part = subdivision_from_heights(inner, {p: rng.randint(0, 5) for p in inner.lattice_points()})
    extended = extend_subdivision(poly, part)
    same(extended, extend_oracle(poly, part))
    same(unimodular_refinement(extended), refinement_oracle(extended))
