"""Regular (convex) subdivisions of lattice polygons from height functions.

The core primitive is an exact lower-convex-hull computation on lifted
lattice points (gift wrapping with integer arithmetic after clearing
denominators).  On top of it sit the regularity decision procedure (exact
LP), the extension of a subdivision of a subpolygon to the whole polygon,
unimodular refinement by pulling (integer heights on one shared scale, using
the same integer plane routine as the hull), and the dual tropical curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .geometry import (
    LatticePolygon,
    Point,
    Segment,
    dot,
    lattice_length,
    lattice_points_on_segment,
    orient,
    primitive,
    primitive_segments_on,
    sub,
)
from .linprog import solve_lp


class SubdivisionError(ValueError):
    pass


@dataclass(frozen=True)
class HeightFunction:
    """Exact rational heights on a finite set of lattice points."""

    values: tuple[tuple[Point, Fraction], ...]

    @staticmethod
    def of(mapping) -> "HeightFunction":
        items = tuple(sorted(((int(p[0]), int(p[1])), Fraction(v)) for p, v in dict(mapping).items()))
        return HeightFunction(items)

    def as_dict(self) -> dict[Point, Fraction]:
        return dict(self.values)

    @property
    def support(self) -> list[Point]:
        return [p for p, _ in self.values]

    def shifted(self, c: Fraction) -> "HeightFunction":
        return HeightFunction(tuple((p, v + c) for p, v in self.values))

    def to_json(self) -> list:
        return [[p[0], p[1], v.numerator, v.denominator] for p, v in self.values]

    @staticmethod
    def from_json(data) -> "HeightFunction":
        return HeightFunction.of({(x, y): Fraction(n, d) for x, y, n, d in data})


def _cleared(heights: dict[Point, Fraction]) -> tuple[dict[Point, int], int]:
    """Integer heights on the scale of the lcm of the denominators, and that scale."""
    denom = 1
    for v in heights.values():
        denom = lcm(denom, Fraction(v).denominator)
    return {p: int(Fraction(v) * denom) for p, v in heights.items()}, denom


def _plane_through(a, b, c, h):
    """Integer plane A x + B y + C z = D through the three lifted points,
    normalized so C = orient(a, b, c) > 0."""
    u = (b[0] - a[0], b[1] - a[1], h[b] - h[a])
    v = (c[0] - a[0], c[1] - a[1], h[c] - h[a])
    nx = u[1] * v[2] - u[2] * v[1]
    ny = u[2] * v[0] - u[0] * v[2]
    nz = u[0] * v[1] - u[1] * v[0]
    d = nx * a[0] + ny * a[1] + nz * h[a]
    return nx, ny, nz, d


def _plane_val(plane, p, h) -> int:
    nx, ny, nz, d = plane
    return nx * p[0] + ny * p[1] + nz * h[p] - d


def _norm_plane(plane):
    g = gcd(gcd(abs(plane[0]), abs(plane[1])), gcd(abs(plane[2]), abs(plane[3])))
    return tuple(v // g for v in plane)


def _boundary_chain_edges(pts, h):
    """Directed seed edges of the lower hull over each boundary line of the
    projected hull, interior on the left."""
    from .geometry import convex_hull

    hull = convex_hull(pts)
    if len(hull) < 3:
        raise SubdivisionError("support does not span a two-dimensional polygon")
    seeds = []
    n = len(hull)
    for i in range(n):
        u, w = hull[i], hull[(i + 1) % n]
        on_line = [p for p in pts if orient(u, w, p) == 0]
        d = primitive(sub(w, u))
        keyed = sorted((dot(sub(p, u), d), p) for p in on_line)
        # 1D lower hull over (position, height); collinear lifted points are
        # merged so the chain edges are maximal 1-faces.
        chain: list[tuple[int, Point]] = []
        for k, p in keyed:
            while len(chain) >= 2:
                (k1, p1), (k2, p2) = chain[-2], chain[-1]
                turn = (k2 - k1) * (h[p] - h[p2]) - (h[p2] - h[p1]) * (k - k2)
                if turn <= 0:
                    chain.pop()
                else:
                    break
            chain.append((k, p))
        for (k1, p1), (k2, p2) in zip(chain, chain[1:]):
            seeds.append((p1, p2))
    return seeds


@dataclass(frozen=True)
class RegularSubdivision:
    """A regular subdivision of a polygon together with its height witness.

    ``cells`` are the two-dimensional faces, ``planes`` the integer
    supporting planes of the lifted cells (parallel data)."""

    polygon: LatticePolygon
    cells: tuple[LatticePolygon, ...]
    witness: HeightFunction
    planes: tuple[tuple[int, int, int, int], ...]
    unused_support: tuple[Point, ...]

    def __eq__(self, other):
        return (
            isinstance(other, RegularSubdivision)
            and self.polygon == other.polygon
            and self.cells == other.cells
        )

    def __hash__(self):
        return hash((self.polygon, self.cells))

    def edges(self) -> set[Segment]:
        """All primitive integer segments contained in cell boundaries."""
        out: set[Segment] = set()
        for c in self.cells:
            for a, b in c.edges():
                out.update(primitive_segments_on(a, b))
        return out

    def vertices(self) -> set[Point]:
        out: set[Point] = set()
        for c in self.cells:
            for a, b in c.edges():
                out.update(lattice_points_on_segment(a, b))
        return out

    def one_faces(self):
        """Maximal 1-cells: (segment, cell indices).  Interior ones carry two
        cells, boundary ones a single cell."""
        seen: dict[tuple[Point, Point], list[int]] = {}
        for i, c in enumerate(self.cells):
            for a, b in c.edges():
                key = (a, b) if a < b else (b, a)
                seen.setdefault(key, []).append(i)
        faces = sorted(seen.items())
        for key, owners in faces:
            if len(owners) > 2:
                raise SubdivisionError(f"1-face {key} shared by {len(owners)} cells")
        return faces

    def is_unimodular(self) -> bool:
        return all(len(c.vertices) == 3 and c.area2() == 1 for c in self.cells)

    def plane_value(self, cell_idx: int, p: Point) -> Fraction:
        nx, ny, nz, d = self.planes[cell_idx]
        return Fraction(d - nx * p[0] - ny * p[1], nz)

    def evaluate(self, p: Point) -> Fraction:
        """Value of the piecewise-linear witness function at a lattice point."""
        for i, c in enumerate(self.cells):
            if c.side(p) >= 0:
                return self.plane_value(i, p)
        raise ValueError(f"{p} outside the subdivided polygon")

    def to_json(self) -> dict:
        pts = self.witness.support
        index = {p: i for i, p in enumerate(pts)}
        cells = sorted([index[v] for v in c.vertices] for c in self.cells)
        return {"heights": self.witness.to_json(), "cells": cells}


def subdivision_from_heights(poly: LatticePolygon, heights) -> RegularSubdivision:
    """The regular subdivision of ``poly`` induced by lifting the support of
    ``heights`` and projecting the lower convex hull."""
    if isinstance(heights, HeightFunction):
        hf = heights
    else:
        hf = HeightFunction.of(heights)
    hmap = hf.as_dict()
    pts = list(hmap)
    for p in pts:
        if poly.side(p) < 0:
            raise SubdivisionError(f"support point {p} outside the polygon")
    if LatticePolygon(pts) != poly:
        raise SubdivisionError("support does not span the polygon")
    h, _ = _cleared(hmap)

    seeds = _boundary_chain_edges(pts, h)
    queue = list(seeds)
    boundary_keys = {(min(a, b), max(a, b)) for a, b in seeds}
    done_directed: set[tuple[Point, Point]] = set()
    facets: dict[tuple, list[Point]] = {}

    while queue:
        a, b = queue.pop()
        if (a, b) in done_directed:
            continue
        done_directed.add((a, b))
        cands = [p for p in pts if orient(a, b, p) > 0]
        if not cands:
            raise SubdivisionError(f"no facet on the left of {(a, b)}")
        best = cands[0]
        best_plane = _plane_through(a, b, best, h)
        for c in cands[1:]:
            if _plane_val(best_plane, c, h) < 0:
                best = c
                best_plane = _plane_through(a, b, best, h)
        plane = _norm_plane(best_plane)
        if plane in facets:
            continue
        on = [p for p in pts if _plane_val(plane, p, h) == 0]
        for p in pts:
            if _plane_val(plane, p, h) < 0:
                raise AssertionError("gift wrapping produced a non-supporting plane")
        facets[plane] = on
        cell = LatticePolygon(on)
        if cell.dimension != 2:
            raise AssertionError("degenerate facet")
        for u, w in cell.edges():
            key = (min(u, w), max(u, w))
            if key not in boundary_keys:
                queue.append((w, u))

    cells = []
    planes = []
    for plane, on in sorted(facets.items(), key=lambda kv: LatticePolygon(kv[1]).vertices):
        cells.append(LatticePolygon(on))
        planes.append(plane)
    total = sum(c.area2() for c in cells)
    if total != poly.area2():
        raise AssertionError("facets do not tile the polygon")
    used = set()
    for plane in facets:
        for p in pts:
            if _plane_val(plane, p, h) == 0:
                used.add(p)
    unused = tuple(sorted(set(pts) - used))
    return RegularSubdivision(poly, tuple(cells), hf, tuple(planes), unused)


def trivial_subdivision(poly: LatticePolygon) -> RegularSubdivision:
    return subdivision_from_heights(poly, {p: Fraction(0) for p in poly.vertices})


def verify_subdivision(poly: LatticePolygon, cells, heights) -> RegularSubdivision | None:
    """Check directly that ``cells`` is the regular subdivision induced by
    ``heights``: each lifted cell spans a supporting plane of the lifted
    support touching exactly the cell's points, and the cells tile.

    Equivalent to replaying through subdivision_from_heights but cheaper;
    returns the assembled subdivision or None.
    """
    hf = heights if isinstance(heights, HeightFunction) else HeightFunction.of(heights)
    hmap = hf.as_dict()
    pts = list(hmap)
    if LatticePolygon(pts) != poly:
        return None
    h, _ = _cleared(hmap)
    cells = sorted(cells, key=lambda c: c.vertices)
    if sum(c.area2() for c in cells) != poly.area2():
        return None
    planes = []
    used = set()
    for c in cells:
        v = c.vertices
        if len(v) < 3 or any(q not in h for q in (v[0], v[1], v[2])):
            return None
        plane = _plane_through(v[0], v[1], v[2], h)
        on = []
        for p in pts:
            val = _plane_val(plane, p, h)
            if val < 0:
                return None
            if val == 0:
                on.append(p)
        if LatticePolygon(on) != c:
            return None
        used.update(on)
        planes.append(_norm_plane(plane))
    unused = tuple(sorted(set(pts) - used))
    return RegularSubdivision(poly, tuple(cells), hf, tuple(planes), unused)


# ---------------------------------------------------------------------------
# Regularity of a prescribed complex
# ---------------------------------------------------------------------------


def validate_complex(poly: LatticePolygon, cells) -> list[tuple[tuple[Point, Point], list[int]]]:
    """Light validation that the cells form a face-to-face tiling of poly;
    returns the 1-face incidence list."""
    cells = list(cells)
    if sum(c.area2() for c in cells) != poly.area2():
        raise SubdivisionError("cells do not tile the polygon (area mismatch)")
    seen: dict[tuple[Point, Point], list[int]] = {}
    for i, c in enumerate(cells):
        if c.dimension != 2:
            raise SubdivisionError("degenerate cell")
        for a, b in c.edges():
            key = (a, b) if a < b else (b, a)
            seen.setdefault(key, []).append(i)
    for (a, b), owners in seen.items():
        if len(owners) > 2:
            raise SubdivisionError("1-face shared by more than two cells")
        if len(owners) == 1:
            mid2 = (a[0] + b[0], a[1] + b[1])  # doubled midpoint
            if poly.side((Fraction(mid2[0], 2), Fraction(mid2[1], 2))) != 0:
                raise SubdivisionError(f"unmatched interior 1-face {(a, b)}")
    return sorted(seen.items())


def regularity_heights_for(
    poly: LatticePolygon, cells, required_edges=()
) -> HeightFunction | None:
    """Exact-rational decision procedure for regularity of a prescribed cell
    complex on ``poly``.

    One affine function per cell, agreement on shared 1-faces, and a margin
    variable forcing a strict convexity break across every interior 1-face;
    the margin is maximized (capped at 1) and the complex is regular iff the
    optimum is positive.  On success returns heights that replay to exactly
    the given complex; on failure returns None (with a Farkas certificate
    checked internally).
    """
    cells = list(cells)
    faces = validate_complex(poly, cells)
    covered = set()
    for c in cells:
        for a, b in c.edges():
            covered.update(primitive_segments_on(a, b))
    for e in required_edges:
        if e not in covered:
            raise SubdivisionError(f"required edge {e} not in the complex")

    k = len(cells)
    nvar = 3 * k + 1  # (a_i, b_i, c_i) per cell plus the margin t
    t_idx = 3 * k

    def row_for(i: int, p: Point, coef=1):
        row = [Fraction(0)] * nvar
        row[3 * i] = Fraction(coef * p[0])
        row[3 * i + 1] = Fraction(coef * p[1])
        row[3 * i + 2] = Fraction(coef)
        return row

    a_eq = []
    a_le = []
    for (u, w), owners in faces:
        if len(owners) != 2:
            continue
        i, j = owners
        for p in (u, w):
            row = row_for(i, p)
            other = row_for(j, p)
            a_eq.append(([x - y for x, y in zip(row, other)], Fraction(0)))
        q = next(v for v in cells[j].vertices if orient(u, w, v) != 0)
        row = row_for(i, q)
        other = row_for(j, q)
        le = [x - y for x, y in zip(row, other)]
        le[t_idx] = Fraction(1)
        a_le.append((le, Fraction(0)))
    cap = [Fraction(0)] * nvar
    cap[t_idx] = Fraction(1)
    a_le.append((cap, Fraction(1)))
    objective = [Fraction(0)] * nvar
    objective[t_idx] = Fraction(1)

    res = solve_lp(nvar, a_eq=a_eq, a_le=a_le, objective=objective)
    if not res.feasible or res.value is None or res.value <= 0:
        return None
    x = res.x
    heights: dict[Point, Fraction] = {}
    for i, c in enumerate(cells):
        for v in c.vertices:
            val = x[3 * i] * v[0] + x[3 * i + 1] * v[1] + x[3 * i + 2]
            if v in heights and heights[v] != val:
                raise AssertionError("inconsistent LP heights at a shared vertex")
            heights[v] = val
    hf = HeightFunction.of(heights)
    replay = subdivision_from_heights(poly, hf)
    if set(replay.cells) != set(cells):
        raise AssertionError("LP heights do not replay to the prescribed complex")
    return hf


# ---------------------------------------------------------------------------
# Extension and refinement
# ---------------------------------------------------------------------------


def extend_subdivision(
    poly: LatticePolygon, inner: RegularSubdivision, max_doublings: int = 80
) -> RegularSubdivision:
    """Extend a regular subdivision of a subpolygon to all of ``poly``.

    New vertices of ``poly`` are lifted to a common height, doubled until the
    inner subdivision reappears untouched and the boundary of the subpolygon
    is supported; each attempt is checked by replaying the heights.
    """
    inner_poly = inner.polygon
    for v in inner_poly.vertices:
        if poly.side(v) < 0:
            raise SubdivisionError("subpolygon not contained in the polygon")
    if inner_poly == poly:
        return inner
    new_vertices = [v for v in poly.vertices if inner_poly.side(v) < 0]
    base = inner.witness.as_dict()
    lo = min(base.values())
    base = {p: v - lo + 1 for p, v in base.items()}  # positive values
    want_boundary = set(inner_poly.boundary_segments())
    height = max(base.values()) + 1
    for _ in range(max_doublings):
        trial = dict(base)
        for v in new_vertices:
            trial[v] = height
        sub_div = subdivision_from_heights(poly, trial)
        got = set(sub_div.cells)
        if all(c in got for c in inner.cells) and want_boundary <= sub_div.edges():
            return sub_div
        height *= 2
    raise SubdivisionError("extension height search did not converge")


def unimodular_refinement(sub_div: RegularSubdivision) -> RegularSubdivision:
    """Regular unimodular refinement of a regular subdivision.

    Pulls every lattice point in lexicographic order.  Each pull lowers the
    point slightly below the current lifted surface (the exact rational drop
    is halved until the incremental supporting-plane checks pass) and cones
    the cells containing it.  Heights are integers on one shared ``scale``:
    when a drop needs a finer denominator, the scale, every height and every
    kept plane's (nx, ny, d) are multiplied by the missing factor, which
    changes no sign.  The final witness is re-verified globally.
    """
    if sub_div.is_unimodular():
        return sub_div
    poly = sub_div.polygon
    pts = poly.lattice_points()
    h, scale = _cleared({p: sub_div.evaluate(p) for p in pts})
    cells: list[LatticePolygon] = list(sub_div.cells)
    planes = [_plane_through(c.vertices[0], c.vertices[1], c.vertices[2], h) for c in cells]
    eps = Fraction(1)

    for p in pts:
        affected = [i for i, c in enumerate(cells) if c.side(p) >= 0]
        if all(
            len(cells[i].vertices) == 3 and p in cells[i].vertices for i in affected
        ):
            continue  # pulling is a combinatorial no-op
        kept = [i for i in range(len(cells)) if i not in affected]
        cones = []
        for i in affected:
            for u, w in cells[i].edges():
                if orient(u, w, p) == 0 and dot(sub(p, u), sub(p, w)) <= 0:
                    continue
                cones.append(LatticePolygon([p, u, w]))
        nx, ny, nz, d = planes[affected[0]]
        nu = Fraction(d - nx * p[0] - ny * p[1], nz * scale)
        old = h[p]
        ok = False
        for _ in range(400):
            drop = nu - eps
            if scale % drop.denominator:
                m = drop.denominator // gcd(scale, drop.denominator)
                scale *= m
                for q in h:
                    h[q] *= m
                planes = [(a * m, b * m, c, e * m) for a, b, c, e in planes]
                old = h[p]
            h[p] = int(drop * scale)
            good = all(_plane_val(planes[i], p, h) > 0 for i in kept)
            new_planes = []
            if good:
                for cone in cones:
                    v = cone.vertices
                    plane = _plane_through(v[0], v[1], v[2], h)
                    on = []
                    for q in pts:
                        val = _plane_val(plane, q, h)
                        if val < 0:
                            good = False
                            break
                        if val == 0:
                            on.append(q)
                    if not good or LatticePolygon(on) != cone:
                        good = False
                        break
                    new_planes.append(plane)
            if good:
                cells = [cells[i] for i in kept] + cones
                planes = [planes[i] for i in kept] + new_planes
                ok = True
                break
            h[p] = old
            eps /= 2
        if not ok:
            raise SubdivisionError("pulling drop search did not converge")

    result = verify_subdivision(poly, cells, {q: Fraction(v, scale) for q, v in h.items()})
    if result is None:
        raise AssertionError("pulled witness failed global verification")
    if not result.is_unimodular():
        raise AssertionError("pulling left a fat cell")
    return result


# ---------------------------------------------------------------------------
# Dual tropical curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TropicalCurve:
    """Dual tropical curve of a regular subdivision (max convention,
    coefficients c_p = -h(p)).

    Vertices are rational points, one per 2-cell; bounded edges join the
    vertices of adjacent cells; rays leave through boundary 1-faces.  Every
    edge and ray carries its dual segment and weight (the lattice length of
    the dual)."""

    vertices: tuple[tuple[Fraction, Fraction], ...]
    edges: tuple[tuple[int, int, tuple[Point, Point], int], ...]
    rays: tuple[tuple[int, Point, tuple[Point, Point], int], ...]

    def check_balanced(self) -> bool:
        for i in range(len(self.vertices)):
            acc = (Fraction(0), Fraction(0))
            for a, b, dual, wt in self.edges:
                if i not in (a, b):
                    continue
                other = b if i == a else a
                d = sub(dual[1], dual[0])
                d = primitive((d[1], -d[0]))
                delta = (
                    self.vertices[other][0] - self.vertices[i][0],
                    self.vertices[other][1] - self.vertices[i][1],
                )
                if d[0] * delta[0] + d[1] * delta[1] < 0:
                    d = (-d[0], -d[1])
                acc = (acc[0] + wt * d[0], acc[1] + wt * d[1])
            for a, direction, dual, wt in self.rays:
                if a == i:
                    acc = (acc[0] + wt * direction[0], acc[1] + wt * direction[1])
            if acc != (0, 0):
                return False
        return True

    def to_json(self) -> dict:
        return {
            "vertices": [[[v[0].numerator, v[0].denominator], [v[1].numerator, v[1].denominator]] for v in self.vertices],
            "edges": [[a, b, [list(dual[0]), list(dual[1])], wt] for a, b, dual, wt in self.edges],
            "rays": [[a, list(d), [list(dual[0]), list(dual[1])], wt] for a, d, dual, wt in self.rays],
        }


def dual_tropical_curve(sub_div: RegularSubdivision) -> TropicalCurve:
    verts = []
    for plane in sub_div.planes:
        nx, ny, nz, _ = plane
        verts.append((Fraction(-nx, nz), Fraction(-ny, nz)))
    edges = []
    rays = []
    poly = sub_div.polygon
    for (u, w), owners in sub_div.one_faces():
        weight = lattice_length(u, w)
        if len(owners) == 2:
            i, j = owners
            if verts[i] == verts[j]:
                raise AssertionError("adjacent cells share a gradient")
            edges.append((i, j, (u, w), weight))
        else:
            (i,) = owners
            d = primitive(sub(w, u))
            n = (d[1], -d[0])  # candidate outward normal of the polygon edge
            inner = next(v for v in sub_div.cells[i].vertices if orient(u, w, v) != 0)
            if dot(n, sub(inner, u)) > 0:
                n = (-n[0], -n[1])
            rays.append((i, n, (u, w), weight))
    curve = TropicalCurve(tuple(verts), tuple(sorted(edges)), tuple(sorted(rays)))
    assert curve.check_balanced(), "dual curve is not balanced"
    # incidence-reversing duality: spans orthogonal
    for i, j, (u, w), _ in curve.edges:
        dv = (verts[j][0] - verts[i][0], verts[j][1] - verts[i][1])
        assert dv[0] * (w[0] - u[0]) + dv[1] * (w[1] - u[1]) == 0
    for _, d, (u, w), _ in curve.rays:
        assert d[0] * (w[0] - u[0]) + d[1] * (w[1] - u[1]) == 0
    return curve
