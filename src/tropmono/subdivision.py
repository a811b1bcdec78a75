"""Regular (convex) subdivisions of lattice polygons from height functions.

Two primitives work on lifted lattice points with integer arithmetic after
clearing denominators: ``subdivision_from_heights`` computes the lower
convex hull (gift wrapping), and ``verify_subdivision`` is the one check
that given cells are the subdivision induced by given heights (admissibility
certificates and pulling use it).  Gift wrapping and the check of
non-unimodular cells find the lifted points on a plane with one scan,
``_touching``; unimodular triangulations, extension heights and pull trials
are decided by local folds instead, each with its proof of agreement with
the scan.  On top of them sit the extension of a subdivision of a
subpolygon to the whole polygon, unimodular refinement by pulling (integer
heights on one shared scale), and the dual tropical curve.  Every
subdivision here comes from explicit heights; whether a prescribed cell
complex is regular is never asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import gcd, lcm

from .geometry import (
    LatticePolygon,
    Point,
    Segment,
    convex_hull,
    dot,
    lattice_length,
    orient,
    point_from_json,
    primitive,
    primitive_segments_on,
    sub,
)


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

    def to_json(self) -> list:
        return [[p[0], p[1], v.numerator, v.denominator] for p, v in self.values]

    @staticmethod
    def from_json(data) -> "HeightFunction":
        """Decode ``[[x, y, num, den], ...]``: integer entries, nonzero
        denominators, no point twice; ValueError otherwise."""
        if not isinstance(data, list):
            raise ValueError("heights must be a list of [x, y, num, den]")
        values: dict[Point, Fraction] = {}
        for entry in data:
            if not (isinstance(entry, list) and len(entry) == 4):
                raise ValueError(f"expected a height [x, y, num, den], got {entry!r}")
            p = point_from_json(entry[:2])
            num, den = entry[2], entry[3]
            if type(num) is not int or type(den) is not int or den == 0:
                raise ValueError(f"height of {p} is not a fraction of integers")
            if p in values:
                raise ValueError(f"height of {p} given twice")
            values[p] = Fraction(num, den)
        return HeightFunction(tuple(sorted(values.items())))


def _cleared(heights: dict[Point, Fraction]) -> tuple[dict[Point, int], int]:
    """Integer heights on the scale of the lcm of the denominators, and that scale."""
    denom = 1
    for v in heights.values():
        denom = lcm(denom, v.denominator)
    return {p: v.numerator * (denom // v.denominator) for p, v in heights.items()}, denom


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


def _touching(plane, lifted) -> list[Point] | None:
    """The integer plane scan: the points of ``lifted`` (``(x, y, h)``
    triples) on ``plane``, or None if one of them lies below it."""
    nx, ny, nz, d = plane
    on = []
    for x, y, z in lifted:
        val = nx * x + ny * y + nz * z - d
        if val < 0:
            return None
        if val == 0:
            on.append((x, y))
    return on


def _norm_plane(plane):
    g = gcd(gcd(abs(plane[0]), abs(plane[1])), gcd(abs(plane[2]), abs(plane[3])))
    return tuple(v // g for v in plane)


def _boundary_chain_edges(pts, h):
    """Directed seed edges of the lower hull over each boundary line of the
    projected hull, interior on the left."""
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
    supporting planes of the lifted cells (parallel data).  ``unimodular``
    is whether every cell is a unimodular triangle, when the constructor
    already measured the cells; None means ``is_unimodular`` measures."""

    polygon: LatticePolygon
    cells: tuple[LatticePolygon, ...]
    witness: HeightFunction
    planes: tuple[tuple[int, int, int, int], ...]
    unused_support: tuple[Point, ...]
    unimodular: bool | None = None

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
                if gcd(a[0] - b[0], a[1] - b[1]) == 1:
                    out.add((a, b) if a < b else (b, a))
                else:
                    out.update(primitive_segments_on(a, b))
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
        if self.unimodular is not None:
            return self.unimodular
        return all(len(c.vertices) == 3 and c.area2() == 1 for c in self.cells)

    def plane_value(self, cell_idx: int, p: Point) -> Fraction:
        nx, ny, nz, d = self.planes[cell_idx]
        return Fraction(d - nx * p[0] - ny * p[1], nz)

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
    lifted = [(x, y, h[x, y]) for x, y in pts]

    seeds = _boundary_chain_edges(pts, h)
    queue = list(seeds)
    boundary_keys = {(min(a, b), max(a, b)) for a, b in seeds}
    done_directed: set[tuple[Point, Point]] = set()
    facets: dict[tuple, tuple[LatticePolygon, list[Point]]] = {}

    while queue:
        a, b = queue.pop()
        if (a, b) in done_directed:
            continue
        done_directed.add((a, b))
        cands = [p for p in pts if orient(a, b, p) > 0]
        if not cands:
            raise SubdivisionError(f"no facet on the left of {(a, b)}")
        nx, ny, nz, d = _plane_through(a, b, cands[0], h)
        for c in cands[1:]:
            if nx * c[0] + ny * c[1] + nz * h[c] < d:
                nx, ny, nz, d = _plane_through(a, b, c, h)
        plane = _norm_plane((nx, ny, nz, d))
        if plane in facets:
            continue
        on = _touching(plane, lifted)
        if on is None:
            raise AssertionError("gift wrapping produced a non-supporting plane")
        cell = LatticePolygon(on)
        if cell.dimension != 2:
            raise AssertionError("degenerate facet")
        facets[plane] = (cell, on)
        for u, w in cell.edges():
            key = (min(u, w), max(u, w))
            if key not in boundary_keys:
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


def trivial_subdivision(poly: LatticePolygon) -> RegularSubdivision:
    return subdivision_from_heights(poly, {p: Fraction(0) for p in poly.vertices})


def verify_subdivision(poly: LatticePolygon, cells, heights) -> RegularSubdivision | None:
    """The one check that ``cells`` is the regular subdivision of ``poly``
    induced by ``heights``: the support spans ``poly``, no cell repeats,
    each lifted cell spans a supporting plane of the lifted support touching
    exactly the cell's points, and the cells' areas add up to the polygon's.

    Each such cell is a lower facet, distinct facets have disjoint
    interiors, so full area means every facet is listed (the standard
    characterisation of a regular subdivision; De Loera, Rambau and Santos,
    *Triangulations*, 2010).  Returns the assembled subdivision or None.

    When every cell is a unimodular triangle, local folds (``_folds``)
    replace the scans and decide the same.  Folds imply the scans: shared
    edges cancel in the boundary of the 2-chain of ccw cells, so it is k
    times the boundary cycle of ``poly``, and k (the number of cells over a
    generic point inside; 0 outside) is 1 by the area sum.  So the cells
    tile ``poly``, face to face as primitive edges hold no inner lattice
    point, and every lattice point is a vertex (none unused).  A continuous
    piecewise-linear function on a convex domain, strictly convex across
    every interior edge, exceeds each cell's affine piece off the cell: along
    a segment from inside the cell to an outside point, avoiding other
    vertices, the convex difference is 0 until the first crossed edge and
    positive just past it.  So each plane touches exactly its three points.
    The scans imply the folds: the cells are then a triangulation, and the
    far vertex of a neighbour is a support point off the cell.
    """
    hf = heights if isinstance(heights, HeightFunction) else HeightFunction.of(heights)
    hmap = hf.as_dict()
    pts = list(hmap)
    if LatticePolygon(pts) != poly:
        return None
    h, _ = _cleared(hmap)
    cells = sorted(cells, key=lambda c: c.vertices)
    areas = [c.area2() for c in cells]
    if len(set(cells)) != len(cells) or sum(areas) != poly.area2():
        return None
    unimodular = all(a == 1 and len(c.vertices) == 3 for a, c in zip(areas, cells))
    if unimodular:
        planes = _folds(poly, cells, h)
        if planes is None:
            return None
        unused = ()
    else:
        lifted = [(x, y, h[x, y]) for x, y in pts]
        planes = []
        used = set()
        for c in cells:
            v = c.vertices
            if len(v) < 3 or any(q not in h for q in (v[0], v[1], v[2])):
                return None
            plane = _plane_through(v[0], v[1], v[2], h)
            on = _touching(plane, lifted)
            if on is None or LatticePolygon(on) != c:
                return None
            used.update(on)
            planes.append(plane)
        unused = tuple(sorted(set(pts) - used))
    return RegularSubdivision(poly, tuple(cells), hf, tuple(map(_norm_plane, planes)), unused, unimodular)


def _folds(poly: LatticePolygon, cells, h) -> list | None:
    """The planes of the unimodular triangles ``cells`` (in order) if every
    vertex has a height in ``h``, each directed ccw edge occurs once, every
    unmatched edge is a primitive boundary segment of ``poly`` and every
    matched edge is a strict fold; None otherwise.  See
    ``verify_subdivision`` for why this is the plane scan's verdict.

    The boundary test alone also rejects a directed edge that occurs twice,
    given what ``verify_subdivision`` checks first (the cells' areas add up
    to the polygon's and their vertices lie in it).  For the unit square
    with the ccw triangles (0,0),(1,0),(1,1) and (0,0),(1,0),(0,1), which
    share (0,0)->(1,0), the diagonal (1,1)->(0,0) is unmatched and not on
    the boundary.  In general, let n(x) count the cells over a generic
    point x.  Where n = 0 meets n >= 1 inside the polygon, a cell edge has
    a cell on one side only, so it is unmatched and not a boundary segment.
    So n >= 1 on the polygon, the area sum makes n = 1, and two cells left
    of one directed edge would overlap.  The once-check stays: it is one
    lookup, and it does not lean on the area sum."""
    left: dict[tuple[Point, Point], tuple[Point, int]] = {}  # edge -> (far vertex, cell)
    planes = []
    for c in cells:
        a, b, e = c.vertices
        if a not in h or b not in h or e not in h:
            return None
        for edge, far in (((a, b), e), ((b, e), a), ((e, a), b)):
            if edge in left:
                return None
            left[edge] = (far, len(planes))
        planes.append(_plane_through(a, b, e, h))
    boundary = set(poly.boundary_segments())
    for (u, w), (_, i) in left.items():
        other = left.get((w, u))
        if other is None:
            if ((u, w) if u < w else (w, u)) not in boundary:
                return None
        elif u < w:
            (qx, qy), nx, ny, nz, d = other[0], *planes[i]
            if nx * qx + ny * qy + nz * h[qx, qy] <= d:
                return None
    return planes


# ---------------------------------------------------------------------------
# Extension and refinement
# ---------------------------------------------------------------------------


_MAX_DOUBLINGS = 80


def extend_subdivision(poly: LatticePolygon, inner: RegularSubdivision) -> RegularSubdivision:
    """Extend a regular subdivision of a subpolygon to all of ``poly``.

    New vertices of ``poly`` are lifted to a common height H, doubled until
    every new vertex lies strictly above every inner cell's plane; those
    heights are gift-wrapped once.  This is exactly when the inner cells
    reappear: each inner plane then still supports the lift and touches the
    same points, and a reappearing cell's plane is the inner one, which the
    new vertices (outside the cell) lie off.  The inner cells tile the
    subpolygon, so its primitive boundary segments stay edges.
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
    b, scale = _cleared(base)
    planes = [_plane_through(*c.vertices[:3], b) for c in inner.cells]
    height = max(base.values()) + 1
    for _ in range(_MAX_DOUBLINGS):
        z = int(height * scale)
        if all(nx * x + ny * y + nz * z > d for nx, ny, nz, d in planes for x, y in new_vertices):
            return subdivision_from_heights(poly, {**base, **dict.fromkeys(new_vertices, height)})
        height *= 2
    raise SubdivisionError("extension height search did not converge")


def unimodular_refinement(sub_div: RegularSubdivision) -> RegularSubdivision:
    """Regular unimodular refinement of a regular subdivision.

    Pulls every lattice point in lexicographic order.  Each pull lowers the
    point slightly below the current lifted surface (the exact rational drop
    is halved until ``_pull`` accepts it) and cones the cells containing it.
    Heights are integers on one shared ``scale``: when a drop needs a finer
    denominator, the scale, every height and every plane's (nx, ny, d) are
    multiplied by the missing factor, which changes no sign.  ``where`` maps
    each point not yet pulled to the cells containing it (``inside`` is the
    inverse) and ``owner`` each directed ccw cell edge to the cell on its
    left.  The final witness is re-verified globally.
    """
    if sub_div.is_unimodular():
        return sub_div
    poly = sub_div.polygon
    cells: dict[int, LatticePolygon] = dict(enumerate(sub_div.cells))
    where, inside, owner, seed = {}, {}, {}, {}
    for i, c in cells.items():
        inside[i] = c.lattice_points()
        for q in inside[i]:
            where.setdefault(q, []).append(i)
            if q not in seed:  # the surface is continuous: any cell gives it
                seed[q] = sub_div.plane_value(i, q)
        owner.update(dict.fromkeys(c.edges(), i))
    h, scale = _cleared(seed)
    planes = {i: _plane_through(*c.vertices[:3], h) for i, c in cells.items()}
    fresh = count(len(cells))
    eps = Fraction(1)

    for p in poly.lattice_points():
        affected = where.pop(p)
        if all(len(cells[i].vertices) == 3 and p in cells[i].vertices for i in affected):
            continue  # pulling is a combinatorial no-op
        cones = [
            (u, w)
            for i in affected
            for u, w in cells[i].edges()
            if orient(u, w, p) != 0 or dot(sub(p, u), sub(p, w)) > 0
        ]
        nx, ny, nz, d = planes[affected[0]]
        nu = Fraction(d - nx * p[0] - ny * p[1], nz * scale)
        old = h[p]
        for _ in range(400):
            drop = nu - eps
            if scale % drop.denominator:
                m = drop.denominator // gcd(scale, drop.denominator)
                scale *= m
                for q in h:
                    h[q] *= m
                planes = {i: (a * m, b * m, c, e * m) for i, (a, b, c, e) in planes.items()}
                old = h[p]
            h[p] = int(drop * scale)
            new_planes = _pull(p, h, cones, [planes.get(owner.get((w, u))) for u, w in cones])
            if new_planes is not None:
                break
            h[p] = old
            eps /= 2
        else:
            raise SubdivisionError("pulling drop search did not converge")

        star = dict.fromkeys(q for i in affected for q in inside.pop(i) if q in where)
        for i in affected:
            del planes[i]
            for e in cells.pop(i).edges():
                del owner[e]
        new = []
        for (u, w), plane in zip(cones, new_planes):
            k = next(fresh)
            cells[k], planes[k], inside[k] = LatticePolygon([p, u, w]), plane, []
            owner[p, u] = owner[u, w] = owner[w, p] = k
            new.append((k, u, w))
        for q in star:
            here = [i for i in where[q] if i not in affected]
            for k, u, w in new:
                if orient(p, u, q) >= 0 and orient(u, w, q) >= 0 and orient(w, p, q) >= 0:
                    here.append(k)
                    inside[k].append(q)
            where[q] = here

    result = verify_subdivision(poly, list(cells.values()), {q: Fraction(v, scale) for q, v in h.items()})
    if result is None:
        raise AssertionError("pulled witness failed global verification")
    if not result.is_unimodular():
        raise AssertionError("pulling left a fat cell")
    return result


def _pull(p: Point, h, cones, across) -> list | None:
    """The planes of the cones ``(u, w)`` (ccw triangles p, u, w) of a pull
    trial at height ``h[p]``, or None if the trial fails: ``p`` must lie
    strictly above each plane in ``across`` (the cell across each cone's link
    edge, None on the boundary), so that every link edge is a strict fold.

    This is the scans' verdict (p strictly above every kept plane, each
    cone's plane below the lift and touching just the cone's points).  The
    scans imply the test, since the cells across the link are kept.
    Conversely the current cells are the regular subdivision of the current
    heights, every lattice point on or above its surface, and lowering h(p)
    replaces the surface only on p's star, by cones below it that meet it
    on the link.  Folds across spokes, link edges and between kept cells
    (strict by regularity) make the new surface strictly convex across every
    interior edge, so, as in ``verify_subdivision``, each piece lies strictly
    below it off its cell.

    The spokes need no test: once the link edges are strict folds, so is
    every spoke.  Let f be the current surface, S the star of p (the cells
    containing it), δ = f(p) - h[p] > 0, and λ the function on S that is 1
    at p, 0 on the link and affine on each cone.  Each cone lies in one
    cell, where f is affine, so the new surface on S is f - δλ.  Take a
    spoke pu between the cones over the link edges tu and uw, and let θ be
    the angle t-u-w on p's side.
    - θ <= 180°: λ is concave across pu and f convex, one of them strictly.
      If pu runs inside one cell, u is a corner of it and θ < 180°, so λ is
      strictly concave; otherwise pu lies on an edge between two cells,
      where f folds strictly.
    - θ > 180°: u is interior (the polygon is convex).  Around u the jumps of
      the gradient add up to zero, so sum c_e e = 0 over the edge directions
      e at u, where c_e > 0 exactly when the fold across e is strict.  Every
      edge at u but the spoke is a link edge or a kept edge, hence strict,
      and lies in the closed sector from uw to ut outside the two cones, of
      angle 360° - θ < 180°.  Their terms add up to a nonzero vector in that
      sector, and the spoke's term cancels it along u -> p, which points out
      of the sector; so its c_e > 0.
    """
    x, y, z = p[0], p[1], h[p]
    for plane in across:
        if plane is not None and plane[0] * x + plane[1] * y + plane[2] * z <= plane[3]:
            return None
    return [_plane_through(p, u, w, h) for u, w in cones]


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
    if not curve.check_balanced():
        raise AssertionError("dual curve is not balanced")
    # incidence-reversing duality: spans orthogonal
    for i, j, (u, w), _ in curve.edges:
        dv = (verts[j][0] - verts[i][0], verts[j][1] - verts[i][1])
        if dv[0] * (w[0] - u[0]) + dv[1] * (w[1] - u[1]) != 0:
            raise AssertionError(f"dual edge of {(u, w)} is not orthogonal to it")
    for _, d, (u, w), _ in curve.rays:
        if d[0] * (w[0] - u[0]) + d[1] * (w[1] - u[1]) != 0:
            raise AssertionError(f"dual ray of {(u, w)} is not orthogonal to it")
    return curve
