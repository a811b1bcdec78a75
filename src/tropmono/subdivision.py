"""Regular (convex) subdivisions of lattice polygons from height functions.

One integer kernel: heights are integers on one shared scale from the first
wrap to the final witness and its JSON (``HeightFunction`` holds only the
lift), with no rational arithmetic.  Two primitives
work on lifted lattice points: ``subdivision_from_heights`` computes the
lower convex hull (gift wrapping), and ``verify_subdivision`` is the one
check that given cells are a unimodular triangulation induced by given
heights (admissibility certificates and pulling use it, and neither accepts
anything else).  Gift wrapping finds the lifted points on a plane with one
scan, ``_touching``; the witness check and extension heights are decided by
local folds instead, each with its proof of agreement with the scan, and
the pulling drop is computed in closed form from the folds
(``_drop_exponent``).  On top of them sit the extension of a subdivision of
a subpolygon to the whole polygon, unimodular refinement by pulling (cells
as ccw vertex tuples until the final check), and the dual tropical curve.
Every subdivision here comes from explicit heights; whether a prescribed
cell complex is regular is never asked.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count
from math import gcd, lcm

from .geometry import (
    LatticePolygon,
    Point,
    Segment,
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


class HeightFunction:
    """Exact rational heights on a finite set of lattice points, held as
    their lift: integer heights on the least common scale (the lcm of the
    reduced denominators) and that scale.  Equality, hashing and the JSON
    codec read the lift; only ``values`` and ``as_dict`` build Fractions."""

    __slots__ = ("_h", "_scale")

    @staticmethod
    def lifted(h: dict[Point, int], scale: int) -> "HeightFunction":
        """The heights ``h[p] / scale``, brought to the least common scale.
        ``h`` is kept, so the caller must not change it afterwards."""
        g = scale
        for v in h.values():
            if g == 1:
                break
            g = gcd(g, v)
        if g != 1:
            h, scale = {p: v // g for p, v in h.items()}, scale // g
        hf = HeightFunction.__new__(HeightFunction)
        hf._h, hf._scale = h, scale
        return hf

    @staticmethod
    def of(mapping) -> "HeightFunction":
        h = {(int(p[0]), int(p[1])): v for p, v in dict(mapping).items()}
        if any(type(v) is not int for v in h.values()):
            from fractions import Fraction

            h = {p: Fraction(v) for p, v in h.items()}
        return HeightFunction.lifted(*_cleared(h))

    @property
    def values(self) -> tuple:
        """The sorted ``(point, Fraction)`` pairs."""
        from fractions import Fraction

        return tuple((p, Fraction(v, self._scale)) for p, v in sorted(self._h.items()))

    def lift(self) -> tuple[dict[Point, int], int]:
        """Integer heights on the least common scale, and that scale; the
        dict is shared, so callers must not change it."""
        return self._h, self._scale

    def __eq__(self, other):
        return isinstance(other, HeightFunction) and self._scale == other._scale and self._h == other._h

    def __hash__(self):
        return hash((self._scale, frozenset(self._h.items())))

    def __repr__(self):
        return f"HeightFunction.lifted({dict(sorted(self._h.items()))!r}, {self._scale})"

    def as_dict(self) -> dict:
        return dict(self.values)

    @property
    def support(self) -> list[Point]:
        return sorted(self._h)

    def to_json(self) -> list:
        """``[[x, y, num, den], ...]`` in point order, in lowest terms, den > 0."""
        s = self._scale
        return [[x, y, v // g, s // g] for (x, y), v in sorted(self._h.items()) for g in (gcd(v, s),)]

    @staticmethod
    def from_json(data) -> "HeightFunction":
        """Decode ``[[x, y, num, den], ...]``: integer entries, nonzero
        denominators, no point twice; ValueError otherwise.  Each pair goes
        to lowest terms with den > 0, then all to the lcm of the dens."""
        if not isinstance(data, list):
            raise ValueError("heights must be a list of [x, y, num, den]")
        pairs: dict[Point, tuple[int, int]] = {}
        for entry in data:
            if not (isinstance(entry, list) and len(entry) == 4):
                raise ValueError(f"expected a height [x, y, num, den], got {entry!r}")
            p = point_from_json(entry[:2])
            num, den = entry[2], entry[3]
            if type(num) is not int or type(den) is not int or den == 0:
                raise ValueError(f"height of {p} is not a fraction of integers")
            if p in pairs:
                raise ValueError(f"height of {p} given twice")
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            pairs[p] = (num // g, den // g)
        scale = lcm(*(den for _, den in pairs.values()))
        return HeightFunction.lifted({p: num * (scale // den) for p, (num, den) in pairs.items()}, scale)


def _cleared(heights) -> tuple[dict[Point, int], int]:
    """Integer heights on the scale of the lcm of the denominators, and that
    scale (values are Fractions or ints)."""
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
    a, b, c, d = plane
    g = gcd(a, b, c, d)
    return a // g, b // g, c // g, d // g


def _spans(poly: LatticePolygon, h) -> bool:
    """Whether the convex hull of the support of ``h`` is ``poly``: every
    support point lies in ``poly`` and every vertex of ``poly`` is a support
    point, with no hull run."""
    if not all(v in h for v in poly.vertices):
        return False
    if poly.dimension < 2:
        return all(poly.side(p) >= 0 for p in h)
    return all(a * x + b * y >= c for a, b, c in poly.halfplanes() for x, y in h)


def _lowest_plane(a, b, h, lifted):
    """The gift-wrapping step: the plane through the lifted edge ``a -> b``
    that no lifted point on the edge's left lies below, in one pass that
    keeps the first candidate and moves to any point strictly below it."""
    ax, ay, az = a[0], a[1], h[a]
    ux, uy, uz = b[0] - ax, b[1] - ay, h[b] - az
    nx = ny = nz = 0
    for x, y, z in lifted:
        vx, vy, vz = x - ax, y - ay, z - az
        o = ux * vy - uy * vx  # orient(a, b, (x, y))
        if o > 0 and (nz == 0 or nx * vx + ny * vy + nz * vz < 0):
            nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, o
    if nz == 0:
        raise SubdivisionError(f"no facet on the left of {(a, b)}")
    return nx, ny, nz, nx * ax + ny * ay + nz * az


def _boundary_chain_edges(poly: LatticePolygon, lifted):
    """Directed seed edges of the lower hull over each edge of ``poly`` (the
    hull of the support), interior on the left."""
    seeds = []
    for (u, _), (a, b, c) in zip(poly.edges(), poly.halfplanes()):
        # (b, -a) is the primitive direction of the edge
        keyed = sorted(((x - u[0]) * b - (y - u[1]) * a, z, (x, y)) for x, y, z in lifted if a * x + b * y == c)
        # 1D lower hull over (position, height); collinear lifted points are
        # merged so the chain edges are maximal 1-faces.
        chain: list[tuple[int, int, Point]] = []
        for k, z, p in keyed:
            while len(chain) >= 2:
                (k1, z1, _), (k2, z2, _) = chain[-2], chain[-1]
                if (k2 - k1) * (z - z2) - (z2 - z1) * (k - k2) <= 0:
                    chain.pop()
                else:
                    break
            chain.append((k, z, p))
        seeds.extend((p1, p2) for (_, _, p1), (_, _, p2) in zip(chain, chain[1:]))
    return seeds


class RegularSubdivision:
    """A regular subdivision of a polygon together with its height witness;
    two compare equal when their polygons and cells do.

    ``cells`` are the two-dimensional faces, ``planes`` the integer
    supporting planes of the lifted cells (parallel data), on the witness's
    least common scale.  ``unimodular`` is whether every cell is a
    unimodular triangle, when the constructor already measured the cells;
    None means ``is_unimodular`` measures."""

    __slots__ = ("polygon", "cells", "witness", "planes", "unused_support", "unimodular")

    def __init__(self, polygon, cells, witness, planes, unused_support, unimodular=None):
        self.polygon, self.cells, self.witness = polygon, cells, witness
        self.planes, self.unused_support, self.unimodular = planes, unused_support, unimodular

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

    def to_json(self) -> dict:
        pts = self.witness.support
        index = {p: i for i, p in enumerate(pts)}
        cells = sorted([index[v] for v in c.vertices] for c in self.cells)
        return {"heights": self.witness.to_json(), "cells": cells}


def subdivision_from_heights(poly: LatticePolygon, heights) -> RegularSubdivision:
    """The regular subdivision of ``poly`` induced by lifting the support of
    ``heights`` (a HeightFunction or a mapping) and projecting the lower
    convex hull.

    Gift wrapping from the lower chains over the polygon's edges: each
    directed edge popped gives the facet on its left (``_lowest_plane``,
    then ``_touching`` for the points on it), and every edge of a facet
    found is marked done, so each facet is wrapped once.  A lower facet's
    edge is the whole face it shares with its neighbour, so the neighbour
    is wrapped from exactly that edge."""
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


def trivial_subdivision(poly: LatticePolygon) -> RegularSubdivision:
    return subdivision_from_heights(poly, dict.fromkeys(poly.vertices, 0))


def verify_subdivision(poly: LatticePolygon, cells, heights) -> RegularSubdivision | None:
    """The one check that ``cells`` is a unimodular triangulation of
    ``poly`` and the regular subdivision induced by ``heights``: the support
    spans ``poly``, no cell repeats, every cell is a unimodular triangle,
    there are as many cells as the polygon's normalized area, and the local
    folds (``_folds``) hold.  Returns the assembled subdivision or None; a
    cell that is not a unimodular triangle gives None, as neither caller
    accepts one.

    The folds decide what the plane scans would (the tests keep the scans
    as the oracle ``scan_verify``): each lifted cell spans a supporting
    plane of the lifted support touching exactly the cell's points, and the
    areas add up.  Each such cell is a lower facet, distinct facets have
    disjoint interiors, so full area means every facet is listed (the
    standard characterisation of a regular subdivision; De Loera, Rambau
    and Santos, *Triangulations*, 2010).

    Folds imply the scans: shared edges cancel in the boundary of the
    2-chain of ccw cells, so it is k times the boundary cycle of ``poly``,
    and k (the number of cells over a generic point inside; 0 outside) is 1
    by the area sum.  So the cells tile ``poly``, face to face as primitive
    edges hold no inner lattice point, and every lattice point is a vertex
    (none unused).  A continuous piecewise-linear function on a convex
    domain, strictly convex across every interior edge, exceeds each cell's
    affine piece off the cell: along a segment from inside the cell to an
    outside point, avoiding other vertices, the convex difference is 0 until
    the first crossed edge and positive just past it.  So each plane touches
    exactly its three points.  The scans imply the folds: the cells are then
    a triangulation, and the far vertex of a neighbour is a support point
    off the cell.
    """
    hf = heights if isinstance(heights, HeightFunction) else HeightFunction.of(heights)
    h, _ = hf.lift()
    if not _spans(poly, h):
        return None
    cells = sorted(cells, key=lambda c: c.vertices)
    if len(set(cells)) != len(cells) or len(cells) != poly.area2():
        return None
    if not all(len(c.vertices) == 3 and c.area2() == 1 for c in cells):
        return None
    planes = _folds(poly, cells, h)
    if planes is None:
        return None
    return RegularSubdivision(poly, tuple(cells), hf, tuple(map(_norm_plane, planes)), (), True)


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
    for i, c in enumerate(cells):
        a, b, e = c.vertices
        if a not in h or b not in h or e not in h or (a, b) in left or (b, e) in left or (e, a) in left:
            return None
        left[a, b], left[b, e], left[e, a] = (e, i), (a, i), (b, i)
        planes.append(_plane_through(a, b, e, h))
    for (u, w), (_, i) in left.items():
        other = left.get((w, u))
        if other is None:
            # a unimodular triangle's edge is primitive, and its ends lie in
            # poly: it is a boundary segment iff both are on one edge line
            if not any(a * u[0] + b * u[1] == c == a * w[0] + b * w[1] for a, b, c in poly.halfplanes()):
                return None
        elif u < w:
            q, (nx, ny, nz, d) = other[0], planes[i]
            if nx * q[0] + ny * q[1] + nz * h[q] <= d:
                return None
    return planes


# ---------------------------------------------------------------------------
# Extension and refinement
# ---------------------------------------------------------------------------


_MAX_DOUBLINGS = 80
_MAX_HALVINGS = 400


def extend_subdivision(poly: LatticePolygon, inner: RegularSubdivision) -> RegularSubdivision:
    """Extend a regular subdivision of a subpolygon to all of ``poly``.

    The inner heights are shifted to be at least 1, and new vertices of
    ``poly`` are lifted to a common height H, doubled until every new vertex
    lies strictly above every inner cell's plane; those heights are
    gift-wrapped once.  This is exactly when the inner cells reappear: each
    inner plane then still supports the lift and touches the same points,
    and a reappearing cell's plane is the inner one, which the new vertices
    (outside the cell) lie off.  The inner cells tile the subpolygon, so its
    primitive boundary segments stay edges.  All of it is integer, on the
    inner witness's scale.
    """
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
            return subdivision_from_heights(poly, HeightFunction.lifted(lift, scale))
        z *= 2
    raise SubdivisionError("extension height search did not converge")


def unimodular_refinement(sub_div: RegularSubdivision) -> RegularSubdivision:
    """Regular unimodular refinement of a regular subdivision.

    Pulls every lattice point in lexicographic order: the point is lowered
    below the current lifted surface and the cells containing it are coned
    from it (De Loera, Rambau and Santos, *Triangulations*, 2010, §4.3).
    The heights start as the surface values of ``sub_div`` on its witness's
    scale, as integers on one shared ``scale``.  The drop is ``2**-k`` of
    those units, where the pulling search starts k at the last drop's
    exponent e and raises it by one (halves the drop) until the trial is a
    regular subdivision, at most ``_MAX_HALVINGS`` times.

    The first passing k has a closed form, ``_drop_exponent``, so no trial
    is made.  A trial is regular exactly when p ends strictly above the
    plane of each cell across one of its link edges (see
    ``_drop_exponent``).  Let (nx, ny, nz, d) be the plane of a cell
    containing p = (x, y), so the surface at p is N/nz with
    N = d - nx x - ny y, and the trial height is z = N/nz - scale 2**-k.  For
    an across plane (ax, ay, az, ad), with az > 0 and nz > 0, p lies above it
    when ax x + ay y + az z > ad, that is 2**k num > A with
    num = N az - (ad - ax x - ay y) nz and A = nz az scale > 0.  If num <= 0,
    no k passes and the search fails.  Otherwise, as 2**k is an integer,
    2**k > A / num exactly when 2**k > A // num, and the least such k is
    (A // num).bit_length().  Each test holds for every k from its own
    bound on, so the first k >= e that passes all of them, which is the
    search's, is the largest of e and the bounds; the search gives up when
    that is e + ``_MAX_HALVINGS`` or more.  A rescale multiplies N,
    ad - ax x - ay y and scale by one factor, so the bound does not depend
    on the scale.  The heights, and so the witness, are those the search
    would reach.

    Only the drop taken is applied.  When it needs a finer denominator, the
    scale, every height and every plane's (nx, ny, d) are multiplied by the
    missing factor, which changes no sign.  Cells and their cones are ccw
    vertex tuples; ``where`` maps each point not yet pulled to the cells
    containing it (``inside`` is the inverse), and ``owner`` each directed
    ccw cell edge to the cell on its left.  A point of the star lies in the
    cones of its own cells only, so it is tested against those.  The final
    cells become polygons once, and the witness is re-verified globally by
    ``verify_subdivision``.
    """
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


def _drop_exponent(p: Point, surface, across, scale: int, e: int) -> int:
    """The exponent k of the pulling drop at ``p``: the first k >= e, in
    fewer than ``_MAX_HALVINGS`` steps past e, at which lowering p to
    ``2**-k`` units below the current surface leaves p strictly above every
    plane in ``across``; SubdivisionError("pulling drop search did not
    converge") if there is none.  ``surface`` is the integer plane of a cell
    containing p and ``across`` those of the cells across p's link edges
    (boundary link edges have none), all on ``scale``.  See
    ``unimodular_refinement`` for why the closed form is the first k the
    halving search accepts.

    Being strictly above ``across`` makes every link edge a strict fold,
    and it is the scans' verdict on the trial (p strictly above every kept
    plane, each cone's plane below the lift and touching just the cone's
    points).  The scans imply the test, since the cells across the link are kept.
    Conversely the current cells are the regular subdivision of the current
    heights, every lattice point on or above its surface, and lowering p
    replaces the surface only on p's star, by cones below it that meet it
    on the link.  Folds across spokes, link edges and between kept cells
    (strict by regularity) make the new surface strictly convex across every
    interior edge, so, as in ``verify_subdivision``, each piece lies strictly
    below it off its cell.

    The spokes need no test: once the link edges are strict folds, so is
    every spoke.  Let f be the current surface, S the star of p (the cells
    containing it), δ = f(p) - z > 0, and λ the function on S that is 1 at
    p, 0 on the link and affine on each cone.  Each cone lies in one cell,
    where f is affine, so the new surface on S is f - δλ.  Take a spoke pu
    between the cones over the link edges tu and uw, and let θ be the angle
    t-u-w on p's side.
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
    x, y = p
    nx, ny, nz, d = surface
    n = d - nx * x - ny * y
    k = e
    for ax, ay, az, ad in across:
        num = n * az - (ad - ax * x - ay * y) * nz
        if num <= 0:
            raise SubdivisionError("pulling drop search did not converge")
        k = max(k, (nz * az * scale // num).bit_length())
    if k >= e + _MAX_HALVINGS:
        raise SubdivisionError("pulling drop search did not converge")
    return k


# ---------------------------------------------------------------------------
# Dual tropical curve
# ---------------------------------------------------------------------------


class TropicalCurve(namedtuple("TropicalCurve", "vertices edges rays")):
    """Dual tropical curve of a regular subdivision (max convention,
    coefficients c_p = -h(p)).

    ``vertices`` are rational points (pairs of Fractions), one per 2-cell;
    ``edges``, (i, j, dual segment, weight), join the vertices of adjacent
    cells; ``rays``, (i, direction, dual segment, weight), leave through
    boundary 1-faces.  The weight is the lattice length of the dual."""

    __slots__ = ()

    def check_balanced(self) -> bool:
        for i in range(len(self.vertices)):
            acc = (0, 0)
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
    from fractions import Fraction

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
