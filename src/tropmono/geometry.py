"""Exact planar lattice geometry: points, primitive segments, convex hulls,
unimodular affine maps and convex lattice polygons.

Everything here is exact: integers, and a ``Fraction`` only where a
clipped vertex falls off the lattice; no floats anywhere.  Points are plain
``(x, y)`` tuples so they hash, sort and serialize trivially.  A
two-dimensional polygon also carries its half-plane description (one
primitive inward normal and offset per edge, built on first use): membership
tests evaluate it, and lattice enumeration walks the columns between the
half-planes, so it costs the number of points, not the bounding box.  A
polygon keeps its adjoint too (``adjoint_polygon``), built once by exact
clipping of those half-planes.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

Point = tuple[int, int]
Segment = tuple[Point, Point]  # endpoints sorted lexicographically


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def add(a: Point, b: Point) -> Point:
    return (a[0] + b[0], a[1] + b[1])


def neg(a: Point) -> Point:
    return (-a[0], -a[1])


def smul(k: int, a: Point) -> Point:
    return (k * a[0], k * a[1])


def cross(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def dot(a: Point, b: Point) -> int:
    return a[0] * b[0] + a[1] * b[1]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of twice the signed area of triangle abc (>0 for ccw)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def lattice_length(a: Point, b: Point) -> int:
    """Number of primitive steps from a to b (gcd of coordinate gaps)."""
    return gcd(abs(a[0] - b[0]), abs(a[1] - b[1]))


def primitive(v: Point) -> Point:
    """Primitive vector in the direction of v."""
    if v == (0, 0):
        raise ValueError("zero vector has no direction")
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def point_from_json(x) -> Point:
    """A lattice point decoded from JSON: a list of exactly two ints (bools
    and floats rejected); ValueError otherwise."""
    if not (isinstance(x, list) and len(x) == 2 and all(type(c) is int for c in x)):
        raise ValueError(f"expected a lattice point [x, y], got {x!r}")
    return (x[0], x[1])


def seg(a: Point, b: Point) -> Segment:
    """Canonical (sorted) primitive integer segment with endpoints a, b."""
    if not (type(a) is tuple and type(b) is tuple and len(a) == len(b) == 2
            and type(a[0]) is type(a[1]) is type(b[0]) is type(b[1]) is int):
        a = (int(a[0]), int(a[1]))
        b = (int(b[0]), int(b[1]))
    if gcd(a[0] - b[0], a[1] - b[1]) != 1:
        raise ValueError(f"not a primitive integer segment: {a}-{b}")
    return (a, b) if a < b else (b, a)


def seg_dir_from(s: Segment, v: Point) -> Point:
    """Primitive direction of segment s oriented out of its endpoint v."""
    if v == s[0]:
        return sub(s[1], s[0])
    if v == s[1]:
        return sub(s[0], s[1])
    raise ValueError(f"{v} is not an endpoint of {s}")


def lattice_points_on_segment(a: Point, b: Point) -> list[Point]:
    """All lattice points on [a, b], ordered from a to b."""
    if a == b:
        return [a]
    n = lattice_length(a, b)
    d = primitive(sub(b, a))
    return [add(a, smul(k, d)) for k in range(n + 1)]


def primitive_segments_on(a: Point, b: Point) -> list[Segment]:
    """Decomposition of the lattice segment [a, b] into primitive segments."""
    pts = lattice_points_on_segment(a, b)
    return [seg(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]


def segments_cross(s: Segment, t: Segment) -> bool:
    """True iff the two segments meet outside their shared endpoints.

    Collinear overlap counts as crossing; sharing an endpoint does not.
    """
    if s == t:
        return True
    a, b = s
    c, d = t
    shared = {a, b} & {c, d}
    if len(shared) == 1:
        # May still overlap if collinear and pointing the same way.
        (p,) = shared
        q = b if a == p else a
        r = d if c == p else c
        if cross(sub(q, p), sub(r, p)) == 0 and dot(sub(q, p), sub(r, p)) > 0:
            return True
        return False
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 == o2 == 0:  # collinear
        lo1, hi1 = min(a, b), max(a, b)
        lo2, hi2 = min(c, d), max(c, d)
        return not (hi1 <= lo2 or hi2 <= lo1)
    if (o1 * o2 <= 0 and o3 * o4 <= 0) and not (o1 * o2 == 0 and o3 * o4 == 0):
        return True
    if o1 * o2 == 0 and o3 * o4 == 0:
        # An endpoint of one lies strictly inside the other.
        for p, (u, w) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
            if p not in (u, w) and orient(u, w, p) == 0 and \
                    min(u, w) < p < max(u, w):
                return True
        return False
    if o1 * o2 < 0 and o3 * o4 == 0:
        return True
    if o3 * o4 < 0 and o1 * o2 == 0:
        return True
    return False


def convex_hull(points) -> list[Point]:
    """Extreme points of the convex hull, ccw, starting at the lex-min point.

    Collinear non-extreme points are dropped.  Degenerate inputs give the
    obvious answer: one point, or the two ends of a segment.
    """
    pts = sorted(set((int(p[0]), int(p[1])) for p in points))
    if not pts:
        raise ValueError("empty point set")
    if len(pts) == 1:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        hull = hull[:1]
    return hull


def _triangle(points):
    """``tuple(convex_hull(points))`` for three non-collinear points given as
    int 2-tuples or 2-lists in a list, tuple or set: sorted, then ordered
    ccw from the lex-min one, with no hull run.  None for any other input."""
    if type(points) not in (list, tuple, set) or len(points) != 3:
        return None
    pts = []
    for p in points:
        if type(p) not in (tuple, list) or len(p) != 2 or \
                type(p[0]) is not int or type(p[1]) is not int:
            return None
        pts.append((p[0], p[1]))
    a, b, c = sorted(pts)
    o = orient(a, b, c)
    return None if o == 0 else (a, b, c) if o > 0 else (a, c, b)


class UnimodularMap(namedtuple("UnimodularMap", "m t")):
    """Lattice-preserving affine map x -> M x + t with |det M| = 1."""

    __slots__ = ()

    def __new__(cls, m: tuple[tuple[int, int], tuple[int, int]], t: Point = (0, 0)):
        self = super().__new__(cls, m, t)
        if abs(self.det()) != 1:
            raise ValueError(f"matrix {m} is not unimodular")
        return self

    def det(self) -> int:
        (a, b), (c, d) = self.m
        return a * d - b * c

    def apply(self, p: Point) -> Point:
        (a, b), (c, d) = self.m
        return (a * p[0] + b * p[1] + self.t[0], c * p[0] + d * p[1] + self.t[1])

    def apply_vector(self, v: Point) -> Point:
        (a, b), (c, d) = self.m
        return (a * v[0] + b * v[1], c * v[0] + d * v[1])

    def apply_seg(self, s: Segment) -> Segment:
        return seg(self.apply(s[0]), self.apply(s[1]))

    def inverse(self) -> "UnimodularMap":
        (a, b), (c, d) = self.m
        det = self.det()  # det**-1 == det since det is +-1
        inv = ((d * det, -b * det), (-c * det, a * det))
        lin = UnimodularMap(inv)
        return UnimodularMap(inv, neg(lin.apply_vector(self.t)))

    @staticmethod
    def from_basis(e1: Point, e2: Point, origin: Point = (0, 0)) -> "UnimodularMap":
        """The map sending origin to 0, e1 to (1,0) and e2 to (0,1).

        Requires (e1, e2) to be a lattice basis.
        """
        det = cross(e1, e2)
        if abs(det) != 1:
            raise ValueError(f"{e1}, {e2} do not generate the lattice")
        # Inverse of the column matrix [e1 e2].
        m = ((e2[1] * det, -e2[0] * det), (-e1[1] * det, e1[0] * det))
        lin = UnimodularMap(m)
        return UnimodularMap(m, neg(lin.apply_vector(origin)))


class LatticePolygon:
    """Convex lattice polygon (possibly a segment or a point).

    Vertices are the extreme points in ccw order starting at the lex-min
    vertex, so equal polygons compare equal.
    """

    __slots__ = ("vertices", "_lattice_cache", "_halfplanes", "_adjoint")

    def __init__(self, points):
        self.vertices = _triangle(points) or tuple(convex_hull(points))
        self._lattice_cache = self._halfplanes = None

    # -- basic structure ---------------------------------------------------

    @property
    def dimension(self) -> int:
        n = len(self.vertices)
        return 0 if n == 1 else (1 if n == 2 else 2)

    def __eq__(self, other):
        return isinstance(other, LatticePolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"LatticePolygon({list(self.vertices)})"

    def edges(self) -> list[tuple[Point, Point]]:
        """Maximal edges as ordered vertex pairs, ccw from the lex-min vertex."""
        v = self.vertices
        if len(v) == 1:
            return []
        if len(v) == 2:
            return [(v[0], v[1])]
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def edge_lengths(self) -> list[int]:
        return [lattice_length(a, b) for a, b in self.edges()]

    def area2(self) -> int:
        """Twice the Euclidean area (shoelace)."""
        v = self.vertices
        if len(v) == 3:
            return orient(*v)  # ccw
        return abs(sum(cross(v[i], v[(i + 1) % len(v)]) for i in range(len(v))))

    def halfplanes(self) -> tuple[tuple[int, int, int], ...]:
        """``(a, b, c)`` per edge, in edge order, with ``(a, b)`` the
        primitive inward normal: the polygon is the set of ``(x, y)`` with
        ``a*x + b*y >= c`` for all of them.  Two-dimensional polygons only;
        built on first use, so polygons never asked for it do not pay."""
        hp = self._halfplanes
        if hp is None:
            if self.dimension != 2:
                raise ValueError("half-planes need a two-dimensional polygon")
            out = []
            for (x0, y0), (x1, y1) in self.edges():
                dx, dy = x1 - x0, y1 - y0
                g = gcd(dx, dy)
                a, b = -dy // g, dx // g  # left of a ccw edge
                out.append((a, b, a * x0 + b * y0))
            hp = tuple(out)
            self._halfplanes = hp
        return hp

    # -- membership --------------------------------------------------------

    def side(self, p) -> int:
        """+1 strictly inside, 0 on the boundary, -1 outside.  The point may
        have ``Fraction`` coordinates."""
        v = self.vertices
        if len(v) == 1:
            return 0 if p == v[0] else -1
        if len(v) == 2:
            if orient(v[0], v[1], p) != 0:
                return -1
            return 0 if dot(sub(p, v[0]), sub(p, v[1])) <= 0 else -1
        x, y = p
        res = 1
        for a, b, c in self._halfplanes or self.halfplanes():
            s = a * x + b * y
            if s < c:
                return -1
            if s == c:
                res = 0
        return res

    def contains(self, p: Point) -> bool:
        return self.side(p) >= 0

    def contains_segment(self, s: Segment) -> bool:
        return self.contains(s[0]) and self.contains(s[1])

    # -- lattice point enumeration -----------------------------------------

    def lattice_points(self) -> list[Point]:
        """All lattice points of the polygon, sorted lexicographically.

        Each column x runs from the highest lower bound to the lowest upper
        bound that the half-planes put on y, with exact integer ceil/floor.
        """
        cache = self._lattice_cache
        if cache is None:
            v = self.vertices
            if len(v) < 3:
                cache = lattice_points_on_segment(v[0], v[-1])
            else:
                hp = self.halfplanes()
                below = [(a, b, c) for a, b, c in hp if b > 0]  # y >= (c - a x) / b
                above = [(a, b, c) for a, b, c in hp if b < 0]  # y <= (c - a x) / b
                cache = []
                # vertical edges (b == 0) bound only the x range itself
                for x in range(min(p[0] for p in v), max(p[0] for p in v) + 1):
                    lo = max(-((a * x - c) // b) for a, b, c in below)
                    hi = min((c - a * x) // b for a, b, c in above)
                    cache.extend((x, y) for y in range(lo, hi + 1))
            self._lattice_cache = cache
        return list(cache)

    def boundary_points(self) -> list[Point]:
        if self.dimension < 2:
            return self.lattice_points()
        return sorted(p for p in self.lattice_points() if self.side(p) == 0)

    def interior_points(self) -> list[Point]:
        if self.dimension < 2:
            return []
        return sorted(p for p in self.lattice_points() if self.side(p) == 1)

    def boundary_segments(self) -> list[Segment]:
        """The primitive segments of the boundary."""
        out = []
        for a, b in self.edges():
            out.extend(primitive_segments_on(a, b))
        return sorted(set(out))

    # -- transforms ----------------------------------------------------------

    def transform(self, f: UnimodularMap) -> "LatticePolygon":
        return LatticePolygon([f.apply(p) for p in self.vertices])

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"vertices": [list(p) for p in self.vertices]}

    @staticmethod
    def from_json(data: dict) -> "LatticePolygon":
        return LatticePolygon([point_from_json(p) for p in data["vertices"]])


def _quotient(num, den):
    """num / den exactly: an int when den divides num, else a Fraction
    (imported here: a verdict with an integral adjoint needs none)."""
    if num % den == 0:
        return num // den
    from fractions import Fraction

    return Fraction(num, den)


def _clip(region: list, a: int, b: int, c: int) -> list:
    """The part of a convex polygon (vertex list, possibly degenerate, exact
    coordinates) where a*x + b*y >= c."""
    out = []
    for i, p in enumerate(region):
        q = region[i - 1]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if (fq < 0 < fp) or (fp < 0 < fq):  # the crossing (fq p - fp q) / (fq - fp)
            out.append(tuple(_quotient(fq * pc - fp * qc, fq - fp) for pc, qc in zip(p, q)))
        if fp >= 0:
            out.append(p)
    return out


def adjoint_polygon(poly: LatticePolygon) -> LatticePolygon | None:
    """Convex hull of the interior lattice points; None when there are none.

    Computed without enumeration as Q, the intersection of the half-planes
    <n_i, x> >= c_i + 1 (the polygon is <n_i, x> >= c_i with primitive
    integer n_i, so c_i is an integer), by exact clipping of the polygon:

    - every interior lattice point x has <n_i, x> > c_i, hence >= c_i + 1
      since the values are integers, so it lies in Q;
    - so an empty Q means there are no interior points;
    - when every vertex of Q is integral, each vertex satisfies every
      <n_i, x> > c_i, so it is an interior lattice point, and Q is the
      hull of the interior lattice points.

    Only when a vertex of Q is not integral are the interior points
    enumerated.  The polygon keeps the result in its ``_adjoint`` slot,
    which stays unset until the first call (None already means "no
    interior point"), so each polygon is clipped once.
    """
    try:
        return poly._adjoint
    except AttributeError:
        pass
    if poly.dimension != 2:
        raise ValueError("adjoint needs a two-dimensional polygon")
    region = list(poly.vertices)
    for a, b, c in poly.halfplanes():
        region = _clip(region, a, b, c + 1)
    if not all(x.denominator == 1 and y.denominator == 1 for x, y in region):
        region = poly.interior_points()
    poly._adjoint = adj = LatticePolygon(region) if region else None
    return adj
