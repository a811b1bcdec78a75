"""Polygon-level analysis: smoothness, adjoint polygon, root orders,
normalizations at adjoint vertices, divisibility, and the surjectivity
verdict table.

The verdict logic is the decision procedure for the two monodromy maps: the
geometric one is surjective iff the adjoint is a point or has no non-trivial
root, the algebraic one tolerates odd root orders.  Genus-zero polygons are
out of scope and the one-dimensional adjoint (hyperelliptic) case is
reported as deferred.

A verdict enumerates no lattice point: the adjoint is the polygon's
half-planes moved in by one (``adjoint_polygon``, defined in ``geometry``
next to the slot where each polygon keeps it) and the genus comes
from Pick's formula, in O(#edges) integer operations whatever the area.  The
divisors of the root order n come from trial division up to sqrt(n), so that
step costs O(sqrt(n)) and dominates for very large polygons.  Internal
consistency checks raise ``AssertionError`` explicitly, so they also hold
under ``python -O``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd, isqrt

from .errors import SmoothnessError
from .geometry import (
    LatticePolygon,
    Point,
    UnimodularMap,
    add,
    adjoint_polygon,
    cross,
    lattice_length,
    lattice_points_on_segment,
    primitive,
    sub,
)


def is_smooth(poly: LatticePolygon) -> bool:
    """True iff at every vertex the two adjacent primitive edge directions
    generate the lattice."""
    if poly.dimension != 2:
        raise SmoothnessError("not two-dimensional")
    v = poly.vertices
    n = len(v)
    for i in range(n):
        d1 = primitive(sub(v[(i + 1) % n], v[i]))
        d2 = primitive(sub(v[(i - 1) % n], v[i]))
        if abs(cross(d1, d2)) != 1:
            return False
    return True


def normal_fan_rays(poly: LatticePolygon) -> list[Point]:
    """Primitive outward normals of the edges, in edge order."""
    return [(-a, -b) for a, b, _ in poly.halfplanes()]


def self_intersections(poly: LatticePolygon) -> list[int]:
    """Self-intersection numbers of the toric divisors of a smooth polygon.

    For consecutive primitive rays u_{i-1}, u_i, u_{i+1} of a smooth complete
    fan, u_{i-1} + u_{i+1} = -D_i^2 u_i.
    """
    rays = normal_fan_rays(poly)
    n = len(rays)
    out = []
    for i in range(n):
        s = add(rays[(i - 1) % n], rays[(i + 1) % n])
        u = rays[i]
        # s must be an integer multiple of u
        if u[0] != 0:
            if s[0] % u[0] or s[1] != s[0] // u[0] * u[1]:
                raise SmoothnessError("fan is not smooth")
            k = s[0] // u[0]
        else:
            if s[0] != 0 or s[1] % u[1]:
                raise SmoothnessError("fan is not smooth")
            k = s[1] // u[1]
        out.append(-k)
    return out


def adjoint_edge_lengths_valid(poly: LatticePolygon) -> bool:
    """Cross-check: for each edge the adjoint edge with the same outward
    normal has lattice length l - D^2 - 2 (0 meaning no such edge)."""
    adj = adjoint_polygon(poly)
    if adj is None or adj.dimension != 2:
        return True
    adj_by_normal = dict(zip(normal_fan_rays(adj), adj.edge_lengths()))
    lengths = poly.edge_lengths()
    selfints = self_intersections(poly)
    for ray, l, dsq in zip(normal_fan_rays(poly), lengths, selfints):
        expected = l - dsq - 2
        if adj_by_normal.get(ray, 0) != expected:
            return False
    return True


def root_order(adjoint: LatticePolygon | None) -> int:
    """Largest order of a root of the adjoint bundle: the gcd of the adjoint
    edge lattice lengths.  By convention 1 for a point (see analyze)."""
    if adjoint is None:
        raise ValueError("genus zero")
    if adjoint.dimension == 0:
        return 1
    g = 0
    for l in adjoint.edge_lengths():
        g = gcd(g, l)
    return g


def divisors_from_2(n: int) -> list[int]:
    """The divisors d >= 2 of n >= 1, ascending, by trial division to sqrt(n)."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    large = [n // d for d in reversed(small) if d * d != n]
    return (small + large)[1:]


def divisibility(adjoint: LatticePolygon) -> list[tuple[int, list[Point]]]:
    """All d >= 2 for which the homothety by 1/d at a vertex keeps the adjoint
    a lattice polygon, with the pulled-back lattice point sets.

    These d are the divisors of the gcd of the coordinates of the vertex
    differences, which is the gcd n of the edge lengths.  The homothety at a
    vertex kappa pulls back the adjoint's lattice points congruent to kappa
    mod d.  The set does not depend on the vertex: that holds iff every
    vertex is congruent to kappa mod d, i.e. lies in the set, which is
    checked.
    """
    if adjoint.dimension != 2:
        raise ValueError("divisibility needs a two-dimensional adjoint")
    kx, ky = adjoint.vertices[0]
    points = adjoint.lattice_points()
    results = []
    for d in divisors_from_2(root_order(adjoint)):
        pts = [p for p in points if (p[0] - kx) % d == 0 and (p[1] - ky) % d == 0]
        if not set(adjoint.vertices) <= set(pts):
            raise AssertionError("divisibility depends on the vertex")
        results.append((d, pts))
    return results


def divisible_points(adjoint: LatticePolygon, d: int) -> list[Point]:
    for dd, pts in divisibility(adjoint):
        if dd == d:
            return pts
    if d == 1:
        return adjoint.lattice_points()
    raise ValueError(f"adjoint is not divisible by {d}")


# ---------------------------------------------------------------------------
# Normalization at a vertex of the adjoint polygon
# ---------------------------------------------------------------------------


def normalize_at_vertex(
    poly: LatticePolygon, kappa: Point
) -> tuple[UnimodularMap, LatticePolygon, LatticePolygon]:
    """Normalization at a vertex kappa of the adjoint: the returned
    lattice-preserving affine map f sends kappa to the origin and the two
    adjoint edges at kappa onto the rays (1,0) and (0,1); with it come the
    images of the polygon and of its adjoint.

    The anchor points (0,-1) and (-1,0) are verified to lie on the boundary
    of the image of the ambient polygon.  A unimodular map preserves the
    lattice and the half-planes, so it commutes with taking the adjoint: the
    adjoint's image is the adjoint of the polygon's image.
    """
    adj = adjoint_polygon(poly)
    if adj is None or adj.dimension != 2:
        raise ValueError("normalization needs a two-dimensional adjoint")
    verts = adj.vertices
    if kappa not in verts:
        raise ValueError(f"{kappa} is not a vertex of the adjoint")
    i = verts.index(kappa)
    e1 = primitive(sub(verts[(i + 1) % len(verts)], kappa))
    e2 = primitive(sub(verts[i - 1], kappa))
    f = UnimodularMap.from_basis(e1, e2, kappa)
    image = poly.transform(f)
    for anchor in ((0, -1), (-1, 0)):
        if image.side(anchor) != 0:
            raise ValueError(f"anchor {anchor} not on the boundary after normalization")
    return f, image, adj.transform(f)


# ---------------------------------------------------------------------------
# Navigation on the adjoint boundary
# ---------------------------------------------------------------------------


def adjoint_boundary_cycle(adjoint: LatticePolygon) -> list[Point]:
    """Boundary lattice points of the adjoint in ccw cyclic order."""
    out = []
    for a, b in adjoint.edges():
        out.extend(lattice_points_on_segment(a, b)[:-1])
    return out


def neighbors_on_boundary(adjoint: LatticePolygon, p: Point) -> tuple[Point, Point]:
    """The points before and after p on ``adjoint_boundary_cycle``."""
    cyc = adjoint_boundary_cycle(adjoint)
    i = cyc.index(p)
    return cyc[(i - 1) % len(cyc)], cyc[(i + 1) % len(cyc)]


def adjoint_edges_at(adjoint: LatticePolygon, kappa: Point) -> list[tuple[Point, int]]:
    """(far vertex, lattice length) of each adjoint edge at the adjoint
    vertex kappa, in the order of the adjoint's vertex list."""
    verts = adjoint.vertices
    i = verts.index(kappa)
    return [(verts[j], lattice_length(kappa, verts[j]))
            for j in sorted({(i - 1) % len(verts), (i + 1) % len(verts)})]


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class Surjectivity(str, Enum):
    YES = "surjective"
    NO = "not_surjective"
    DEFERRED = "hyperelliptic_deferred"
    NOT_APPLICABLE = "not_applicable"


class Verdict(namedtuple("Verdict", "mu algebraic_mu reason")):
    __slots__ = ()

    def __new__(cls, mu: Surjectivity, algebraic_mu: Surjectivity, reason: str = ""):
        if mu is Surjectivity.YES and algebraic_mu is not Surjectivity.YES:
            raise AssertionError("a surjective geometric map forces a surjective algebraic one")
        return super().__new__(cls, mu, algebraic_mu, reason)

    def to_json(self) -> dict:
        out = {"mu": self.mu.value, "algebraic_mu": self.algebraic_mu.value}
        if self.reason:
            out["reason"] = self.reason
        return out


class PolygonAnalysis(namedtuple(
    "PolygonAnalysis",
    "genus boundary adjoint d n smooth divisors adjoint_lengths_valid",
    defaults=((), True),
)):
    """genus, boundary lattice points, adjoint (None when empty), its
    dimension d (-1 when empty), the largest root order n (1 by convention
    when d == 0), smoothness, the divisors d >= 2 of n and the adjoint
    edge-length cross-check."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "g": self.genus,
            "b": self.boundary,
            "d": self.d,
            "n": self.n,
            "smooth": self.smooth,
            "divisors": list(self.divisors),
            "adjoint": self.adjoint.to_json() if self.adjoint else None,
            "adjoint_lengths_valid": self.adjoint_lengths_valid,
        }


def analyze(poly: LatticePolygon) -> tuple[PolygonAnalysis, Verdict]:
    """Full analysis and verdict for a smooth two-dimensional polygon.

    Verdict table: genus 0 is out of scope; d = 0 makes both maps
    surjective; d = 1 is deferred to the hyperelliptic theory; for d = 2 the
    geometric map is surjective iff n = 1 and the algebraic one iff n is odd.
    """
    if poly.dimension != 2:
        raise SmoothnessError("not two-dimensional")
    if not is_smooth(poly):
        raise SmoothnessError("polygon not smooth")
    adj = adjoint_polygon(poly)
    b = sum(poly.edge_lengths())
    g = (poly.area2() - b + 2) // 2  # Pick
    if adj is None:
        analysis = PolygonAnalysis(0, b, None, -1, 1, True)
        verdict = Verdict(
            Surjectivity.NOT_APPLICABLE, Surjectivity.NOT_APPLICABLE, "genus zero"
        )
        return analysis, verdict
    d = adj.dimension
    n = root_order(adj)
    divisors: tuple[int, ...] = ()
    if d == 2:
        if not is_smooth(adj):
            raise AssertionError("two-dimensional adjoint of a smooth polygon is not smooth")
        divisors = tuple(divisors_from_2(n))  # the d of divisibility(adj)
    analysis = PolygonAnalysis(
        g, b, adj, d, n, True, divisors, adjoint_edge_lengths_valid(poly)
    )
    if d == 0:
        verdict = Verdict(Surjectivity.YES, Surjectivity.YES)
    elif d == 1:
        verdict = Verdict(
            Surjectivity.DEFERRED, Surjectivity.DEFERRED, "hyperelliptic case"
        )
    else:
        if n == 1:
            verdict = Verdict(Surjectivity.YES, Surjectivity.YES)
        elif n % 2 == 1:
            verdict = Verdict(
                Surjectivity.NO, Surjectivity.YES, f"adjoint admits a root of order {n}"
            )
        else:
            verdict = Verdict(
                Surjectivity.NO, Surjectivity.NO, f"adjoint admits a root of order {n}"
            )
    return analysis, verdict
