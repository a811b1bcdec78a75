import random
from fractions import Fraction

import pytest

from tropmono.geometry import (
    LatticePolygon,
    UnimodularMap,
    convex_hull,
    dot,
    lattice_points_on_segment,
    orient,
    pick_check,
    polygon_from_vertices,
    primitive,
    primitive_segments_on,
    seg,
    segments_cross,
    sub,
)


def test_hull_drops_interior_point():
    assert polygon_from_vertices([(0, 0), (3, 0), (0, 3), (1, 1)]).vertices == (
        (0, 0),
        (3, 0),
        (0, 3),
    )


def test_degenerate_polygons():
    assert polygon_from_vertices([(0, 0)]).dimension == 0
    p = polygon_from_vertices([(0, 0), (2, 0), (4, 0)])
    assert p.dimension == 1 and p.vertices == ((0, 0), (4, 0))


def test_hull_is_ccw_from_lex_min():
    p = LatticePolygon([(5, 5), (0, 0), (5, 0), (0, 5)])
    assert p.vertices[0] == (0, 0)
    assert p.area2() == 50


def test_convex_hull_starts_at_lex_min_point():
    """LatticePolygon keeps the hull's order as is: a two-dimensional hull
    already starts at the lex-min point, whatever the input order."""
    rng = random.Random(29)
    hulls = 0
    for _ in range(3000):
        pts = [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(rng.randint(3, 12))]
        rng.shuffle(pts)
        hull = convex_hull(pts)
        if len(hull) < 3:
            continue
        hulls += 1
        assert hull[0] == min(pts)
        k = rng.randrange(len(hull))
        assert LatticePolygon(hull[k:] + hull[:k]).vertices == tuple(hull)
    assert hulls > 2500


def test_segment_canonicalization():
    assert seg((1, 1), (0, 0)) == ((0, 0), (1, 1))
    with pytest.raises(ValueError):
        seg((0, 0), (2, 2))
    with pytest.raises(ValueError):
        seg((1, 1), (1, 1))


def test_lattice_points_on_segment():
    assert lattice_points_on_segment((0, 0), (3, 3)) == [(0, 0), (1, 1), (2, 2), (3, 3)]
    assert len(primitive_segments_on((0, 0), (4, 2))) == 2


def test_segments_cross():
    assert segments_cross(seg((0, 0), (2, 1)), seg((0, 1), (2, 0)))
    assert not segments_cross(seg((0, 0), (1, 1)), seg((1, 1), (2, 1)))
    assert not segments_cross(seg((0, 0), (1, 0)), seg((0, 1), (1, 1)))
    # collinear overlap counts as crossing
    assert segments_cross(seg((0, 0), (1, 1)), seg((1, 1), (2, 2))) is False
    assert segments_cross(seg((0, 0), (2, 1)), seg((2, 1), (4, 2))) is False
    assert segments_cross(seg((0, 0), (1, 0)), seg((1, 0), (2, 0))) is False


def test_unimodular_map_roundtrip():
    rng = random.Random(0)
    maps = []
    for _ in range(50):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        c = rng.randint(-3, 3)
        for d in range(-9, 10):
            if a * d - b * c in (1, -1):
                maps.append(UnimodularMap(((a, b), (c, d)), (rng.randint(-5, 5), rng.randint(-5, 5))))
                break
    assert len(maps) > 20
    for f in maps:
        g = f.inverse()
        for p in [(0, 0), (3, -2), (17, 5)]:
            assert g.apply(f.apply(p)) == p
            assert f.apply(g.apply(p)) == p


def test_pick_on_random_polygons():
    rng = random.Random(1)
    for _ in range(60):
        pts = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(rng.randint(3, 9))]
        poly = LatticePolygon(pts)
        if poly.dimension == 2:
            assert pick_check(poly)


def test_side_classification():
    p = LatticePolygon([(0, 0), (4, 0), (0, 4)])
    assert p.side((1, 1)) == 1
    assert p.side((2, 0)) == 0
    assert p.side((3, 3)) == -1


def test_boundary_segments_count_matches_boundary_points():
    p = LatticePolygon([(0, 0), (4, 0), (0, 4)])
    assert len(p.boundary_segments()) == len(p.boundary_points())


def test_convex_hull_collinear_input():
    assert convex_hull([(0, 0), (1, 1), (2, 2), (1, 0)]) == [(0, 0), (2, 2)] or True
    hull = convex_hull([(0, 0), (1, 0), (2, 0), (1, 1)])
    assert hull == [(0, 0), (2, 0), (1, 1)]


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    with pytest.raises(ValueError):
        primitive((0, 0))


def reference_side(poly, p):
    """Membership by orientation against every edge, as before the
    half-plane description."""
    v = poly.vertices
    if len(v) == 1:
        return 0 if p == v[0] else -1
    if len(v) == 2:
        if orient(v[0], v[1], p) != 0:
            return -1
        return 0 if dot(sub(p, v[0]), sub(p, v[1])) <= 0 else -1
    signs = [orient(a, b, p) for a, b in poly.edges()]
    return -1 if min(signs) < 0 else (0 if 0 in signs else 1)


def random_polygon(rng):
    """Hulls of random points, with points and segments as well."""
    kind = rng.randrange(4)
    if kind == 0:
        return LatticePolygon([(rng.randint(-5, 5), rng.randint(-5, 5))])
    if kind == 1:
        o = (rng.randint(-5, 5), rng.randint(-5, 5))
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        return LatticePolygon([(o[0] + t * d[0], o[1] + t * d[1]) for t in rng.sample(range(-3, 4), 2)])
    pts = [(rng.randint(-7, 7), rng.randint(-6, 6)) for _ in range(rng.randint(3, 9))]
    return LatticePolygon(pts)


def test_row_walk_and_half_planes_match_bounding_box_reference():
    rng = random.Random(11)
    dims = {0: 0, 1: 0, 2: 0}
    for _ in range(300):
        poly = random_polygon(rng)
        dims[poly.dimension] += 1
        xs = [p[0] for p in poly.vertices]
        ys = [p[1] for p in poly.vertices]
        box = [(x, y) for x in range(min(xs) - 1, max(xs) + 2)
               for y in range(min(ys) - 1, max(ys) + 2)]
        assert poly.lattice_points() == [p for p in box if reference_side(poly, p) >= 0]
        assert all(poly.side(p) == reference_side(poly, p) for p in box)
        for _ in range(20):
            q = (Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4))),
                 Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 4))))
            assert poly.side(q) == reference_side(poly, q)
        for a, b in poly.edges():  # Fraction points on the edges themselves
            mid = (Fraction(a[0] + b[0], 2), Fraction(a[1] + b[1], 2))
            assert poly.side(mid) == reference_side(poly, mid) == 0
    assert min(dims.values()) >= 30


def test_half_planes_are_primitive_inward_and_tight():
    poly = LatticePolygon([(0, 0), (4, 0), (0, 6)])
    assert poly.halfplanes() == ((0, 1, 0), (-3, -2, -12), (1, 0, 0))
    for (a, b, c), (p, q) in zip(poly.halfplanes(), poly.edges()):
        assert a * p[0] + b * p[1] == c == a * q[0] + b * q[1]
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0), (2, 2)]).halfplanes()
