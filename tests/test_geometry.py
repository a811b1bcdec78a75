import random
from fractions import Fraction
from math import gcd

import pytest

import tropmono.geometry
from tropmono.engine import Engine
from tropmono.geometry import (
    LatticePolygon,
    UnimodularMap,
    convex_hull,
    dot,
    lattice_points_on_segment,
    orient,
    primitive,
    primitive_segments_on,
    seg,
    segments_cross,
    sub,
)


def test_hull_drops_interior_point():
    assert LatticePolygon([(0, 0), (3, 0), (0, 3), (1, 1)]).vertices == (
        (0, 0),
        (3, 0),
        (0, 3),
    )


def test_degenerate_polygons():
    assert LatticePolygon([(0, 0)]).dimension == 0
    p = LatticePolygon([(0, 0), (2, 0), (4, 0)])
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


def pick_check(poly: LatticePolygon) -> bool:
    """Pick's identity 2A = 2i + b - 2 for two-dimensional polygons."""
    if poly.dimension < 2:
        return True
    i = len(poly.interior_points())
    b = len(poly.boundary_points())
    return poly.area2() == 2 * i + b - 2


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
    assert convex_hull([(0, 0), (1, 1), (2, 2), (1, 0)]) == [(0, 0), (1, 0), (2, 2)]
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


def _is_int_pair(p):
    return type(p) in (tuple, list) and len(p) == 2 and all(type(c) is int for c in p)


def _random_triple(rng):
    """Three points of one of several shapes, with the exact coordinates
    and containers the three-point path must accept or hand on."""
    pts = [[rng.randint(-4, 4), rng.randint(-4, 4)] for _ in range(3)]
    shape = rng.randrange(8)
    if shape == 0:  # collinear
        d = (rng.randint(-2, 2), rng.randint(-2, 2))
        pts = [[pts[0][0] + k * d[0], pts[0][1] + k * d[1]] for k in rng.sample(range(-2, 3), 3)]
    elif shape == 1:  # repeated
        pts[2] = list(pts[rng.randrange(2)])
    elif shape == 2:
        pts[rng.randrange(3)][rng.randrange(2)] = rng.choice((True, False))
    elif shape == 3:
        pts[rng.randrange(3)][rng.randrange(2)] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
    elif shape == 4:
        pts[rng.randrange(3)].append(rng.randint(-4, 4))
    as_list = rng.random() < 0.2
    return [list(p) if as_list else tuple(p) for p in pts]


def test_three_point_polygons_match_convex_hull(monkeypatch):
    """The three-point path gives exactly convex_hull's vertices, and it is
    taken precisely for three non-collinear int 2-points in a list, tuple
    or set; everything else goes through convex_hull."""
    hulls = []
    real_hull = tropmono.geometry.convex_hull
    monkeypatch.setattr(tropmono.geometry, "convex_hull", lambda pts: hulls.append(1) or real_hull(pts))
    rng = random.Random(83)
    fast = slow = 0
    for _ in range(2400):
        pts = _random_triple(rng)
        container = rng.choice((list, tuple, set, iter))
        if container is set:
            pts = [tuple(p) for p in pts]
        expected = tuple(real_hull(pts))
        hulls.clear()
        vertices = LatticePolygon(container(pts)).vertices
        assert vertices == expected
        assert all(type(v) is tuple and all(type(c) is int for c in v) for v in vertices)
        eligible = (container is not iter and len(set(map(tuple, pts))) == 3
                    and all(map(_is_int_pair, pts)) and orient(*pts) != 0)
        assert len(hulls) == (0 if eligible else 1), (container, pts)
        fast += eligible
        slow += not eligible
    assert fast > 600 and slow > 1200


def reference_seg(a, b):
    """seg as it was: cast with int(), then require a primitive segment."""
    a = (int(a[0]), int(a[1]))
    b = (int(b[0]), int(b[1]))
    if a == b or gcd(abs(a[0] - b[0]), abs(a[1] - b[1])) != 1:
        raise ValueError("not primitive")
    return (a, b) if a < b else (b, a)


def test_seg_matches_int_cast_reference():
    rng = random.Random(17)
    outcomes = {True: 0, False: 0}
    for _ in range(3000):
        a, b = _random_triple(rng)[:2]
        if rng.random() < 0.5:  # mostly primitive: a unit step from a
            b = list(b)
            b[:2] = [a[0] + rng.choice((-1, 0, 1)), a[1] + rng.choice((-1, 1))]
            b = tuple(b) if rng.random() < 0.8 else b
        try:
            expected = reference_seg(a, b)
        except ValueError:
            with pytest.raises(ValueError):
                seg(a, b)
            outcomes[False] += 1
            continue
        got = seg(a, b)
        assert got == expected
        assert all(type(p) is tuple and all(type(c) is int for c in p) for p in got)
        outcomes[True] += 1
    assert min(outcomes.values()) > 500


def test_derivation_builds_triangles_without_the_hull(monkeypatch):
    """The three-point path carries the derivation's cells and cones: T4
    and R4x6 derivations build hundreds of triangles, and no convex_hull
    call is handed three non-collinear points."""
    calls = {"triangles": 0, "hull of three": 0}
    real_hull, real_init = tropmono.geometry.convex_hull, LatticePolygon.__init__

    def counting_hull(points):
        points = list(points)
        distinct = set(map(tuple, points))
        calls["hull of three"] += len(distinct) == 3 and orient(*distinct) != 0
        return real_hull(points)

    def counting_init(self, points):
        real_init(self, points)
        calls["triangles"] += len(self.vertices) == 3

    monkeypatch.setattr(tropmono.geometry, "convex_hull", counting_hull)
    monkeypatch.setattr(LatticePolygon, "__init__", counting_init)
    for vertices in ([(0, 0), (4, 0), (0, 4)], [(0, 0), (4, 0), (4, 6), (0, 6)]):
        Engine(LatticePolygon(vertices)).derive_surjectivity()
    assert calls["triangles"] > 400 and calls["hull of three"] == 0, calls
