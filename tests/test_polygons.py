import ast
import json
import random
from math import gcd

import pytest

import tropmono.polygons
from tropmono.builders import _frame
from tropmono.cli import main
from tropmono.geometry import (
    LatticePolygon,
    UnimodularMap,
    lattice_length,
    lattice_points_on_segment,
    primitive,
    sub,
)
from tropmono.polygons import (
    SmoothnessError,
    Surjectivity,
    Verdict,
    adjoint_edge_lengths_valid,
    adjoint_edges_at,
    adjoint_polygon,
    analyze,
    divisibility,
    divisors_from_2,
    is_smooth,
    neighbors_on_boundary,
    normal_fan_rays,
    normalize_at_vertex,
    root_order,
    self_intersections,
)

T3 = LatticePolygon([(0, 0), (3, 0), (0, 3)])
T4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])
T6 = LatticePolygon([(0, 0), (6, 0), (0, 6)])
SQ4 = LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])


def test_is_smooth():
    assert is_smooth(T3)
    assert is_smooth(LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)]))
    assert not is_smooth(LatticePolygon([(0, 0), (2, 0), (1, 2)]))
    with pytest.raises(SmoothnessError):
        is_smooth(LatticePolygon([(0, 0), (1, 0)]))


def test_adjoint_examples():
    assert adjoint_polygon(T4).vertices == ((1, 1), (2, 1), (1, 2))
    assert adjoint_polygon(LatticePolygon([(0, 0), (1, 0), (0, 1)])) is None
    assert adjoint_polygon(T6).vertices == ((1, 1), (4, 1), (1, 4))


def test_root_order():
    assert root_order(adjoint_polygon(T6)) == 3
    assert root_order(adjoint_polygon(SQ4)) == 2
    assert root_order(adjoint_polygon(T4)) == 1
    assert root_order(adjoint_polygon(T3)) == 1  # point, by convention
    with pytest.raises(ValueError):
        root_order(None)


def test_root_order_divides_edge_lengths_and_scaling():
    for poly in (T6, SQ4):
        adj = adjoint_polygon(poly)
        n = root_order(adj)
        for l in adj.edge_lengths():
            assert l % n == 0
        kappa = adj.vertices[0]
        scaled = LatticePolygon(
            [
                (kappa[0] + (v[0] - kappa[0]) // n, kappa[1] + (v[1] - kappa[1]) // n)
                for v in adj.vertices
            ]
        )
        assert scaled.dimension == 2


def test_normalization_examples():
    f, img, adj_img = normalize_at_vertex(T4, (1, 1))
    assert f.m == ((1, 0), (0, 1)) and f.t == (-1, -1)
    assert img.side((0, -1)) == 0 and img.side((-1, 0)) == 0
    assert adj_img.vertices == ((0, 0), (1, 0), (0, 1)) == adjoint_polygon(img).vertices
    f2, img2, adj_img2 = normalize_at_vertex(SQ4, (1, 1))
    assert f2.t == (-1, -1)
    assert adj_img2 == adjoint_polygon(img2)
    g = f.inverse()
    for p in T4.lattice_points():
        assert g.apply(f.apply(p)) == p


def test_analyze_verdict_table():
    cases = [
        (T3, 1, 0, 1, Surjectivity.YES, Surjectivity.YES),
        (T4, 3, 2, 1, Surjectivity.YES, Surjectivity.YES),
        (T6, 10, 2, 3, Surjectivity.NO, Surjectivity.YES),
        (SQ4, 9, 2, 2, Surjectivity.NO, Surjectivity.NO),
        (
            LatticePolygon([(0, 0), (2, 0), (2, 2), (0, 2)]),
            1,
            0,
            1,
            Surjectivity.YES,
            Surjectivity.YES,
        ),
    ]
    for poly, g, d, n, mu, amu in cases:
        analysis, verdict = analyze(poly)
        assert (analysis.genus, analysis.d, analysis.n) == (g, d, n)
        assert verdict.mu is mu and verdict.algebraic_mu is amu


def test_analyze_genus_zero_and_errors():
    rect = LatticePolygon([(0, 0), (1, 0), (1, 2), (0, 2)])
    analysis, verdict = analyze(rect)
    assert analysis.genus == 0 and verdict.mu is Surjectivity.NOT_APPLICABLE
    with pytest.raises(SmoothnessError):
        analyze(LatticePolygon([(0, 0), (2, 0), (1, 2)]))


def test_analyze_unimodular_invariance():
    rng = random.Random(7)
    count = 0
    while count < 100:
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        found = None
        for c in range(-2, 3):
            for d in range(-2, 3):
                if a * d - b * c in (1, -1):
                    found = ((a, b), (c, d))
                    break
            if found:
                break
        if not found:
            continue
        f = UnimodularMap(found, (rng.randint(-4, 4), rng.randint(-4, 4)))
        for poly in (T3, T4, T6, SQ4):
            an1, v1 = analyze(poly)
            an2, v2 = analyze(poly.transform(f))
            assert (an1.genus, an1.boundary, an1.d, an1.n) == (
                an2.genus,
                an2.boundary,
                an2.d,
                an2.n,
            )
            assert (v1.mu, v1.algebraic_mu) == (v2.mu, v2.algebraic_mu)
        count += 1


def test_divisibility():
    assert divisibility(adjoint_polygon(SQ4)) == [
        (2, [(1, 1), (1, 3), (3, 1), (3, 3)])
    ]
    divs = divisibility(adjoint_polygon(T6))
    assert [d for d, _ in divs] == [3]
    assert divs[0][1] == [(1, 1), (1, 4), (4, 1)]
    assert divisibility(adjoint_polygon(T4)) == []


def test_adjoint_edge_length_formula():
    for poly in (T4, T6, SQ4, LatticePolygon([(0, 0), (5, 0), (5, 3), (0, 3)])):
        assert adjoint_edge_lengths_valid(poly)


def test_hyperelliptic_deferred():
    rect32 = LatticePolygon([(0, 0), (3, 0), (3, 2), (0, 2)])
    analysis, verdict = analyze(rect32)
    assert analysis.d == 1
    assert analysis.n == 1  # segment adjoint of lattice length 1
    assert verdict.mu is Surjectivity.DEFERRED
    assert verdict.algebraic_mu is Surjectivity.DEFERRED
    long_rect = LatticePolygon([(0, 0), (5, 0), (5, 2), (0, 2)])
    analysis2, verdict2 = analyze(long_rect)
    assert analysis2.d == 1 and analysis2.n == 3
    assert verdict2.mu is Surjectivity.DEFERRED


def test_normalize_already_normalized_is_identity():
    shifted = LatticePolygon([(-1, -1), (3, -1), (-1, 3)])  # T4 moved by (-1, -1)
    f, img, adj_img = normalize_at_vertex(shifted, (0, 0))
    assert f.m == ((1, 0), (0, 1)) and f.t == (0, 0)
    assert img == shifted and adj_img == adjoint_polygon(shifted)


# -- enumeration oracle --------------------------------------------------------


def adjoint_oracle(poly):
    pts = poly.interior_points()
    return LatticePolygon(pts) if pts else None


def divisibility_oracle(adjoint):
    """Per vertex kappa and d >= 2 dividing every vertex difference: the
    lattice points of the adjoint shrunk by 1/d at kappa, scaled back up.
    Every vertex must give the same list."""
    results = None
    for kx, ky in adjoint.vertices:
        g = gcd(*(c for v in adjoint.vertices for c in (v[0] - kx, v[1] - ky)))
        mine = []
        for d in range(2, g + 1):
            if g % d == 0:
                scaled = LatticePolygon(
                    [(kx + (v[0] - kx) // d, ky + (v[1] - ky) // d) for v in adjoint.vertices])
                mine.append((d, sorted((kx + d * (q[0] - kx), ky + d * (q[1] - ky))
                                       for q in scaled.lattice_points())))
        assert results is None or results == mine
        results = mine
    return results


def analysis_oracle_json(poly):
    adj = adjoint_oracle(poly)
    b = len(poly.boundary_points())
    if adj is None:
        return {"g": 0, "b": b, "d": -1, "n": 1, "smooth": True, "divisors": [],
                "adjoint": None, "adjoint_lengths_valid": True}
    divisors = [d for d, _ in divisibility_oracle(adj)] if adj.dimension == 2 else []
    return {"g": len(poly.interior_points()), "b": b, "d": adj.dimension,
            "n": root_order(adj), "smooth": True, "divisors": divisors,
            "adjoint": adj.to_json(),
            "adjoint_lengths_valid": edge_lengths_oracle(poly, adj)}


def edge_lengths_oracle(poly, adj):
    """``adjoint_edge_lengths_valid`` read off a given adjoint: each edge of
    length l and self-intersection D^2 faces an adjoint edge of length
    l - D^2 - 2 with the same outward normal (none when that is 0)."""
    if adj.dimension != 2:
        return True
    by_normal = dict(zip(normal_fan_rays(adj), adj.edge_lengths()))
    return all(by_normal.get(ray, 0) == l - dsq - 2 for ray, l, dsq in
               zip(normal_fan_rays(poly), poly.edge_lengths(), self_intersections(poly)))


def random_unimodular(rng):
    m = ((1, 0), (0, 1))
    for _ in range(3):
        s = rng.randint(-2, 2)
        e = rng.choice((((1, s), (0, 1)), ((1, 0), (s, 1)), ((0, 1), (1, 0)), ((-1, 0), (0, 1))))
        m = tuple(tuple(sum(e[i][k] * m[k][j] for k in range(2)) for j in range(2))
                  for i in range(2))
    return UnimodularMap(m, (rng.randint(-9, 9), rng.randint(-9, 9)))


def random_smooth_polygon(rng):
    """T_k or an a x b rectangle, up to three toric corner cuts (a cut of
    size s < both edge lengths at a vertex with edge directions e1, e2
    replaces it by v + s e1 and v + s e2, and keeps the polygon smooth), then
    a random unimodular map."""
    if rng.random() < 0.5:
        k = rng.randint(1, 11)
        verts = [(0, 0), (k, 0), (0, k)]
    else:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        verts = [(0, 0), (a, 0), (a, b), (0, b)]
    poly = LatticePolygon(verts)
    for _ in range(rng.randint(0, 3)):
        v = poly.vertices
        i = rng.randrange(len(v))
        nxt, prev = v[(i + 1) % len(v)], v[i - 1]
        m = min(lattice_length(v[i], nxt), lattice_length(v[i], prev))
        if m < 2:
            continue
        s = rng.randint(1, m - 1)
        e1, e2 = primitive(sub(nxt, v[i])), primitive(sub(prev, v[i]))
        rest = [p for j, p in enumerate(v) if j != i]
        poly = LatticePolygon(rest + [(v[i][0] + s * e[0], v[i][1] + s * e[1]) for e in (e1, e2)])
    return poly.transform(random_unimodular(rng))


def test_closed_form_analysis_matches_enumeration_on_seeded_smooth_polygons():
    rng = random.Random(2024)
    kinds = {"genus0": 0, "point": 0, "segment": 0, "2d": 0}
    for _ in range(320):
        poly = random_smooth_polygon(rng)
        assert is_smooth(poly)
        expected = analysis_oracle_json(poly)
        assert adjoint_polygon(poly) == adjoint_oracle(poly)
        assert analyze(poly)[0].to_json() == expected
        adj = adjoint_oracle(poly)
        if adj is not None and adj.dimension == 2:
            assert divisibility(adj) == divisibility_oracle(adj)
        kinds[{-1: "genus0", 0: "point", 1: "segment", 2: "2d"}[expected["d"]]] += 1
    assert min(kinds.values()) >= 10, kinds


def test_adjoint_matches_enumeration_on_non_smooth_polygons():
    """Hulls of random points: here the moved-in half-planes often meet
    off the lattice, and adjoint_polygon falls back to enumeration."""
    rng = random.Random(99)
    for _ in range(200):
        poly = LatticePolygon([(rng.randint(0, 9), rng.randint(0, 7)) for _ in range(rng.randint(3, 8))])
        if poly.dimension == 2:
            assert adjoint_polygon(poly) == adjoint_oracle(poly)


def test_divisors_from_2_by_trial_division():
    for n in range(1, 400):
        assert divisors_from_2(n) == [d for d in range(2, n + 1) if n % d == 0]


def test_verdict_does_not_enumerate(tmp_path, capsys):
    """T_k with k = 10^6 has about 5 * 10^11 lattice points, so this
    finishes only if nothing enumerates them."""
    k = 10**6
    poly = LatticePolygon([(0, 0), (k, 0), (0, k)])
    analysis, verdict = analyze(poly)
    assert (analysis.genus, analysis.d, analysis.n) == ((k - 1) * (k - 2) // 2, 2, k - 3)
    assert analysis.divisors == (757, 1321, 999997)  # 999997 = 757 * 1321
    assert (verdict.mu, verdict.algebraic_mu) == (Surjectivity.NO, Surjectivity.YES)
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [k, 0], [0, k]]}))
    assert main(["verdict", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["g"], out["d"], out["n"], out["mu"]) == (analysis.genus, 2, k - 3, "not_surjective")


def test_polygon_checks_are_not_assert_statements():
    """The verdict invariant and the adjoint cross-checks raise explicitly,
    so python -O keeps them."""
    tree = ast.parse(open(tropmono.polygons.__file__).read())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    with pytest.raises(AssertionError):
        Verdict(Surjectivity.YES, Surjectivity.NO)


# -- frames at adjoint vertices ------------------------------------------------


def normalize_oracle(poly, kappa, swap):
    """The frame at an adjoint vertex as it was built from the enumerated
    adjoint: the edge directions at kappa, (ccw, cw), swapped on request,
    and the image of the polygon, whose anchors must be boundary points."""
    verts = adjoint_oracle(poly).vertices
    i = verts.index(kappa)
    e1 = primitive(sub(verts[(i + 1) % len(verts)], kappa))
    e2 = primitive(sub(verts[(i - 1) % len(verts)], kappa))
    if swap:
        e1, e2 = e2, e1
    f = UnimodularMap.from_basis(e1, e2, kappa)
    image = poly.transform(f)
    if image.side((0, -1)) != 0 or image.side((-1, 0)) != 0:
        raise ValueError("anchor not on the boundary after normalization")
    return f, image


def frame_with_edge_on_x_oracle(poly, kappa, other):
    """The swap-loop search putting the adjoint edge toward ``other`` on the
    positive x-axis."""
    for swap in (False, True):
        f, img = normalize_oracle(poly, kappa, swap)
        q = f.apply(other)
        if q[1] == 0 and q[0] >= 1:
            return f, img
    raise ValueError(f"{other} is not along an adjoint edge at {kappa}")


def frame_with_point_up_oracle(poly, kappa, kappa_prime):
    """The swap-loop search sending the boundary neighbour kappa_prime of
    kappa to (0, 1)."""
    for swap in (False, True):
        f, img = normalize_oracle(poly, kappa, swap)
        if f.apply(kappa_prime) == (0, 1):
            return f, img
    raise ValueError(f"{kappa_prime} is not next to {kappa} on the adjoint boundary")


def test_frame_matches_the_two_swap_loop_searches():
    """At every adjoint vertex of T6, SQ4, R4x6 and 40 seeded smooth
    polygons with a two-dimensional adjoint, ``builders._frame`` gives the
    oracle searches' map and image for every point along the two adjoint
    edges and for both boundary neighbours, and its image adjoint is the
    adjoint of the image.  A point off the edges, and an "up" point that is
    not a neighbour, raise ValueError."""
    rng = random.Random(26)
    polys = [T6, SQ4, LatticePolygon([(0, 0), (4, 0), (4, 6), (0, 6)])]
    while len(polys) < 43:
        poly = random_smooth_polygon(rng)
        adj = adjoint_polygon(poly)
        if adj is not None and adj.dimension == 2:
            polys.append(poly)
    checked = {"x": 0, "up": 0, "off": 0, "far up": 0}
    for poly in polys:
        adj = adjoint_polygon(poly)
        for kappa in adj.vertices:
            along = [p for far, _ in adjoint_edges_at(adj, kappa) for p in lattice_points_on_segment(kappa, far)[1:]]
            neighbours = neighbors_on_boundary(adj, kappa)
            for point, up, oracle in [(p, False, frame_with_edge_on_x_oracle) for p in along] + [
                (p, True, frame_with_point_up_oracle) for p in neighbours
            ]:
                f, image, adj_image = _frame(poly, kappa, point, up)
                assert (f, image) == oracle(poly, kappa, point)
                assert adj_image == adjoint_polygon(image) == adjoint_oracle(image)
                checked["up" if up else "x"] += 1
            off = [p for p in adj.lattice_points() if p not in along][:3]
            for point in off:
                for up, oracle in ((False, frame_with_edge_on_x_oracle), (True, frame_with_point_up_oracle)):
                    for search in (oracle, lambda *args: _frame(*args, up)):
                        with pytest.raises(ValueError):
                            search(poly, kappa, point)
                checked["off"] += 1
            for point in (p for p in along if p not in neighbours):
                for search in (frame_with_point_up_oracle, lambda *args: _frame(*args, True)):
                    with pytest.raises(ValueError):
                        search(poly, kappa, point)
                checked["far up"] += 1
    assert min(checked.values()) > 100, checked
