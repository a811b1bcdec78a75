import ast
import random

import pytest

import tropmono.graphs
from test_polygons import random_smooth_polygon
from tropmono.geometry import LatticePolygon, seg
from tropmono.graphs import (
    AdmissibilityCertificate,
    CertificationError,
    WeightedSegmentGraph,
    bridges_at,
    build_snake,
    certify_admissible,
    check_balancing,
    is_bridge,
)
from tropmono.polygons import adjoint_polygon
from tropmono.subdivision import HeightFunction

T3 = LatticePolygon([(0, 0), (3, 0), (0, 3)])
T4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])
T6 = LatticePolygon([(0, 0), (6, 0), (0, 6)])
SQ4 = LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
USQ = LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def corner_graph():
    g = WeightedSegmentGraph()
    g.add(seg((0, 0), (1, 1)), -1)
    g.add(seg((1, 1), (1, 0)), 1)
    g.add(seg((1, 1), (0, 1)), 1)
    return g


def test_weighted_graph_arithmetic():
    g = WeightedSegmentGraph({seg((0, 0), (1, 0)): 2})
    g.add(seg((1, 0), (0, 0)), -2)
    assert len(g) == 0
    g2 = corner_graph().scaled(3)
    assert g2.weight(seg((0, 0), (1, 1))) == -3


def test_balancing():
    assert check_balancing(corner_graph(), T4) == set()
    single = WeightedSegmentGraph({seg((0, 0), (1, 1)): 1})
    assert check_balancing(single, T4) == {(1, 1)}
    chain = WeightedSegmentGraph(
        {seg((i, 1), (i + 1, 1)): 1 for i in range(5)}
    )
    assert check_balancing(chain, T6) == set()
    short = WeightedSegmentGraph(
        {seg((0, 1), (1, 1)): 1, seg((1, 1), (2, 1)): 1, seg((2, 1), (3, 1)): 1}
    )
    assert check_balancing(short, T6) == {(3, 1)}


def bridges(poly):
    """Oracle: every bridge of the polygon, in lexicographic segment order,
    from classifying each segment between a boundary point of the polygon
    and a boundary point of the adjoint (its one point in genus one)."""
    adjoint = adjoint_polygon(poly)
    if adjoint is None:
        return []
    adj_boundary = adjoint.boundary_points() if adjoint.dimension == 2 else adjoint.lattice_points()
    found = set()
    for p in poly.boundary_points():
        for q in adj_boundary:
            try:
                b = is_bridge(poly, seg(p, q))
            except ValueError:
                continue
            if b is not None:
                found.add(b)
    return sorted(found, key=lambda b: b.segment)


def test_bridges_examples():
    assert len(bridges(T3)) == 9
    assert bridges(USQ) == []
    at11 = bridges_at(T4, (1, 1))
    assert seg((0, 0), (1, 1)) in [b.segment for b in at11]
    assert seg((1, 0), (1, 1)) in [b.segment for b in at11]
    # segments entering the open adjoint are not bridges
    assert seg((1, 2), (2, 1)) not in [b.segment for b in bridges(T6)]


def test_bridges_share_interior_end_key():
    at = bridges_at(T6, (2, 1))
    assert len(at) >= 2
    assert all(b.interior_end == (2, 1) for b in at)


def test_bridges_at_is_the_filtered_bridge_list():
    """``bridges_at`` pairs v with the polygon's boundary points only, and
    gives the same list, in the same order, as filtering the ``bridges``
    oracle at every lattice point of T3, T4, SQ4, T6, R45, T8 and the
    genus-one polygons among the first 200 seeded random smooth polygons
    (the adjoint's boundary points, its inside and the polygon's
    boundary).  In genus one every bridge ends at the adjoint point, so
    there ``bridges_at`` at that point is the whole oracle list, which is
    what ``build_snake`` reads."""
    r45 = LatticePolygon([(0, 0), (4, 0), (4, 5), (0, 5)])
    t8 = LatticePolygon([(0, 0), (8, 0), (0, 8)])
    rng = random.Random(7)
    seeded = [random_smooth_polygon(rng) for _ in range(200)]
    genus_one = [p for p in seeded if p.interior_points() and adjoint_polygon(p).dimension == 0]
    assert len(genus_one) >= 10
    for poly in (T3, T4, SQ4, T6, r45, t8, *genus_one):
        every = bridges(poly)
        assert every
        for v in poly.lattice_points():
            assert bridges_at(poly, v) == [b for b in every if b.interior_end == v], (poly, v)
    for poly in (T3, *genus_one):
        (kappa,) = adjoint_polygon(poly).vertices
        assert bridges_at(poly, kappa) == bridges(poly), poly


# heights on the unit square folding along its diagonal (0, 0)-(1, 1)
DIAGONAL_SPLIT = HeightFunction.of({(0, 0): 0, (1, 1): 0, (1, 0): 1, (0, 1): 1})


def test_certify_from_heights_and_roundtrip():
    cert = certify_admissible(corner_graph(), T4, USQ, DIAGONAL_SPLIT)
    assert cert.verify()
    assert all(len(c.vertices) == 3 and c.area2() == 1 for c in cert.cells)
    assert len(cert.cells) == T4.area2()
    again = AdmissibilityCertificate.from_json(cert.to_json())
    assert again.verify()


def test_certify_rejects_unbalanced():
    bad = WeightedSegmentGraph({seg((0, 0), (1, 1)): 1})
    with pytest.raises(CertificationError, match="not balanced"):
        certify_admissible(bad, T4, USQ, DIAGONAL_SPLIT)


def test_certify_rejects_a_degenerate_region():
    flat = LatticePolygon([(0, 0), (1, 1)])
    with pytest.raises(CertificationError, match="degenerate"):
        certify_admissible(corner_graph(), T4, flat, {(0, 0): 0, (1, 1): 0})


def test_certify_rejects_heights_missing_an_edge_inside_the_region():
    """Heights folding along the other diagonal miss the corner graph's
    diagonal (0, 0)-(1, 1), which lies inside the region."""
    other = HeightFunction.of({(0, 0): 1, (1, 1): 1, (1, 0): 0, (0, 1): 0})
    with pytest.raises(CertificationError, match=r"miss edges \[\(\(0, 0\), \(1, 1\)\)\]"):
        certify_admissible(corner_graph(), T4, USQ, other)


def test_certify_leaves_edges_outside_the_region_to_the_refinement():
    """Only the graph's edges inside the region must be edges of the
    heights' subdivision; the corner graph's edge (1, 1)-(0, 1) leaves the
    triangle below the diagonal, and the refinement keeps it."""
    below = LatticePolygon([(0, 0), (1, 0), (1, 1)])
    heights = {(0, 0): 0, (1, 0): 0, (1, 1): 0}
    graph = corner_graph()
    assert not all(below.contains_segment(s) for s in graph.entries)
    assert certify_admissible(graph, T4, below, heights).verify()


def test_snakes():
    sn4 = build_snake(T4)
    assert len(sn4.chain) == 3
    assert sn4.points == ((0, 1), (1, 1), (2, 1), (1, 2))
    assert sn4.bridge == seg((1, 0), (2, 1))
    sn3 = build_snake(T3)
    assert len(sn3.chain) == 1
    sn6 = build_snake(T6)
    assert len(sn6.chain) == 10
    snsq = build_snake(SQ4)
    assert len(snsq.chain) == 9
    for sn, poly in ((sn4, T4), (sn6, T6), (snsq, SQ4)):
        sn.validate(poly)


def test_snake_checks_are_not_assert_statements():
    """Snake invariants raise AssertionError explicitly, so python -O keeps them."""
    tree = ast.parse(open(tropmono.graphs.__file__).read())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    sn4 = build_snake(T4)
    with pytest.raises(AssertionError):
        sn4._replace(bridge=sn4.chain[0]).validate(T4)
    with pytest.raises(AssertionError):
        sn4._replace(points=sn4.points[:-1]).validate(T4)


def test_snake_chain_through_all_adjoint_points():
    sn = build_snake(T6)
    from tropmono.polygons import adjoint_polygon

    assert set(sn.points[1:]) == set(adjoint_polygon(T6).lattice_points())
