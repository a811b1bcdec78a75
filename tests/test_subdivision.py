import hashlib
import json
import random
from fractions import Fraction

import pytest

from tropmono.geometry import LatticePolygon, seg
from tropmono.subdivision import (
    HeightFunction,
    SubdivisionError,
    dual_tropical_curve,
    extend_subdivision,
    regularity_heights_for,
    subdivision_from_heights,
    trivial_subdivision,
    unimodular_refinement,
    verify_subdivision,
)

USQ = LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
T2 = LatticePolygon([(0, 0), (2, 0), (0, 2)])


def square_split():
    return subdivision_from_heights(USQ, {(0, 0): 0, (1, 1): 0, (1, 0): 1, (0, 1): 1})


def test_trivial_and_corner_split():
    s = subdivision_from_heights(USQ, {p: 0 for p in USQ.lattice_points()})
    assert len(s.cells) == 1 and not s.is_unimodular()
    s2 = square_split()
    assert sorted(c.vertices for c in s2.cells) == [
        ((0, 0), (1, 0), (1, 1)),
        ((0, 0), (1, 1), (0, 1)),
    ]
    assert s2.is_unimodular()
    assert seg((0, 0), (1, 1)) in s2.edges()


def test_lower_hull_dip():
    s = subdivision_from_heights(T2, {(0, 0): 0, (2, 0): 0, (0, 2): 0, (1, 0): -1})
    assert len(s.cells) == 2
    assert all(sum(c.area2() for c in s.cells) == T2.area2() for _ in [0])


def test_high_point_unused():
    s = subdivision_from_heights(
        USQ, {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0}
    )
    s2 = subdivision_from_heights(
        T2, {(0, 0): 0, (2, 0): 0, (0, 2): 0, (1, 1): 5}
    )
    assert (1, 1) in s2.unused_support
    assert len(s2.cells) == 1


def test_support_must_span():
    with pytest.raises(SubdivisionError):
        subdivision_from_heights(T2, {(0, 0): 0, (1, 0): 0, (0, 1): 0})


def test_refinement_counts_and_replay():
    for poly in (T2, LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])):
        r = unimodular_refinement(trivial_subdivision(poly))
        assert len(r.cells) == poly.area2()
        assert r.is_unimodular()
        replay = subdivision_from_heights(poly, r.witness)
        assert set(replay.cells) == set(r.cells)


def test_refinement_keeps_existing_edges():
    t3 = LatticePolygon([(0, 0), (3, 0), (0, 3)])
    ext = extend_subdivision(t3, square_split())
    assert all(c in set(ext.cells) for c in square_split().cells)
    refined = unimodular_refinement(ext)
    assert seg((0, 0), (1, 1)) in refined.edges()
    # every primitive boundary segment of the inner square survives
    for s in USQ.boundary_segments():
        assert s in refined.edges()


def test_refinement_of_fractional_witness_golden():
    """Heights with denominators 3 and 7 make the integer pull rescale its
    shared height scale; the refinement is pinned byte for byte."""
    rect = LatticePolygon([(0, 0), (5, 0), (5, 3), (0, 3)])
    h = {(x, y): Fraction(x * x % 7, 3) + Fraction(y * y, 7) for x, y in rect.lattice_points()}
    refined = unimodular_refinement(subdivision_from_heights(rect, h))
    assert refined.is_unimodular() and len(refined.cells) == rect.area2()
    text = json.dumps(refined.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7de0187aa5137740feaa9f8d6db3d04406341ae414dc795a6dab19e878e99dad"
    )


def test_extend_identity():
    s = square_split()
    assert extend_subdivision(USQ, s) is s


def test_regularity_lp_feasible():
    cells = [
        LatticePolygon([(0, 0), (1, 0), (1, 1)]),
        LatticePolygon([(0, 0), (1, 1), (0, 1)]),
    ]
    hf = regularity_heights_for(USQ, cells, required_edges=[seg((0, 0), (1, 1))])
    assert hf is not None
    replay = subdivision_from_heights(USQ, hf)
    assert set(replay.cells) == set(cells)
    assert regularity_heights_for(USQ, [USQ]) is not None


def test_mother_of_all_examples_not_regular():
    # two nested homothetic triangles, spiral triangulation of the annulus
    a_, b_, c_ = (0, 0), (4, 0), (0, 4)
    x, y, z = (1, 1), (2, 1), (1, 2)
    spiral = [
        LatticePolygon(t)
        for t in [
            [a_, b_, y],
            [a_, y, x],
            [b_, c_, z],
            [b_, z, y],
            [c_, a_, x],
            [c_, x, z],
            [x, y, z],
        ]
    ]
    poly = LatticePolygon([a_, b_, c_])
    assert regularity_heights_for(poly, spiral) is None
    # sanity: the pulling triangulation of the same polygon is regular
    r = unimodular_refinement(trivial_subdivision(poly))
    assert verify_subdivision(poly, list(r.cells), r.witness) is not None


def test_dual_curve_examples():
    curve = dual_tropical_curve(square_split())
    assert len(curve.vertices) == 2 and len(curve.edges) == 1 and len(curve.rays) == 4
    assert curve.edges[0][2] == ((0, 0), (1, 1))
    unit = LatticePolygon([(0, 0), (1, 0), (0, 1)])
    c1 = dual_tropical_curve(trivial_subdivision(unit))
    assert len(c1.vertices) == 1 and len(c1.edges) == 0 and len(c1.rays) == 3
    assert c1.vertices[0] == (0, 0)
    shifted = dual_tropical_curve(
        subdivision_from_heights(unit, {(0, 0): 0, (1, 0): 1, (0, 1): 0})
    )
    assert shifted.vertices[0] == (1, 0)


def test_duality_and_balancing_on_random_heights():
    t4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])
    rng = random.Random(42)
    pts = t4.lattice_points()
    for _ in range(60):
        h = {p: Fraction(rng.randint(0, 12)) for p in pts}
        s = subdivision_from_heights(t4, h)
        assert sum(c.area2() for c in s.cells) == t4.area2()
        replay = subdivision_from_heights(t4, s.witness)
        assert set(replay.cells) == set(s.cells)
        curve = dual_tropical_curve(s)
        faces = s.one_faces()
        inner = sum(1 for _, o in faces if len(o) == 2)
        outer = sum(1 for _, o in faces if len(o) == 1)
        assert len(curve.vertices) == len(s.cells)
        assert len(curve.edges) == inner and len(curve.rays) == outer
        assert curve.check_balanced()


def test_subdivision_json_roundtrip():
    s = square_split()
    data = s.to_json()
    hf = HeightFunction.from_json(data["heights"])
    replay = subdivision_from_heights(USQ, hf)
    assert set(replay.cells) == set(s.cells)
