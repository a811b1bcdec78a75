import ast
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

import tropmono.subdivision
from test_folds import scan_verify
from tropmono.geometry import LatticePolygon, primitive_segments_on, seg
from tropmono.subdivision import (
    HeightFunction,
    SubdivisionError,
    dual_tropical_curve,
    extend_subdivision,
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


def test_pulling_triangulation_of_nested_triangles_is_regular():
    """The pulling refinement of the outer triangle of the mother of all
    examples (whose spiral triangulation is not regular) is verified by
    its own witness."""
    poly = LatticePolygon([(0, 0), (4, 0), (0, 4)])
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
    order = random.Random(7)
    pts = t4.lattice_points()
    repeats = fat = 0
    for _ in range(60):
        h = {p: Fraction(rng.randint(0, 12)) for p in pts}
        s = subdivision_from_heights(t4, h)
        assert sum(c.area2() for c in s.cells) == t4.area2()
        replay = subdivision_from_heights(t4, s.witness)
        assert set(replay.cells) == set(s.cells)
        # the scan oracle rebuilds the gift wrap from its shuffled cells;
        # verify_subdivision accepts it only when it is a triangulation
        cells = list(s.cells)
        order.shuffle(cells)
        checked = scan_verify(t4, cells, h)
        assert checked == s
        assert (checked.planes, checked.unused_support) == (s.planes, s.unused_support)
        verified = verify_subdivision(t4, cells, h)
        if s.is_unimodular():
            assert verified == s and verified.planes == s.planes
        else:
            assert verified is None
            fat += 1
        assert scan_verify(t4, cells[1:], h) is None
        for i, c in enumerate(cells):
            for j, other in enumerate(cells):
                if i != j and c.area2() == other.area2():
                    repeated = cells[:j] + [c] + cells[j + 1:]
                    assert scan_verify(t4, repeated, h) is None
                    assert verify_subdivision(t4, repeated, h) is None
                    repeats += 1
        # verify_subdivision agrees with the gift wrap on the refinement
        r = unimodular_refinement(s)
        rcells = list(r.cells)
        order.shuffle(rcells)
        wrapped = subdivision_from_heights(t4, r.witness)
        checked = verify_subdivision(t4, rcells, r.witness)
        assert checked == wrapped == r
        assert (checked.planes, checked.unused_support) == (wrapped.planes, wrapped.unused_support)
        assert verify_subdivision(t4, rcells[1:], r.witness) is None
        assert verify_subdivision(t4, rcells[:1] + rcells[:-1], r.witness) is None
        curve = dual_tropical_curve(s)
        faces = s.one_faces()
        inner = sum(1 for _, o in faces if len(o) == 2)
        outer = sum(1 for _, o in faces if len(o) == 1)
        assert len(curve.vertices) == len(s.cells)
        assert len(curve.edges) == inner and len(curve.rays) == outer
        assert curve.check_balanced()
    assert repeats > 0 and fat > 0


def test_subdivision_json_roundtrip():
    s = square_split()
    data = s.to_json()
    hf = HeightFunction.from_json(data["heights"])
    replay = subdivision_from_heights(USQ, hf)
    assert set(replay.cells) == set(s.cells)


def test_integer_height_codec_matches_fractions():
    """On random rationals (negative denominators, unreduced pairs, zeros)
    ``to_json`` gives the Fraction oracle's bytes, and ``of``, ``lifted``
    and ``from_json`` of the same heights are equal and hash alike."""
    rng = random.Random(28)
    grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    for _ in range(300):
        entries = []
        for x, y in rng.sample(grid, rng.randint(1, 8)):
            k = rng.randint(1, 6)  # common factor: the pair is unreduced
            num = rng.choice([0, rng.randint(-40, 40)])
            den = rng.choice([-1, 1]) * rng.randint(1, 12)
            entries.append([x, y, k * num, k * den])
        rng.shuffle(entries)
        fractions = {(x, y): Fraction(num, den) for x, y, num, den in entries}
        # the oracle: the codec through Fraction, as it was before heights stayed integers
        want = json.dumps([[x, y, v.numerator, v.denominator] for (x, y), v in sorted(fractions.items())])
        scale = rng.randint(1, 5) * math.lcm(*(v.denominator for v in fractions.values()))
        forms = [
            HeightFunction.from_json(entries),
            HeightFunction.of(fractions),
            HeightFunction.lifted({p: int(v * scale) for p, v in fractions.items()}, scale),
        ]
        for hf in forms:
            assert json.dumps(hf.to_json()) == want
            assert hf == forms[0] and hash(hf) == hash(forms[0])
            assert hf.values == tuple(sorted(fractions.items()))
    for bad in ([[0, 0, 1, 0]], [[0, 0, True, 1]], [[0, 0, 1, False]], [[0, 0, 1, 2], [0, 0, 3, 4]]):
        with pytest.raises(ValueError):
            HeightFunction.from_json(bad)


def test_dual_curve_checks_are_not_assert_statements():
    """The dual-curve balancing and orthogonality checks raise explicitly,
    so python -O keeps them."""
    tree = ast.parse(open(tropmono.subdivision.__file__).read())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def random_subdivisions(rng, count):
    """Regular subdivisions of hulls of random points under random integer
    heights, every third one refined to a triangulation."""
    out = []
    while len(out) < count:
        poly = LatticePolygon([(rng.randint(-3, 4), rng.randint(-3, 3)) for _ in range(rng.randint(3, 7))])
        if poly.dimension < 2:
            continue
        sub_div = subdivision_from_heights(poly, {p: rng.randint(0, 6) for p in poly.lattice_points()})
        out.append(unimodular_refinement(sub_div) if len(out) % 3 == 0 else sub_div)
    return out


def test_edges_match_primitive_segment_reference():
    rng = random.Random(61)
    long_edges = 0
    for sub_div in random_subdivisions(rng, 90):
        expected = set()
        for c in sub_div.cells:
            for a, b in c.edges():
                expected.update(primitive_segments_on(a, b))
                long_edges += len(primitive_segments_on(a, b)) > 1
        assert sub_div.edges() == expected
    assert long_edges > 50


def reference_touching(plane, pts, h):
    """The per-point plane scan as written before ``_touching``."""
    nx, ny, nz, d = plane
    on = []
    for p in pts:
        val = nx * p[0] + ny * p[1] + nz * h[p] - d
        if val < 0:
            return None
        if val == 0:
            on.append(p)
    return on


def test_touching_matches_plane_value_loop():
    """On planes through three lifted points (supporting or not) and on
    random planes, ``_touching`` agrees with the old loop."""
    touching, plane_through = tropmono.subdivision._touching, tropmono.subdivision._plane_through
    rng = random.Random(67)
    seen = {"below": 0, "on": 0}
    for _ in range(1500):
        pts = sorted({(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 12))})
        h = {p: rng.randint(-4, 4) for p in pts}
        a, b, c = rng.sample(pts, 3) if len(pts) >= 3 else (pts * 3)[:3]
        if rng.random() < 0.5:  # lift the rest: a supporting plane if abc is ccw
            h = {p: v if p in (a, b, c) else v + rng.randint(0, 40) for p, v in h.items()}
        plane = plane_through(a, b, c, h)
        if rng.random() < 0.3:
            plane = tuple(rng.randint(-3, 3) for _ in range(4))
        lifted = [(x, y, h[x, y]) for x, y in pts]
        expected = reference_touching(plane, pts, h)
        assert touching(plane, lifted) == expected
        seen["below" if expected is None else "on"] += 1
    for sub_div in random_subdivisions(rng, 30):  # the facet planes support
        h, _ = tropmono.subdivision._cleared(sub_div.witness.as_dict())
        lifted = [(x, y, h[x, y]) for x, y in h]
        for plane, cell in zip(sub_div.planes, sub_div.cells):
            on = touching(plane, lifted)
            assert on == reference_touching(plane, list(h), h)
            assert LatticePolygon(on) == cell
    assert min(seen.values()) > 300
