"""The local fold checks of the subdivision kernel against the global plane
scans they replace.

The oracles below are the scan versions of the three decisions: a
``_touching`` check of every cell for ``verify_subdivision``, the pulling
drop of ``unimodular_refinement`` (halved until every kept plane is below
the pulled point and a ``_touching`` scan per cone passes, against the
closed form), and the gift-wrapped acceptance of an extension height.  The
kernel must decide exactly as they do, so the tests compare decisions as
well as the subdivisions built from them.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

import tropmono.graphs
import tropmono.subdivision
from tropmono.engine import Engine, ReplayError, replay_certificate
from tropmono.geometry import LatticePolygon, dot, orient, sub
from tropmono.graphs import AdmissibilityCertificate
from tropmono.subdivision import (
    HeightFunction,
    RegularSubdivision,
    SubdivisionError,
    _cleared,
    _norm_plane,
    _plane_through,
    _drop_exponent,
    _touching,
    extend_subdivision,
    subdivision_from_heights,
    trivial_subdivision,
    unimodular_refinement,
    verify_subdivision,
)

T4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])
T6 = LatticePolygon([(0, 0), (6, 0), (0, 6)])
R5x7 = LatticePolygon([(0, 0), (5, 0), (5, 7), (0, 7)])
SQ4 = LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
R4x6 = LatticePolygon([(0, 0), (4, 0), (4, 6), (0, 6)])


# ---------------------------------------------------------------------------
# oracles: the global scans
# ---------------------------------------------------------------------------


def scan_verify(poly, cells, heights):
    """The plane-scan check that ``cells`` is the regular subdivision
    induced by ``heights``, with a ``_touching`` scan for every cell of any
    shape; ``verify_subdivision`` decides the same by folds on unimodular
    triangulations and accepts nothing else."""
    hf = heights if isinstance(heights, HeightFunction) else HeightFunction.of(heights)
    hmap = hf.as_dict()
    pts = list(hmap)
    if LatticePolygon(pts) != poly:
        return None
    h, _ = _cleared(hmap)
    lifted = [(x, y, h[x, y]) for x, y in pts]
    cells = sorted(cells, key=lambda c: c.vertices)
    if len(set(cells)) != len(cells) or sum(c.area2() for c in cells) != poly.area2():
        return None
    planes, used = [], set()
    for c in cells:
        v = c.vertices
        if len(v) < 3 or any(q not in h for q in v[:3]):
            return None
        plane = _plane_through(v[0], v[1], v[2], h)
        on = _touching(plane, lifted)
        if on is None or LatticePolygon(on) != c:
            return None
        used.update(on)
        planes.append(_norm_plane(plane))
    unused = tuple(sorted(set(pts) - used))
    return RegularSubdivision(poly, tuple(cells), hf, tuple(planes), unused)


def same_verdict(poly, cells, heights):
    """Run both checks, require the same answer, and return it."""
    got = verify_subdivision(poly, cells, heights)
    want = scan_verify(poly, cells, heights)
    if want is None:
        assert got is None
    else:
        assert got == want
        assert (got.planes, got.unused_support, got.witness) == (want.planes, want.unused_support, want.witness)
        assert got.unimodular is measured_unimodular(got)
    return got


def measured_unimodular(sub_div):
    return all(len(c.vertices) == 3 and c.area2() == 1 for c in sub_div.cells)


def scan_refinement(sub_div, tally):
    """Pulling as done with global scans: cells located with ``side``,
    heights seeded from the first containing cell, and the drop halved
    until the trial passes the kept planes plus a ``_touching`` scan per
    cone.  The first passing halving must be the closed-form exponent of
    ``_drop_exponent`` on the same state.  ``tally`` counts the accepted and
    rejected trials, and the pulls that took two or more halvings and a
    rescale of the shared scale."""
    if sub_div.is_unimodular():
        return sub_div
    poly = sub_div.polygon
    pts = poly.lattice_points()

    def surface(p):
        i = next(i for i, c in enumerate(sub_div.cells) if c.side(p) >= 0)
        nx, ny, nz, d = sub_div.planes[i]
        return Fraction(d - nx * p[0] - ny * p[1], nz)

    h, scale = _cleared({p: surface(p) for p in pts})
    cells = list(sub_div.cells)
    planes = [_plane_through(c.vertices[0], c.vertices[1], c.vertices[2], h) for c in cells]
    eps, e = Fraction(1), 0
    for p in pts:
        affected = [i for i, c in enumerate(cells) if c.side(p) >= 0]
        if all(len(cells[i].vertices) == 3 and p in cells[i].vertices for i in affected):
            continue
        kept = [i for i in range(len(cells)) if i not in affected]
        links = [
            (u, w)
            for i in affected
            for u, w in cells[i].edges()
            if not (orient(u, w, p) == 0 and dot(sub(p, u), sub(p, w)) <= 0)
        ]
        cones = [LatticePolygon([p, u, w]) for u, w in links]
        across = []
        for u, w in links:
            owners = [i for i in kept if (w, u) in cells[i].edges()]
            assert len(owners) <= 1
            across.extend(planes[i] for i in owners)
        want = _drop_exponent(p, planes[affected[0]], across, scale, e)
        nx, ny, nz, d = planes[affected[0]]
        nu = Fraction(d - nx * p[0] - ny * p[1], nz * scale)
        old, first, rescaled = h[p], e, False
        for _ in range(400):
            drop = nu - eps
            if scale % drop.denominator:
                m = drop.denominator // gcd(scale, drop.denominator)
                scale *= m
                for q in h:
                    h[q] *= m
                planes = [(a * m, b * m, c, f * m) for a, b, c, f in planes]
                old, rescaled = h[p], True
            z = h[p] = int(drop * scale)
            good = all(a * p[0] + b * p[1] + c * z > f for a, b, c, f in (planes[i] for i in kept))
            new_planes = []
            if good:
                lifted = [(x, y, h[x, y]) for x, y in pts]
                for cone in cones:
                    v = cone.vertices
                    plane = _plane_through(v[0], v[1], v[2], h)
                    on = _touching(plane, lifted)
                    if on is None or LatticePolygon(on) != cone:
                        good = False
                        break
                    new_planes.append(plane)
            tally["accepted" if good else "rejected"] += 1
            if good:
                assert e == want, (p, e, want)
                tally["deep"] += e - first >= 2 and rescaled
                cells = [cells[i] for i in kept] + cones
                planes = [planes[i] for i in kept] + new_planes
                break
            h[p] = old
            eps /= 2
            e += 1
        else:
            raise SubdivisionError("pulling drop search did not converge")
    result = scan_verify(poly, cells, {q: Fraction(v, scale) for q, v in h.items()})
    assert result is not None and result.is_unimodular()
    return result


def wrap_extension(poly, inner, tally):
    """Extension with every height gift-wrapped and accepted when the inner
    cells reappear and the subpolygon's boundary segments are edges;
    ``tally`` counts the attempts."""
    inner_poly = inner.polygon
    if inner_poly == poly:
        return inner
    new_vertices = [v for v in poly.vertices if inner_poly.side(v) < 0]
    base = inner.witness.as_dict()
    lo = min(base.values())
    base = {p: v - lo + 1 for p, v in base.items()}
    want_boundary = set(inner_poly.boundary_segments())
    height = max(base.values()) + 1
    for _ in range(80):
        tally[0] += 1
        trial = dict(base)
        for v in new_vertices:
            trial[v] = height
        sub_div = subdivision_from_heights(poly, trial)
        got = set(sub_div.cells)
        if all(c in got for c in inner.cells) and want_boundary <= sub_div.edges():
            return sub_div
        height *= 2
    raise SubdivisionError("extension height search did not converge")


def same_subdivision(got, want):
    assert got == want
    assert (got.witness, got.planes, got.unused_support) == (want.witness, want.planes, want.unused_support)
    assert got.unimodular is measured_unimodular(got)


# ---------------------------------------------------------------------------
# derivation witnesses
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def derived():
    """Certificate and distinct admissibility witnesses of T4, SQ4, T6, R4x6
    and R5x7 derivations; the derivations run with every extension and
    refinement checked against the oracles."""
    pulls, attempts = Counter(), [0]
    real_extend, real_refine = tropmono.graphs.extend_subdivision, tropmono.graphs.unimodular_refinement

    def extend(poly, inner):
        got = real_extend(poly, inner)
        same_subdivision(got, wrap_extension(poly, inner, attempts))
        return got

    def refine(sub_div):
        got = real_refine(sub_div)
        same_subdivision(got, scan_refinement(sub_div, pulls))
        return got

    patch = pytest.MonkeyPatch()
    patch.setattr(tropmono.graphs, "extend_subdivision", extend)
    patch.setattr(tropmono.graphs, "unimodular_refinement", refine)
    try:
        out = {}
        corpus = {"T4": T4, "SQ4": SQ4, "T6": T6, "R4x6": R4x6, "R5x7": R5x7}
        for name, poly in corpus.items():
            engine = Engine(poly)
            engine.derive_surjectivity()
            cert = engine.export_certificate()
            witnesses = {}
            for node in cert["nodes"]:
                if node["rule"] == "admissible":
                    c = AdmissibilityCertificate.from_json(node["params"]["certificate"])
                    witnesses[c.polygon, c.witness, c.cells] = None
            out[name] = (cert, list(witnesses))
    finally:
        patch.undo()
    assert min(pulls["accepted"], pulls["rejected"]) > 100 and attempts[0] > 20, (pulls, attempts)
    return out


def test_derivation_witnesses_and_height_moves(derived):
    """Every distinct witness, and copies with one height moved by one step
    of the shared integer scale, get the same verdict from the folds as
    from the scans."""
    rng = random.Random(11)
    witnesses = [w for _, found in derived.values() for w in found]
    assert len(witnesses) > 60
    for poly, witness, cells in witnesses:
        assert same_verdict(poly, cells, witness) is not None
    moved = {True: 0, False: 0}
    for _ in range(600):
        poly, witness, cells = rng.choice(witnesses)
        hmap = witness.as_dict()
        _, scale = _cleared(hmap)
        p = rng.choice(sorted(hmap))
        hmap[p] += Fraction(rng.choice([-1, 1]), scale)
        moved[same_verdict(poly, cells, hmap) is not None] += 1
    assert min(moved.values()) > 5, moved
    # the decisive cases: a vertex of a neighbouring cell put just below,
    # onto or just above a cell's plane
    placed = {True: 0, False: 0}
    for _ in range(600):
        poly, witness, cells = rng.choice(witnesses)
        hmap = witness.as_dict()
        h, scale = _cleared(hmap)
        cell = rng.choice(cells)
        near = [v for c in cells if set(c.vertices) & set(cell.vertices) for v in c.vertices]
        q = rng.choice([v for v in near if v not in cell.vertices])
        nx, ny, nz, d = _plane_through(*cell.vertices, h)
        hmap[q] = Fraction(d - nx * q[0] - ny * q[1] + rng.choice([-1, 0, 1]) * nz, nz * scale)
        placed[same_verdict(poly, cells, hmap) is not None] += 1
    assert min(placed.values()) > 10, placed


def test_random_refinements_and_extensions():
    """On random subdivisions the closed-form pulling drop is the first
    halving the scans accept, also in more than 100 pulls that take two or
    more halvings and a rescale, and the refinements and extensions are
    the scans' own."""
    rng = random.Random(29)
    pulls, attempts = Counter(), [0]
    for _ in range(40):
        poly = LatticePolygon([(rng.randint(-3, 4), rng.randint(-3, 3)) for _ in range(rng.randint(3, 7))])
        if poly.dimension < 2:
            continue
        heights = {p: Fraction(rng.randint(0, 6), rng.choice([1, 1, 2, 3])) for p in poly.lattice_points()}
        sub_div = subdivision_from_heights(poly, heights)
        same_subdivision(unimodular_refinement(sub_div), scan_refinement(sub_div, pulls))
        outer = LatticePolygon(list(poly.vertices) + [(rng.randint(-5, 6), rng.randint(-5, 5)) for _ in range(2)])
        same_subdivision(extend_subdivision(outer, sub_div), wrap_extension(outer, sub_div, attempts))
        trivial = trivial_subdivision(outer)
        same_subdivision(unimodular_refinement(trivial), scan_refinement(trivial, pulls))
    assert min(pulls["accepted"], pulls["rejected"]) > 100 and attempts[0] > 40, (pulls, attempts)
    assert pulls["deep"] > 100, pulls


def test_drop_exponent_bounds_the_halving_search():
    """The closed form raises where the halving search gives up: when the
    pulled point is on or below a plane across its link whatever the drop
    (num <= 0), and when the gap needs more than ``_MAX_HALVINGS`` halvings
    past the current exponent; the last halving the search tries passes."""
    surface = (0, 0, 1, 5)  # z = 5 over p = (0, 0)
    for ad in (5, 6):  # across plane z = ad, on or above the surface at p
        with pytest.raises(SubdivisionError, match="^pulling drop search did not converge$"):
            _drop_exponent((0, 0), surface, [(0, 0, 1, ad)], 1, 0)
    across = [(0, 0, 1, 4)]  # one unit below: 2**k * 1 > scale
    for e in (0, 7):
        assert _drop_exponent((0, 0), surface, across, 1 << (e + 398), e) == e + 399
        with pytest.raises(SubdivisionError, match="^pulling drop search did not converge$"):
            _drop_exponent((0, 0), surface, across, 1 << (e + 399), e)
    assert _drop_exponent((0, 0), surface, [], 1, 9) == 9  # boundary link: no bound


# ---------------------------------------------------------------------------
# corrupted witnesses
# ---------------------------------------------------------------------------


def _flip(cells):
    """Flip the diagonal of the first two cells forming a convex
    quadrilateral."""
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            shared = set(a.vertices) & set(b.vertices)
            if i < j and len(shared) == 2:
                (p,), (q,) = set(a.vertices) - shared, set(b.vertices) - shared
                u, w = sorted(shared)
                if orient(p, q, u) * orient(p, q, w) < 0:
                    rest = [c for k, c in enumerate(cells) if k not in (i, j)]
                    return rest + [LatticePolygon([p, q, u]), LatticePolygon([p, q, w])]
    raise AssertionError("no flippable pair")


def _shear(poly, cells, heights):
    """Shear one cell along one of its edges, so that its other two edges
    meet no cell edge: they are unmatched and not on the boundary."""
    directed = {e for c in cells for e in c.edges()}
    for c in cells:
        for (a, b), e in zip(c.edges(), c.vertices[2:] + c.vertices[:2]):
            for k in (1, -1):
                moved = LatticePolygon([a, b, (e[0] + k * (b[0] - a[0]), e[1] + k * (b[1] - a[1]))])
                fresh = [t for t in moved.edges() if t != (a, b)]
                if all(v in heights for v in moved.vertices) and not directed & set(fresh) \
                        and not {(w, u) for u, w in fresh} & directed:
                    return [moved if d == c else d for d in cells]
    raise AssertionError("no cell to shear")


CORRUPTIONS = {
    "repeated": lambda poly, cells, h: cells[:1] * 2 + cells[2:],
    "missing": lambda poly, cells, h: cells[1:],
    "flipped": lambda poly, cells, h: _flip(cells),
    "edge off the boundary": _shear,
}


@pytest.mark.parametrize("what", sorted(CORRUPTIONS) + ["vertex without height"])
def test_corrupted_witness_is_rejected(what, derived):
    """Each corruption of a derivation witness fails both checks, and a
    T4 certificate carrying it fails replay with a ReplayError."""
    cert, witnesses = derived["T4"]
    poly, witness, cells = max(witnesses, key=lambda w: len(w[2]))
    cells = list(cells)
    hmap = witness.as_dict()
    if what == "vertex without height":
        del hmap[next(p for p in sorted(hmap) if poly.side(p) > 0)]  # the hull stays
        bad_cells = cells
    else:
        bad_cells = CORRUPTIONS[what](poly, cells, hmap)
    assert same_verdict(poly, bad_cells, hmap) is None

    data = json.loads(json.dumps(cert))
    hits = 0
    for node in data["nodes"]:
        params = node["params"]
        if node["rule"] != "admissible":
            continue
        c = AdmissibilityCertificate.from_json(params["certificate"])
        if (c.polygon, c.witness, c.cells) == (poly, witness, tuple(cells)):
            params["certificate"]["cells"] = [b.to_json() for b in bad_cells]
            params["certificate"]["heights"] = HeightFunction.of(hmap).to_json()
            hits += 1
    assert hits
    with pytest.raises(ReplayError):
        replay_certificate(data)


def test_cells_sharing_a_directed_edge_are_rejected():
    """Distinct unimodular triangles whose areas add up to the unit
    square's but which share the directed edge (0,0)->(1,0): ``_folds``
    and ``verify_subdivision`` reject them, whatever the heights."""
    square = LatticePolygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    cells = [LatticePolygon([(0, 0), (1, 0), (1, 1)]), LatticePolygon([(0, 0), (1, 0), (0, 1)])]
    assert sum(c.area2() for c in cells) == square.area2()
    for top in (-1, 0, 1, 5):
        hmap = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): top}
        assert tropmono.subdivision._folds(square, cells, hmap) is None
        assert same_verdict(square, cells, hmap) is None


def _merge(cells):
    """Merge the first two cells sharing an edge whose union is convex into
    one cell of twice the area."""
    for i, a in enumerate(cells):
        for j, b in enumerate(cells):
            if i < j and len(set(a.vertices) & set(b.vertices)) == 2:
                merged = LatticePolygon(a.vertices + b.vertices)
                if merged.area2() == a.area2() + b.area2():
                    return [c for k, c in enumerate(cells) if k not in (i, j)] + [merged]
    raise AssertionError("no mergeable pair")


def merged_witness_certificate():
    """The T4 report certificate with two adjacent triangles of its first
    ``admissible`` witness merged into one cell, so that witness is not a
    unimodular triangulation; the areas still add up."""
    data = json.loads(json.dumps(Engine(T4).derive_surjectivity()["certificate"]))
    params = next(node["params"] for node in data["nodes"] if node["rule"] == "admissible")
    cells = AdmissibilityCertificate.from_json(params["certificate"]).cells
    params["certificate"]["cells"] = [c.to_json() for c in _merge(list(cells))]
    return data


def test_a_witness_that_is_not_a_triangulation_fails_replay_without_a_scan(monkeypatch):
    """Replay rejects a witness with a cell that is not a unimodular
    triangle by counting, with no plane scan."""
    calls = [0]
    real_touching = tropmono.subdivision._touching

    def touching(plane, lifted):
        calls[0] += 1
        return real_touching(plane, lifted)

    data = merged_witness_certificate()
    monkeypatch.setattr(tropmono.subdivision, "_touching", touching)
    with pytest.raises(ReplayError, match=r"\(admissible\)"):
        replay_certificate(data)
    assert calls[0] == 0


# ---------------------------------------------------------------------------
# the local paths are the ones taken
# ---------------------------------------------------------------------------


def test_local_paths_do_not_fall_back_to_scans(monkeypatch):
    """SQ4 and R4x6 derivations refine without any ``_touching`` scan or
    ``LatticePolygon.side`` call, and gift-wrap each growing extension
    once (its ring, by one ``_wrap``)."""
    inside = [0]
    scans = {"_touching": 0, "side": 0}
    wraps, grown = [0], [0]
    real_touching, real_side = tropmono.subdivision._touching, LatticePolygon.side
    real_refine, real_extend = tropmono.graphs.unimodular_refinement, tropmono.graphs.extend_subdivision
    real_wrap = tropmono.subdivision._wrap

    def touching(plane, lifted):
        scans["_touching"] += inside[0]
        return real_touching(plane, lifted)

    def side(self, p):
        scans["side"] += inside[0]
        return real_side(self, p)

    def refine(sub_div):
        inside[0] = 1
        try:
            return real_refine(sub_div)
        finally:
            inside[0] = 0

    def wrap(*args):
        wraps[0] += 1
        return real_wrap(*args)

    def extend(poly, inner):
        before = wraps[0]
        out = real_extend(poly, inner)
        if inner.polygon != poly:
            assert wraps[0] - before == 1
            grown[0] += 1
        return out

    monkeypatch.setattr(tropmono.subdivision, "_touching", touching)
    monkeypatch.setattr(LatticePolygon, "side", side)
    monkeypatch.setattr(tropmono.subdivision, "_wrap", wrap)
    monkeypatch.setattr(tropmono.graphs, "unimodular_refinement", refine)
    monkeypatch.setattr(tropmono.graphs, "extend_subdivision", extend)
    for poly in (SQ4, R4x6):
        Engine(poly).derive_surjectivity()
    assert scans == {"_touching": 0, "side": 0}
    assert grown[0] > 10


def test_built_and_verified_subdivisions_know_if_they_are_unimodular(monkeypatch):
    """``subdivision_from_heights`` and ``verify_subdivision`` measure every
    cell once, so ``is_unimodular`` on what they return measures nothing
    again; a subdivision assembled by hand still measures.
    ``verify_subdivision`` accepts unimodular triangulations only: on the
    others it returns None, and the scan oracle still rebuilds them."""
    rng = random.Random(31)
    measured = [0]
    real_area2 = LatticePolygon.area2

    def area2(self):
        measured[0] += 1
        return real_area2(self)

    monkeypatch.setattr(LatticePolygon, "area2", area2)
    answers, rebuilt = set(), 0
    for _ in range(30):
        poly = LatticePolygon([(rng.randint(-3, 4), rng.randint(-3, 3)) for _ in range(rng.randint(3, 6))])
        if poly.dimension < 2:
            continue
        heights = {p: Fraction(rng.randint(0, 6), rng.choice([1, 2])) for p in poly.lattice_points()}
        for sub_div in (subdivision_from_heights(poly, heights), unimodular_refinement(trivial_subdivision(poly))):
            again = verify_subdivision(poly, sub_div.cells, sub_div.witness)
            if again is None:
                assert not measured_unimodular(sub_div)
                scanned = scan_verify(poly, sub_div.cells, sub_div.witness)
                assert scanned == sub_div
                assert (scanned.planes, scanned.unused_support) == (sub_div.planes, sub_div.unused_support)
                rebuilt += 1
            else:
                verified = again
            for s in [s for s in (sub_div, again) if s is not None]:
                measured[0] = 0
                answers.add(s.is_unimodular())
                assert measured[0] == 0
                assert s.is_unimodular() is measured_unimodular(s)
    assert answers == {True, False} and rebuilt > 0
    by_hand = RegularSubdivision(
        verified.polygon, verified.cells, verified.witness, verified.planes, verified.unused_support
    )
    measured[0] = 0
    assert by_hand.is_unimodular() and measured[0] == len(by_hand.cells)
