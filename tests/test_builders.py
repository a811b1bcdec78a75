import ast
import os
import subprocess
import sys

import pytest

import tropmono
from tropmono import builders
from tropmono.geometry import LatticePolygon, UnimodularMap, add, neg, primitive, seg, smul, sub
from tropmono.graphs import CertificationError, WeightedSegmentGraph, check_balancing, residual
from tropmono.polygons import adjoint_polygon, neighbors_on_boundary, normalize_at_vertex
from tropmono.builders import (
    build_corner_graph,
    build_divisible_ray_sweep,
    build_gcd1_graph,
    build_gcd2_graphs,
    build_gcdedges_graph,
    build_interior_graph,
    build_leg_pair,
    build_propagation_graph,
    build_ray_sweep,
    build_side_graph,
    cancelling_sweep,
    certify_flexible,
)

T3 = LatticePolygon([(0, 0), (3, 0), (0, 3)])
T4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])
T6 = LatticePolygon([(0, 0), (6, 0), (0, 6)])
SQ4 = LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
BIG = LatticePolygon([(-1, -1), (18, -1), (18, 6), (-1, 6)])


def swap_axes_frame(poly, kappa):
    """Oracle: the normalization at the adjoint vertex kappa that sends the
    ccw adjoint edge to the y-axis and the other one to the x-axis, with the
    images of the polygon and of its adjoint."""
    adj = adjoint_polygon(poly)
    verts = adj.vertices
    i = verts.index(kappa)
    e1 = primitive(sub(verts[(i + 1) % len(verts)], kappa))
    e2 = primitive(sub(verts[i - 1], kappa))
    f = UnimodularMap.from_basis(e2, e1, kappa)
    image = poly.transform(f)
    assert image.side((0, -1)) == image.side((-1, 0)) == 0
    return f, image, adj.transform(f)


def test_swapped_frame_is_the_swap_axes_frame():
    """The swapped frame that ``_frame`` builds from the first one, which
    it follows by (x, y) -> (y, x), is the frame with the adjoint edges at
    kappa sent to the other axes (``swap_axes_frame``) at every adjoint
    vertex of T4, SQ4, T6 and R45."""
    r45 = LatticePolygon([(0, 0), (4, 0), (4, 5), (0, 5)])
    for poly in (T4, SQ4, T6, r45):
        for kappa in adjoint_polygon(poly).vertices:
            first = normalize_at_vertex(poly, kappa)
            assert builders._swapped(*first) == swap_axes_frame(poly, kappa)


def test_corner_graph():
    res = build_corner_graph(T4, (1, 1))
    weights = sorted(res.graph.entries.values())
    assert weights == [-1, 1, 1]
    assert sum(res.graph.entries.values()) == 1
    assert check_balancing(res.graph, T4) == set()
    assert res.certificate.verify()
    res3 = build_corner_graph(T3, (1, 1))
    assert res3.certificate.verify()


def test_side_graph_lengths():
    res1 = build_side_graph(T4, ((1, 1), (2, 1)))
    assert len(res1.graph.entries) == 3
    res3 = build_side_graph(T6, ((1, 1), (4, 1)))
    assert len(res3.graph.entries) == 5
    assert all(w == 1 for w in res3.graph.entries.values())
    assert check_balancing(res3.graph, T6) == set()
    assert res3.certificate.verify()


def test_propagation_weights_verbatim():
    for a in (1, 2):
        res = build_propagation_graph(T6, (1, 1), (1, 2), a)
        assert res.notes["weights"] == {"horizontal": -2 * a, "vertical": -a - 1}
        assert check_balancing(res.graph, T6) == set()
        assert res.certificate.verify()


def test_even_bridge_weights_verbatim():
    # the even-bridge graph is the propagation graph with a = l: horizontal
    # weight -2l, target the distance-l point
    rect = LatticePolygon([(0, 0), (4, 0), (4, 6), (0, 6)])
    res = build_propagation_graph(rect, (1, 1), (2, 1), 2)
    assert res.notes["weights"]["horizontal"] == -4  # -2l with l = 2
    assert check_balancing(res.graph, rect) == set()
    assert res.certificate.verify()


def test_gcd1_weights_verbatim():
    res = build_gcd1_graph(T6, (1, 1), 3, 1, (4, 1))
    assert res.notes["weights"] == {"horizontal": -6, "vertical": -4}
    assert res.target_exponent == 3
    assert res.certificate.verify()
    # m = l = 1 gives vertical -2 and horizontal -2
    res11 = build_gcd1_graph(T4, (1, 1), 1, 1, (2, 1))
    assert res11.notes["weights"] == {"horizontal": -2, "vertical": -2}


def test_gcd2_weights_verbatim():
    first, second = build_gcd2_graphs(T6, (1, 1), 1, (1, 2))
    assert first.notes["weights"] == {"horizontal": -2, "vertical": -2}
    assert second.notes["weights"] == {"horizontal": -2, "vertical": -2}
    assert first.certificate.verify() and second.certificate.verify()
    f3, s3 = build_gcd2_graphs(T6, (1, 1), 3, (1, 2))
    assert f3.notes["weights"] == {"horizontal": -6, "vertical": -4}
    assert s3.notes["weights"] == {"horizontal": -4, "vertical": -4}


def test_gcdedges_weights_verbatim():
    res = build_gcdedges_graph(T6, (1, 1), (4, 1))
    assert res.notes["weights"] == {"horizontal": -6, "vertical": -2}
    assert res.target_exponent == 3
    assert check_balancing(res.graph, T6) == set()
    assert res.certificate.verify()


def test_ray_sweep_small():
    rs = build_ray_sweep(T6, (1, 1), (1, 2), (2, 2), 1, 1, "kk'")
    assert rs.chain == ((2, 2), (1, 1))
    assert check_balancing(rs.graph, T6) == {(2, 2)}
    cert = certify_flexible(rs.graph, T6, [rs], allow_unbalanced_at=frozenset({(2, 2)}))
    assert cert.verify()


def test_ray_sweep_figure6_instance():
    """kappa=(0,0), kappa'=(0,1), v=(16,4), weights (1,1)."""
    rs = build_ray_sweep(BIG, (0, 0), (0, 1), (16, 4), 1, 1, "kk'")
    # chain recomputed as oracle: one sweep step lands on the long diagonal
    assert rs.chain == ((16, 4), (1, 1), (0, 0))
    assert check_balancing(rs.graph, BIG) == {(16, 4)}
    swapped = build_ray_sweep(BIG, (0, 0), (0, 1), (16, 4), 1, 1, "k'k")
    assert swapped.chain == ((16, 4), (3, 1), (0, 1))
    assert check_balancing(swapped.graph, BIG) == {(16, 4)}
    cert = certify_flexible(
        rs.graph, BIG, [rs], allow_unbalanced_at=frozenset({(16, 4)})
    )
    assert cert.verify()


def test_ray_sweep_area_decrease_assert_holds():
    # longer sweeps exercise the strict-decrease assertion internally
    rect = LatticePolygon([(0, 0), (9, 0), (9, 7), (0, 7)])
    rs = build_ray_sweep(rect, (1, 1), (1, 2), (7, 5), 1, 1, "kk'")
    assert rs.chain[0] == (7, 5) and rs.chain[-1] == (1, 1)
    assert check_balancing(rs.graph, rect) == {(7, 5)}


def test_divisible_examples():
    dv = build_divisible_ray_sweep(SQ4, 2, (1, 1), (1, 2), (3, 3), 1, 1, "kk'")
    assert check_balancing(dv.graph, SQ4) == {(3, 3)}
    cert = certify_flexible(dv.graph, SQ4, [dv], allow_unbalanced_at=frozenset({(3, 3)}))
    assert cert.verify()
    # d = 1 reduces to the plain sweep
    d1 = build_divisible_ray_sweep(T6, 1, (1, 1), (1, 2), (2, 2), 1, 1, "kk'")
    r1 = build_ray_sweep(T6, (1, 1), (1, 2), (2, 2), 1, 1, "kk'")
    assert d1 == r1
    # scaled chain is the homothety image of the unscaled chain
    u = build_ray_sweep(SQ4, (1, 1), (1, 2), (2, 2), 1, 1, "kk'")
    assert dv.chain == tuple(add((1, 1), smul(2, sub(p, (1, 1)))) for p in u.chain)
    with pytest.raises(ValueError):
        build_divisible_ray_sweep(SQ4, 2, (1, 1), (1, 2), (2, 2), 1, 1, "kk'")


def test_interior_graph_boundary_ends():
    res = build_interior_graph(T6, seg((2, 2), (3, 2)))
    assert res.graph.weight(seg((2, 2), (3, 2))) == 1
    assert check_balancing(res.graph, T6) == set()
    assert res.certificate.verify()
    res2 = build_interior_graph(T4, seg((2, 1), (1, 2)))
    assert res2.certificate.verify()


def test_interior_graph_rejects_boundary_pair():
    with pytest.raises(ValueError):
        build_interior_graph(T4, seg((0, 0), (1, 0)))


def test_interior_graph_polygon_boundary_end():
    # one end on the polygon boundary: no balancing needed there
    res = build_interior_graph(T4, seg((1, 1), (0, 1)))
    assert res.target == ((0, 1), (1, 1))
    assert res.notes["device_v"].kind == "none"
    assert res.certificate.verify()


def test_interior_graph_deep_interior():
    rect = LatticePolygon([(0, 0), (5, 0), (5, 6), (0, 6)])
    res = build_interior_graph(rect, seg((2, 2), (2, 3)))
    assert res.notes["device_v"].kind == "ray"
    assert res.notes["device_w"].kind == "ray"
    assert check_balancing(res.graph, rect) == set()
    assert res.certificate.verify()


def test_leg_pairs():
    lp1 = next(build_leg_pair(T6, (1, 1), (1, 2), (2, 2), "kk'", 1))
    assert lp1.target == seg((1, 2), (2, 2))
    assert check_balancing(lp1.graph, T6) == set()
    assert lp1.certificate.verify()
    lp2 = next(build_leg_pair(T6, (1, 1), (1, 2), (2, 2), "kk'", 2))
    assert lp2.target == seg((1, 1), (2, 2))
    assert lp2.certificate.verify()


@pytest.mark.parametrize("which", [1, 2])
def test_leg_pair_builds_each_companion_anchor_once(monkeypatch, which):
    """The preferred companion anchors come first and are not tried again
    among the other (vertex, boundary neighbour) pairs of the adjoint."""
    tried = []
    original = builders.cancelling_sweep

    def counted(poly, anchors, u, r):
        tried.append(anchors)
        return original(poly, anchors, u, r)

    monkeypatch.setattr(builders, "cancelling_sweep", counted)
    pairs = build_leg_pair(T6, (1, 1), (1, 2), (2, 2), "kk'", which)
    while True:
        try:
            next(pairs)
        except StopIteration:
            break
    preferred = builders._pair_anchors(adjoint_polygon(T6), (1, 1), (1, 2), "kk'")
    assert tried[0][:2] == preferred
    assert len(tried) == len(set(tried)) > 2


@pytest.mark.parametrize("fan_fails", [False, True], ids=["arrangement", "fan"])
def test_certify_flexible_lets_an_invariant_failure_through(monkeypatch, fan_fails):
    """Only a CertificationError moves on to the next recipe; an
    AssertionError from either recipe is a broken invariant and
    propagates."""
    rs = build_ray_sweep(T6, (1, 1), (1, 2), (2, 2), 1, 1, "kk'")

    def broken(graph, poly, allow_unbalanced_at=frozenset(), fans=None):
        if fans is None and fan_fails:
            raise CertificationError("heights miss edges")
        raise AssertionError("pulling left a fat cell")

    monkeypatch.setattr(builders, "certify_graph", broken)
    with pytest.raises(AssertionError, match="fat cell"):
        certify_flexible(rs.graph, T6, [rs], allow_unbalanced_at=frozenset({(2, 2)}))


@pytest.mark.parametrize("exc", [ValueError, AssertionError], ids=["missing", "broken"])
def test_a_companion_sweep_skips_only_a_value_error(monkeypatch, exc):
    """A companion sweep that does not exist (ValueError) is skipped, so
    these searches find nothing when no sweep exists; an AssertionError is a
    broken invariant and escapes both the leg-pair and the device-pair
    search."""
    original = builders.build_ray_sweep

    def probe_fails(poly, kappa, kappa_prime, v, m1, m2, orientation="kk'"):
        if (m1, m2) == (1, 1):  # the weight probe of cancelling_sweep
            raise exc("no sweep here")
        return original(poly, kappa, kappa_prime, v, m1, m2, orientation)

    monkeypatch.setattr(builders, "build_ray_sweep", probe_fails)
    # (2, 2) is the one point inside T6's adjoint, so its devices are ray sweeps
    searches = [build_leg_pair(T6, (1, 1), (1, 2), (2, 2), "kk'", 1),
                builders.device_pairs(T6, (2, 2), (3, 2))]
    for search in searches:
        if exc is ValueError:
            assert list(search) == []
        else:
            with pytest.raises(AssertionError, match="no sweep here"):
                next(search)


def test_no_library_module_uses_assert():
    """Every check in src/tropmono raises explicitly, so python -O keeps it."""
    src = os.path.dirname(tropmono.__file__)
    found = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            if lines:
                found[name] = lines
    assert found == {}


def test_solve_pair_rejects_a_non_basis_under_python_O():
    """The lattice-basis check of the integer pair solver holds with
    assert statements compiled out."""
    code = (
        "from tropmono.builders import _solve_pair\n"
        "try:\n"
        "    _solve_pair((1, 0), (1, 2), (0, 1))\n"
        "except AssertionError as exc:\n"
        "    print(__debug__, exc)\n"
    )
    src = os.path.dirname(os.path.dirname(tropmono.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False (1, 0), (1, 2) do not generate the lattice"


R5x6 = LatticePolygon([(0, 0), (5, 0), (5, 6), (0, 6)])


def test_residual_sums_weighted_directions():
    g = WeightedSegmentGraph({seg((0, 0), (1, 0)): 2, seg((0, 0), (0, 1)): -1, seg((0, 0), (1, 1)): 1})
    assert residual(g, (0, 0)) == (3, 0)
    assert residual(g, (1, 0)) == (-2, 0)
    assert residual(g, (5, 5)) == (0, 0)


@pytest.mark.parametrize("poly, built", [(T6, 48), (R5x6, 384)], ids=["T6", "R5x6"])
def test_cancelling_sweep_cancels_r_at_the_seed(poly, built):
    """For every anchor triple and every seed inside the adjoint, the sweep
    that cancels r has residual -r at the seed and balances elsewhere."""
    adjoint = adjoint_polygon(poly)
    count = 0
    for u in adjoint.interior_points():
        for kappa in adjoint.vertices:
            for kappa_prime in neighbors_on_boundary(adjoint, kappa):
                for orientation in ("kk'", "k'k"):
                    anchors = (kappa, kappa_prime, orientation)
                    for r in ((1, 0), (0, 1), (-1, -1), (2, -3)):
                        try:
                            rs = cancelling_sweep(poly, anchors, u, r)
                        except (ValueError, AssertionError):
                            continue
                        assert residual(rs.graph, u) == neg(r)
                        assert check_balancing(rs.graph, poly) <= {u}
                        count += 1
    assert count == built
