"""Constructors for the weighted-graph families used by the deduction
pipelines: corner, side, propagation, ray sweeps, interior, the gcd family,
even-bridge and the divisible variants.

Every figure referenced by the sources is lost; the graphs here are
reconstructed from the stated weights plus the balancing conditions and each
comes with a deduction plan (the absorb/chase order that the engine replays)
and an admissibility certificate.

Certification strategy: the segments of each graph, extended to full lines,
induce an arrangement subdivision of the convex hull of the graph; the
heights sum of |line functional| is convex with breaks exactly on the lines,
so it supports the graph.  The witness is then extended to the whole polygon
and refined; all steps are replayed and checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .geometry import (
    LatticePolygon,
    Point,
    Segment,
    UnimodularMap,
    add,
    cross,
    dot,
    lattice_points_on_segment,
    neg,
    primitive,
    primitive_segments_on,
    seg,
    smul,
    sub,
)
from .polygons import adjoint_polygon, normalize_at_vertex
from .graphs import (
    AdmissibilityCertificate,
    CertificationError,
    Hint,
    WeightedSegmentGraph,
    certify_admissible,
    check_balancing,
    is_bridge,
)

# A deduction step: ("absorb", segment) removes a known edge, ("chase", v)
# chases the unique remaining edge at v, ("terminal", segment) reads off the
# last edge, ("collapse",) merges a single-isotopy-class composite.
Step = tuple


@dataclass(frozen=True)
class BuildResult:
    graph: WeightedSegmentGraph
    certificate: AdmissibilityCertificate | None
    plan: tuple[Step, ...]
    target: Segment | None  # segment whose twist power the plan concludes
    target_exponent: int = 1
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# certification helpers
# ---------------------------------------------------------------------------


def _line_of(s: Segment) -> tuple[int, int, int]:
    """Normalized integer line a x + b y = c through the segment."""
    d = primitive(sub(s[1], s[0]))
    a, b = d[1], -d[0]
    c = a * s[0][0] + b * s[0][1]
    if (a, b) < (0, 0) or (a < 0) or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


def arrangement_heights(graph: WeightedSegmentGraph, region: LatticePolygon):
    lines = sorted({_line_of(s) for s in graph.entries})
    return {
        p: sum(abs(a * p[0] + b * p[1] - c) for a, b, c in lines)
        for p in region.lattice_points()
    }


def certify_graph(
    graph: WeightedSegmentGraph,
    poly: LatticePolygon,
    allow_unbalanced_at=frozenset(),
) -> AdmissibilityCertificate:
    """Certify via the line-arrangement recipe."""
    from .subdivision import HeightFunction

    region = LatticePolygon(graph.vertices())
    if region.dimension < 2:
        region = poly
    hint = Hint(region, None, HeightFunction.of(arrangement_heights(graph, region)))
    return certify_admissible(graph, poly, hint, allow_unbalanced_at)


# ---------------------------------------------------------------------------
# corner graphs (bridges at a vertex of the adjoint)
# ---------------------------------------------------------------------------


def corner_frame(poly: LatticePolygon, kappa: Point) -> UnimodularMap:
    """Map sending some vertex V of the polygon to the origin with its edges
    on the axes and kappa to (1, 1).  Such a vertex always exists next to a
    vertex of the adjoint."""
    verts = poly.vertices
    n = len(verts)
    for i, v in enumerate(verts):
        e1 = primitive(sub(verts[(i + 1) % n], v))
        e2 = primitive(sub(verts[(i - 1) % n], v))
        if add(v, add(e1, e2)) == kappa:
            return UnimodularMap.from_basis(e1, e2, v)
    raise ValueError(f"no polygon vertex adjacent to the adjoint vertex {kappa}")


def build_corner_graph(poly: LatticePolygon, kappa: Point) -> BuildResult:
    """Balanced graph on three bridges at an adjoint vertex whose twists are
    all isotopic; the net exponent is +1, so the composite collapses to the
    bridge twist itself."""
    adjoint = adjoint_polygon(poly)
    if adjoint is None:
        raise ValueError("genus zero")
    if kappa not in adjoint.vertices:
        raise ValueError(f"{kappa} is not a vertex of the adjoint")
    f = corner_frame(poly, kappa)
    inv = f.inverse()
    graph = WeightedSegmentGraph()
    graph.add(inv.apply_seg(seg((0, 0), (1, 1))), -1)
    graph.add(inv.apply_seg(seg((1, 1), (1, 0))), 1)
    graph.add(inv.apply_seg(seg((1, 1), (0, 1))), 1)
    for s in graph.entries:
        b = is_bridge(poly, adjoint, s)
        assert b is not None and b.interior_end == kappa, "corner edges must be bridges"
    assert not check_balancing(graph, poly)
    cert = certify_graph(graph, poly)
    target = inv.apply_seg(seg((0, 0), (1, 1)))
    return BuildResult(graph, cert, (("collapse",),), target, 1, {"kappa": kappa})


# ---------------------------------------------------------------------------
# side graphs (chains along an edge of the adjoint)
# ---------------------------------------------------------------------------


def _frame_with_edge_on_x(poly: LatticePolygon, kappa: Point, other: Point):
    """Def-normalization at kappa putting the adjoint edge toward ``other``
    on the positive x-axis."""
    for swap in (False, True):
        f, img = normalize_at_vertex(poly, kappa, swap_axes=swap)
        q = f.apply(other)
        if q[1] == 0 and q[0] >= 1:
            return f, img
    raise ValueError(f"{other} is not along an adjoint edge at {kappa}")


def _frame_with_point_up(poly: LatticePolygon, kappa: Point, kappa_prime: Point):
    """Def-normalization at kappa sending the adjacent adjoint boundary point
    kappa_prime to (0, 1)."""
    for swap in (False, True):
        f, img = normalize_at_vertex(poly, kappa, swap_axes=swap)
        if f.apply(kappa_prime) == (0, 1):
            return f, img
    raise ValueError(f"{kappa_prime} is not next to {kappa} on the adjoint boundary")


def build_side_graph(poly: LatticePolygon, edge: tuple[Point, Point]) -> BuildResult:
    """Weight-1 chain along an adjoint edge, extended one step past both
    ends to the polygon boundary."""
    adjoint = adjoint_polygon(poly)
    kappa, xi = edge
    if kappa not in adjoint.vertices or xi not in adjoint.vertices:
        raise ValueError("side graphs are anchored at an adjoint edge")
    f, img = _frame_with_edge_on_x(poly, kappa, xi)
    inv = f.inverse()
    l = f.apply(xi)[0]
    assert f.apply(xi) == (l, 0) and l >= 1
    assert img.side((-1, 0)) == 0 and img.side((l + 1, 0)) == 0, \
        "chain endpoints must reach the boundary"
    graph = WeightedSegmentGraph()
    chain = []
    for i in range(l + 2):
        s = inv.apply_seg(seg((i - 1, 0), (i, 0)))
        graph.add(s, 1)
        chain.append(s)
    assert not check_balancing(graph, poly)
    cert = certify_graph(graph, poly)
    plan: list[Step] = [("absorb", chain[0]), ("absorb", chain[-1])]
    for i in range(l - 1):
        plan.append(("chase", inv.apply((i, 0))))
    plan.append(("terminal", chain[l]))
    return BuildResult(
        graph, cert, tuple(plan), chain[l], 1, {"chain": tuple(chain), "frame": f}
    )


# ---------------------------------------------------------------------------
# propagation / even-bridge graphs
# ---------------------------------------------------------------------------


def build_propagation_graph(
    poly: LatticePolygon, kappa: Point, kappa_prime: Point, a: int
) -> BuildResult:
    """Transfer graph from a known bridge at the point next to a vertex on
    one adjoint edge to the bridge at distance ``a`` on the other edge.

    In normalized coordinates (kappa at the origin, kappa' at (0,1)) the
    horizontal edges carry weight -2a and the vertical one -a-1; the target
    bridge joins (0,-1) to (a,0) with weight 1 and the diagonal (0,1)-(a,0)
    closes the circuit.  The same construction with a = l proves the
    even-bridge statement (horizontal weight -2l).
    """
    if a < 1:
        raise ValueError("a must be positive")
    f, img = _frame_with_point_up(poly, kappa, kappa_prime)
    inv = f.inverse()
    adj_img = adjoint_polygon(img)
    if adj_img.side((a, 0)) != 0:
        raise ValueError("target point must lie on the adjoint edge")
    graph = WeightedSegmentGraph()
    target = inv.apply_seg(seg((0, -1), (a, 0)))
    delta = inv.apply_seg(seg((0, 1), (a, 0)))
    graph.add(target, 1)
    graph.add(delta, 1)
    vseg = inv.apply_seg(seg((0, 0), (0, 1)))
    graph.add(vseg, -a - 1)
    hsegs = []
    for i in range(1, a + 1):
        s = inv.apply_seg(seg((i - 1, 0), (i, 0)))
        graph.add(s, -2 * a)
        hsegs.append(s)
    known = inv.apply_seg(seg((-1, 0), (0, 1)))
    graph.add(known, a)
    c1 = inv.apply_seg(seg((0, 0), (0, -1)))
    c2 = inv.apply_seg(seg((0, 0), (-1, 0)))
    graph.add(c1, -a - 1)
    graph.add(c2, -2 * a)
    assert not check_balancing(graph, poly), "propagation graph must balance"
    cert = certify_graph(graph, poly)
    plan: list[Step] = [("absorb", known), ("absorb", vseg)]
    plan += [("absorb", s) for s in hsegs]
    plan += [("absorb", c1), ("absorb", c2), ("chase", kappa_prime), ("terminal", target)]
    return BuildResult(
        graph,
        cert,
        tuple(plan),
        target,
        1,
        {"known": known, "frame": f, "weights": {"horizontal": -2 * a, "vertical": -a - 1}},
    )


# ---------------------------------------------------------------------------
# gcd graphs
# ---------------------------------------------------------------------------


def build_gcd1_graph(
    poly: LatticePolygon, kappa: Point, m: int, l: int, known_toward: Point
) -> BuildResult:
    """From a known bridge at distance m on one adjoint edge at kappa,
    conclude the m/gcd(m,l)-th power at distance l on the other edge.

    Horizontal edges carry weight -(m l/(m^l) + m/(m^l)), vertical ones
    -(l m/(m^l) + l/(m^l)); the diagonal chain joins the two anchor points
    with weight 1.
    """
    g = gcd(m, l)
    f, img = _frame_with_edge_on_x(poly, kappa, known_toward)
    inv = f.inverse()
    adj_img = adjoint_polygon(img)
    if adj_img.side((m, 0)) != 0 or adj_img.side((0, l)) != 0:
        raise ValueError("distances exceed the adjoint edges")
    graph = WeightedSegmentGraph()
    known = inv.apply_seg(seg((0, -1), (m, 0)))
    target = inv.apply_seg(seg((-1, 0), (0, l)))
    graph.add(known, l // g)
    graph.add(target, m // g)
    hw = -(m * l // g + m // g)
    vw = -(l * m // g + l // g)
    hsegs, vsegs = [], []
    for i in range(1, m + 1):
        s = inv.apply_seg(seg((i - 1, 0), (i, 0)))
        graph.add(s, hw)
        hsegs.append(s)
    for j in range(1, l + 1):
        s = inv.apply_seg(seg((0, j - 1), (0, j)))
        graph.add(s, vw)
        vsegs.append(s)
    diag = primitive_segments_on((m, 0), (0, l))
    diag_orig = [inv.apply_seg(s) for s in diag]
    for s in diag_orig:
        graph.add(s, 1)
    c1 = inv.apply_seg(seg((0, 0), (0, -1)))
    c2 = inv.apply_seg(seg((0, 0), (-1, 0)))
    graph.add(c1, vw)
    graph.add(c2, hw)
    assert not check_balancing(graph, poly), "gcd1 graph must balance"
    cert = certify_graph(graph, poly)
    plan: list[Step] = [("absorb", known)]
    plan += [("absorb", s) for s in hsegs + vsegs]
    plan += [("absorb", c1), ("absorb", c2)]
    chase_pts = lattice_points_on_segment((m, 0), (0, l))[:-1]
    plan += [("chase", inv.apply(p)) for p in chase_pts[:-1]]
    # last diagonal segment chased at its point, then the target remains
    plan += [("chase", inv.apply(chase_pts[-1])), ("terminal", target)]
    return BuildResult(
        graph,
        cert,
        tuple(plan),
        target,
        m // g,
        {"known": known, "frame": f, "weights": {"horizontal": hw, "vertical": vw}},
    )


def build_gcd2_graphs(
    poly: LatticePolygon, kappa: Point, m: int, known_toward: Point
) -> tuple[BuildResult, BuildResult]:
    """The two transfer graphs of the gcd step: the first is the propagation
    graph with a = m (vertical weight -m-1, horizontal -2m), the second the
    symmetric anti-diagonal graph (all chain weights -m-1)."""
    first = build_propagation_graph(poly, kappa, known_toward, m)

    # The second graph starts from the conclusion of the first (a bridge at
    # distance m on the other edge) and transfers it back to distance m on
    # the original edge; same frame as the first graph.
    f, img = _frame_with_point_up(poly, kappa, known_toward)
    inv = f.inverse()
    adj_img = adjoint_polygon(img)
    if adj_img.side((m, 0)) != 0 or adj_img.side((0, m)) != 0:
        raise ValueError("m exceeds an adjoint edge")
    graph = WeightedSegmentGraph()
    known = inv.apply_seg(seg((0, -1), (m, 0)))
    target = inv.apply_seg(seg((-1, 0), (0, m)))
    graph.add(known, 1)
    graph.add(target, 1)
    hsegs, vsegs = [], []
    for i in range(1, m + 1):
        s = inv.apply_seg(seg((i - 1, 0), (i, 0)))
        graph.add(s, -m - 1)
        hsegs.append(s)
        s = inv.apply_seg(seg((0, i - 1), (0, i)))
        graph.add(s, -m - 1)
        vsegs.append(s)
    anti = [inv.apply_seg(s) for s in primitive_segments_on((m, 0), (0, m))]
    for s in anti:
        graph.add(s, 1)
    c1 = inv.apply_seg(seg((0, 0), (0, -1)))
    c2 = inv.apply_seg(seg((0, 0), (-1, 0)))
    graph.add(c1, -m - 1)
    graph.add(c2, -m - 1)
    assert not check_balancing(graph, poly), "gcd2 second graph must balance"
    cert = certify_graph(graph, poly)
    plan: list[Step] = [("absorb", known)]
    plan += [("absorb", s) for s in hsegs + vsegs]
    plan += [("absorb", c1), ("absorb", c2)]
    chase_pts = lattice_points_on_segment((m, 0), (0, m))[:-1]
    plan += [("chase", inv.apply(p)) for p in chase_pts]
    plan += [("terminal", target)]
    second = BuildResult(
        graph,
        cert,
        tuple(plan),
        target,
        1,
        {"known": known, "frame": f, "weights": {"horizontal": -m - 1, "vertical": -m - 1}},
    )
    return first, second


def build_gcdedges_graph(
    poly: LatticePolygon, kappa: Point, toward: Point
) -> BuildResult:
    """Seed graph of the edge-gcd argument: from corner bridges alone it
    derives the l1-th power of the bridge at the point next to kappa on the
    other edge.  Horizontal edges carry weight -2 l1 and the foot of the
    vertical edge weight -2; the remaining vertical column telescopes with
    weight l1 - 1 up to the boundary.
    """
    f, img = _frame_with_edge_on_x(poly, kappa, toward)
    inv = f.inverse()
    adj_img = adjoint_polygon(img)
    xi = f.apply(toward)
    lx = xi[0]
    if xi != (lx, 0) or toward not in adjoint_polygon(poly).vertices:
        raise ValueError("toward must be the far vertex of an adjoint edge at kappa")
    # length of the vertical adjoint edge at kappa
    ly = 0
    while adj_img.side((0, ly + 1)) == 0:
        ly += 1
    assert ly >= 1
    graph = WeightedSegmentGraph()
    known = inv.apply_seg(seg((0, -1), (lx, 0)))
    target = inv.apply_seg(seg((-1, 0), (0, 1)))
    diag = inv.apply_seg(seg((lx, 0), (0, 1)))
    graph.add(known, 1)
    graph.add(target, lx)
    graph.add(diag, 1)
    hsegs = []
    for i in range(1, lx + 1):
        s = inv.apply_seg(seg((i - 1, 0), (i, 0)))
        graph.add(s, -2 * lx)
        hsegs.append(s)
    vfoot = inv.apply_seg(seg((0, 0), (0, 1)))
    graph.add(vfoot, -2)
    column = []
    if lx > 1:
        for j in range(1, ly + 1):
            s = inv.apply_seg(seg((0, j), (0, j + 1)))
            graph.add(s, lx - 1)
            column.append(s)
    c1 = inv.apply_seg(seg((0, 0), (0, -1)))
    c2 = inv.apply_seg(seg((0, 0), (-1, 0)))
    graph.add(c1, -2)
    graph.add(c2, -2 * lx)
    assert not check_balancing(graph, poly), "gcdedges graph must balance"
    cert = certify_graph(graph, poly)
    plan: list[Step] = [("absorb", known), ("absorb", vfoot)]
    plan += [("absorb", s) for s in hsegs + column]
    plan += [("absorb", c1), ("absorb", c2)]
    plan += [("chase", toward), ("terminal", target)]
    return BuildResult(
        graph,
        cert,
        tuple(plan),
        target,
        lx,
        {"known": known, "frame": f, "weights": {"horizontal": -2 * lx, "vertical": -2}},
    )


# ---------------------------------------------------------------------------
# ray sweeps
# ---------------------------------------------------------------------------


def _sweep(v: Point, leg_target: Point, chain_end: Point) -> list[Point]:
    """Chain of the ray-sweep construction: starting from the ray [v,
    leg_target], rotate around the current point toward chain_end inside
    their triangle, hitting the farthest lattice point each time.

    The triangle area strictly decreases at every step (asserted)."""
    chain = [v]
    cur = v
    area_prev = None
    while cur != chain_end:
        tri = LatticePolygon([cur, leg_target, chain_end])
        if tri.dimension != 2:
            # aligned: walk straight to the chain end
            chain.append(chain_end)
            break
        area = tri.area2()
        if area_prev is not None:
            assert area < area_prev, "sweep triangle area must strictly decrease"
        area_prev = area
        dir_b = primitive(sub(leg_target, cur))
        rho = cross(dir_b, sub(chain_end, cur))
        rho = 1 if rho > 0 else -1
        best = None
        for w in tri.lattice_points():
            if w == cur:
                continue
            dw = sub(w, cur)
            if rho * cross(dir_b, dw) <= 0:
                continue
            if best is None:
                best = w
                continue
            db = sub(best, cur)
            c = rho * cross(dw, db)
            if c > 0 or (c == 0 and abs(dw[0]) + abs(dw[1]) > abs(db[0]) + abs(db[1])):
                best = w
        assert best is not None
        chain.append(best)
        cur = best
    return chain


def _solve_pair(d1: Point, d2: Point, rhs: Point) -> tuple[int, int]:
    """Integer solution of x*d1 + y*d2 = rhs for a lattice basis (d1, d2)."""
    det = cross(d1, d2)
    assert abs(det) == 1, f"{d1}, {d2} do not generate the lattice"
    x = cross(rhs, d2) * det
    y = cross(d1, rhs) * det
    assert (x * d1[0] + y * d2[0], x * d1[1] + y * d2[1]) == rhs
    return x, y


@dataclass(frozen=True)
class RaySweep:
    """A one-sided ray-sweep graph G_{A,B,v} (chain ends at A, legs point at
    B) together with its seed data.  Balanced everywhere except at v."""

    graph: WeightedSegmentGraph
    v: Point
    chain: tuple[Point, ...]
    leg1: Segment  # first primitive segment of the leg [v, B]
    leg2: Segment | None  # first primitive segment of the chain [v, v'_1]
    chain_end: Point
    leg_target: Point
    frame: UnimodularMap
    alpha: Point = None  # boundary anchor across the chain-end edge
    alpha_prime: Point = None  # boundary anchor across the leg-target edge
    kappa: Point = None
    kappa_prime: Point = None
    orientation: str = "kk'"
    divisor: int = 1


def build_ray_sweep(
    poly: LatticePolygon,
    kappa: Point,
    kappa_prime: Point,
    v: Point,
    m1: int,
    m2: int,
    orientation: str = "kk'",
) -> RaySweep:
    """The weighted graph G_{kappa,kappa',v} (orientation "kk'": chain to
    kappa, legs to kappa') or G_{kappa',kappa,v} ("k'k": roles exchanged),
    closed by the four anchor segments.  The underlying graph does not
    depend on (m1, m2); the weights do."""
    adjoint = adjoint_polygon(poly)
    if adjoint is None or adjoint.side(v) != 1:
        raise ValueError("seed point must be interior to the adjoint")
    return _ray_sweep(poly, 1, kappa, kappa_prime, v, m1, m2, orientation)


def build_divisible_ray_sweep(
    poly: LatticePolygon,
    d: int,
    kappa: Point,
    kappa_prime: Point,
    v: Point,
    m1: int,
    m2: int,
    orientation: str = "kk'",
) -> RaySweep:
    """The divisible variant G_{.,.,v}(d): the sweep of the homothetic image
    u = h_{1/d,kappa}(v) scaled back by d, closed through h^{-1}(kappa') by
    the three anchor segments and the column [kappa, h^{-1}(kappa')]."""
    from .polygons import divisible_points

    adjoint = adjoint_polygon(poly)
    if adjoint is None or adjoint.dimension != 2:
        raise ValueError("divisible sweeps need a two-dimensional adjoint")
    if v not in divisible_points(adjoint, d):
        raise ValueError(f"{v} is not a d-divisible point of the adjoint")
    return _ray_sweep(poly, d, kappa, kappa_prime, v, m1, m2, orientation)


def _ray_sweep(poly, d, kappa, kappa_prime, v, m1, m2, orientation) -> RaySweep:
    """Shared body of the sweeps: at d = 1 the closing column is the single
    anchor segment [kappa, kappa']."""
    f = _frame_with_point_up(poly, kappa, kappa_prime)[0]
    inv = f.inverse()
    vi = f.apply(v)
    assert vi[0] % d == 0 and vi[1] % d == 0
    u = (vi[0] // d, vi[1] // d)
    if u == (0, 0):
        raise ValueError("seed point coincides with kappa")
    if orientation == "kk'":
        leg_target, chain_end = (0, 1), (0, 0)
    elif orientation == "k'k":
        leg_target, chain_end = (0, 0), (0, 1)
    else:
        raise ValueError("orientation must be \"kk'\" or \"k'k\"")
    chain_u = _sweep(u, leg_target, chain_end)
    t = len(chain_u) - 1
    chain = [smul(d, p) for p in chain_u]
    legt = smul(d, leg_target)  # = h^{-1}(kappa') or kappa
    graph = WeightedSegmentGraph()
    w1, w2 = m1, m2
    leg1 = leg2 = None
    for k in range(t):
        for s in primitive_segments_on(chain[k], legt):
            graph.add(inv.apply_seg(s), w1)
        for s in primitive_segments_on(chain[k], chain[k + 1]):
            graph.add(inv.apply_seg(s), w2)
        if k == 0:
            leg1 = inv.apply_seg(seg(chain[0], lattice_points_on_segment(chain[0], legt)[1]))
            leg2 = inv.apply_seg(seg(chain[0], lattice_points_on_segment(chain[0], chain[1])[1]))
        if k + 1 < t:
            d_prev = primitive(sub(chain_u[k], chain_u[k + 1]))
            d1 = primitive(sub(leg_target, chain_u[k + 1]))
            d2 = primitive(sub(chain_u[k + 2], chain_u[k + 1]))
            rhs = (-w2 * d_prev[0], -w2 * d_prev[1])
            w1, w2 = _solve_pair(d1, d2, rhs)

    def residual(at: Point) -> Point:
        acc = (0, 0)
        for s, m in graph.entries.items():
            so = (f.apply(s[0]), f.apply(s[1]))
            if at in so:
                dd = primitive(sub(so[0] if at == so[1] else so[1], at))
                acc = (acc[0] + m * dd[0], acc[1] + m * dd[1])
        return acc

    # close at (0, d): the bridge to (-1, 0) and the column toward kappa
    r = residual((0, d))
    b1, col = _solve_pair(primitive((-1, -d)), (0, -1), neg(r))
    graph.add(inv.apply_seg(seg((0, d), (-1, 0))), b1)
    for s in primitive_segments_on((0, 0), (0, d)):
        graph.add(inv.apply_seg(s), col)
    r = residual((0, 0))
    b2, b3 = _solve_pair((-1, 0), (0, -1), neg(r))
    graph.add(inv.apply_seg(seg((0, 0), (-1, 0))), b2)
    graph.add(inv.apply_seg(seg((0, 0), (0, -1))), b3)
    bad = check_balancing(graph, poly)
    assert bad <= {v}, f"ray sweep unbalanced beyond the seed: {bad}"
    return RaySweep(
        graph,
        v,
        tuple(inv.apply(p) for p in chain),
        leg1,
        leg2,
        inv.apply(smul(d, chain_end)),
        inv.apply(legt),
        f,
        inv.apply((0, -1)),
        inv.apply((-1, 0)),
        kappa,
        kappa_prime,
        orientation,
        d,
    )


# ---------------------------------------------------------------------------
# adjoint boundary navigation
# ---------------------------------------------------------------------------


def adjoint_boundary_cycle(adjoint: LatticePolygon) -> list[Point]:
    """Boundary lattice points of the adjoint in ccw cyclic order."""
    out = []
    for a, b in adjoint.edges():
        pts = lattice_points_on_segment(a, b)
        out.extend(pts[:-1])
    return out


def _neighbors_on_boundary(adjoint: LatticePolygon, p: Point) -> tuple[Point, Point]:
    cyc = adjoint_boundary_cycle(adjoint)
    i = cyc.index(p)
    return cyc[(i - 1) % len(cyc)], cyc[(i + 1) % len(cyc)]


def _pair_anchors(
    adjoint: LatticePolygon, kappa: Point, kappa_prime: Point, orientation: str
) -> tuple[Point, Point]:
    """Anchors (xi, xi') of the companion sweep used to balance a ray sweep
    at its seed, following the two cases of the pairing construction."""
    cyc = adjoint_boundary_cycle(adjoint)
    n = len(cyc)
    i = cyc.index(kappa)
    step = 1 if cyc[(i + 1) % n] == kappa_prime else -1
    verts = set(adjoint.vertices)

    def walk(j, direction):
        while cyc[j % n] not in verts or cyc[j % n] == kappa:
            j += direction
        return cyc[j % n]

    if orientation == "kk'":
        # xi: the vertex next to kappa away from kappa'; xi': beyond xi
        xi = walk(i - step, -step)
        j = cyc.index(xi)
        xi_prime = cyc[(j - step) % n]
    else:
        if kappa_prime in verts:
            xi = walk(cyc.index(kappa_prime) + step, step)
            j = cyc.index(xi)
            xi_prime = cyc[(j + step) % n]
        else:
            xi = walk(i + step, step)
            j = cyc.index(xi)
            xi_prime = cyc[(j + step) % n]
    return xi, xi_prime


# ---------------------------------------------------------------------------
# interior segments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndDevice:
    """Balancing device at one end of an interior segment.

    kind "ray": a ray-sweep pair seed; kind "chain": an adjoint-edge chain
    out to the polygon boundary plus a bridge; kind "none" for ends on the
    polygon boundary (no balancing needed there)."""

    kind: str
    graph: WeightedSegmentGraph
    legs: tuple[Segment, ...]
    ray: RaySweep | None = None


def _on_edge(a: Point, b: Point, p: Point) -> bool:
    from .geometry import orient

    return orient(a, b, p) == 0 and dot(sub(p, a), sub(p, b)) <= 0


def _dir_out(s: Segment, v: Point) -> Point:
    return primitive(sub(s[1] if v == s[0] else s[0], v))


def _chain_devices(poly: LatticePolygon, u: Point, sigma_dir: Point):
    """Candidate chain+bridge devices at an adjoint-boundary end."""
    from .graphs import bridges_at

    adjoint = adjoint_polygon(poly)
    out = []
    for a, b in adjoint.edges():
        if not _on_edge(a, b, u):
            continue
        for xi in (a, b):
            if xi == u:
                continue
            e = primitive(sub(xi, u))
            end = xi
            while adjoint.side(add(end, e)) == 0:
                end = add(end, e)
            omega = add(end, e)
            if poly.side(omega) != 0:
                continue
            for br in bridges_at(poly, u):
                bdir = _dir_out(br.segment, u)
                if abs(cross(e, bdir)) != 1:
                    continue
                c, beta = _solve_pair(e, bdir, neg(sigma_dir))
                g = WeightedSegmentGraph()
                if c:
                    for s in primitive_segments_on(u, omega):
                        g.add(s, c)
                if beta:
                    g.add(br.segment, beta)
                legs = (seg(u, add(u, e)), br.segment)
                out.append(EndDevice("chain", g, legs))
    return out


def _ray_devices(poly: LatticePolygon, u: Point, sigma_dir: Point):
    """Candidate ray-sweep devices at an adjoint-interior end."""
    adjoint = adjoint_polygon(poly)
    out = []
    for kappa in adjoint.vertices:
        for kappa_prime in _neighbors_on_boundary(adjoint, kappa):
            for orientation in ("k'k", "kk'"):
                try:
                    probe = build_ray_sweep(poly, kappa, kappa_prime, u, 1, 1, orientation)
                    l1 = _dir_out(probe.leg1, u)
                    l2 = _dir_out(probe.leg2, u)
                    m1, m2 = _solve_pair(l1, l2, neg(sigma_dir))
                    rs = build_ray_sweep(poly, kappa, kappa_prime, u, m1, m2, orientation)
                except (ValueError, AssertionError):
                    continue
                out.append(EndDevice("ray", rs.graph, (probe.leg1, probe.leg2), rs))
    return out


def end_devices(poly: LatticePolygon, u: Point, sigma_dir: Point):
    adjoint = adjoint_polygon(poly)
    if poly.side(u) == 0:
        return [EndDevice("none", WeightedSegmentGraph(), ())]
    if adjoint.dimension == 2 and adjoint.side(u) == 1:
        return _ray_devices(poly, u, sigma_dir)
    return _chain_devices(poly, u, sigma_dir)


def build_interior_graph(poly: LatticePolygon, sigma: Segment) -> BuildResult:
    """Admissible graph containing a given primitive segment with weight one,
    balanced by end devices; the deduction chases the segment at an interior
    end once the device legs are absorbed.

    The configuration (anchor vertices of the end devices) is searched
    deterministically; candidates whose pieces cross or fail certification
    are discarded.
    """
    sigma = seg(*sigma)
    v, w = sigma
    if poly.side(v) == 0 and poly.side(w) == 0:
        raise ValueError("both ends on the polygon boundary")
    dev_v = end_devices(poly, v, sub(w, v))
    dev_w = end_devices(poly, w, sub(v, w))
    last_error = None
    for dv in dev_v:
        for dw in dev_w:
            graph = WeightedSegmentGraph({sigma: 1}).union(dv.graph).union(dw.graph)
            if graph.weight(sigma) != 1:
                continue
            if check_balancing(graph, poly):
                continue
            if not graph.loops_pairwise_disjoint():
                continue
            sweeps = [d.ray for d in (dv, dw) if d.ray is not None]
            zero, one = list(sigma), []
            for d in (dv, dw):
                if d.kind == "chain":
                    for s in d.graph.entries:
                        zero.extend(s)
                    for s in d.graph.entries:
                        for p in s:
                            if poly.side(p) == 0 and p not in one:
                                one.append(p)
            zero = [p for p in zero if poly.side(p) != 0]
            try:
                cert = certify_flexible(graph, poly, sweeps, zero, one)
            except (CertificationError, AssertionError) as exc:
                last_error = exc
                continue
            chase_at = v if poly.side(v) != 0 else w
            legs = dv.legs if chase_at == v else dw.legs
            plan = tuple(("absorb", s) for s in legs) + (("chase", chase_at),)
            notes = {"device_v": dv, "device_w": dw, "chase_at": chase_at}
            return BuildResult(graph, cert, plan, sigma, 1, notes)
    raise CertificationError(f"no interior configuration for {sigma}: {last_error}")


# ---------------------------------------------------------------------------
# diamond pairs (facts for ray-sweep legs)
# ---------------------------------------------------------------------------


def build_leg_pair(
    poly: LatticePolygon,
    kappa: Point,
    kappa_prime: Point,
    u: Point,
    orientation: str,
    which: int,
) -> BuildResult:
    """Balanced pair deriving the twist of leg ``which`` (1: toward the leg
    target, 2: the first chain segment) of the sweep G at u, by pairing the
    degenerate sweep with a companion sweep at different anchors."""
    adjoint = adjoint_polygon(poly)
    m1, m2 = (1, 0) if which == 1 else (0, 1)
    main = build_ray_sweep(poly, kappa, kappa_prime, u, m1, m2, orientation)
    target = main.leg1 if which == 1 else main.leg2
    tdir = _dir_out(target, u)
    last_error = None
    for xi, xi_prime in [
        _pair_anchors(adjoint, kappa, kappa_prime, orientation)
    ] + [
        (x, xp)
        for x in adjoint.vertices
        for xp in _neighbors_on_boundary(adjoint, x)
    ]:
        if xi == kappa and xi_prime == kappa_prime:
            continue
        for co in ("kk'", "k'k"):
            try:
                probe = build_ray_sweep(poly, xi, xi_prime, u, 1, 1, co)
                n1, n2 = _solve_pair(
                    _dir_out(probe.leg1, u), _dir_out(probe.leg2, u), neg(tdir)
                )
                companion = build_ray_sweep(poly, xi, xi_prime, u, n1, n2, co)
            except (ValueError, AssertionError):
                continue
            graph = main.graph.union(companion.graph)
            if graph.weight(target) != 1:
                continue
            if check_balancing(graph, poly):
                continue
            if not graph.loops_pairwise_disjoint():
                continue
            try:
                cert = certify_flexible(graph, poly, [main, companion])
            except (CertificationError, AssertionError) as exc:
                last_error = exc
                continue
            plan, recurse = _leg_pair_plan(poly, main, which)
            notes = {
                "main": main,
                "companion": companion,
                "recurse": recurse,
                "anchors": (kappa, kappa_prime, orientation),
            }
            return BuildResult(graph, cert, plan, target, 1, notes)
    raise CertificationError(
        f"no companion for leg {which} of sweep at {u}: {last_error}"
    )


def _leg_pair_plan(poly: LatticePolygon, main: RaySweep, which: int):
    """Absorb/chase order extracting the leg fact from the pair composite.

    For which == 1 the degenerate sweep is the single leg [u, B]: absorb the
    closings and peel the leg from the far end.  For which == 2 it is the
    chain [u, v'_1] plus the sweep tail at v'_1: the tail legs are absorbed
    (their facts come from recursion at v'_1) and the chain is peeled."""
    u = main.v
    closings = [s for s in main.graph.entries if u not in s and not _seg_on_chain(main, s)]
    plan: list[Step] = [("absorb", s) for s in closings]
    recurse = None
    if which == 1:
        pts = lattice_points_on_segment(u, main.leg_target)
        for p in reversed(pts[1:]):
            plan.append(("chase", p))
    else:
        chain = main.chain
        v1 = chain[1]
        if len(chain) > 2:
            # absorb the sweep tail at v'_1: all segments of its first leg
            # and of the chain piece toward v'_2 (facts from recursion)
            for s in primitive_segments_on(v1, main.leg_target):
                plan.append(("absorb", s))
            for s in primitive_segments_on(v1, chain[2]):
                plan.append(("absorb", s))
            recurse = v1
        pts = lattice_points_on_segment(u, v1)
        for p in reversed(pts[1:]):
            plan.append(("chase", p))
    return tuple(plan), recurse


def _seg_on_chain(main: RaySweep, s: Segment) -> bool:
    chain_segs = set()
    for k in range(len(main.chain) - 1):
        chain_segs.update(primitive_segments_on(main.chain[k], main.chain[k + 1]))
    for k in range(len(main.chain) - 1):
        chain_segs.update(primitive_segments_on(main.chain[k], main.leg_target))
    return s in chain_segs


# ---------------------------------------------------------------------------
# staged fan certification (for sweeps whose line arrangement degenerates)
# ---------------------------------------------------------------------------


def certify_fans(
    graph: WeightedSegmentGraph,
    poly: LatticePolygon,
    sweeps,
    zero_points=(),
    one_points=(),
    allow_unbalanced_at=frozenset(),
) -> AdmissibilityCertificate:
    """Certify a union of ray sweeps (plus optional flat pieces) by the
    staged construction: lift the chains to 0 and the leg targets to 1 on
    the convex hull, then adjoin the boundary anchors batch by batch and
    extend, refine and check."""
    from fractions import Fraction

    from .subdivision import extend_subdivision, subdivision_from_heights, unimodular_refinement

    zero: set[Point] = set(zero_points)
    apex: set[Point] = set()
    for rs in sweeps:
        zero.update(rs.chain)
        apex.add(rs.leg_target)
    heights = {p: Fraction(0) for p in zero}
    for p in set(apex) | set(one_points):
        heights[p] = Fraction(1)
    region = LatticePolygon(list(heights))
    if region.dimension != 2:
        raise CertificationError("fan region degenerate")
    sub_div = subdivision_from_heights(region, heights)
    inside = [s for s in graph.entries if region.contains_segment(s)]
    region_edges = sub_div.edges()
    missing = [s for s in inside if s not in region_edges]
    if missing:
        raise CertificationError(f"fan heights miss edges {missing}")
    batches = [
        sorted({rs.alpha for rs in sweeps}),
        sorted({rs.alpha_prime for rs in sweeps}),
    ]
    current = region
    for batch in batches:
        new_pts = [p for p in batch if current.side(p) < 0]
        if not new_pts:
            continue
        current = LatticePolygon(list(current.vertices) + new_pts)
        sub_div = extend_subdivision(current, sub_div)
    sub_div = extend_subdivision(poly, sub_div)
    refined = unimodular_refinement(sub_div)
    refined_edges = refined.edges()
    lost = [s for s in graph.entries if s not in refined_edges]
    if lost:
        raise CertificationError(f"fan refinement lost edges {lost}")
    cert = AdmissibilityCertificate(
        graph, poly, refined.witness, refined, tuple(sorted(allow_unbalanced_at))
    )
    if not cert.verify():
        raise AssertionError("fan certificate failed verification")
    return cert


def certify_flexible(
    graph: WeightedSegmentGraph,
    poly: LatticePolygon,
    sweeps=(),
    zero_points=(),
    one_points=(),
    allow_unbalanced_at=frozenset(),
) -> AdmissibilityCertificate:
    """Try the line-arrangement recipe, then the staged fan recipe."""
    try:
        return certify_graph(graph, poly, allow_unbalanced_at)
    except (CertificationError, AssertionError) as first:
        if not sweeps and not one_points:
            raise
        try:
            return certify_fans(
                graph, poly, sweeps, zero_points, one_points, allow_unbalanced_at
            )
        except (CertificationError, AssertionError):
            raise first
