"""Constructors for the weighted-graph families used by the deduction
pipelines: corner, side, propagation, ray sweeps, interior, the gcd family,
even-bridge and the divisible variants.

Every figure referenced by the sources is lost; the graphs here are
reconstructed from the stated weights plus the balancing conditions.  Each
comes with an admissibility certificate and names its target segment; the
engine's peeler reads the deduction off the graph itself.

Certification: ``certify_graph`` hands ``graphs.certify_admissible`` the
heights of a region, which it wraps, extends to the whole polygon and
refines; all steps are replayed and checked.  By default the segments of
the graph, extended to full lines, induce an arrangement subdivision of the
convex hull of the graph: the heights sum of |line functional| is convex
with breaks exactly on the lines, so they support the graph.  Given a
``fan_plan``, the heights lift the ray-sweep chains to 0 and the leg
targets to 1 instead, and the boundary anchors are adjoined in stages.

Every builder that certifies (corner, side, propagation, gcd1, gcd2,
gcdedges, interior, leg pair) calls ``certify_graph`` itself, directly or
through ``certify_flexible``; the ray sweeps certify nothing.

The transfer graphs are drawn in the frame ``_frame`` finds and mapped
back by ``_framed``;
the interior graphs and the engine's divisible pipelines search end-device
pairs with ``device_pairs``, and every sweep whose seed weights must cancel
a given residual comes from ``cancelling_sweep``.
"""

from __future__ import annotations

from collections import namedtuple
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
    orient,
    primitive,
    primitive_segments_on,
    seg,
    seg_dir_from,
    smul,
    sub,
)
from .polygons import (
    adjoint_boundary_cycle,
    adjoint_edges_at,
    adjoint_polygon,
    divisible_points,
    neighbors_on_boundary,
    normalize_at_vertex,
)
from .graphs import (
    AdmissibilityCertificate,
    CertificationError,
    WeightedSegmentGraph,
    bridges_at,
    certify_admissible,
    check_balancing,
    is_bridge,
    residual,
)


class BuildResult(namedtuple("BuildResult", "graph certificate target target_exponent notes")):
    """A built graph with its certificate, the segment whose twist power
    (``target_exponent``) it yields, and builder-specific ``notes``."""

    __slots__ = ()


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
    fans=None,
) -> AdmissibilityCertificate:
    """``certify_admissible`` from the line-arrangement heights on the
    graph's convex hull (``poly`` when the hull is flat), or from the heights
    of ``fans`` (a ``fan_plan``) on their hull, extended through one stage
    per batch of boundary anchors that leaves the current hull."""
    stages = []
    if fans is None:
        region = LatticePolygon(graph.vertices())
        if region.dimension < 2:
            region = poly
        heights = arrangement_heights(graph, region)
    else:
        heights, *batches = fans
        region = current = LatticePolygon([p for p, _ in heights])
        for batch in batches:
            new_pts = [p for p in batch if current.side(p) < 0]
            if new_pts:
                current = LatticePolygon(list(current.vertices) + new_pts)
                stages.append(current)
    return certify_admissible(graph, poly, region, heights, allow_unbalanced_at, stages)


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


def _framed(poly, f, name, edges, target, exponent=1, notes=None):
    """The BuildResult of a graph drawn in the frame ``f``: ``edges`` are
    (segment, weight) pairs and ``target`` a segment, in frame coordinates.
    Everything is mapped back once, the graph must balance, and it is
    certified by ``certify_graph``."""
    inv = f.inverse()
    graph = WeightedSegmentGraph()
    for s, m in edges:
        graph.add(inv.apply_seg(s), m)
    if check_balancing(graph, poly):
        raise AssertionError(f"{name} graph must balance")
    cert = certify_graph(graph, poly)
    return BuildResult(graph, cert, inv.apply_seg(target), exponent, notes or {})


def _run(a: Point, b: Point, weight: int) -> list:
    """The unit segments of [a, b], from a, as (segment, weight) pairs."""
    return [(s, weight) for s in primitive_segments_on(a, b)]


def _closings(vertical: int, horizontal: int) -> list:
    """The two edges closing a transfer graph at the frame corner, toward
    (0, -1) and (-1, 0), with the vertical and the horizontal weight."""
    return [(seg((0, 0), (0, -1)), vertical), (seg((0, 0), (-1, 0)), horizontal)]


def build_corner_graph(poly: LatticePolygon, kappa: Point) -> BuildResult:
    """Balanced graph on three bridges at an adjoint vertex whose twists are
    all isotopic; the net exponent is +1, so the composite collapses to the
    bridge twist itself."""
    adjoint = adjoint_polygon(poly)
    if adjoint is None:
        raise ValueError("genus zero")
    if kappa not in adjoint.vertices:
        raise ValueError(f"{kappa} is not a vertex of the adjoint")
    diagonal = seg((0, 0), (1, 1))
    edges = [(diagonal, -1), (seg((1, 1), (1, 0)), 1), (seg((1, 1), (0, 1)), 1)]
    res = _framed(poly, corner_frame(poly, kappa), "corner", edges, diagonal)
    for s in res.graph.entries:
        b = is_bridge(poly, s)
        if b is None or b.interior_end != kappa:
            raise AssertionError("corner edges must be bridges")
    return res


# ---------------------------------------------------------------------------
# side graphs (chains along an edge of the adjoint)
# ---------------------------------------------------------------------------


_SWAP = UnimodularMap(((0, 1), (1, 0)))


def _swapped(f: UnimodularMap, image: LatticePolygon, adj_image: LatticePolygon):
    """The frame at the same vertex with the two adjoint edges sent to the
    other axes, from the first one: each part followed by (x, y) -> (y, x)."""
    (r0, r1), (tx, ty) = f
    return UnimodularMap((r1, r0), (ty, tx)), image.transform(_SWAP), adj_image.transform(_SWAP)


def _frame(poly: LatticePolygon, kappa: Point, point: Point, up: bool = False):
    """Def-normalization at kappa, as ``normalize_at_vertex`` returns it,
    that puts the adjoint boundary point ``point`` on the positive x-axis,
    or, when ``up``, that sends the point next to kappa to (0, 1)."""
    frame = normalize_at_vertex(poly, kappa)
    x, y = frame[0].apply(point)
    for q, swap in (((x, y), False), ((y, x), True)):  # point's image in each frame
        if (q == (0, 1) if up else q[1] == 0 and q[0] >= 1):
            return _swapped(*frame) if swap else frame
    where = "next to" if up else "along an adjoint edge at"
    raise ValueError(f"{point} is not {where} {kappa}")


def build_side_graph(poly: LatticePolygon, edge: tuple[Point, Point]) -> BuildResult:
    """Weight-1 chain along an adjoint edge, extended one step past both
    ends to the polygon boundary."""
    kappa, xi = edge
    f, img, adj_img = _frame(poly, kappa, xi)
    l = f.apply(xi)[0]
    if (l, 0) not in adj_img.vertices:
        raise ValueError("side graphs are anchored at an adjoint edge")
    if img.side((-1, 0)) != 0 or img.side((l + 1, 0)) != 0:
        raise AssertionError("chain endpoints must reach the boundary")
    chain = _run((-1, 0), (l + 1, 0), 1)
    return _framed(poly, f, "side", chain, chain[l][0])


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
    f, _, adj_img = _frame(poly, kappa, kappa_prime, up=True)
    if adj_img.side((a, 0)) != 0:
        raise ValueError("target point must lie on the adjoint edge")
    hw, vw = -2 * a, -a - 1
    target = seg((0, -1), (a, 0))
    known, vertical = (seg((-1, 0), (0, 1)), a), (seg((0, 0), (0, 1)), vw)
    horizontal, closings = _run((0, 0), (a, 0), hw), _closings(vw, hw)
    edges = [(target, 1), (seg((0, 1), (a, 0)), 1), vertical, *horizontal, known, *closings]
    notes = {"weights": {"horizontal": hw, "vertical": vw}}
    return _framed(poly, f, "propagation", edges, target, 1, notes)


# ---------------------------------------------------------------------------
# gcd graphs
# ---------------------------------------------------------------------------


def build_gcd1_graph(
    poly: LatticePolygon,
    kappa: Point,
    m: int,
    l: int,
    known_toward: Point,
) -> BuildResult:
    """From a known bridge at distance m on one adjoint edge at kappa,
    conclude the m/gcd(m,l)-th power at distance l on the other edge.

    Horizontal edges carry weight -(m l/(m^l) + m/(m^l)), vertical ones
    -(l m/(m^l) + l/(m^l)); the diagonal chain joins the two anchor points
    with weight 1.
    """
    f, _, adj_img = _frame(poly, kappa, known_toward)
    return _gcd_transfer(poly, f, adj_img, m, l, "gcd1")


def _gcd_transfer(poly, f, adj_img, m, l, name) -> BuildResult:
    """The gcd transfer in the frame ``f`` (image ``adj_img`` of the
    adjoint): from the bridge at (m, 0) to the bridge at (0, l), along the
    diagonal chain from (m, 0) to (0, l)."""
    if adj_img.side((m, 0)) != 0 or adj_img.side((0, l)) != 0:
        raise ValueError("distances exceed the adjoint edges")
    g = gcd(m, l)
    hw = -(m * l // g + m // g)
    vw = -(l * m // g + l // g)
    known, target = (seg((0, -1), (m, 0)), l // g), seg((-1, 0), (0, l))
    runs = _run((0, 0), (m, 0), hw) + _run((0, 0), (0, l), vw)
    closings = _closings(vw, hw)
    edges = [known, (target, m // g), *runs, *_run((m, 0), (0, l), 1), *closings]
    notes = {"weights": {"horizontal": hw, "vertical": vw}}
    return _framed(poly, f, name, edges, target, m // g, notes)


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
    f, _, adj_img = _frame(poly, kappa, known_toward, up=True)
    return first, _gcd_transfer(poly, f, adj_img, m, m, "gcd2 second")


def build_gcdedges_graph(poly: LatticePolygon, kappa: Point, toward: Point) -> BuildResult:
    """Seed graph of the edge-gcd argument: from corner bridges alone it
    derives the l1-th power of the bridge at the point next to kappa on the
    other edge.  Horizontal edges carry weight -2 l1 and the foot of the
    vertical edge weight -2; the remaining vertical column telescopes with
    weight l1 - 1 up to the boundary.
    """
    f, _, adj_img = _frame(poly, kappa, toward)
    xi = f.apply(toward)
    if xi not in adj_img.vertices:
        raise ValueError("toward must be the far vertex of an adjoint edge at kappa")
    lx = xi[0]
    # the length of the other adjoint edge at kappa, the vertical one
    ly = next(l for far, l in adjoint_edges_at(adj_img, (0, 0)) if far != xi)
    hw, vw = -2 * lx, -2
    target = seg((-1, 0), (0, 1))
    known, foot = (seg((0, -1), (lx, 0)), 1), (seg((0, 0), (0, 1)), vw)
    horizontal, closings = _run((0, 0), (lx, 0), hw), _closings(vw, hw)
    column = _run((0, 1), (0, ly + 1), lx - 1) if lx > 1 else []
    diagonal = (seg((lx, 0), (0, 1)), 1)
    edges = [known, (target, lx), diagonal, *horizontal, foot, *column, *closings]
    notes = {"weights": {"horizontal": hw, "vertical": vw}}
    return _framed(poly, f, "gcdedges", edges, target, lx, notes)


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
            if area >= area_prev:
                raise AssertionError("sweep triangle area must strictly decrease")
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
        if best is None:
            raise AssertionError("sweep found no next point")
        chain.append(best)
        cur = best
    return chain


def _solve_pair(d1: Point, d2: Point, rhs: Point) -> tuple[int, int]:
    """Integer solution of x*d1 + y*d2 = rhs for a lattice basis (d1, d2)."""
    det = cross(d1, d2)
    if abs(det) != 1:
        raise AssertionError(f"{d1}, {d2} do not generate the lattice")
    x = cross(rhs, d2) * det
    y = cross(d1, rhs) * det
    if (x * d1[0] + y * d2[0], x * d1[1] + y * d2[1]) != rhs:
        raise AssertionError(f"({x}, {y}) does not solve for {rhs}")
    return x, y


class RaySweep(namedtuple("RaySweep", "graph v chain leg1 leg2 leg_target alpha alpha_prime "
                                     "kappa kappa_prime orientation")):
    """A one-sided ray-sweep graph G_{A,B,v} (chain ends at A, legs point at
    B) together with its seed data.  Balanced everywhere except at v.

    ``leg1`` is the first primitive segment of the leg [v, B], ``leg2`` that
    of the chain [v, v'_1]; ``alpha`` and ``alpha_prime`` are the boundary
    anchors across the chain-end and the leg-target edge."""

    __slots__ = ()


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
    adjoint = adjoint_polygon(poly)
    if adjoint is None or adjoint.dimension != 2:
        raise ValueError("divisible sweeps need a two-dimensional adjoint")
    if v not in divisible_points(adjoint, d):
        raise ValueError(f"{v} is not a d-divisible point of the adjoint")
    return _ray_sweep(poly, d, kappa, kappa_prime, v, m1, m2, orientation)


def _ray_sweep(poly, d, kappa, kappa_prime, v, m1, m2, orientation) -> RaySweep:
    """Shared body of the sweeps: at d = 1 the closing column is the single
    anchor segment [kappa, kappa']."""
    f = _frame(poly, kappa, kappa_prime, up=True)[0]
    inv = f.inverse()
    vi = f.apply(v)
    if vi[0] % d or vi[1] % d:
        raise AssertionError(f"{v} is not divisible by {d} in the frame")
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

    # close at (0, d): the bridge to (-1, 0) and the column toward kappa
    # (residuals are read in the frame)
    r = f.apply_vector(residual(graph, inv.apply((0, d))))
    b1, col = _solve_pair(primitive((-1, -d)), (0, -1), neg(r))
    graph.add(inv.apply_seg(seg((0, d), (-1, 0))), b1)
    for s in primitive_segments_on((0, 0), (0, d)):
        graph.add(inv.apply_seg(s), col)
    r = f.apply_vector(residual(graph, kappa))
    b2, b3 = _solve_pair((-1, 0), (0, -1), neg(r))
    graph.add(inv.apply_seg(seg((0, 0), (-1, 0))), b2)
    graph.add(inv.apply_seg(seg((0, 0), (0, -1))), b3)
    bad = check_balancing(graph, poly)
    if not bad <= {v}:
        raise AssertionError(f"ray sweep unbalanced beyond the seed: {bad}")
    return RaySweep(
        graph,
        v,
        tuple(inv.apply(p) for p in chain),
        leg1,
        leg2,
        inv.apply(legt),
        inv.apply((0, -1)),
        inv.apply((-1, 0)),
        kappa,
        kappa_prime,
        orientation,
    )


# ---------------------------------------------------------------------------
# anchors of companion sweeps
# ---------------------------------------------------------------------------


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


class EndDevice(namedtuple("EndDevice", "kind graph ray", defaults=(None,))):
    """Balancing device at one end of an interior segment.

    kind "ray": a ray-sweep pair seed (``ray``); kind "chain": an
    adjoint-edge chain out to the polygon boundary plus a bridge; kind
    "none" for ends on the polygon boundary (no balancing needed there)."""

    __slots__ = ()


def _on_edge(a: Point, b: Point, p: Point) -> bool:
    return orient(a, b, p) == 0 and dot(sub(p, a), sub(p, b)) <= 0


def _chain_devices(poly: LatticePolygon, u: Point, sigma_dir: Point):
    """Candidate chain+bridge devices at an adjoint-boundary end."""
    adjoint = adjoint_polygon(poly)
    at_u = bridges_at(poly, u)
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
            for br in at_u:
                bdir = seg_dir_from(br.segment, u)
                if abs(cross(e, bdir)) != 1:
                    continue
                c, beta = _solve_pair(e, bdir, neg(sigma_dir))
                g = WeightedSegmentGraph()
                if c:
                    for s in primitive_segments_on(u, omega):
                        g.add(s, c)
                if beta:
                    g.add(br.segment, beta)
                out.append(EndDevice("chain", g))
    return out


def cancelling_sweep(poly: LatticePolygon, anchors: tuple, u: Point, r: Point) -> RaySweep:
    """The ray sweep at ``anchors`` (kappa, kappa', orientation) seeded at u
    whose two legs cancel ``r`` there: its residual at u is -r.  The leg
    directions do not depend on the weights, so they are read off the sweep
    with weights (1, 1) and the weights solved for."""
    kappa, kappa_prime, orientation = anchors
    probe = build_ray_sweep(poly, kappa, kappa_prime, u, 1, 1, orientation)
    l1, l2 = seg_dir_from(probe.leg1, u), seg_dir_from(probe.leg2, u)
    m1, m2 = _solve_pair(l1, l2, neg(r))
    return build_ray_sweep(poly, kappa, kappa_prime, u, m1, m2, orientation)


def _cancelling_sweeps(poly: LatticePolygon, anchors, u: Point, r: Point):
    """``cancelling_sweep`` at each (kappa, kappa', orientation) of
    ``anchors`` in turn, skipping the anchors where it does not exist (a
    ``ValueError``); an ``AssertionError`` is a broken invariant and
    propagates."""
    for a in anchors:
        try:
            rs = cancelling_sweep(poly, a, u, r)
        except ValueError:
            continue
        yield rs


def _ray_devices(poly: LatticePolygon, u: Point, sigma_dir: Point):
    """Candidate ray-sweep devices at an adjoint-interior end."""
    adjoint = adjoint_polygon(poly)
    anchors = [
        (kappa, kappa_prime, orientation)
        for kappa in adjoint.vertices
        for kappa_prime in neighbors_on_boundary(adjoint, kappa)
        for orientation in ("k'k", "kk'")
    ]
    return [
        EndDevice("ray", rs.graph, rs)
        for rs in _cancelling_sweeps(poly, anchors, u, sigma_dir)
    ]


def end_devices(poly: LatticePolygon, u: Point, sigma_dir: Point):
    if poly.side(u) == 0:
        return [EndDevice("none", WeightedSegmentGraph())]
    adjoint = adjoint_polygon(poly)
    if adjoint.dimension == 2 and adjoint.side(u) == 1:
        return _ray_devices(poly, u, sigma_dir)
    return _chain_devices(poly, u, sigma_dir)


class _Tally:
    """The rejected candidates of one search (``noun``) counted by outcome,
    in the order of the checks, the last certification error, and the
    search's failed certification requests for ``certify_flexible``."""

    def __init__(self, noun: str, unit_weights: str, *earlier: str):
        self.noun, self.unit_weights, self.last_error = noun, unit_weights, None
        self.failed: dict[tuple, str] = {}
        self.counts = dict.fromkeys(
            (*earlier, unit_weights, "are unbalanced or have crossing loops", "fail certification"), 0
        )

    def __str__(self):
        why = ", ".join(f"{k} {outcome}" for outcome, k in self.counts.items() if k)
        return f"({sum(self.counts.values())} {self.noun}{': ' + why if why else ''})"


def _certified(graph, poly, unit, tally: _Tally, sweeps, zero=(), one=()):
    """The certificate of one candidate graph of a search, or None, counted
    in ``tally``, when a segment of ``unit`` lost weight one, the graph is
    unbalanced or has crossing loops, or ``certify_flexible`` (with the ray
    ``sweeps`` and the fan heights ``zero`` and ``one``) fails."""
    if any(graph.weight(s) != 1 for s in unit):
        outcome = tally.unit_weights
    elif check_balancing(graph, poly) or not graph.loops_pairwise_disjoint():
        outcome = "are unbalanced or have crossing loops"
    else:
        try:
            return certify_flexible(graph, poly, sweeps, zero, one, failed=tally.failed)
        except CertificationError as exc:
            tally.last_error = str(exc)  # not exc: its traceback would pin these frames in a cycle
            outcome = "fail certification"
    tally.counts[outcome] += 1
    return None


def device_pairs(poly: LatticePolygon, x: Point, w: Point, *, keep=None):
    """The certified graphs made of the weight-one chain [x, w] and one end
    device at each end, in search order: yields (device at x, device at w,
    graph, certificate).  Pairs that ``keep`` (if given) rejects are
    skipped, and the others go through ``_certified``; the generator
    returns the last certification error (or that no pair reached
    certification) and how many pairs were rejected for which reason."""
    pieces = primitive_segments_on(x, w)
    devices_w = end_devices(poly, w, primitive(sub(x, w)))
    tally = _Tally("pairs", "change the chain's weights", "filtered out")
    for dx in end_devices(poly, x, primitive(sub(w, x))):
        for dw in devices_w:
            if keep is not None and not keep(dx, dw):
                tally.counts["filtered out"] += 1
                continue
            graph = WeightedSegmentGraph({s: 1 for s in pieces}).union(dx.graph).union(dw.graph)
            ends = [p for dev in (dx, dw) if dev.kind == "chain" for s in dev.graph.entries for p in s]
            zero = [p for p in lattice_points_on_segment(x, w) + ends if poly.side(p) != 0]
            one = [p for p in dict.fromkeys(ends) if poly.side(p) == 0]
            sweeps = [dev.ray for dev in (dx, dw) if dev.ray is not None]
            cert = _certified(graph, poly, pieces, tally, sweeps, zero, one)
            if cert is not None:
                yield dx, dw, graph, cert
    return f"{tally.last_error or 'no end-device pair reached certification'} {tally}"


def build_interior_graph(poly: LatticePolygon, sigma: Segment) -> BuildResult:
    """Admissible graph containing a given primitive segment with weight one,
    balanced by end devices; the segment's twist is peeled off it once the
    device legs have facts.

    The configuration (the end devices) is the first pair ``device_pairs``
    finds.
    """
    sigma = seg(*sigma)
    v, w = sigma
    if poly.side(v) == 0 and poly.side(w) == 0:
        raise ValueError("both ends on the polygon boundary")
    try:
        dv, dw, graph, cert = next(device_pairs(poly, v, w))
    except StopIteration as done:
        raise CertificationError(
            f"no interior configuration for {sigma}: {done.value}"
        ) from None
    return BuildResult(graph, cert, sigma, 1, {"device_v": dv, "device_w": dw})


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
):
    """The balanced pairs deriving the twist of leg ``which`` (1: toward the
    leg target, 2: the first chain segment) of the sweep G at u, in search
    order: the degenerate sweep, weight one on that leg alone, united with
    each companion sweep at other anchors that ``_certified`` passes.
    ``notes["recurse"]`` is the sweep's next chain point when the pair holds
    the sweep's tail there (leg 2 of a sweep of more than one step), else
    None.  The generator returns why no other companion is left."""
    adjoint = adjoint_polygon(poly)
    m1, m2 = (1, 0) if which == 1 else (0, 1)
    main = build_ray_sweep(poly, kappa, kappa_prime, u, m1, m2, orientation)
    target = main.leg1 if which == 1 else main.leg2
    recurse = main.chain[1] if which == 2 and len(main.chain) > 2 else None
    pairs = dict.fromkeys([_pair_anchors(adjoint, kappa, kappa_prime, orientation)] + [
        (x, xp) for x in adjoint.vertices for xp in neighbors_on_boundary(adjoint, x)
    ])
    anchors = [(*pair, co) for pair in pairs if pair != (kappa, kappa_prime)
               for co in ("kk'", "k'k")]
    tally = _Tally("companions", "change the target's weight")
    for companion in _cancelling_sweeps(poly, anchors, u, seg_dir_from(target, u)):
        graph = main.graph.union(companion.graph)
        cert = _certified(graph, poly, [target], tally, [main, companion])
        if cert is not None:
            yield BuildResult(graph, cert, target, 1, {"recurse": recurse, "companion": companion})
    return (f"no companion for leg {which} of sweep at {u}: "
            f"{tally.last_error or 'none reached certification'} {tally}")


# ---------------------------------------------------------------------------
# staged fan certification (for sweeps whose line arrangement degenerates)
# ---------------------------------------------------------------------------


def fan_plan(sweeps, zero_points=(), one_points=()) -> tuple:
    """What the staged fan recipe reads from ray sweeps plus flat pieces, as
    a hashable value: the region heights (the chains and ``zero_points`` at
    0, the leg targets and ``one_points`` at 1) and the two batches of
    boundary anchors."""
    heights = dict.fromkeys(zero_points, 0)
    for rs in sweeps:
        heights.update(dict.fromkeys(rs.chain, 0))
    heights.update(dict.fromkeys([rs.leg_target for rs in sweeps] + list(one_points), 1))
    return (
        tuple(sorted(heights.items())),
        tuple(sorted({rs.alpha for rs in sweeps})),
        tuple(sorted({rs.alpha_prime for rs in sweeps})),
    )


def certify_flexible(
    graph: WeightedSegmentGraph,
    poly: LatticePolygon,
    sweeps=(),
    zero_points=(),
    one_points=(),
    allow_unbalanced_at=frozenset(),
    failed=None,
) -> AdmissibilityCertificate:
    """Try the line-arrangement recipe of ``certify_graph``, then its staged
    fan recipe.  Only a ``CertificationError`` moves on to the next recipe:
    an ``AssertionError`` is a broken invariant and propagates.

    ``failed``, one search's own dict, maps each request (graph entries,
    exemptions, fan plan) that failed in that search to its message; such a
    request fails again with that message and is not certified again.
    Certification is deterministic, so that is the error it would raise."""
    failed = {} if failed is None else failed

    def attempt(fans=None):
        key = (frozenset(graph.entries.items()), frozenset(allow_unbalanced_at), fans)
        if key in failed:
            raise CertificationError(failed[key])
        try:
            return certify_graph(graph, poly, allow_unbalanced_at, fans)
        except CertificationError as exc:
            failed[key] = str(exc)
            raise

    try:
        return attempt()
    except CertificationError as first:
        if not sweeps and not one_points:
            raise
        try:
            return attempt(fan_plan(sweeps, zero_points, one_points))
        except CertificationError:
            raise first
