"""Weighted segment graphs: balancing, bridges, snakes and admissibility
certificates.

A weighted graph is a finite set of primitive integer segments inside the
polygon with nonzero integer weights.  It is balanced when at every vertex
interior to the polygon the weighted outward primitive directions cancel,
and admissible when on top of that it embeds in a unimodular regular
subdivision; admissibility is certified by an explicit height witness and
the cells it induces.  ``certify_admissible`` builds every certificate from
heights on a region of the polygon, and ``AdmissibilityCertificate.verify``
is the one check of one (the ``admissible`` rule runs it once per node); it
decides whether the cells come from the heights with ``verify_subdivision``.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .geometry import (
    LatticePolygon,
    Point,
    Segment,
    orient,
    point_from_json,
    seg,
    seg_dir_from,
    segments_cross,
)
from .errors import CertificationError
from .polygons import adjoint_polygon, normalize_at_vertex
from .subdivision import (
    HeightFunction,
    extend_subdivision,
    subdivision_from_heights,
    unimodular_refinement,
    verify_subdivision,
)


class WeightedSegmentGraph:
    """Map from primitive integer segments to nonzero integer weights."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries: dict[Segment, int] = {}
        if entries:
            for s, m in dict(entries).items():
                self.add(s, m)

    def add(self, s: Segment, m: int) -> None:
        s = seg(*s)
        new = self.entries.get(s, 0) + int(m)
        if new:
            self.entries[s] = new
        else:
            self.entries.pop(s, None)

    def union(self, other: "WeightedSegmentGraph") -> "WeightedSegmentGraph":
        out = WeightedSegmentGraph(self.entries)
        for s, m in other.entries.items():
            out.add(s, m)
        return out

    def scaled(self, k: int) -> "WeightedSegmentGraph":
        if k == 0:
            return WeightedSegmentGraph()
        return WeightedSegmentGraph({s: k * m for s, m in self.entries.items()})

    def segments(self) -> list[Segment]:
        return sorted(self.entries)

    def weight(self, s: Segment) -> int:
        return self.entries.get(seg(*s), 0)

    def vertices(self) -> list[Point]:
        out = set()
        for a, b in self.entries:
            out.add(a)
            out.add(b)
        return sorted(out)

    def edges_at(self, v: Point) -> list[Segment]:
        return sorted(s for s in self.entries if v in s)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, WeightedSegmentGraph) and self.entries == other.entries

    def __repr__(self):
        return f"WeightedSegmentGraph({sorted(self.entries.items())})"

    def loops_pairwise_disjoint(self) -> bool:
        """Whether the segments meet at most in shared endpoints, so the
        corresponding loops are pairwise disjoint and their twists commute."""
        segs = self.segments()
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if segments_cross(segs[i], segs[j]):
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "edges": [[list(s[0]), list(s[1]), m] for s, m in sorted(self.entries.items())]
        }

    @staticmethod
    def from_json(data) -> "WeightedSegmentGraph":
        """Decode ``{"edges": [[[x, y], [x, y], weight], ...]}``: lattice
        points and integer weights; ValueError otherwise."""
        g = WeightedSegmentGraph()
        for edge in data["edges"]:
            if not (isinstance(edge, list) and len(edge) == 3 and type(edge[2]) is int):
                raise ValueError(f"expected an edge [[x, y], [x, y], weight], got {edge!r}")
            g.add(seg(point_from_json(edge[0]), point_from_json(edge[1])), edge[2])
        return g


def residual(graph: WeightedSegmentGraph, v: Point) -> Point:
    """The sum of the weighted outward primitive directions of the edges at
    v; the graph is balanced at v when it is (0, 0)."""
    x = y = 0
    for s, m in graph.entries.items():
        if v in s:
            d = seg_dir_from(s, v)
            x += m * d[0]
            y += m * d[1]
    return x, y


def check_balancing(graph: WeightedSegmentGraph, poly: LatticePolygon) -> set[Point]:
    """Vertices interior to the polygon where the graph is not balanced."""
    return {v for v in graph.vertices() if poly.side(v) == 1 and residual(graph, v) != (0, 0)}


# ---------------------------------------------------------------------------
# Bridges
# ---------------------------------------------------------------------------


class Bridge(namedtuple("Bridge", "segment interior_end boundary_end")):
    """A bridge: its segment, the end on the boundary of the adjoint polygon
    and the end on the boundary of the polygon."""

    __slots__ = ()


def is_bridge(poly: LatticePolygon, s: Segment) -> Bridge | None:
    """Classify a primitive segment as a bridge: one end on the polygon
    boundary, the other on the adjoint boundary, avoiding the open adjoint.
    A polygon of genus zero has no bridge."""
    adjoint = adjoint_polygon(poly)
    if adjoint is None:
        return None
    ends = []
    for v, w in ((s[0], s[1]), (s[1], s[0])):
        if poly.side(v) != 0:
            continue
        if adjoint.dimension == 2:
            if adjoint.side(w) != 0:
                continue
        else:
            if adjoint.side(w) < 0:
                continue
        ends.append((v, w))
    for boundary_end, interior_end in ends:
        if adjoint.dimension < 2:
            return Bridge(s, interior_end, boundary_end)
        for a, b in adjoint.edges():
            if orient(a, b, interior_end) == 0 and orient(a, b, boundary_end) <= 0:
                return Bridge(s, interior_end, boundary_end)
    return None


def bridges_at(poly: LatticePolygon, v: Point) -> list[Bridge]:
    """The bridges with interior end v, in lexicographic segment order: a
    bridge joins the polygon's boundary to the adjoint's, so only the
    segments from v to the polygon's boundary points are classified."""
    out = []
    for p in poly.boundary_points():
        if gcd(p[0] - v[0], p[1] - v[1]) == 1:
            b = is_bridge(poly, seg(p, v))
            if b is not None and b.interior_end == v:
                out.append(b)
    return sorted(out, key=lambda b: b.segment)


# ---------------------------------------------------------------------------
# Admissibility certificates
# ---------------------------------------------------------------------------


class AdmissibilityCertificate:
    """Witness that a balanced graph embeds in a unimodular regular
    subdivision: the height function and the cells it induces.

    ``unbalanced_ok`` lists vertices exempt from the balancing check; the
    one-sided ray-sweep graphs are unbalanced at their seed point by
    construction and only their balanced unions enter the deduction rules.

    ``verified_edges`` is the edge set of the subdivision the witness and
    cells form, when ``certify_admissible`` has just verified them with
    ``verify_subdivision``; it is never encoded, so a decoded certificate
    has None there, and equality and ``repr`` skip it."""

    _COMPARED = ("graph", "polygon", "witness", "cells", "unbalanced_ok")
    __slots__ = (*_COMPARED, "verified_edges")

    def __init__(self, graph, polygon, witness, cells, unbalanced_ok=(), verified_edges=None):
        self.graph, self.polygon, self.witness, self.cells = graph, polygon, witness, cells
        self.unbalanced_ok, self.verified_edges = unbalanced_ok, verified_edges

    def __eq__(self, other):
        return isinstance(other, AdmissibilityCertificate) and all(
            getattr(self, k) == getattr(other, k) for k in self._COMPARED)

    __hash__ = None  # the graph is mutable

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._COMPARED)
        return f"AdmissibilityCertificate({fields})"

    def verify(self, checked: dict | None = None) -> bool:
        """The one check of a certificate: the witness induces exactly
        ``cells`` (by verify_subdivision), which are unimodular and contain
        every graph edge, and the graph is balanced outside ``unbalanced_ok``.
        Returns False or raises ValueError, so replay of any decoded
        certificate stays total.

        ``checked`` memoizes the witness part across certificates: it maps
        (polygon, witness, cells) to the edges of the unimodular subdivision
        they form, or to None; the graph is checked against them each time.
        A key it lacks is taken from ``verified_edges`` when that is set."""
        key = (self.polygon, self.witness, self.cells)
        if checked is None:
            checked = {}
        elif key not in checked and self.verified_edges is not None:
            checked[key] = self.verified_edges
        edges = checked.get(key, False)
        if edges is False:
            sub_div = verify_subdivision(self.polygon, self.cells, self.witness)
            edges = checked[key] = sub_div.edges() if sub_div is not None else None
        if edges is None or not all(s in edges for s in self.graph.entries):
            return False
        if check_balancing(self.graph, self.polygon) - set(self.unbalanced_ok):
            return False
        return True

    def to_json(self) -> dict:
        out = {
            "graph": self.graph.to_json(),
            "polygon": self.polygon.to_json(),
            "heights": self.witness.to_json(),
            "cells": [c.to_json() for c in self.cells],
        }
        if self.unbalanced_ok:
            out["unbalanced_ok"] = [list(p) for p in self.unbalanced_ok]
        return out

    @staticmethod
    def from_json(data) -> "AdmissibilityCertificate":
        """Decode only; ``verify`` does the checking."""
        poly = LatticePolygon.from_json(data["polygon"])
        graph = WeightedSegmentGraph.from_json(data["graph"])
        hf = HeightFunction.from_json(data["heights"])
        cells = tuple(LatticePolygon.from_json(c) for c in data["cells"])
        allow = tuple(point_from_json(p) for p in data.get("unbalanced_ok", []))
        return AdmissibilityCertificate(graph, poly, hf, cells, allow)


def certify_admissible(
    graph: WeightedSegmentGraph,
    poly: LatticePolygon,
    region: LatticePolygon,
    heights,
    allow_unbalanced_at: frozenset[Point] = frozenset(),
    stages=(),
) -> AdmissibilityCertificate:
    """Produce an admissibility certificate for a graph that is balanced
    (outside ``allow_unbalanced_at``) and lies in the polygon, or raise
    CertificationError; the ``admissible`` rule checks it.

    ``heights`` (on lattice points of the two-dimensional polygon
    ``region``) induce a regular subdivision of ``region``, which must carry
    every graph edge inside ``region``.  It is extended through the polygons
    ``stages`` to ``poly`` and refined to a unimodular one, which must keep
    every graph edge.

    When the refinement pulled, it ended by verifying its witness with
    ``verify_subdivision``; its edges then go into the certificate's
    ``verified_edges``, so the ``admissible`` rule of the same derivation
    does not verify the witness again.  A subdivision that was unimodular
    already has not been verified and leaves ``verified_edges`` None."""
    bad = check_balancing(graph, poly) - set(allow_unbalanced_at)
    if bad:
        raise CertificationError(f"graph not balanced at {sorted(bad)}")
    for s in graph.entries:
        if not poly.contains_segment(s):
            raise CertificationError(f"edge {s} leaves the polygon")
    if region.dimension != 2:
        raise CertificationError("height region is degenerate")
    sub_div = subdivision_from_heights(region, heights)
    edges = sub_div.edges()
    missing = [s for s in graph.entries if s not in edges and region.contains_segment(s)]
    if missing:
        raise CertificationError(f"heights miss edges {missing}")
    for stage in (*stages, poly):
        sub_div = extend_subdivision(stage, sub_div)
    refined = unimodular_refinement(sub_div)
    refined_edges = refined.edges()
    lost = [s for s in graph.entries if s not in refined_edges]
    if lost:
        raise CertificationError(f"refinement lost edges {lost}")
    return AdmissibilityCertificate(
        graph, poly, refined.witness, refined.cells, tuple(sorted(allow_unbalanced_at)),
        refined_edges if refined is not sub_div else None,
    )


# ---------------------------------------------------------------------------
# Snakes
# ---------------------------------------------------------------------------


def _ensure(ok, message: str) -> None:
    """A snake invariant; raised explicitly, so python -O keeps it."""
    if not ok:
        raise AssertionError(message)


class Snake(namedtuple("Snake", "chain points bridge")):
    """A chain of primitive segments sigma_1 .. sigma_g through the points
    v_0 .. v_g, all adjoint lattice points but v_0, plus one bridge at the
    second chain point; its twists form a Humphries-style generating
    family."""

    __slots__ = ()

    def validate(self, poly: LatticePolygon) -> None:
        adjoint = adjoint_polygon(poly)
        _ensure(adjoint is not None, "genus zero polygon has no snake")
        v = self.points
        g = len(self.chain)
        _ensure(len(v) == g + 1, "a snake has one more point than chain segments")
        _ensure(poly.side(v[0]) == 0, "v0 must be on the polygon boundary")
        for p in v[1:]:
            _ensure(adjoint.side(p) >= 0, "chain points must be in the adjoint")
        _ensure(len(set(v)) == len(v), "snake points repeat")
        for i, s in enumerate(self.chain):
            _ensure(set(s) == {v[i], v[i + 1]}, "chain segments must join consecutive points")
        anchor = v[2] if g >= 2 else v[1]
        _ensure(anchor in self.bridge, "snake bridge misses its anchor")
        b = is_bridge(poly, self.bridge)
        _ensure(b is not None and b.interior_end == anchor, "snake bridge invalid")
        all_segs = list(self.chain) + [self.bridge]
        for i in range(len(all_segs)):
            for j in range(i + 1, len(all_segs)):
                if segments_cross(all_segs[i], all_segs[j]):
                    raise AssertionError(
                        f"snake segments {all_segs[i]} and {all_segs[j]} cross"
                    )

    def to_json(self) -> dict:
        return {
            "points": [list(p) for p in self.points],
            "chain": [[list(s[0]), list(s[1])] for s in self.chain],
            "bridge": [list(self.bridge[0]), list(self.bridge[1])],
        }


def build_snake(poly: LatticePolygon) -> Snake:
    """Snake through the adjoint lattice points in colexicographic order
    (after normalizing at the colex-least adjoint vertex)."""
    adjoint = adjoint_polygon(poly)
    if adjoint is None:
        raise ValueError("genus zero polygon has no snake")
    if adjoint.dimension == 0:
        kappa = adjoint.vertices[0]
        # genus one: the chain is the single bridge-segment into kappa and the
        # extra bridge attaches at v1 = kappa itself.
        all_bridges = bridges_at(poly, kappa)
        for b in all_bridges:
            v0 = b.boundary_end
            chain = (seg(v0, kappa),)
            other = next(
                (
                    bb
                    for bb in all_bridges
                    if bb.segment != b.segment
                    and not segments_cross(bb.segment, b.segment)
                ),
                None,
            )
            if other is None:
                continue
            sn = Snake(chain, (v0, kappa), other.segment)
            sn.validate(poly)
            return sn
        raise ValueError("no bridge for the elliptic snake")
    if adjoint.dimension == 1:
        raise ValueError("hyperelliptic snakes are out of scope")

    # normalize at a vertex of the adjoint, colex order downstream
    kappa = min(adjoint.vertices, key=lambda p: (p[1], p[0]))
    frame, _, adj_img = normalize_at_vertex(poly, kappa)
    pts = sorted(adj_img.lattice_points(), key=lambda p: (p[1], p[0]))
    _ensure(pts[0] == (0, 0) and pts[1] == (1, 0), "colex order must start along the axis")
    chain_pts = [(-1, 0)] + pts
    chain = tuple(seg(chain_pts[i], chain_pts[i + 1]) for i in range(len(chain_pts) - 1))
    bridge = seg((0, -1), (1, 0))
    inv = frame.inverse()
    sn = Snake(
        tuple(inv.apply_seg(s) for s in chain),
        tuple(inv.apply(p) for p in chain_pts),
        inv.apply_seg(bridge),
    )
    sn.validate(poly)
    return sn
