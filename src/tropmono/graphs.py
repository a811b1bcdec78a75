"""Weighted segment graphs: balancing, bridges, snakes and admissibility
certificates.

A weighted graph is a finite set of primitive integer segments inside the
polygon with nonzero integer weights.  It is balanced when at every vertex
interior to the polygon the weighted outward primitive directions cancel,
and admissible when on top of that it embeds in a unimodular regular
subdivision; admissibility is certified by an explicit height witness whose
replay is machine-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import (
    LatticePolygon,
    Point,
    Segment,
    orient,
    seg,
    seg_dir_from,
    segments_cross,
)
from .polygons import adjoint_polygon, normalize_at_vertex
from .subdivision import (
    HeightFunction,
    RegularSubdivision,
    extend_subdivision,
    regularity_heights_for,
    subdivision_from_heights,
    trivial_subdivision,
    unimodular_refinement,
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

    def valency(self, v: Point) -> int:
        return len(self.edges_at(v))

    def copy(self) -> "WeightedSegmentGraph":
        return WeightedSegmentGraph(self.entries)

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
        g = WeightedSegmentGraph()
        for a, b, m in data["edges"]:
            g.add(seg(tuple(a), tuple(b)), m)
        return g


def check_balancing(graph: WeightedSegmentGraph, poly: LatticePolygon) -> set[Point]:
    """Vertices interior to the polygon where the weighted outward primitive
    directions do not cancel."""
    bad = set()
    for v in graph.vertices():
        if poly.side(v) != 1:
            continue
        acc = (0, 0)
        for s in graph.edges_at(v):
            d = seg_dir_from(s, v)
            m = graph.entries[s]
            acc = (acc[0] + m * d[0], acc[1] + m * d[1])
        if acc != (0, 0):
            bad.add(v)
    return bad


# ---------------------------------------------------------------------------
# Bridges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bridge:
    segment: Segment
    interior_end: Point  # on the boundary of the adjoint polygon
    boundary_end: Point  # on the boundary of the polygon

    def to_json(self):
        return {
            "segment": [list(self.segment[0]), list(self.segment[1])],
            "interior_end": list(self.interior_end),
            "boundary_end": list(self.boundary_end),
        }


def is_bridge(poly: LatticePolygon, adjoint: LatticePolygon, s: Segment) -> Bridge | None:
    """Classify a primitive segment as a bridge: one end on the polygon
    boundary, the other on the adjoint boundary, avoiding the open adjoint."""
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


def bridges(poly: LatticePolygon) -> list[Bridge]:
    """All bridges of the polygon, in lexicographic segment order."""
    adjoint = adjoint_polygon(poly)
    if adjoint is None:
        return []
    adj_boundary = adjoint.boundary_points() if adjoint.dimension == 2 else adjoint.lattice_points()
    out = []
    seen = set()
    for p in poly.boundary_points():
        for q in adj_boundary:
            try:
                s = seg(p, q)
            except ValueError:
                continue
            if s in seen:
                continue
            seen.add(s)
            b = is_bridge(poly, adjoint, s)
            if b is not None:
                out.append(b)
    return sorted(out, key=lambda b: b.segment)


def bridges_at(poly: LatticePolygon, v: Point) -> list[Bridge]:
    return [b for b in bridges(poly) if b.interior_end == v]


# ---------------------------------------------------------------------------
# Admissibility certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityCertificate:
    """Witness that a balanced graph embeds in a unimodular regular
    subdivision: the height function plus the subdivision it induces.

    ``unbalanced_ok`` lists vertices exempt from the balancing check; the
    one-sided ray-sweep graphs are unbalanced at their seed point by
    construction and only their balanced unions enter the deduction rules."""

    graph: WeightedSegmentGraph
    polygon: LatticePolygon
    witness: HeightFunction
    subdivision: RegularSubdivision
    unbalanced_ok: tuple[Point, ...] = ()

    def verify(self) -> bool:
        replay = subdivision_from_heights(self.polygon, self.witness)
        if set(replay.cells) != set(self.subdivision.cells):
            return False
        if not replay.is_unimodular():
            return False
        edges = replay.edges()
        if not all(s in edges for s in self.graph.entries):
            return False
        if check_balancing(self.graph, self.polygon) - set(self.unbalanced_ok):
            return False
        return True

    def to_json(self) -> dict:
        out = {
            "graph": self.graph.to_json(),
            "polygon": self.polygon.to_json(),
            "heights": self.witness.to_json(),
            "cells": [c.to_json() for c in self.subdivision.cells],
        }
        if self.unbalanced_ok:
            out["unbalanced_ok"] = [list(p) for p in self.unbalanced_ok]
        return out

    @staticmethod
    def from_json(data) -> "AdmissibilityCertificate":
        poly = LatticePolygon.from_json(data["polygon"])
        graph = WeightedSegmentGraph.from_json(data["graph"])
        hf = HeightFunction.from_json(data["heights"])
        cells = tuple(LatticePolygon.from_json(c) for c in data["cells"])
        sub_div = subdivision_from_heights(poly, hf)
        if set(sub_div.cells) != set(cells):
            raise ValueError("certificate cells do not replay")
        allow = tuple(tuple(p) for p in data.get("unbalanced_ok", []))
        return AdmissibilityCertificate(graph, poly, hf, sub_div, allow)


@dataclass(frozen=True)
class Hint:
    """A supporting subdivision of a subregion containing the graph.

    Either explicit heights (their induced subdivision is used directly) or
    a prescribed cell complex (the exact LP supplies a witness), or both
    (the heights must replay to the cells).  The region subdivision is then
    extended to the full polygon and refined to a unimodular one, which
    never destroys primitive edges already present."""

    region: LatticePolygon
    cells: tuple[LatticePolygon, ...] | None = None
    heights: HeightFunction | None = None


class CertificationError(ValueError):
    pass


def certify_admissible(
    graph: WeightedSegmentGraph,
    poly: LatticePolygon,
    hint: Hint | None = None,
    allow_unbalanced_at: frozenset[Point] = frozenset(),
) -> AdmissibilityCertificate:
    """Produce a machine-checked admissibility certificate for a balanced
    weighted graph, or raise CertificationError.

    The checker is sound but not complete: without a usable hint it only
    tries the canonical refinement of the trivial subdivision.
    """
    bad = check_balancing(graph, poly) - set(allow_unbalanced_at)
    if bad:
        raise CertificationError(f"graph not balanced at {sorted(bad)}")
    for s in graph.entries:
        if not poly.contains_segment(s):
            raise CertificationError(f"edge {s} leaves the polygon")

    if hint is None:
        refined = unimodular_refinement(trivial_subdivision(poly))
        if refined.edges().issuperset(graph.entries):
            return AdmissibilityCertificate(
                graph, poly, refined.witness, refined, tuple(sorted(allow_unbalanced_at))
            )
        raise CertificationError("no hint and the canonical refinement misses edges")

    if hint.heights is not None:
        region_sub = subdivision_from_heights(hint.region, hint.heights)
        if hint.cells and set(region_sub.cells) != set(hint.cells):
            raise CertificationError("hint heights do not induce the hint cells")
    elif hint.cells:
        needed = [s for s in graph.entries if hint.region.contains_segment(s)]
        hf = regularity_heights_for(hint.region, hint.cells, required_edges=needed)
        if hf is None:
            raise CertificationError("hint complex is not regular")
        region_sub = subdivision_from_heights(hint.region, hf)
    else:
        raise CertificationError("empty hint")

    region_edges = region_sub.edges()
    missing = [s for s in graph.entries if s not in region_edges]
    if missing:
        raise CertificationError(f"hint does not support edges {missing}")

    extended = extend_subdivision(poly, region_sub)
    refined = unimodular_refinement(extended)
    cert = AdmissibilityCertificate(
        graph, poly, refined.witness, refined, tuple(sorted(allow_unbalanced_at))
    )
    refined_edges = refined.edges()
    lost = [s for s in graph.entries if s not in refined_edges]
    if lost:
        raise CertificationError(f"refinement lost edges {lost}")
    return cert


# ---------------------------------------------------------------------------
# Snakes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Snake:
    """A chain of primitive segments through all adjoint lattice points plus
    one bridge at the second chain point; its twists form a Humphries-style
    generating family."""

    chain: tuple[Segment, ...]  # sigma_1 .. sigma_g
    points: tuple[Point, ...]  # v_0 .. v_g
    bridge: Segment
    frame: object  # UnimodularMap used to normalize (kept for reports)

    def validate(self, poly: LatticePolygon) -> None:
        adjoint = adjoint_polygon(poly)
        assert adjoint is not None
        v = self.points
        g = len(self.chain)
        assert len(v) == g + 1
        assert poly.side(v[0]) == 0, "v0 must be on the polygon boundary"
        for p in v[1:]:
            assert adjoint.side(p) >= 0, "chain points must be in the adjoint"
        assert len(set(v)) == len(v)
        for i, s in enumerate(self.chain):
            assert set(s) == {v[i], v[i + 1]}
        anchor = v[2] if g >= 2 else v[1]
        assert anchor in self.bridge
        b = is_bridge(poly, adjoint, self.bridge)
        assert b is not None and b.interior_end == anchor, "snake bridge invalid"
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
        all_bridges = bridges(poly)
        for b in all_bridges:
            if b.interior_end != kappa:
                continue
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
            sn = Snake(chain, (v0, kappa), other.segment, None)
            sn.validate(poly)
            return sn
        raise ValueError("no bridge for the elliptic snake")
    if adjoint.dimension == 1:
        raise ValueError("hyperelliptic snakes are out of scope")

    # normalize at a vertex of the adjoint, colex order downstream
    kappa = min(adjoint.vertices, key=lambda p: (p[1], p[0]))
    frame, image = normalize_at_vertex(poly, kappa)
    adj_img = adjoint_polygon(image)
    pts = sorted(adj_img.lattice_points(), key=lambda p: (p[1], p[0]))
    assert pts[0] == (0, 0) and pts[1] == (1, 0), "colex order must start along the axis"
    chain_pts = [(-1, 0)] + pts
    chain = tuple(seg(chain_pts[i], chain_pts[i + 1]) for i in range(len(chain_pts) - 1))
    bridge = seg((0, -1), (1, 0))
    inv = frame.inverse()
    sn = Snake(
        tuple(inv.apply_seg(s) for s in chain),
        tuple(inv.apply(p) for p in chain_pts),
        inv.apply_seg(bridge),
        frame,
    )
    sn.validate(poly)
    return sn
