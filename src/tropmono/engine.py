"""Deduction calculus over Dehn-twist facts with replayable certificates.

Facts state that a power of the twist along a distinguished loop (or a
weighted product of such twists) lies in the image of the geometric or the
algebraic monodromy.  The axioms are the A-cycle twists over interior
lattice points and the admissible-graph products (whose realization theorem
is trusted; everything downstream is machine-checked combinatorics).  The
derivation is recorded as a DAG whose nodes replay independently: each
rule is written once, in the kernel ``apply``, which both the Engine and
``replay_certificate`` run.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import partial
from math import gcd

from .geometry import (
    LatticePolygon,
    Point,
    Segment,
    add,
    cross,
    lattice_points_on_segment,
    orient,
    point_from_json,
    primitive,
    primitive_segments_on,
    seg,
    smul,
    sub,
)
from .polygons import (
    adjoint_boundary_cycle,
    adjoint_edges_at,
    analyze,
    divisible_points,
    is_smooth,
    neighbors_on_boundary,
)
from .graphs import (
    AdmissibilityCertificate,
    WeightedSegmentGraph,
    build_snake,
    check_balancing,
    is_bridge,
    residual,
)
from .errors import CertificationError, DerivationError, ReplayError, SmoothnessError
from .intlinalg import matmul

GEOMETRIC = "geometric"
HOMOLOGICAL = "homological"


def loop_key(poly: LatticePolygon, obj) -> tuple:
    """Isotopy class key: A-cycles by their point, bridges by their interior
    end, all other segments by themselves.  A ``homology.Loop`` is told
    from a segment by its ``kind``, so homology need not be loaded."""
    kind = getattr(obj, "kind", None)
    if kind is not None:
        if kind == "acycle":
            return ("acycle", obj.v)
        obj = obj.segment
    s = seg(*obj)
    b = is_bridge(poly, s)
    if b is not None:
        return ("bridge", b.interior_end)
    return ("seg", s)


def key_to_json(key):
    if key[0] == "acycle" or key[0] == "bridge":
        return [key[0], list(key[1])]
    return ["seg", [list(key[1][0]), list(key[1][1])]]


def key_from_json(data):
    if data[0] in ("acycle", "bridge"):
        return (data[0], tuple(data[1]))
    return ("seg", (tuple(data[1][0]), tuple(data[1][1])))


class Node(namedtuple("Node", "id rule params premises conclusion")):
    __slots__ = ()

    def to_json(self):
        return {
            "id": self.id,
            "rule": self.rule,
            "params": self.params,
            "premises": list(self.premises),
            "conclusion": self.conclusion,
        }


def single(flavor, key, exponent) -> dict:
    return {
        "type": "single",
        "flavor": flavor,
        "key": key_to_json(key),
        "exponent": int(exponent),
    }


def composite(flavor, graph: WeightedSegmentGraph) -> dict:
    return {
        "type": "composite",
        "flavor": flavor,
        "edges": [[list(s[0]), list(s[1]), m] for s, m in sorted(graph.entries.items())],
    }


def graph_of(conclusion) -> WeightedSegmentGraph:
    g = WeightedSegmentGraph()
    for a, b, m in conclusion["edges"]:
        g.add((tuple(a), tuple(b)), m)
    return g


# ---------------------------------------------------------------------------
# the rule kernel, shared by derivation and replay
# ---------------------------------------------------------------------------


class RuleContext:
    """What the rules read besides their params and premises: the polygon
    (which keeps its adjoint), loop keys (memoized: at most one per loop or
    segment of the polygon) and a surface model built on first use.  It
    keeps no witness: the ``admissible`` rule checks each certificate on its
    own, and in a derivation the refinement's final check of a witness
    (``verified_edges``) counts as the rule's."""

    def __init__(self, poly: LatticePolygon):
        self.poly = poly
        self._surface = None
        self._keys: dict = {}

    def key_of(self, obj) -> tuple:
        key = self._keys.get(obj)
        if key is None:
            key = self._keys[obj] = loop_key(self.poly, obj)
        return key

    @property
    def surface(self):
        """The ``homology.SurfaceModel`` of the polygon; the homology layer
        is loaded here, by the one rule that reads it."""
        if self._surface is None:
            from .homology import SurfaceModel

            self._surface = SurfaceModel(self.poly)
        return self._surface


def _seg_json(s: Segment) -> list:
    return [list(s[0]), list(s[1])]


def _decode_segment(x) -> Segment:
    if not (isinstance(x, list) and len(x) == 2):
        raise ValueError("expected a segment [[x, y], [x, y]]")
    return seg(point_from_json(x[0]), point_from_json(x[1]))


def _decode_int(x) -> int:
    if type(x) is not int:
        raise ValueError("expected an integer")
    return x


# param kind -> (to JSON, from JSON); the kernel sees the decoded values.
# from_json is looked up per call, so a rebound class attribute is honoured.
CODECS = {
    "point": (list, point_from_json),
    "segment": (_seg_json, _decode_segment),
    "int": (int, _decode_int),
    "certificate": (
        AdmissibilityCertificate.to_json,
        lambda data: AdmissibilityCertificate.from_json(data),
    ),
}

# rule -> (function, number of premises, param name -> codec kind)
RULES: dict[str, tuple] = {}


def _rule(name: str, arity: int, **params: str):
    def register(fn):
        RULES[name] = (fn, arity, params)
        return fn

    return register


def _check(ok, message: str) -> None:
    """A rule precondition; ``apply`` turns its ValueError into a
    DerivationError that names the rule."""
    if not ok:
        raise ValueError(message)


def apply(ctx: RuleContext, rule: str, params: dict, premises: list[dict]) -> dict:
    """The conclusion of one rule application from decoded params and the
    premises' conclusions; any failed precondition raises
    DerivationError(rule, message)."""
    if rule not in RULES:
        raise DerivationError(rule, "unknown rule")
    fn, arity, _ = RULES[rule]
    if len(premises) != arity:
        raise DerivationError(rule, f"takes {arity} premises, got {len(premises)}")
    try:
        return fn(ctx, params, *premises)
    except ValueError as exc:
        raise DerivationError(rule, str(exc)) from None


def _composite(c) -> WeightedSegmentGraph:
    _check(c["type"] == "composite", "premise is not a composite fact")
    return graph_of(c)


def _single_of(c, flavor, key) -> int:
    """Exponent of a single-fact premise, which must state the given loop."""
    _check(
        c["type"] == "single" and c["flavor"] == flavor and key_from_json(c["key"]) == key,
        f"premise is not a single {flavor} fact for {key}",
    )
    return c["exponent"]


@_rule("acycle", 0, v="point")
def _acycle(ctx, p):
    """R1: the twist along the A-cycle over an interior lattice point."""
    _check(ctx.poly.side(p["v"]) == 1, f"{p['v']} is not interior")
    return single(GEOMETRIC, ("acycle", p["v"]), 1)


@_rule("admissible", 0, certificate="certificate")
def _admissible(ctx, p):
    """R2: the twist product of an admissible weighted graph."""
    cert = p["certificate"]
    _check(cert.polygon == ctx.poly, "certificate polygon mismatch")
    _check(not cert.unbalanced_ok, "graph not balanced everywhere")
    _check(cert.verify(), "certificate failed verification")
    _check(cert.graph.loops_pairwise_disjoint(), "graph loops are not disjoint")
    return composite(GEOMETRIC, cert.graph)


@_rule("project", 1)
def _project(ctx, p, c):
    _check(c["flavor"] == GEOMETRIC, "projection of a non-geometric fact")
    return {**c, "flavor": HOMOLOGICAL}


@_rule("absorb", 2, segment="segment", times="int")
def _absorb(ctx, p, comp, fact):
    """R2b: cancel a known single fact against an edge of a composite."""
    g = _composite(comp)
    s = p["segment"]
    exponent = _single_of(fact, comp["flavor"], ctx.key_of(s))
    w = g.weight(s)
    _check(w != 0 and w == p["times"] * exponent,
           f"weight {w} of {s} is not {p['times']} times {exponent}")
    g.add(s, -w)
    return composite(comp["flavor"], g)


def _lone_edge(ctx, p, comp, fact) -> tuple[WeightedSegmentGraph, Segment]:
    """R3 precondition: the composite has a single edge at the interior
    vertex, of weight +-1, and the A-cycle there has exponent one."""
    vertex = p["vertex"]
    g = _composite(comp)
    _check(ctx.poly.side(vertex) == 1, f"{vertex} not interior")
    _check(_single_of(fact, comp["flavor"], ("acycle", vertex)) == 1,
           "A-cycle fact must have exponent 1")
    at = g.edges_at(vertex)
    _check(len(at) == 1, f"valency {len(at)} at {vertex}")
    _check(abs(g.weight(at[0])) == 1, f"weight {g.weight(at[0])} at {vertex}")
    return g, at[0]


@_rule("chase", 2, vertex="point")
def _chase(ctx, p, comp, fact):
    """R3: the twist of the lone edge at the vertex."""
    _, sigma = _lone_edge(ctx, p, comp, fact)
    return single(comp["flavor"], ctx.key_of(sigma), 1)


@_rule("chase_remainder", 2, vertex="point")
def _chase_remainder(ctx, p, comp, fact):
    """R3: the composite without the lone edge at the vertex."""
    g, sigma = _lone_edge(ctx, p, comp, fact)
    g.add(sigma, -g.weight(sigma))
    return composite(comp["flavor"], g)


@_rule("gcd", 2)
def _gcd(ctx, p, f1, f2):
    """Two powers of one twist give the power by the gcd of the exponents."""
    _check(f1["type"] == "single", "premise is not a single fact")
    flavor, key = f1["flavor"], key_from_json(f1["key"])
    return single(flavor, key, gcd(_single_of(f1, flavor, key), _single_of(f2, flavor, key)))


@_rule("collapse", 1)
def _collapse(ctx, p, comp):
    """All edges of the composite share one isotopy class: the product is
    a power of a single twist."""
    g = _composite(comp)
    keys = {ctx.key_of(s) for s in g.entries}
    _check(len(keys) == 1, f"distinct classes {keys}")
    net = sum(g.entries.values())
    _check(net != 0, "net exponent zero")
    return single(comp["flavor"], keys.pop(), abs(net))


@_rule("terminal", 1, segment="segment")
def _terminal(ctx, p, comp):
    g = _composite(comp)
    s = p["segment"]
    _check(set(g.entries) == {s}, f"extra edges {sorted(g.entries)}")
    return single(comp["flavor"], ctx.key_of(s), abs(g.weight(s)))


def _two_composites(c1, c2) -> tuple[WeightedSegmentGraph, WeightedSegmentGraph]:
    g1, g2 = _composite(c1), _composite(c2)
    _check(c1["flavor"] == c2["flavor"], "flavors differ")
    _check(g1.union(g2).loops_pairwise_disjoint(), "loops not disjoint")
    return g1, g2


@_rule("combine", 2)
def _combine(ctx, p, c1, c2):
    g1, g2 = _two_composites(c1, c2)
    return composite(c1["flavor"], g1.union(g2))


@_rule("power", 1, k="int")
def _power(ctx, p, comp):
    return composite(comp["flavor"], _composite(comp).scaled(p["k"]))


@_rule("subtract", 2)
def _subtract(ctx, p, c1, c2):
    """tau_{G1} tau_{G2}^{-1} for disjoint-loop composites."""
    g1, g2 = _two_composites(c1, c2)
    return composite(c1["flavor"], g1.union(g2.scaled(-1)))


@_rule("bridge_transfer", 1, segment="segment")
def _bridge_transfer(ctx, p, fact):
    """R4: the fact for a specific bridge from its class."""
    s = p["segment"]
    b = is_bridge(ctx.poly, s)
    _check(b is not None, f"{s} is not a bridge")
    key = ("bridge", b.interior_end)
    out = single(fact["flavor"], key, _single_of(fact, fact["flavor"], key))
    out["segment"] = _seg_json(s)
    return out


@_rule("chain_rule_square", 3, sigma1="segment", v1="point", sigma2="segment", sigma="segment")
def _chain_rule_square(ctx, p, f1, fv, f2):
    """R6: the boundary-of-regular-neighborhood chain rule, discharged by
    the exact matrix identity (M1 Mv M2)^4 = M_sigma^2."""
    s1, v1, s2, s = p["sigma1"], p["v1"], p["sigma2"], p["sigma"]
    for fact, key in zip((f1, fv, f2), (ctx.key_of(s1), ("acycle", v1), ctx.key_of(s2))):
        _check(_single_of(fact, HOMOLOGICAL, key) == 1, f"{key} needs an exponent-one fact")
    from .homology import Loop

    surf = ctx.surface
    m1 = surf.dehn_twist_matrix(Loop.of_segment(s1))
    mv = surf.dehn_twist_matrix(Loop.acycle(v1))
    m2 = surf.dehn_twist_matrix(Loop.of_segment(s2))
    ms = surf.dehn_twist_matrix(Loop.of_segment(s))
    prod = matmul(matmul(m1, mv), m2)
    p2 = matmul(prod, prod)
    _check(matmul(p2, p2) == matmul(ms, ms), "matrix identity fails")
    out = single(HOMOLOGICAL, ctx.key_of(s), 2)
    out["chain"] = [_seg_json(s1), list(v1), _seg_json(s2), _seg_json(s)]
    return out


# pairing rounds of the anchor transport in Engine._facts_at_anchor
_ANCHOR_ROUNDS = 3


class Engine:
    """Fact store plus rule applications over a fixed smooth polygon.  A
    builder's graph yields its target's fact through ``peel``, which reads
    the deduction off the composite; the builders write no plans."""

    def __init__(self, poly: LatticePolygon):
        self.poly = poly
        self.analysis, self.verdict = analyze(poly)
        self.adjoint = self.analysis.adjoint
        self.ctx = RuleContext(poly)
        self.nodes: list[Node] = []
        # (flavor, key) -> (exponent, node_id); exponents are positive ideal
        # generators, tightened by gcd as new facts arrive
        self.facts: dict[tuple, tuple[int, int]] = {}

    # -- infrastructure ------------------------------------------------------

    def _apply(self, rule: str, params: dict, premises: list[int]) -> int:
        """Run the rule kernel and record its conclusion as a new node; the
        only place nodes are created."""
        conclusion = apply(self.ctx, rule, params, [self.nodes[i].conclusion for i in premises])
        spec = RULES[rule][2]
        encoded = {name: CODECS[spec[name]][0](value) for name, value in params.items()}
        node = Node(len(self.nodes), rule, encoded, list(premises), conclusion)
        self.nodes.append(node)
        return node.id

    def _build(self, name: str, *args):
        """``builders.<name>(self.poly, *args)``.  The builder is looked up
        at call time, so a rebound one is honoured."""
        from . import builders

        return getattr(builders, name)(self.poly, *args)

    def _apply_single(self, rule: str, params: dict, premises: list[int]) -> int:
        """Apply a rule concluding a single fact and enter it in the store."""
        nid = self._apply(rule, params, premises)
        c = self.nodes[nid].conclusion
        return self._record_single(c["flavor"], key_from_json(c["key"]), c["exponent"], nid)

    def key_of(self, obj) -> tuple:
        return self.ctx.key_of(obj)

    def _record_single(self, flavor, key, exponent, node_id) -> int:
        exponent = abs(int(exponent))
        if exponent == 0:
            raise DerivationError("store", "zero exponent fact")
        cur = self.facts.get((flavor, key))
        if cur is None:
            self.facts[(flavor, key)] = (exponent, node_id)
            return node_id
        ce, cid = cur
        g = gcd(ce, exponent)
        if g == ce:
            return cid
        if g == exponent:
            self.facts[(flavor, key)] = (exponent, node_id)
            return node_id
        nid = self._apply("gcd", {}, [cid, node_id])
        self.facts[(flavor, key)] = (g, nid)
        return nid

    def _stored(self, flavor, key) -> tuple[int, int] | None:
        """The stored (exponent, node) for a key; for a homological key
        without one, that of the geometric fact, whose projection ``fact``
        records."""
        hit = self.facts.get((flavor, key))
        if hit is None and flavor == HOMOLOGICAL:
            hit = self.facts.get((GEOMETRIC, key))
        return hit

    def fact(self, flavor, key) -> tuple[int, int] | None:
        """(exponent, node) for a key, materializing homological projections
        of geometric facts on demand."""
        hit = self._stored(flavor, key)
        if hit is not None and (flavor, key) not in self.facts:
            hit = self.facts[(flavor, key)] = (hit[0], self._apply("project", {}, [hit[1]]))
        return hit

    def require(self, flavor, key, rule="require") -> tuple[int, int]:
        got = self.fact(flavor, key)
        if got is None:
            raise DerivationError(rule, f"missing fact {flavor} {key}")
        return got

    # -- rule applications: look up premises, build params, apply -------------

    def axiom_acycle(self, v: Point) -> int:
        hit = self.facts.get((GEOMETRIC, ("acycle", tuple(v))))
        if hit is not None:
            return hit[1]
        return self._apply_single("acycle", {"v": tuple(v)}, [])

    def ensure_acycles(self):
        for v in self.poly.interior_points():
            self.axiom_acycle(v)

    def axiom_rea(self, cert: AdmissibilityCertificate, flavor=GEOMETRIC) -> int:
        nid = self._apply("admissible", {"certificate": cert}, [])
        if flavor == HOMOLOGICAL:
            nid = self._apply("project", {}, [nid])
        return nid

    def absorb(self, comp_id: int, segment: Segment) -> int:
        comp = self.nodes[comp_id].conclusion
        if comp["type"] != "composite":
            raise DerivationError("absorb", "premise is not composite")
        segment = seg(*segment)
        edge = [list(segment[0]), list(segment[1])]
        w = next((m for a, b, m in comp["edges"] if [a, b] == edge), 0)
        if w == 0:
            return comp_id
        exponent, fid = self.require(comp["flavor"], self.key_of(segment), "absorb")
        params = {"segment": segment, "times": w // exponent}
        return self._apply("absorb", params, [comp_id, fid])

    def chase(self, comp_id: int, vertex: Point) -> tuple[int, int | None]:
        """Both halves of R3: the lone edge's twist and the remainder, or
        None for the remainder when the lone edge was the composite's last."""
        vertex = (int(vertex[0]), int(vertex[1]))
        comp = self.nodes[comp_id].conclusion
        _, aid = self.require(comp["flavor"], ("acycle", vertex), "chase")
        fid = self._apply_single("chase", {"vertex": vertex}, [comp_id, aid])
        if len(comp["edges"]) == 1:
            return fid, None
        return fid, self._apply("chase_remainder", {"vertex": vertex}, [comp_id, aid])

    def collapse(self, comp_id: int) -> int:
        return self._apply_single("collapse", {}, [comp_id])

    def terminal(self, comp_id: int, segment: Segment) -> int:
        return self._apply_single("terminal", {"segment": seg(*segment)}, [comp_id])

    def combine(self, id1: int, id2: int) -> int:
        return self._apply("combine", {}, [id1, id2])

    def power(self, comp_id: int, k: int) -> int:
        return self._apply("power", {"k": k}, [comp_id])

    def subtract(self, id1: int, id2: int) -> int:
        return self._apply("subtract", {}, [id1, id2])

    def bridge_transfer(self, segment: Segment, flavor=GEOMETRIC) -> int:
        segment = seg(*segment)
        key = self.key_of(segment)
        if key[0] != "bridge":
            raise DerivationError("bridge_transfer", f"{segment} is not a bridge")
        _, fid = self.require(flavor, key, "bridge_transfer")
        return self._apply("bridge_transfer", {"segment": segment}, [fid])

    def chain_rule_square(
        self, sigma1: Segment, v1: Point, sigma2: Segment, sigma: Segment
    ) -> int:
        s1, s2 = seg(*sigma1), seg(*sigma2)
        keys = (self.key_of(s1), ("acycle", tuple(v1)), self.key_of(s2))
        prem = [self.require(HOMOLOGICAL, key, "chain_rule_square")[1] for key in keys]
        params = {"sigma1": s1, "v1": tuple(v1), "sigma2": s2, "sigma": seg(*sigma)}
        return self._apply_single("chain_rule_square", params, prem)

    # -- peeling ---------------------------------------------------------------

    def peel(self, comp_id: int, target: Segment) -> int:
        """The node of the fact for ``target``'s class that the composite
        ``comp_id`` yields by the kernel's rules.  A local mirror of the
        composite follows every step; each round takes the first of:

        1. ``terminal``, when only the target is left (it needs no A-cycle
           premise, unlike a chase);
        2. chase the target, if it is the lone +-1 edge at one of its
           interior ends and the A-cycle there has exponent one;
        3. chase any other such lone edge, vertices in lexicographic order;
        4. absorb the lexicographically first edge of another class whose
           stored fact divides its weight;
        5. ``collapse``, when every edge is in the target's class.

        Chases come first, since an absorb pulls the absorbed fact's whole
        ancestry into all that cites the result.  A chase or absorb removes
        one edge and only adds facts, so what it enables stays enabled: the
        order decides which nodes are recorded, not whether the target's
        fact is reached.  With that fact the peel goes on until stuck, so
        every edge it can reach gets its fact (``pipeline_side`` needs them
        all).  Stuck before, it raises DerivationError("peel") naming the
        edges of other classes that have no stored fact."""
        target = seg(*target)
        tkey = self.key_of(target)
        comp = self.nodes[comp_id].conclusion
        flavor, g = comp["flavor"], graph_of(comp)
        at: dict[Point, set] = {}
        for s in g.entries:
            for p in s:
                at.setdefault(p, set()).add(s)

        def exponent(key) -> int | None:
            hit = self._stored(flavor, key)
            return hit and hit[0]

        def lone(v: Point) -> Segment | None:
            """The edge at v if it is the only one, of weight +-1, and v is
            interior with an exponent-one A-cycle."""
            if len(at[v]) != 1 or self.poly.side(v) != 1:
                return None
            (s,) = at[v]
            return s if abs(g.entries[s]) == 1 and exponent(("acycle", v)) == 1 else None

        def absorbable(s: Segment) -> bool:
            e = None if self.key_of(s) == tkey else exponent(self.key_of(s))
            return e is not None and g.entries[s] % e == 0

        got = None
        while g.entries:
            if got is None and g.entries.keys() == {target}:
                return self.terminal(comp_id, target)
            ends = target if target in g.entries else ()
            v = next((v for v in ends if lone(v) == target), None)
            if v is None:
                v = next((v for v in sorted(at) if lone(v)), None)
            if v is not None:
                s = lone(v)
                fid, comp_id = self.chase(comp_id, v)
                if self.key_of(s) == tkey:
                    got = fid
            else:
                s = next((s for s in sorted(g.entries) if absorbable(s)), None)
                if s is None:
                    break
                comp_id = self.absorb(comp_id, s)
            g.add(s, -g.entries[s])
            for p in s:
                at[p].discard(s)
        if got is None and g.entries and all(self.key_of(s) == tkey for s in g.entries):
            return self.collapse(comp_id)
        if got is None:
            missing = [s for s in sorted(g.entries)
                       if self.key_of(s) != tkey and exponent(self.key_of(s)) is None]
            raise DerivationError(
                "peel", f"stuck before the fact for {target} with {len(g)} edges left; "
                f"no fact for {missing}"
            )
        return got

    def run_plan(self, build: "builders.BuildResult", flavor=GEOMETRIC) -> int:
        """The fact for a builder's target: its admissible graph, peeled."""
        return self.peel(self.axiom_rea(build.certificate, flavor), build.target)

    def _peel_or_undo(self, cert: AdmissibilityCertificate, target: Segment, flavor) -> int:
        """``peel`` of the admissible graph of ``cert``, for searches that try
        one candidate after another: a peel that gets stuck leaves no node
        and no fact behind."""
        mark, facts = len(self.nodes), dict(self.facts)
        try:
            return self.peel(self.axiom_rea(cert, flavor), target)
        except DerivationError:
            del self.nodes[mark:]
            self.facts = facts
            raise

    # -- pipelines -------------------------------------------------------------

    def pipeline_corner(self, kappa: Point) -> int:
        """Bridge twists at an adjoint vertex (unconditional)."""
        key = ("bridge", tuple(kappa))
        hit = self.facts.get((GEOMETRIC, key))
        if hit is not None:
            return hit[1]
        build = self._build("build_corner_graph", kappa)
        return self.run_plan(build, GEOMETRIC)

    def pipeline_side(self, edge: tuple[Point, Point]) -> int:
        """Twists of every primitive segment on an adjoint edge."""
        build = self._build("build_side_graph", edge)
        self.pipeline_corner(edge[0])
        self.pipeline_corner(edge[1])
        return self.run_plan(build, GEOMETRIC)

    def ensure_sides(self):
        adj = self.adjoint
        for a, b in adj.edges():
            self.pipeline_side((a, b))

    def pipeline_propagate(
        self, kappa: Point, kappa_prime: Point, a: int, flavor=GEOMETRIC
    ) -> int:
        build = self._build("build_propagation_graph", kappa, kappa_prime, a)
        return self.run_plan(build, flavor)

    def pipeline_gcd1(
        self, kappa: Point, m: int, l: int, known_toward: Point, flavor=GEOMETRIC
    ) -> int:
        build = self._build("build_gcd1_graph", kappa, m, l, known_toward)
        return self.run_plan(build, flavor)

    def pipeline_gcd2(
        self, kappa: Point, m: int, known_toward: Point, flavor=GEOMETRIC
    ) -> tuple[int, int]:
        first, second = self._build("build_gcd2_graphs", kappa, m, known_toward)
        f1 = self.run_plan(first, flavor)
        f2 = self.run_plan(second, flavor)
        return f1, f2

    def _bridge_exponent(self, flavor, p: Point) -> int | None:
        """The stored exponent of the bridge class at p, or None."""
        hit = self._stored(flavor, ("bridge", p))
        return hit and hit[0]

    def _edge_pairs(self):
        """(kappa, far end, direction and length of E, direction and length
        of F) for each adjoint vertex kappa and each order (E, F) of the two
        adjoint edges at it."""
        for kappa in self.adjoint.vertices:
            (x, lx), (y, ly) = adjoint_edges_at(self.adjoint, kappa)
            dx, dy = primitive(sub(x, kappa)), primitive(sub(y, kappa))
            yield kappa, x, dx, lx, dy, ly
            yield kappa, y, dy, ly, dx, lx

    def _lower_bridges(self, flavor, moves) -> tuple[int, Counter]:
        """Run the bridge transfers that ``moves()`` yields, pass after pass,
        until a pass lowers no exponent on the adjoint boundary cycle.

        A move is (kind, targets, e, run): ``run()`` builds and peels one
        transfer graph, concluding the e-th power of the bridge twist at each
        point of ``targets``, e in closed form (seed l_x, gcd1 m/gcd(m, l),
        gcd2 and propagation 1).  ``moves()`` reads the store as it goes, so a
        move sees what the moves before it concluded.  A move runs only if e
        is not a multiple of some target's stored exponent, or a target has
        none: exactly when ``_record_single`` changes the store.  So no
        transfer graph is built, certified or recorded for a fact the store
        already implies.

        The loop ends without a cap: a pass is followed by another only if
        it lowered a stored exponent to a proper divisor or gave a class its
        first fact (a homological one may replace the geometric fallback of
        ``_stored`` once), and there are finitely many classes, each with a
        positive integer exponent (Kildall's worklist argument).  A move that
        raises DerivationError, CertificationError or ValueError is skipped
        and counted by kind.  Returns the number of passes and the counts."""
        cyc = adjoint_boundary_cycle(self.adjoint)
        failed: Counter = Counter()
        passes, lowered = 0, True
        while lowered:
            passes += 1
            before = [self._bridge_exponent(flavor, p) for p in cyc]
            for kind, targets, e, run in moves():
                if all((x := self._bridge_exponent(flavor, p)) and e % x == 0 for p in targets):
                    continue
                try:
                    run()
                except (DerivationError, CertificationError, ValueError):
                    failed[kind] += 1
            lowered = [self._bridge_exponent(flavor, p) for p in cyc] != before
        return passes, failed

    def pipeline_gcdedges(self) -> None:
        """Powers of bridge twists everywhere: derive (tau_b)^s for every
        bridge class, s the gcd of the adjoint edge lengths, by the seed,
        gcd1 and gcd2 transfers of ``_lower_bridges``.

        Why this reaches s.  At an adjoint vertex kappa with edges E and F,
        let D(E) hold the distances along E whose bridge class has exponent
        one; E's length is in it (corner graphs).  The gcd1 transfer from
        mm in D(E) gives the point at distance l on F the exponent
        mm / gcd(mm, l): every multiple of mm joins D(F), and the point next
        to kappa on F gets a divisor e of gcd D(E).  If e is at most both
        lengths, the gcd2 pair puts e into D(E) and D(F).  So the spacing of
        D comes down, at each vertex, to a divisor of the gcd of its two
        edge lengths, passes along each edge (a multiple of the spacing at
        both ends), and around the boundary cycle comes down to s; the point
        at distance l then gets s / gcd(s, l).  Seeding gcd1 from the far
        vertex alone does not do: on the 4 x 6 rectangle it leaves exponent
        4 at (2, 1).

        If a class misses its exponent, the DerivationError lists every
        class's exponent on the adjoint boundary cycle, the number of passes
        and the count of failed moves of each kind."""
        adj = self.adjoint
        self.ensure_acycles()
        for v in adj.vertices:
            self.pipeline_corner(v)
        self.ensure_sides()

        exp_at = partial(self._bridge_exponent, GEOMETRIC)

        def moves():
            for kappa, far, along, m, across, ly in self._edge_pairs():
                first = add(kappa, across)
                # seed graph: exponent m at the distance-one point of F
                yield ("seed", [first], m,
                       lambda: self.run_plan(self._build("build_gcdedges_graph", kappa, far)))
                # gcd1 toward every point of F from every exponent-one point
                # of E, the far vertex included
                for mm in range(1, m + 1):
                    if exp_at(add(kappa, smul(mm, along))) == 1:
                        for l in range(1, ly + 1):
                            yield ("gcd1", [add(kappa, smul(l, across))], mm // gcd(mm, l),
                                   partial(self.pipeline_gcd1, kappa, mm, l, far))
                # gcd2 from the distance-one point of F, if its exponent fits
                # on both edges
                e = exp_at(first)
                if e is not None and e <= min(m, ly):
                    yield ("gcd2", [add(kappa, smul(e, along)), add(kappa, smul(e, across))], 1,
                           partial(self.pipeline_gcd2, kappa, e, first))

        passes, failed = self._lower_bridges(GEOMETRIC, moves)
        s = self.analysis.n
        cyc = adjoint_boundary_cycle(adj)
        for p in cyc:
            got = exp_at(p) or 0
            if got != (1 if p in adj.vertices else s) and (got == 0 or s % got):
                exponents = ", ".join(f"{q}: {exp_at(q) or 0}" for q in cyc)
                raise DerivationError(
                    "gcdedges",
                    f"bridge class at {p} reached exponent {got}, want {s}; "
                    f"fixed point after {passes} passes, "
                    f"exponents on the adjoint boundary cycle {{{exponents}}}; "
                    f"{failed['seed']} seed graphs failed; "
                    f"{failed['gcd1']} gcd1 seeds failed; "
                    f"{failed['gcd2']} gcd2 spreadings failed",
                )

    # -- ray-sweep leg facts ----------------------------------------------------

    def ensure_leg_facts(self, rs: "builders.RaySweep", flavor, depth=0) -> None:
        for which, legseg in ((1, rs.leg1), (2, rs.leg2)):
            if self.fact(flavor, self.key_of(legseg)) is not None:
                continue
            self.derive_leg(rs.kappa, rs.kappa_prime, rs.v, rs.orientation, which, flavor, depth)

    def derive_leg(
        self, kappa, kappa_prime, u, orientation, which, flavor, depth=0
    ) -> int:
        """The fact for leg ``which`` of the sweep at u, from the first of
        ``builders.build_leg_pair``'s certified pairs whose union peels.  A
        pair that holds the sweep's tail first gets the tail sweep's legs
        through ``ensure_leg_facts``, which skips a leg with a stored fact.
        A pair that does not peel leaves no node and no fact behind."""
        from . import builders

        if depth > 64:
            raise DerivationError("diamond", "leg recursion too deep")
        pairs = builders.build_leg_pair(self.poly, kappa, kappa_prime, u, orientation, which)
        last = None
        while True:
            try:
                build = next(pairs)
            except StopIteration as done:
                why = done.value if last is None else f"{done.value}; none peels: {last}"
                raise DerivationError("diamond", why) from None
            recurse = build.notes["recurse"]
            if last is None and recurse is not None:  # the same for every pair: once
                tail = builders.build_ray_sweep(
                    self.poly, kappa, kappa_prime, recurse, 1, 1, orientation
                )
                self.ensure_leg_facts(tail, flavor, depth + 1)
            try:
                return self._peel_or_undo(build.certificate, build.target, flavor)
            except DerivationError as exc:
                last = str(exc)  # not exc: its traceback would pin these frames in a cycle

    # -- interior segments -------------------------------------------------------

    def pipeline_interior(self, sigma: Segment, flavor=GEOMETRIC) -> int:
        sigma = seg(*sigma)
        key = self.key_of(sigma)
        hit = self.fact(flavor, key)
        if hit is not None and hit[0] == 1:
            return hit[1]
        build = self._build("build_interior_graph", sigma)
        for dev in (build.notes["device_v"], build.notes["device_w"]):
            if dev.kind == "ray":
                self.ensure_leg_facts(dev.ray, flavor)
        return self.run_plan(build, flavor)

    def derive_segment(self, sigma: Segment, flavor=GEOMETRIC) -> int:
        """Exponent-one fact for a primitive segment with an interior end,
        routed through the cheapest applicable pipeline."""
        sigma = seg(*sigma)
        key = self.key_of(sigma)
        hit = self.fact(flavor, key)
        if hit is not None and hit[0] == 1:
            if key[0] == "bridge":
                return self.bridge_transfer(sigma, flavor)
            return hit[1]
        if key[0] == "bridge":
            self.require(flavor, key, "derive_segment")
            return self.bridge_transfer(sigma, flavor)
        return self.pipeline_interior(sigma, flavor)

    # -- the full decision procedure ----------------------------------------------

    def derive_surjectivity(self) -> dict:
        """Run the derivation matching the verdict and return a report whose
        certificate is the sub-DAG that the verdict's ``claims`` reach."""
        verdict = self.verdict
        report = {
            "schema": "1",
            "polygon": self.poly.to_json(),
            "analysis": self.analysis.to_json(),
            "verdict": verdict.to_json(),
        }
        if self.analysis.genus == 0:
            report["certificate"] = None
            return report
        if self.analysis.d == 1:
            report["certificate"] = None
            report["note"] = "hyperelliptic case deferred"
            return report
        self.ensure_acycles()
        if self.analysis.d == 0:
            kappa = self.adjoint.vertices[0]
            self.pipeline_corner(kappa)
            snake = build_snake(self.poly)
            bridge_id = self.bridge_transfer(snake.bridge, GEOMETRIC)
            report["snake"] = snake.to_json()
            report["generators"] = {
                "acycle": list(kappa),
                "bridge": [list(snake.bridge[0]), list(snake.bridge[1])],
            }
            report["certificate"] = self._claimed_subdag()
            return report
        # d == 2
        self.pipeline_gcdedges()
        n = self.analysis.n
        snake = build_snake(self.poly)
        report["snake"] = snake.to_json()
        if n == 1:
            for s in snake.chain:
                self.derive_segment(s, GEOMETRIC)
            self.derive_segment(snake.bridge, GEOMETRIC)
            report["humphries"] = "geometric"
        elif n % 2 == 1:
            self.homological_bridges(snake)
            for s in snake.chain:
                self.derive_segment(s, HOMOLOGICAL)
            self.derive_segment(snake.bridge, HOMOLOGICAL)
            report["humphries"] = "homological"
            report["obstruction"] = {
                "n": n,
                "reason": "adjoint admits a root of order n > 1",
            }
        else:
            report["obstruction"] = {
                "n": n,
                "reason": "adjoint admits a root of even order",
            }
        report["certificate"] = self._claimed_subdag()
        return report

    def homological_bridges(self, snake) -> None:
        """Exponent-one homological facts for every bridge class: the snake
        head's chain rule gives the square at the bridge anchor, the odd gcd
        power reduces it to one, and the propagation graphs spread it."""
        key = ("bridge", snake.points[2])
        # the projected geometric power lands in the store first, so the
        # chain rule's square combines with the odd exponent to one
        self.fact(HOMOLOGICAL, key)
        self.chain_rule_square(snake.chain[0], snake.points[1], snake.chain[1], snake.bridge)
        e, _ = self.require(HOMOLOGICAL, key, "homological_bridges")
        if e != 1:
            raise DerivationError("homological_bridges",
                                  f"anchor exponent {e} after the chain rule")

        # spread around the adjoint boundary: from an exponent-one point
        # next to kappa on F to every point of E
        def moves():
            for kappa, _, along, m, across, _ in self._edge_pairs():
                kprime = add(kappa, across)
                if self._bridge_exponent(HOMOLOGICAL, kprime) == 1:
                    for a in range(1, m):
                        yield ("propagate", [add(kappa, smul(a, along))], 1,
                               partial(self.pipeline_propagate, kappa, kprime, a, HOMOLOGICAL))

        _, failed = self._lower_bridges(HOMOLOGICAL, moves)
        for p in adjoint_boundary_cycle(self.adjoint):
            if self._bridge_exponent(HOMOLOGICAL, p) != 1:
                raise DerivationError(
                    "homological_bridges", f"bridge at {p} not reduced to exponent 1; "
                    f"{failed['propagate']} propagations failed"
                )

    # -- certificates ---------------------------------------------------------

    def export_certificate(self) -> dict:
        """The certificate of every node the derivation recorded."""
        return {
            "schema": "1",
            "polygon": self.poly.to_json(),
            "nodes": [n.to_json() for n in self.nodes],
        }

    def _claimed_subdag(self) -> dict:
        """The certificate of the nodes holding the facts ``claims`` lists;
        DerivationError if the store lacks one or holds it with an exponent
        that does not divide the claimed one."""
        roots = []
        for flavor, key, exponent in claims(self):
            hit = self._stored(flavor, key)
            if hit is None:
                raise DerivationError("claims", f"missing fact {flavor} {key}")
            if exponent % hit[0]:
                raise DerivationError(
                    "claims", f"{flavor} {key} has exponent {hit[0]}, claimed {exponent}"
                )
            roots.append(hit[1])
        return self.minimal_subdag(*roots)

    def minimal_subdag(self, *roots: int) -> dict:
        """The certificate of the given nodes: them and, transitively, their
        premises, in id order."""
        keep = set()
        stack = list(roots)
        while stack:
            i = stack.pop()
            if i in keep:
                continue
            keep.add(i)
            stack.extend(self.nodes[i].premises)
        nodes = [self.nodes[i].to_json() for i in sorted(keep)]
        return {"schema": "1", "polygon": self.poly.to_json(), "nodes": nodes}

    # -- divisible pipelines (powers of twists under a d-divisible adjoint) -----

    def _all_anchors(self):
        adj = self.adjoint
        out = []
        for kappa in adj.vertices:
            for kprime in neighbors_on_boundary(adj, kappa):
                for orientation in ("kk'", "k'k"):
                    out.append((kappa, kprime, orientation))
        return out

    def _device_pairs(self, x: Point, w: Point, also=None):
        """``builders.device_pairs`` for the chain [x, w], keeping only
        device pairs that pass ``also`` (if given) and overlap neither the
        chain nor each other."""
        from . import builders

        pieces = primitive_segments_on(x, w)

        def keep(dx, dw) -> bool:
            if also is not None and not also(dx, dw):
                return False
            if any(dx.graph.weight(s) or dw.graph.weight(s) for s in pieces):
                return False
            return not any(dx.graph.weight(s) for s in dw.graph.entries)

        return builders.device_pairs(self.poly, x, w, keep=keep)

    def _chain_chase(self, u: Point, w: Point, sigma: Segment, flavor) -> int:
        """The fact for sigma from the weight-one chain [u, w] through it,
        balanced by end devices: the first device pair whose graph peels."""
        last = None
        for dv, dw, _, cert in self._device_pairs(u, w):
            if dv.kind == "ray":
                self.ensure_leg_facts(dv.ray, flavor)
            try:
                return self._peel_or_undo(cert, sigma, flavor)
            except DerivationError as exc:
                last = str(exc)  # not exc: its traceback would pin these frames in a cycle
        raise DerivationError("interior_d", f"devices failed: {last}")

    def pipeline_interior_d(self, sigma: Segment, d: int, flavor=GEOMETRIC) -> int:
        """Exponent-one twist for a segment whose line meets the d-divisible
        points, assuming exponent-one bridges at those points."""
        sigma = seg(*sigma)
        hit = self.fact(flavor, self.key_of(sigma))
        if hit is not None and hit[0] == 1:
            return hit[1]
        adj = self.adjoint
        dpts = divisible_points(adj, d)
        a, b = sigma
        online = [p for p in dpts if orient(a, b, p) == 0]
        if not online:
            raise DerivationError("interior_d", "segment line misses the d-points")
        last_error = None
        for u in sorted(online):
            for w in (b, a):
                v = a if w == b else b
                if u != v and primitive(sub(v, u)) != primitive(sub(w, u)):
                    continue  # sigma must lie on [u, w]
                if u == w:
                    continue
                try:
                    nid = self._chain_chase(u, w, sigma, flavor)
                    if self.nodes[nid].conclusion["exponent"] != 1:
                        raise DerivationError("interior_d", "chase missed the segment")
                    return nid
                except (DerivationError, CertificationError, ValueError, AssertionError) as exc:
                    last_error = str(exc)
        raise DerivationError("interior_d", f"no usable configuration: {last_error}")

    def _gamma_triple(self, w: Point, d: int):
        """Three primitive segments ending at w whose far chains start at
        d-divisible points spanning d Z^2, from a unimodular triangle of the
        homothetic adjoint containing the scaled image of w."""
        adj = self.adjoint
        kappa0 = adj.vertices[0]
        scaled = LatticePolygon(
            [
                (
                    kappa0[0] + (p[0] - kappa0[0]) // d,
                    kappa0[1] + (p[1] - kappa0[1]) // d,
                )
                for p in adj.vertices
            ]
        )
        if scaled.dimension != 2:
            raise DerivationError("diad", "scaled adjoint degenerate")
        from fractions import Fraction

        from .homology import canonical_triangulation

        tri = canonical_triangulation(scaled)
        hw = (
            Fraction(kappa0[0] * (d - 1) + w[0], d),
            Fraction(kappa0[1] * (d - 1) + w[1], d),
        )
        corners = None
        for cell in tri.cells:
            if cell.side(hw) >= 0:
                corners = cell.vertices
                break
        if corners is None:
            raise DerivationError("diad", "no triangle containing the scaled point")
        xs = [
            (kappa0[0] + d * (c[0] - kappa0[0]), kappa0[1] + d * (c[1] - kappa0[1]))
            for c in corners
        ]
        gammas = []
        for x in xs:
            pts = lattice_points_on_segment(x, w)
            if len(pts) < 2:
                raise DerivationError("diad", "scaled corner coincides with the point")
            gammas.append((x, seg(pts[-2], w)))
        return gammas

    def _gamma_entry(self, x: Point, w: Point, flavor):
        """Composite fact for a ray sweep at w, obtained by stripping the chain
        [x, w] and the device at the d-point x from an interior_d graph; the
        x-side must be strippable edge by edge."""
        last = None
        for dx, dw, _, cert in self._device_pairs(
            x, w, lambda dx, dw: dx.kind != "ray" and dw.kind == "ray"
        ):
            try:
                comp = self.axiom_rea(cert, flavor)
                for s in primitive_segments_on(x, w) + list(dx.graph.entries):
                    comp = self.absorb(comp, s)
                return comp, dw.ray
            except DerivationError as exc:
                last = str(exc)
        raise DerivationError("diad", f"gamma entry failed: {last}")

    def _pair_once(self, node_id: int, w: Point, target, flavor) -> int | None:
        """Pair a composite ray fact at w with the target-anchor sweep whose
        weights cancel the residual; certify the balanced union and subtract."""
        from . import builders

        graph = graph_of(self.nodes[node_id].conclusion)
        try:
            tsweep = builders.cancelling_sweep(self.poly, target, w, residual(graph, w))
        except (ValueError, AssertionError):
            return None
        union = graph.union(tsweep.graph)
        if not union.entries:
            return None  # paired a fact against its own negation
        if check_balancing(union, self.poly) or not union.loops_pairwise_disjoint():
            return None
        try:
            cert = builders.certify_flexible(union, self.poly, [tsweep])
        except (CertificationError, AssertionError):
            return None
        rea = self.axiom_rea(cert, flavor)
        return self.subtract(rea, node_id)

    def _facts_at_anchor(self, entries, w, target, flavor):
        """BFS over anchor pairings until the target anchor holds two
        weight-independent composite facts, as (node id, seed weights) pairs."""
        from . import builders

        probe = builders.build_ray_sweep(self.poly, target[0], target[1], w, 1, 1, target[2])
        state: dict[tuple, list[int]] = {}
        for anchor, nid in entries:
            state.setdefault(anchor, []).append(nid)

        def independent_facts():
            got = []
            for nid in state.get(target, []):
                g = graph_of(self.nodes[nid].conclusion)
                got.append((nid, (g.weight(probe.leg1), g.weight(probe.leg2))))
            vecs = [mv for _, mv in got]
            if any(cross(v1, v2) != 0 for i, v1 in enumerate(vecs) for v2 in vecs[i + 1:]):
                return got
            return None

        anchors = self._all_anchors()
        for _ in range(_ANCHOR_ROUNDS):
            got = independent_facts()
            if got is not None:
                return got
            for anchor in list(state):
                for nid in list(state[anchor]):
                    for t in anchors:
                        new = self._pair_once(nid, w, t, flavor)
                        if new is not None:
                            g = graph_of(self.nodes[new].conclusion)
                            known = [
                                graph_of(self.nodes[x].conclusion).entries
                                for x in state.get(t, [])
                            ]
                            if g.entries not in known:
                                state.setdefault(t, []).append(new)
        got = independent_facts()
        if got is None:
            raise DerivationError("diad", "anchor transport did not reach independence")
        return got

    def _device_power_fact(self, rs, d: int, flavor) -> int:
        """Composite fact for the d-th power of a ray sweep at its seed, by the
        gamma combination algebra."""
        w = rs.v
        anchor = (rs.kappa, rs.kappa_prime, rs.orientation)
        gammas = self._gamma_triple(w, d)
        for x, gp in gammas:
            self.pipeline_interior_d(gp, d, flavor)
        entries = []
        for x, _ in gammas:
            nid, ray0 = self._gamma_entry(x, w, flavor)
            entries.append(((ray0.kappa, ray0.kappa_prime, ray0.orientation), nid))
        facts = self._facts_at_anchor(entries, w, anchor, flavor)
        m1 = rs.graph.weight(rs.leg1)
        m2 = rs.graph.weight(rs.leg2)
        mat = [[mv[0] for _, mv in facts], [mv[1] for _, mv in facts]]
        from .intlinalg import solve_int

        coeffs = solve_int(mat, [d * m1, d * m2])
        if coeffs is None:
            raise DerivationError("diad", "device power is not an integer combination")
        total = None
        for (nid, _), c in zip(facts, coeffs):
            if c == 0:
                continue
            piece = self.power(nid, c)
            total = piece if total is None else self.combine(total, piece)
        if total is None:
            raise DerivationError("diad", "empty combination")
        got = graph_of(self.nodes[total].conclusion)
        want = rs.graph.scaled(d)
        if got.entries != want.entries:
            raise DerivationError("diad", "gamma combination does not match the device power")
        return total

    def pipeline_interior_dd(self, sigma: Segment, d: int, flavor=GEOMETRIC) -> int:
        """d-th power of any segment twist when the adjoint is d-divisible
        (with exponent-one bridges at the d-points)."""
        sigma = seg(*sigma)
        build = self._build("build_interior_graph", sigma)
        devices = [build.notes["device_v"], build.notes["device_w"]]
        comp = self.axiom_rea(build.certificate, flavor)
        full_d = self.power(comp, d)
        for dev in devices:
            if dev.kind == "none":
                continue
            if dev.kind == "chain":
                for s in dev.graph.entries:
                    full_d = self.absorb(full_d, s)
                continue
            fact = self._device_power_fact(dev.ray, d, flavor)
            full_d = self.subtract(full_d, fact)
        return self.terminal(full_d, sigma)


pipeline_interior_d = Engine.pipeline_interior_d
pipeline_interior_dd = Engine.pipeline_interior_dd


# ---------------------------------------------------------------------------
# verdict claims
# ---------------------------------------------------------------------------


def claims(engine: Engine) -> list[tuple[str, tuple, int]]:
    """The facts a verdict certificate proves, as (flavor, key, exponent):
    the exponent-th power of the twist along the loop lies in the image of
    the geometric (flavor geometric) or the algebraic (homological)
    monodromy.

    - d = 0: the A-cycle at the adjoint point kappa and the snake's bridge,
      geometric, exponent 1.
    - n = 1: the snake chain, the A-cycles at the snake's interior points
      and the snake's bridge, geometric, exponent 1: a Humphries-type
      generating family of the mapping class group.
    - odd n > 1: the same loops, homological, exponent 1 (the geometric
      monodromy is obstructed, the algebraic one is not).
    - even n: both maps are obstructed and no generating family is claimed.
      The claim is what ``pipeline_gcdedges`` proves: every bridge class on
      the adjoint boundary cycle, geometric, with exponent 1 at the adjoint
      vertices and n elsewhere.
    - genus 0 and d = 1 (deferred): nothing.

    A stored fact meets a claim when its exponent divides the claimed one;
    a geometric fact also meets the homological claim on its loop, since it
    implies its projection.  Reads the Engine's polygon and analysis and
    records no node."""
    a = engine.analysis
    if a.genus == 0 or a.d == 1:
        return []
    snake = build_snake(engine.poly)
    if a.d == 0:
        return [
            (GEOMETRIC, ("acycle", engine.adjoint.vertices[0]), 1),
            (GEOMETRIC, engine.key_of(snake.bridge), 1),
        ]
    if a.n % 2 == 1:
        flavor = GEOMETRIC if a.n == 1 else HOMOLOGICAL
        keys = [engine.key_of(s) for s in snake.chain]
        keys += [("acycle", p) for p in snake.points[1:]]
        keys.append(engine.key_of(snake.bridge))
        return [(flavor, key, 1) for key in keys]
    verts = set(engine.adjoint.vertices)
    return [
        (GEOMETRIC, ("bridge", p), 1 if p in verts else a.n)
        for p in adjoint_boundary_cycle(engine.adjoint)
    ]


# ---------------------------------------------------------------------------
# certificate replay
# ---------------------------------------------------------------------------

_NODE_FIELDS = ("id", "rule", "params", "premises", "conclusion")


def replay_certificate(data: dict) -> bool:
    """Re-run every rule application of an exported certificate through the
    rule kernel; a malformed node, a failed rule or a recomputed conclusion
    that differs from the recorded one raises ReplayError.  The polygon must
    be smooth, as for a derivation, and that is checked first: a rule that
    classifies a bridge builds the adjoint, and ``adjoint_polygon``
    enumerates the interior points when the adjoint has a fractional
    vertex, as a non-smooth polygon's may.  ``analyze`` checks
    smoothness too, but its divisor list costs O(sqrt n)."""
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise ReplayError("certificate has no node list")
    try:
        poly = LatticePolygon.from_json(data["polygon"])
        if not is_smooth(poly):
            raise SmoothnessError("polygon not smooth")
    except Exception as exc:
        raise ReplayError(f"bad polygon: {exc}")
    ctx = RuleContext(poly)
    concl: dict[int, dict] = {}
    last = None
    for i, node in enumerate(data["nodes"]):
        if not isinstance(node, dict) or not all(k in node for k in _NODE_FIELDS):
            raise ReplayError(f"nodes[{i}]: malformed node")
        nid, rule = node["id"], node["rule"]
        if type(nid) is not int or (last is not None and nid <= last):
            raise ReplayError(f"nodes[{i}]: node ids must be strictly increasing integers")
        last = nid
        where = f"node {nid} ({rule})"
        if not isinstance(rule, str) or rule not in RULES:
            raise ReplayError(f"{where}: unknown rule")
        spec = RULES[rule][2]
        params, prem = node["params"], node["premises"]
        if not isinstance(params, dict) or set(params) != set(spec):
            raise ReplayError(f"{where}: params must be exactly {sorted(spec)}")
        if not isinstance(prem, list) or not all(type(j) is int and j in concl for j in prem):
            raise ReplayError(f"{where}: premises must be ids of earlier nodes")
        decoded = {}
        for name, kind in spec.items():
            try:
                decoded[name] = CODECS[kind][1](params[name])
            except Exception as exc:
                raise ReplayError(f"{where}: params.{name}: {exc}") from None
        try:
            got = apply(ctx, rule, decoded, [concl[j] for j in prem])
        except DerivationError as exc:
            raise ReplayError(f"{where}: {exc.message}") from None
        if got != node["conclusion"]:
            raise ReplayError(f"{where}: conclusion mismatch")
        concl[nid] = got
    return True
