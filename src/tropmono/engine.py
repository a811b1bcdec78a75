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

from dataclasses import dataclass
from math import gcd

from .geometry import LatticePolygon, Point, Segment, seg, sub, primitive
from .polygons import adjoint_polygon, analyze
from .graphs import (
    AdmissibilityCertificate,
    WeightedSegmentGraph,
    build_snake,
    check_balancing,
    is_bridge,
    CertificationError,
)
from . import builders
from .homology import Loop, SurfaceModel
from .intlinalg import matmul

GEOMETRIC = "geometric"
HOMOLOGICAL = "homological"


class DerivationError(RuntimeError):
    def __init__(self, rule: str, message: str):
        super().__init__(f"[{rule}] {message}")
        self.rule = rule
        self.message = message


class ReplayError(ValueError):
    pass


def loop_key(poly: LatticePolygon, adjoint, obj) -> tuple:
    """Isotopy class key: A-cycles by their point, bridges by their interior
    end, all other segments by themselves."""
    if isinstance(obj, Loop):
        if obj.kind == "acycle":
            return ("acycle", obj.v)
        obj = obj.segment
    s = seg(*obj)
    if adjoint is not None:
        b = is_bridge(poly, adjoint, s)
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


@dataclass
class Node:
    id: int
    rule: str
    params: dict
    premises: list[int]
    conclusion: dict

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
        g.add(seg(tuple(a), tuple(b)), m)
    return g


# ---------------------------------------------------------------------------
# the rule kernel, shared by derivation and replay
# ---------------------------------------------------------------------------


class RuleContext:
    """What the rules read besides their params and premises: the polygon,
    its adjoint, loop keys (memoized: at most one per loop or segment of
    the polygon), and a surface model built on first use."""

    def __init__(self, poly: LatticePolygon, adjoint):
        self.poly = poly
        self.adjoint = adjoint
        self._surface: SurfaceModel | None = None
        self._keys: dict = {}

    def key_of(self, obj) -> tuple:
        key = self._keys.get(obj)
        if key is None:
            key = self._keys[obj] = loop_key(self.poly, self.adjoint, obj)
        return key

    @property
    def surface(self) -> SurfaceModel:
        if self._surface is None:
            self._surface = SurfaceModel(self.poly)
        return self._surface


def _decode_point(x) -> Point:
    if not (isinstance(x, list) and len(x) == 2 and all(type(c) is int for c in x)):
        raise ValueError("expected a lattice point [x, y]")
    return (x[0], x[1])


def _seg_json(s: Segment) -> list:
    return [list(s[0]), list(s[1])]


def _decode_segment(x) -> Segment:
    if not (isinstance(x, list) and len(x) == 2):
        raise ValueError("expected a segment [[x, y], [x, y]]")
    return seg(_decode_point(x[0]), _decode_point(x[1]))


def _decode_int(x) -> int:
    if type(x) is not int:
        raise ValueError("expected an integer")
    return x


# param kind -> (to JSON, from JSON); the kernel sees the decoded values.
# from_json is looked up per call, so a rebound class attribute is honoured.
CODECS = {
    "point": (list, _decode_point),
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
    b = None if ctx.adjoint is None else is_bridge(ctx.poly, ctx.adjoint, s)
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


class Engine:
    """Fact store plus rule applications over a fixed smooth polygon."""

    def __init__(self, poly: LatticePolygon):
        self.poly = poly
        self.analysis, self.verdict = analyze(poly)
        self.adjoint = self.analysis.adjoint
        self.ctx = RuleContext(poly, self.adjoint)
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

    def fact(self, flavor, key) -> tuple[int, int] | None:
        """(exponent, node) for a key, materializing homological projections
        of geometric facts on demand."""
        hit = self.facts.get((flavor, key))
        if hit is not None:
            return hit
        if flavor == HOMOLOGICAL:
            geo = self.facts.get((GEOMETRIC, key))
            if geo is not None:
                e, nid = geo
                pid = self._apply("project", {}, [nid])
                self.facts[(HOMOLOGICAL, key)] = (e, pid)
                return (e, pid)
        return None

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
        w = graph_of(comp).weight(segment)
        if w == 0:
            return comp_id
        exponent, fid = self.require(comp["flavor"], self.key_of(segment), "absorb")
        params = {"segment": segment, "times": w // exponent}
        return self._apply("absorb", params, [comp_id, fid])

    def chase(self, comp_id: int, vertex: Point) -> tuple[int, int]:
        """Both halves of R3: the lone edge's twist and the remainder."""
        vertex = (int(vertex[0]), int(vertex[1]))
        flavor = self.nodes[comp_id].conclusion["flavor"]
        _, aid = self.require(flavor, ("acycle", vertex), "chase")
        fid = self._apply_single("chase", {"vertex": vertex}, [comp_id, aid])
        rid = self._apply("chase_remainder", {"vertex": vertex}, [comp_id, aid])
        return fid, rid

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

    # -- plan execution -------------------------------------------------------

    def run_plan(self, build: "builders.BuildResult", flavor=GEOMETRIC) -> int:
        """Derive the target fact of a builder by replaying its plan."""
        comp_id = self.axiom_rea(build.certificate, flavor)
        for step in build.plan:
            kind = step[0]
            if kind == "absorb":
                comp_id = self.absorb(comp_id, step[1])
            elif kind == "chase":
                fid, comp_id = self.chase(comp_id, step[1])
            elif kind == "terminal":
                return self.terminal(comp_id, step[1])
            elif kind == "collapse":
                return self.collapse(comp_id)
            else:
                raise DerivationError("plan", f"unknown step {kind}")
        return comp_id

    # -- pipelines -------------------------------------------------------------

    def pipeline_corner(self, kappa: Point) -> int:
        """Bridge twists at an adjoint vertex (unconditional)."""
        key = ("bridge", tuple(kappa))
        hit = self.facts.get((GEOMETRIC, key))
        if hit is not None:
            return hit[1]
        build = builders.build_corner_graph(self.poly, kappa)
        return self.run_plan(build, GEOMETRIC)

    def pipeline_side(self, edge: tuple[Point, Point]) -> int:
        """Twists of every primitive segment on an adjoint edge."""
        build = builders.build_side_graph(self.poly, edge)
        chain = build.notes["chain"]
        if all(
            self.facts.get((GEOMETRIC, self.key_of(s))) is not None
            for s in chain[1:-1]
        ):
            return self.facts[(GEOMETRIC, self.key_of(build.target))][1]
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
        build = builders.build_propagation_graph(self.poly, kappa, kappa_prime, a)
        return self.run_plan(build, flavor)

    def pipeline_gcd1(
        self, kappa: Point, m: int, l: int, known_toward: Point, flavor=GEOMETRIC
    ) -> int:
        build = builders.build_gcd1_graph(self.poly, kappa, m, l, known_toward)
        return self.run_plan(build, flavor)

    def pipeline_gcd2(
        self, kappa: Point, m: int, known_toward: Point, flavor=GEOMETRIC
    ) -> tuple[int, int]:
        first, second = builders.build_gcd2_graphs(self.poly, kappa, m, known_toward)
        f1 = self.run_plan(first, flavor)
        f2 = self.run_plan(second, flavor)
        return f1, f2

    def pipeline_gcdedges(self) -> None:
        """Powers of bridge twists everywhere: derive (tau_b)^s for every
        bridge class, s the gcd of the adjoint edge lengths, by iterating
        the corner/side/gcd transfers to a fixed point."""
        adj = self.adjoint
        self.ensure_acycles()
        for v in adj.vertices:
            self.pipeline_corner(v)
        self.ensure_sides()
        cyc = builders.adjoint_boundary_cycle(adj)
        verts = list(adj.vertices)

        def exp_at(p):
            hit = self.facts.get((GEOMETRIC, ("bridge", p)))
            return hit[0] if hit else 0

        def neighbors(kappa):
            return builders._neighbors_on_boundary(adj, kappa)

        for _ in range(8 * len(cyc)):
            before = {p: exp_at(p) for p in cyc}
            for kappa in verts:
                for far in verts:
                    if far == kappa:
                        continue
                    d = sub(far, kappa)
                    if primitive(d) not in [
                        primitive(sub(q, kappa)) for q in neighbors(kappa)
                    ]:
                        continue
                    # far is the other end of an adjoint edge at kappa
                    from .geometry import lattice_length

                    m = lattice_length(kappa, far)
                    # seed graph: exponent l_x at the distance-one point of
                    # the other edge
                    try:
                        self.run_plan(
                            builders.build_gcdedges_graph(self.poly, kappa, far),
                            GEOMETRIC,
                        )
                    except (DerivationError, CertificationError, ValueError) as exc:
                        raise DerivationError("gcdedges", str(exc))
                    # gcd1 from the far vertex toward every point of the
                    # other edge
                    for knext in neighbors(kappa):
                        if primitive(sub(knext, kappa)) == primitive(d):
                            continue
                        ly = lattice_length(
                            kappa,
                            next(
                                fv
                                for fv in verts
                                if fv != kappa
                                and primitive(sub(fv, kappa)) == primitive(sub(knext, kappa))
                            ),
                        )
                        for l in range(1, ly + 1):
                            self.pipeline_gcd1(kappa, m, l, far)
                # gcd2 spreading with the current exponents
                for kprime in neighbors(kappa):
                    e = exp_at(kprime)
                    if e == 0:
                        continue
                    lengths = []
                    for fv in verts:
                        if fv != kappa and primitive(sub(fv, kappa)) in (
                            primitive(sub(q, kappa)) for q in neighbors(kappa)
                        ):
                            lengths.append(lattice_length(kappa, fv))
                    if e <= min(lengths):
                        try:
                            self.pipeline_gcd2(kappa, e, kprime)
                        except (DerivationError, CertificationError, ValueError):
                            pass
            after = {p: exp_at(p) for p in cyc}
            if after == before and all(after.values()):
                break
        s = self.analysis.n
        for p in cyc:
            got = exp_at(p)
            if got != (1 if p in verts else s):
                if got == 0 or s % got:
                    raise DerivationError(
                        "gcdedges", f"bridge class at {p} reached exponent {got}, want {s}"
                    )

    # -- ray-sweep leg facts ----------------------------------------------------

    def ensure_leg_facts(self, rs: "builders.RaySweep", flavor) -> None:
        for which, legseg in ((1, rs.leg1), (2, rs.leg2)):
            if self.fact(flavor, self.key_of(legseg)) is not None:
                continue
            self.derive_leg(rs.kappa, rs.kappa_prime, rs.v, rs.orientation, which, flavor)

    def derive_leg(
        self, kappa, kappa_prime, u, orientation, which, flavor, depth=0
    ) -> int:
        if depth > 64:
            raise DerivationError("diamond", "leg recursion too deep")
        build = builders.build_leg_pair(self.poly, kappa, kappa_prime, u, orientation, which)
        recurse = build.notes["recurse"]
        if recurse is not None:
            for sub_which in (1, 2):
                self.derive_leg(
                    kappa, kappa_prime, recurse, orientation, sub_which, flavor, depth + 1
                )
        return self.run_plan(build, flavor)

    # -- interior segments -------------------------------------------------------

    def pipeline_interior(self, sigma: Segment, flavor=GEOMETRIC) -> int:
        sigma = seg(*sigma)
        key = self.key_of(sigma)
        hit = self.fact(flavor, key)
        if hit is not None and hit[0] == 1:
            return hit[1]
        build = builders.build_interior_graph(self.poly, sigma)
        for dev in (build.notes["device_v"], build.notes["device_w"]):
            if dev.kind == "ray":
                self.ensure_leg_facts(dev.ray, flavor)
        return self.run_plan(build, flavor)

    def interior_targets(self) -> list[Segment]:
        """All primitive segments with at least one end off the polygon
        boundary, lexicographically."""
        pts = self.poly.lattice_points()
        out = []
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                if self.poly.side(p) == 0 and self.poly.side(q) == 0:
                    continue
                try:
                    out.append(seg(p, q))
                except ValueError:
                    continue
        return sorted(set(out))

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
        """Run the derivation matching the verdict and return a report with
        the certificate DAG."""
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
            report["certificate"] = self.export_certificate()
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
        report["certificate"] = self.export_certificate()
        return report

    def homological_bridges(self, snake) -> None:
        """Exponent-one homological facts for every bridge class: the snake
        head's chain rule gives the square at the bridge anchor, the odd gcd
        power reduces it to one, and the propagation graphs spread it."""
        s1, s2 = snake.chain[0], snake.chain[1]
        v1 = snake.points[1]
        anchor = snake.points[2]
        key = ("bridge", anchor)
        # the projected geometric power lands in the store first, so the
        # chain rule's square combines with the odd exponent to one
        self.fact(HOMOLOGICAL, key)
        self.chain_rule_square(s1, v1, s2, snake.bridge)
        e, _ = self.require(HOMOLOGICAL, key, "homological_bridges")
        if e != 1:
            raise DerivationError(
                "homological_bridges", f"anchor exponent {e} after the chain rule"
            )
        # spread around the adjoint boundary by propagation to a fixed point
        adj = self.adjoint
        cyc = builders.adjoint_boundary_cycle(adj)
        verts = set(adj.vertices)
        from .geometry import lattice_length

        for _ in range(4 * len(cyc)):
            changed = False
            for kappa in sorted(verts):
                for kprime in builders._neighbors_on_boundary(adj, kappa):
                    got = self.fact(HOMOLOGICAL, ("bridge", kprime))
                    if got is None or got[0] != 1:
                        continue
                    far = next(
                        fv
                        for fv in sorted(verts)
                        if fv != kappa
                        and primitive(sub(fv, kappa)) != primitive(sub(kprime, kappa))
                        and primitive(sub(fv, kappa))
                        in [
                            primitive(sub(q, kappa))
                            for q in builders._neighbors_on_boundary(adj, kappa)
                        ]
                    )
                    lx = lattice_length(kappa, far)
                    for a in range(1, lx):
                        tkey = ("bridge", builders._frame_with_point_up(
                            self.poly, kappa, kprime
                        )[0].inverse().apply((a, 0)))
                        cur = self.fact(HOMOLOGICAL, tkey)
                        if cur is not None and cur[0] == 1:
                            continue
                        self.pipeline_propagate(kappa, kprime, a, HOMOLOGICAL)
                        changed = True
            if not changed:
                break
        for p in cyc:
            got = self.fact(HOMOLOGICAL, ("bridge", p))
            if got is None or got[0] != 1:
                raise DerivationError(
                    "homological_bridges", f"bridge at {p} not reduced to exponent 1"
                )

    # -- certificates ---------------------------------------------------------

    def export_certificate(self) -> dict:
        return {
            "schema": "1",
            "polygon": self.poly.to_json(),
            "nodes": [n.to_json() for n in self.nodes],
        }

    def minimal_subdag(self, node_id: int) -> dict:
        keep = set()
        stack = [node_id]
        while stack:
            i = stack.pop()
            if i in keep:
                continue
            keep.add(i)
            stack.extend(self.nodes[i].premises)
        nodes = [self.nodes[i].to_json() for i in sorted(keep)]
        return {"schema": "1", "polygon": self.poly.to_json(), "nodes": nodes}


# ---------------------------------------------------------------------------
# certificate replay
# ---------------------------------------------------------------------------

_NODE_FIELDS = ("id", "rule", "params", "premises", "conclusion")


def replay_certificate(data: dict) -> bool:
    """Re-run every rule application of an exported certificate through the
    rule kernel; a malformed node, a failed rule or a recomputed conclusion
    that differs from the recorded one raises ReplayError."""
    if not isinstance(data, dict) or not isinstance(data.get("nodes"), list):
        raise ReplayError("certificate has no node list")
    try:
        poly = LatticePolygon.from_json(data["polygon"])
        ctx = RuleContext(poly, adjoint_polygon(poly))
    except Exception as exc:
        raise ReplayError(f"bad polygon: {exc}")
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


# ---------------------------------------------------------------------------
# divisible pipelines (powers of twists under a d-divisible adjoint)
# ---------------------------------------------------------------------------


def _graph_residual(graph: WeightedSegmentGraph, at: Point) -> Point:
    acc = (0, 0)
    for s, m in graph.entries.items():
        if at in s:
            d = primitive(sub(s[1] if at == s[0] else s[0], at))
            acc = (acc[0] + m * d[0], acc[1] + m * d[1])
    return acc


def _all_anchors(engine: Engine):
    adj = engine.adjoint
    out = []
    for kappa in adj.vertices:
        for kprime in builders._neighbors_on_boundary(adj, kappa):
            for orientation in ("kk'", "k'k"):
                out.append((kappa, kprime, orientation))
    return out


def _device_certificates(engine: Engine, x: Point, w: Point, keep=None):
    """Certified graphs made of the weight-one chain [x, w] and a pair of end
    devices at x and w that overlap neither the chain nor each other, in
    search order: yields (device at x, device at w, certificate)."""
    from .geometry import primitive_segments_on, lattice_points_on_segment

    poly = engine.poly
    pieces = primitive_segments_on(x, w)
    base = WeightedSegmentGraph({s: 1 for s in pieces})
    devices_w = builders.end_devices(poly, w, primitive(sub(x, w)))
    for dx in builders.end_devices(poly, x, primitive(sub(w, x))):
        for dw in devices_w:
            if keep is not None and not keep(dx, dw):
                continue
            if any(dx.graph.weight(s) or dw.graph.weight(s) for s in pieces):
                continue
            if any(dx.graph.weight(s) for s in dw.graph.entries):
                continue
            g = base.union(dx.graph).union(dw.graph)
            if check_balancing(g, poly) or not g.loops_pairwise_disjoint():
                continue
            zero = [p for p in lattice_points_on_segment(x, w) if poly.side(p) != 0]
            one = []
            for dev in (dx, dw):
                if dev.kind == "chain":
                    for s in dev.graph.entries:
                        for p in s:
                            if poly.side(p) != 0:
                                zero.append(p)
                            elif p not in one:
                                one.append(p)
            sweeps = [dev.ray for dev in (dx, dw) if dev.ray is not None]
            try:
                cert = builders.certify_flexible(g, poly, sweeps, zero, one)
            except (CertificationError, AssertionError):
                continue
            yield dx, dw, cert


def _chain_chase(engine: Engine, u: Point, w: Point, flavor) -> int:
    """Weight-one chain [u, w] balanced by end devices; chasing from the
    d-point u yields an exponent-one fact for every primitive piece."""
    from .geometry import lattice_points_on_segment

    last = None
    for dv, dw, cert in _device_certificates(engine, u, w):
        if dv.kind == "ray":
            engine.ensure_leg_facts(dv.ray, flavor)
        try:
            comp = engine.axiom_rea(cert, flavor)
            for s in dv.legs:
                comp = engine.absorb(comp, s)
            for p in lattice_points_on_segment(u, w)[:-1]:
                if engine.poly.side(p) == 0:
                    raise DerivationError("interior_d", "chain touches the boundary")
                fid, comp = engine.chase(comp, p)
            return comp
        except DerivationError as exc:
            last = exc
    raise DerivationError("interior_d", f"devices failed: {last}")


def pipeline_interior_d(self, sigma: Segment, d: int, flavor=GEOMETRIC) -> int:
    """Exponent-one twist for a segment whose line meets the d-divisible
    points, assuming exponent-one bridges at those points."""
    from .polygons import divisible_points
    from .geometry import orient

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
                _chain_chase(self, u, w, flavor)
                got = self.fact(flavor, self.key_of(sigma))
                if got is None or got[0] != 1:
                    raise DerivationError("interior_d", "chase missed the segment")
                return got[1]
            except (DerivationError, CertificationError, ValueError, AssertionError) as exc:
                last_error = exc
    raise DerivationError("interior_d", f"no usable configuration: {last_error}")


def _gamma_triple(self, w: Point, d: int):
    """Three primitive segments ending at w whose far chains start at
    d-divisible points spanning d Z^2, from a unimodular triangle of the
    homothetic adjoint containing the scaled image of w."""
    from .polygons import divisible_points
    from .geometry import lattice_points_on_segment
    from .homology import canonical_triangulation
    from fractions import Fraction

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
    from .geometry import primitive_segments_on

    last = None
    for dx, dw, cert in _device_certificates(
        self, x, w, lambda dx, dw: dx.kind != "ray" and dw.kind == "ray"
    ):
        try:
            comp = self.axiom_rea(cert, flavor)
            for s in primitive_segments_on(x, w) + list(dx.graph.entries):
                comp = self.absorb(comp, s)
            return comp, dw.ray
        except DerivationError as exc:
            last = exc
    raise DerivationError("diad", f"gamma entry failed: {last}")


def _pair_once(self, node_id: int, w: Point, target, flavor) -> int | None:
    """Pair a composite ray fact at w with the target-anchor sweep whose
    weights cancel the residual; certify the balanced union and subtract."""
    graph = graph_of(self.nodes[node_id].conclusion)
    t_kappa, t_kprime, t_orient = target
    from .builders import _solve_pair

    try:
        probe = builders.build_ray_sweep(self.poly, t_kappa, t_kprime, w, 1, 1, t_orient)
        res = _graph_residual(graph, w)
        l1 = builders._dir_out(probe.leg1, w)
        l2 = builders._dir_out(probe.leg2, w)
        n1, n2 = _solve_pair(l1, l2, (-res[0], -res[1]))
        tsweep = builders.build_ray_sweep(self.poly, t_kappa, t_kprime, w, n1, n2, t_orient)
    except (ValueError, AssertionError):
        return None
    tgraph = tsweep.graph
    union = graph.copy().union(tgraph)
    if not union.entries:
        return None  # paired a fact against its own negation
    if check_balancing(union, self.poly) or not union.loops_pairwise_disjoint():
        return None
    try:
        cert = builders.certify_flexible(union, self.poly, [probe, tsweep])
    except (CertificationError, AssertionError):
        return None
    rea = self.axiom_rea(cert, flavor)
    return self.subtract(rea, node_id)


def _ray_weight_coords(rs_probe, graph: WeightedSegmentGraph) -> tuple[int, int]:
    """Seed weights (m1, m2) of a ray-sweep-shaped graph, read off its legs."""
    return graph.weight(rs_probe.leg1), graph.weight(rs_probe.leg2)


def _facts_at_anchor(self, entries, w, target, flavor, need=2, rounds=3):
    """BFS over anchor pairings until the target anchor holds ``need``
    weight-independent composite facts."""
    from .geometry import cross

    probe = builders.build_ray_sweep(self.poly, target[0], target[1], w, 1, 1, target[2])
    state: dict[tuple, list[int]] = {}
    for anchor, nid in entries:
        state.setdefault(anchor, []).append(nid)

    def target_facts():
        out = []
        for nid in state.get(target, []):
            g = graph_of(self.nodes[nid].conclusion)
            out.append((nid, _ray_weight_coords(probe, g)))
        return out

    anchors = _all_anchors(self)
    for _ in range(rounds):
        got = target_facts()
        vecs = [mv for _, mv in got]
        if any(cross(v1, v2) != 0 for i, v1 in enumerate(vecs) for v2 in vecs[i + 1:]):
            return got
        for anchor in list(state):
            for nid in list(state[anchor]):
                for t in anchors:
                    new = _pair_once(self, nid, w, t, flavor)
                    if new is not None:
                        g = graph_of(self.nodes[new].conclusion)
                        known = [
                            graph_of(self.nodes[x].conclusion).entries
                            for x in state.get(t, [])
                        ]
                        if g.entries not in known:
                            state.setdefault(t, []).append(new)
        got = target_facts()
        vecs = [mv for _, mv in got]
        if any(cross(v1, v2) != 0 for i, v1 in enumerate(vecs) for v2 in vecs[i + 1:]):
            return got
    raise DerivationError("diad", "anchor transport did not reach independence")


def _device_power_fact(self, rs, d: int, flavor) -> int:
    """Composite fact for the d-th power of a ray sweep at its seed, by the
    gamma combination algebra."""
    from .intlinalg import solve_int

    w = rs.v
    anchor = (rs.kappa, rs.kappa_prime, rs.orientation)
    gammas = _gamma_triple(self, w, d)
    for x, gp in gammas:
        pipeline_interior_d(self, gp, d, flavor)
    entries = []
    for x, _ in gammas:
        nid, ray0 = _gamma_entry(self, x, w, flavor)
        entries.append(((ray0.kappa, ray0.kappa_prime, ray0.orientation), nid))
    facts = _facts_at_anchor(self, entries, w, anchor, flavor)
    m1 = rs.graph.weight(rs.leg1)
    m2 = rs.graph.weight(rs.leg2)
    mat = [[mv[0] for _, mv in facts], [mv[1] for _, mv in facts]]
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
    build = builders.build_interior_graph(self.poly, sigma)
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
        fact = _device_power_fact(self, dev.ray, d, flavor)
        full_d = self.subtract(full_d, fact)
    return self.terminal(full_d, sigma)


Engine.pipeline_interior_d = pipeline_interior_d
Engine.pipeline_interior_dd = pipeline_interior_dd
