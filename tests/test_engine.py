import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import weakref
from collections import Counter
from math import gcd

import pytest

import tropmono
from tropmono import builders, geometry, graphs, polygons, subdivision
from tropmono.geometry import LatticePolygon, lattice_length, seg
from tropmono.engine import (
    Engine,
    DerivationError,
    GEOMETRIC,
    HOMOLOGICAL,
    Node,
    ReplayError,
    claims,
    key_to_json,
    replay_certificate,
    single,
)
from tropmono.polygons import adjoint_boundary_cycle, adjoint_polygon, analyze

T3 = LatticePolygon([(0, 0), (3, 0), (0, 3)])
T4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])
T6 = LatticePolygon([(0, 0), (6, 0), (0, 6)])
SQ4 = LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])
R4x6 = LatticePolygon([(0, 0), (4, 0), (4, 6), (0, 6)])
SQ5 = LatticePolygon([(0, 0), (5, 0), (5, 5), (0, 5)])
R5x7 = LatticePolygon([(0, 0), (5, 0), (5, 7), (0, 7)])


def interior_targets(poly: LatticePolygon) -> list:
    """All primitive segments of the polygon with at least one end off its
    boundary, lexicographically."""
    pts = poly.lattice_points()
    out = []
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            if poly.side(p) == 0 and poly.side(q) == 0:
                continue
            try:
                out.append(seg(p, q))
            except ValueError:
                continue
    return sorted(set(out))


def test_acycle_axiom():
    e = Engine(T4)
    e.axiom_acycle((1, 1))
    assert e.facts[(GEOMETRIC, ("acycle", (1, 1)))][0] == 1
    with pytest.raises(DerivationError):
        e.axiom_acycle((0, 0))


def test_corner_and_side_pipelines():
    e = Engine(T6)
    e.ensure_acycles()
    e.pipeline_corner((1, 1))
    assert e.facts[(GEOMETRIC, ("bridge", (1, 1)))][0] == 1
    e.pipeline_side(((1, 1), (4, 1)))
    for i in range(1, 4):
        key = ("seg", seg((i, 1), (i + 1, 1)))
        assert e.facts[(GEOMETRIC, key)][0] == 1


def test_gcd_combine_in_store():
    e = Engine(T6)
    key = ("seg", seg((0, 0), (1, 1)))
    for exponent in (4, 6):
        nid = len(e.nodes)
        e.nodes.append(Node(nid, "acycle", {"v": [1, 1]}, [], single(GEOMETRIC, key, exponent)))
        e._record_single(GEOMETRIC, key, exponent, nid)
    assert e.facts[(GEOMETRIC, ("seg", seg((0, 0), (1, 1))))][0] == 2


def test_derive_t3_and_replay():
    e = Engine(T3)
    rep = e.derive_surjectivity()
    assert rep["verdict"]["mu"] == "surjective"
    assert rep["generators"]["acycle"] == [1, 1]
    assert replay_certificate(rep["certificate"])


def test_derive_t4_geometric_coverage():
    e = Engine(T4)
    rep = e.derive_surjectivity()
    assert rep["verdict"] == {"mu": "surjective", "algebraic_mu": "surjective"}
    for s in interior_targets(e.poly):
        e.derive_segment(s, GEOMETRIC)
        exp, _ = e.fact(GEOMETRIC, e.key_of(s))
        assert exp == 1
    assert replay_certificate(e.export_certificate())


def test_derive_t6_homological():
    e = Engine(T6)
    rep = e.derive_surjectivity()
    assert rep["verdict"]["mu"] == "not_surjective"
    assert rep["verdict"]["algebraic_mu"] == "surjective"
    assert rep["obstruction"]["n"] == 3
    adj = adjoint_polygon(T6)
    verts = set(adj.vertices)
    for p in adjoint_boundary_cycle(adj):
        geo = e.facts[(GEOMETRIC, ("bridge", p))][0]
        assert geo == (1 if p in verts else 3)
        hom = e.facts[(HOMOLOGICAL, ("bridge", p))][0]
        assert hom == 1


def test_derive_sq4_obstructed():
    e = Engine(SQ4)
    rep = e.derive_surjectivity()
    assert rep["verdict"]["mu"] == "not_surjective"
    assert rep["verdict"]["algebraic_mu"] == "not_surjective"
    assert rep["obstruction"]["n"] == 2


def _digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


CERTIFICATE_DIGESTS = {
    "T3": "6a89695aea2baf46bd572f90b147e49b972c5d9de79bfd8af9b95166088421f8",
    "T4": "0175ff6be9485ffb32e4894a047e18ffa100299569cde0f9f326d868883159bc",
    "SQ4": "a59b0cc1fead054196fa1a7173933c85e2760e71098fcf321f9f42278d193c1f",
    "T6": "d1ef3022099391c0a8ac4bc49f05006b6cafaa5d4ae4d7d9047e49f16e8b5f20",
    "SQ5": "96b101781591891b53a8d91756b1eff8ff61be6257d1a78b4cace4d86c0e6f68",
}


# the certificates of derive_surjectivity's reports: the sub-DAGs the claims reach
REPORT_DIGESTS = {
    "T3": "22712072b24a4b48370d239ee134a878646ee1288ed92544f4d431be0830be10",
    "T4": "ad3799aea0fae066caa3f1e3e054853ecdf77086013af0895b13b376978e9c25",
    "SQ4": "5e505ef171b10ec3e782dcec8c4d67c8af20b1af4a9137e5e69ab7c935754159",
    "T6": "f9907a4663a4f93ce2965db30c12610245fcea2b960ea05da5383df9ce14917c",
}

POLYGONS = {"T3": T3, "T4": T4, "SQ4": SQ4, "T6": T6}


def _derived(poly) -> Engine:
    e = Engine(poly)
    e.derive_surjectivity()
    return e


@pytest.mark.parametrize("name", list(POLYGONS))
def test_certificate_bytes_golden(name):
    """Derived certificates are pinned byte for byte: changes to the
    arithmetic under the derivation must not change what it emits.  Both
    the whole DAG and the report's claimed sub-DAG are pinned, so each
    re-derives byte for byte.  T3 keeps the digests it had before the
    peeler replaced the hand-written deduction plans (its one composite
    collapses); T4, SQ4 and T6 were re-pinned then, since the peeler
    records its nodes in another order, and again when the bridge
    exponents came from one closure that runs only the transfers that
    lower them (T4's report kept its digest)."""
    e = Engine(POLYGONS[name])
    report = e.derive_surjectivity()
    assert _digest(e.export_certificate()) == CERTIFICATE_DIGESTS[name]
    assert _digest(report["certificate"]) == REPORT_DIGESTS[name]


def test_fan_recipe_certificate_bytes_golden(monkeypatch):
    """SQ5's whole DAG is pinned as well: T3, T4, SQ4 and T6 certify every
    graph by its line arrangement, while on SQ5 the staged fan recipe
    certifies a graph too, so its certificates stay byte for byte."""
    fan_certified = []
    original = builders.certify_graph

    def counted(graph, poly, allow_unbalanced_at=frozenset(), fans=None):
        cert = original(graph, poly, allow_unbalanced_at, fans)
        fan_certified.append(fans is not None)
        return cert

    monkeypatch.setattr(builders, "certify_graph", counted)
    assert _digest(_derived(SQ5).export_certificate()) == CERTIFICATE_DIGESTS["SQ5"]
    assert any(fan_certified)


def test_searches_certify_each_request_once(monkeypatch):
    """A device-pair or leg-pair search does not certify a request (graph
    entries, exemptions, fan plan) that already failed in it: T6's
    derivation makes 24 distinct requests in 24 calls (25 when a
    ``build_leg_pair`` search certified one union graph twice), and its
    certificates keep their bytes."""
    requests = []
    original = builders.certify_graph

    def counted(graph, poly, allow_unbalanced_at=frozenset(), fans=None):
        requests.append((frozenset(graph.entries.items()), frozenset(allow_unbalanced_at), fans))
        return original(graph, poly, allow_unbalanced_at, fans)

    monkeypatch.setattr(builders, "certify_graph", counted)
    e = Engine(T6)
    report = e.derive_surjectivity()
    assert len(requests) == len(set(requests)) == 24
    assert _digest(e.export_certificate()) == CERTIFICATE_DIGESTS["T6"]
    assert _digest(report["certificate"]) == REPORT_DIGESTS["T6"]


def test_a_derivation_clips_its_polygon_once(monkeypatch):
    """The polygon keeps its adjoint and each frame image comes with the
    image of it, so one derivation clips by each half-plane of its polygon
    once: 13 times over T3, T4, SQ4 and T6, 3 times on T8 and 4 on R6x7.
    Each derivation starts from a new polygon object, which keeps no
    adjoint yet."""
    calls = []
    clip = geometry._clip

    def counted(*args):
        calls.append(args)
        return clip(*args)

    monkeypatch.setattr(geometry, "_clip", counted)
    t8 = [(0, 0), (8, 0), (0, 8)]
    r6x7 = [(0, 0), (6, 0), (6, 7), (0, 7)]
    counts = {}
    for name, vertices in [(n, p.vertices) for n, p in POLYGONS.items()] + [("T8", t8), ("R6x7", r6x7)]:
        calls.clear()
        _derived(LatticePolygon(vertices))
        counts[name] = len(calls)
    assert counts == {"T3": 3, "T4": 3, "SQ4": 4, "T6": 3, "T8": 3, "R6x7": 4}


def test_a_derivation_normalizes_each_adjoint_vertex_once(monkeypatch):
    """The polygon keeps its frames (``polygons.frame_at``), so one
    derivation of a new R6x7 polygon normalizes at each adjoint vertex at
    most once, where it used to normalize 804 times."""
    calls = []
    normalize = polygons.normalize_at_vertex

    def counted(poly, kappa):
        calls.append(kappa)
        return normalize(poly, kappa)

    for module in (polygons, builders, graphs):  # every binding of the name
        if hasattr(module, "normalize_at_vertex"):
            monkeypatch.setattr(module, "normalize_at_vertex", counted)
    poly = LatticePolygon([(0, 0), (6, 0), (6, 7), (0, 7)])
    _derived(poly)
    assert calls and len(calls) == len(set(calls)) <= len(adjoint_polygon(poly).vertices), calls


def test_a_cancelling_sweep_builds_its_graph_once(monkeypatch):
    """A cancelling sweep reads its legs off the sweep's geometry, so one T6
    derivation builds at most 30 sweep graphs (58 when each cancelling
    sweep built a probe sweep first), and each of them once per request."""
    built = []
    graph = builders._sweep_graph

    def counted(poly, geometry, m1, m2):
        built.append((geometry[-1], m1, m2))
        return graph(poly, geometry, m1, m2)

    monkeypatch.setattr(builders, "_sweep_graph", counted)
    cancelling = []
    sweep = builders.cancelling_sweep

    def counted_sweep(*args):
        before = len(built)
        out = sweep(*args)
        cancelling.append(len(built) - before)
        return out

    monkeypatch.setattr(builders, "cancelling_sweep", counted_sweep)
    _derived(LatticePolygon(T6.vertices))
    assert 0 < len(built) <= 30 and cancelling and set(cancelling) == {1}, (len(built), cancelling)


def _sweep_a(n: int) -> list:
    """The first n polygons of genus at most 20 and d != 1 drawn by
    ``random_smooth_polygon`` from ``random.Random(7)``."""
    from test_polygons import random_smooth_polygon

    rng, out = random.Random(7), []
    while len(out) < n:
        poly = random_smooth_polygon(rng)
        a = analyze(poly)[0]
        if a.genus <= 20 and a.d != 1:
            out.append(poly)
    return out


def test_sweep_a_prefix_certificates_are_pinned():
    """One sha256 over the whole-DAG and the report certificate of each of
    the first 40 sweep-A polygons, in order (a genus-zero polygon's report
    has none)."""
    items = []
    for poly in _sweep_a(40):
        engine = Engine(poly)
        report = engine.derive_surjectivity()
        items.append([engine.export_certificate(), report["certificate"]])
    assert _digest(items) == "8aec289247c1cbe34b4d9821c7e6bf812b46737c59d8b74e54071557e5fa0c5c"


@pytest.mark.parametrize("poly", [T4, SQ4, T6, R4x6], ids=["T4", "SQ4", "T6", "R4x6"])
def test_no_graph_enters_the_dag_twice(poly):
    """A transfer runs only when it lowers a bridge exponent, so the whole
    DAG's admissible nodes carry pairwise distinct graphs.  The fixed-point
    loops that reran every transfer each round recorded 30 such nodes for 9
    graphs on T4, 88 for 28 on SQ4, 87 for 36 on T6 and 120 for 40 on R4x6."""
    nodes = _derived(poly).export_certificate()["nodes"]
    drawn = [json.dumps(n["params"]["certificate"]["graph"], sort_keys=True)
             for n in nodes if n["rule"] == "admissible"]
    assert drawn and len(set(drawn)) == len(drawn)


@pytest.fixture(scope="module")
def reports():
    """name -> (Engine after derive_surjectivity, its report)."""
    out = {}
    for name, poly in POLYGONS.items():
        e = Engine(poly)
        out[name] = (e, e.derive_surjectivity())
    return out


def _points(data) -> list:
    return [tuple(p) for p in data]


@pytest.mark.parametrize("name", list(POLYGONS))
def test_claims_follow_the_verdict(name, reports):
    """d = 0: the A-cycle and bridge generators; odd n: the snake's chain,
    interior A-cycles and bridge, geometric for n = 1 and homological
    otherwise; even n: the gcdedges bridge powers.  Listing them records
    no node."""
    e, report = reports[name]
    count = len(e.nodes)
    got = claims(e)
    assert len(e.nodes) == count
    n = report["analysis"]["n"]
    if report["analysis"]["d"] == 0:
        gens = report["generators"]
        want = [(GEOMETRIC, ("acycle", tuple(gens["acycle"])), 1),
                (GEOMETRIC, e.key_of(seg(*_points(gens["bridge"]))), 1)]
    elif n % 2:
        snake = report["snake"]
        loops = [e.key_of(seg(*_points(s))) for s in snake["chain"]]
        loops += [("acycle", p) for p in _points(snake["points"])[1:]]
        loops.append(e.key_of(seg(*_points(snake["bridge"]))))
        want = [(GEOMETRIC if n == 1 else HOMOLOGICAL, key, 1) for key in loops]
    else:
        verts = set(e.adjoint.vertices)
        want = [(GEOMETRIC, ("bridge", p), 1 if p in verts else n)
                for p in adjoint_boundary_cycle(e.adjoint)]
    assert got == want


@pytest.mark.parametrize("name", list(POLYGONS))
def test_report_certificate_concludes_every_claim(name, reports):
    """Each claimed fact is the conclusion of an exported node: the same
    loop, the claimed flavor (or geometric, which implies the homological
    claim) and an exponent dividing the claimed one."""
    e, report = reports[name]
    cert = report["certificate"]
    singles = [n["conclusion"] for n in cert["nodes"] if n["conclusion"]["type"] == "single"]
    for flavor, key, exponent in claims(e):
        flavors = (flavor, GEOMETRIC) if flavor == HOMOLOGICAL else (flavor,)
        assert any(
            c["key"] == key_to_json(key) and c["flavor"] in flavors and exponent % c["exponent"] == 0
            for c in singles
        ), (flavor, key, exponent)


@pytest.mark.parametrize("name", list(POLYGONS))
def test_report_certificate_is_the_claims_premise_closure(name, reports):
    """The report's nodes are the full export's nodes, unchanged and in
    order, that the nodes concluding claimed facts reach through premises:
    every node no other exported node uses concludes a claimed fact, and
    nothing outside its premise closure is exported.  It replays."""
    e, report = reports[name]
    cert = report["certificate"]
    full = e.export_certificate()["nodes"]
    ids = [n["id"] for n in cert["nodes"]]
    assert cert["nodes"] == [n for n in full if n["id"] in set(ids)]
    used = {j for n in cert["nodes"] for j in n["premises"]}
    keys = {(flavor, json.dumps(key_to_json(key))) for flavor, key, _ in claims(e)}
    closure, stack = set(), [i for i in ids if i not in used]
    for i in stack:
        c = full[i]["conclusion"]
        flavors = (c["flavor"], HOMOLOGICAL) if c["flavor"] == GEOMETRIC else (c["flavor"],)
        assert c["type"] == "single"
        assert any((f, json.dumps(c["key"])) in keys for f in flavors), c
    while stack:
        i = stack.pop()
        if i not in closure:
            closure.add(i)
            stack.extend(full[i]["premises"])
    assert closure == set(ids)
    assert replay_certificate(json.loads(json.dumps(cert)))


def test_missing_or_weaker_claimed_fact_is_a_derivation_error(monkeypatch):
    """The report is exported only when the store holds every claimed fact
    with an exponent dividing the claimed one."""
    from tropmono import engine

    claimed = claims(_derived(SQ4))
    assert (GEOMETRIC, ("bridge", (2, 1)), 2) in claimed
    monkeypatch.setattr(engine, "claims", lambda e: claimed + [(GEOMETRIC, ("bridge", (2, 1)), 3)])
    with pytest.raises(DerivationError, match=r"\[claims\] .*\(2, 1\).* exponent 2, claimed 3$"):
        Engine(SQ4).derive_surjectivity()
    monkeypatch.setattr(engine, "claims", lambda e: claimed + [(HOMOLOGICAL, ("acycle", (9, 9)), 1)])
    with pytest.raises(DerivationError, match=r"\[claims\] missing fact homological"):
        Engine(SQ4).derive_surjectivity()


def _witness_json(cert_json) -> str:
    """The (polygon, heights, cells) part of an admissible node's
    certificate, as canonical JSON."""
    return json.dumps([cert_json[k] for k in ("polygon", "heights", "cells")], sort_keys=True)


@pytest.fixture(scope="module")
def t4_repeating(t4_certificate):
    """The T4 certificate with a copy of its first admissible node appended.
    A derivation no longer records a witness twice, but schema-1 files
    written by earlier versions do, and replay must handle them."""
    cert = json.loads(json.dumps(t4_certificate))
    copy = json.loads(json.dumps(next(n for n in cert["nodes"] if n["rule"] == "admissible")))
    copy["id"] = cert["nodes"][-1]["id"] + 1
    cert["nodes"].append(copy)
    return cert


def test_replay_verifies_every_admissible_node(monkeypatch, t4_repeating):
    """Replay verifies every admissible node, runs verify_subdivision once
    per node, a repeated witness included (no witness is memoized), and
    never gift-wraps a witness."""
    cert = t4_repeating
    params = [n["params"]["certificate"] for n in cert["nodes"] if n["rule"] == "admissible"]
    admissible, distinct = len(params), len({_witness_json(c) for c in params})
    calls = {"verify": 0, "subdivision_from_heights": 0, "verify_subdivision": 0}

    def counted(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(graphs.AdmissibilityCertificate, "verify", "verify")
    # the package first: it resolves the name on first access, from the
    # module binding, which must not be a wrapper yet
    for module in (tropmono, subdivision, graphs):
        counted(module, "subdivision_from_heights", "subdivision_from_heights")
    for module in (subdivision, graphs):
        counted(module, "verify_subdivision", "verify_subdivision")
    assert replay_certificate(cert)
    assert (admissible, distinct) == (7, 6)
    assert calls == {
        "verify": admissible,
        "subdivision_from_heights": 0,
        "verify_subdivision": admissible,
    }


def _shared_witness(cert) -> tuple[int, int]:
    """Indices of the first two admissible nodes that carry the same witness."""
    seen = {}
    for i, n in enumerate(cert["nodes"]):
        if n["rule"] == "admissible":
            key = _witness_json(n["params"]["certificate"])
            if key in seen:
                return seen[key], i
            seen[key] = i
    raise AssertionError("no witness is shared")


def _rejected_at(cert, i):
    return pytest.raises(
        ReplayError, match=rf"^node {cert['nodes'][i]['id']} \(admissible\): certificate failed"
    )


def _decoded_witness(cert_json):
    c = graphs.AdmissibilityCertificate.from_json(cert_json)
    return subdivision.verify_subdivision(c.polygon, c.cells, c.witness)


def test_witness_memo_checks_each_graph_against_the_cells(t4_repeating):
    """A later node that repeats a verified witness has its graph checked
    against the cells: an edge outside them is rejected there, while an
    edge inside them replays."""
    _, second = _shared_witness(t4_repeating)
    edges = _decoded_witness(t4_repeating["nodes"][second]["params"]["certificate"]).edges()
    inside = outside = None
    boundary = T4.boundary_points()
    for p in boundary:
        for q in boundary:
            if p < q and gcd(q[0] - p[0], q[1] - p[1]) == 1:
                if seg(p, q) in edges:
                    inside = inside or seg(p, q)
                else:
                    outside = outside or seg(p, q)
    assert inside is not None and outside is not None
    for s, ok in ((inside, True), (outside, False)):
        cert = json.loads(json.dumps(t4_repeating))
        cert["nodes"] = cert["nodes"][:second + 1]
        node = cert["nodes"][second]
        edge = [list(s[0]), list(s[1]), 1]
        node["params"]["certificate"]["graph"] = {"edges": [edge]}
        node["conclusion"] = {"type": "composite", "flavor": GEOMETRIC, "edges": [edge]}
        if ok:
            assert replay_certificate(cert)
        else:
            with _rejected_at(cert, second):
                replay_certificate(cert)


def _corrupted_witnesses(cert_json):
    """Copies of a witness with the height of an interior point raised far
    above its cells or one cell vertex moved, each checked to be rejected
    by verify_subdivision."""
    height = json.loads(json.dumps(cert_json))
    h = next(h for h in height["heights"] if T4.side(tuple(h[:2])) == 1)
    h[2] += 1000 * h[3]
    cell = json.loads(json.dumps(cert_json))
    cell["cells"][0]["vertices"][0][0] += 1
    for bad in (height, cell):
        assert _decoded_witness(bad) is None
    return {"height": height, "cell": cell}


@pytest.mark.parametrize("what", ["height", "cell"])
def test_witness_memo_rejects_a_corrupted_second_copy(what, t4_repeating):
    """Only the second copy of a shared witness is corrupted: the first
    node replays, the second fails, since each node's witness is checked."""
    _, second = _shared_witness(t4_repeating)
    cert = json.loads(json.dumps(t4_repeating))
    params = cert["nodes"][second]["params"]
    params["certificate"] = _corrupted_witnesses(params["certificate"])[what]
    with _rejected_at(cert, second):
        replay_certificate(cert)


@pytest.mark.parametrize("what", ["height", "cell"])
def test_witness_memo_rejects_a_corrupted_first_copy(what, t4_repeating):
    """The first copy of a shared witness is corrupted: replay fails at
    that first node, before the intact second copy is reached."""
    first, _ = _shared_witness(t4_repeating)
    cert = json.loads(json.dumps(t4_repeating))
    params = cert["nodes"][first]["params"]
    params["certificate"] = _corrupted_witnesses(params["certificate"])[what]
    with _rejected_at(cert, first):
        replay_certificate(cert)


def test_derivation_verifies_each_witness_once(monkeypatch):
    """The refinement verifies the witness it builds, and the admissible
    rule of the same derivation finds it checked; replay still verifies
    every distinct witness of the certificate.  ``seen`` holds (polygon,
    heights, cells) of every verify_subdivision call, from either caller."""
    seen = []
    original = subdivision.verify_subdivision

    def counted(poly, cells, heights):
        hf = heights if isinstance(heights, subdivision.HeightFunction) \
            else subdivision.HeightFunction.of(heights)
        seen.append((poly, hf, frozenset(cells)))
        return original(poly, cells, heights)

    monkeypatch.setattr(subdivision, "verify_subdivision", counted)
    monkeypatch.setattr(graphs, "verify_subdivision", counted)
    cert = _derived(SQ4).export_certificate()
    assert len(seen) == len(set(seen)) > 0
    witnesses = {
        json.dumps(node["params"]["certificate"]["heights"], sort_keys=True)
        for node in cert["nodes"] if node["rule"] == "admissible"
    }
    seen.clear()
    assert replay_certificate(cert)
    assert len(seen) == len(set(seen)) == len(witnesses)


def test_verified_edges_stay_out_of_the_certificate_bytes(monkeypatch):
    """The edges the refinement verified ride on the derived certificate
    only: a certificate decoded from its JSON has none, and it compares
    equal to the derived one, whose (polygon, heights, cells) hash the
    same."""
    derived = []
    original = builders.certify_graph

    def kept(graph, poly, allow_unbalanced_at=frozenset(), fans=None):
        cert = original(graph, poly, allow_unbalanced_at, fans)
        derived.append(cert)
        return cert

    monkeypatch.setattr(builders, "certify_graph", kept)
    _derived(T4)
    pulled = [c for c in derived if c.verified_edges is not None]
    assert pulled
    for cert in pulled:
        decoded = graphs.AdmissibilityCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert decoded.verified_edges is None
        assert decoded == cert and repr(decoded) == repr(cert)
        key = (cert.polygon, cert.witness, cert.cells)
        assert hash((decoded.polygon, decoded.witness, decoded.cells)) == hash(key)
        assert decoded.verify() and cert.verify()


def test_leg_recursion_skips_legs_with_a_fact(monkeypatch):
    """R5x7 has leg-2 sweeps of more than one step, whose tail legs are
    derived first; a tail leg that already has a fact is not derived again
    (the recursion re-derived 3 such legs on R5x7, 48 nodes)."""
    entered = []
    original = Engine.derive_leg

    def checked(self, kappa, kappa_prime, u, orientation, which, flavor, depth=0):
        rs = builders.build_ray_sweep(self.poly, kappa, kappa_prime, u, 1, 1, orientation)
        leg = rs.leg1 if which == 1 else rs.leg2
        entered.append((depth, self.fact(flavor, self.key_of(leg)) is not None))
        return original(self, kappa, kappa_prime, u, orientation, which, flavor, depth)

    monkeypatch.setattr(Engine, "derive_leg", checked)
    e = _derived(R5x7)
    assert any(depth > 0 for depth, _ in entered)
    assert not any(stored for _, stored in entered)
    assert replay_certificate(e.export_certificate())


def test_engine_is_freed_without_the_cycle_collector():
    """A T6 derivation, whose searches meet failed certifications, leaves no
    reference cycle through the Engine: it is freed as soon as it is
    dropped, so repeated derivations do not pile up until a collection."""
    gc.disable()
    try:
        e = Engine(T6)
        e.derive_surjectivity()
        ref = weakref.ref(e)
        del e
        assert ref() is None
    finally:
        gc.enable()


def test_interior_d_and_dd_on_sq4():
    e = Engine(SQ4)
    e.pipeline_gcdedges()
    nid = e.pipeline_interior_d(seg((2, 2), (3, 3)), 2)
    assert e.nodes[nid].conclusion["exponent"] == 1
    nid2 = e.pipeline_interior_dd(seg((2, 1), (2, 2)), 2)
    assert e.nodes[nid2].conclusion["exponent"] == 2
    cert = e.export_certificate()
    assert replay_certificate(cert)
    # pinned when the bridge exponents came from one closure that runs only
    # the transfers that lower them (1150 nodes before the peeler, 1172 with
    # it and the fixed-point loops)
    assert len(cert["nodes"]) == 301
    assert _digest(cert) == "3e06c03a60179adae8e86504bf4b16990f30e0987a03e93caee647cb1ab8ef24"


def test_interior_d_rejects_missed_line():
    e = Engine(SQ4)
    e.pipeline_gcdedges()
    with pytest.raises(DerivationError):
        e.pipeline_interior_d(seg((2, 1), (2, 2)), 2)


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def _power_fixture() -> dict:
    """The schema-1 sub-DAG of ``pipeline_interior_dd(seg((2, 1), (2, 2)),
    2)`` on SQ4 after ``pipeline_gcdedges`` and ``pipeline_interior_d(seg((2,
    2), (3, 3)), 2)``: the d-th-power pipelines are the only derivation of
    the ``power``, ``subtract`` and ``combine`` rules, so this file keeps
    them under replay."""
    with open(os.path.join(FIXTURES, "sq4_interior_dd.json")) as fh:
        return json.load(fh)


def test_pinned_power_subtract_combine_certificate_replays():
    cert = _power_fixture()
    rules = Counter(n["rule"] for n in cert["nodes"])
    assert (len(cert["nodes"]), rules["power"], rules["subtract"], rules["combine"]) == (70, 3, 3, 1)
    assert _digest(cert) == "2ab4dddd8fee3bb783707ba0f9114592437191573277ba5474a5a0070795b9e2"
    assert replay_certificate(cert)


def _bump_first_weight(node):
    node["conclusion"]["edges"][0][2] += 1


def _change_operation(node):
    """k negated for ``power``; ``subtract`` and ``combine`` exchanged."""
    if node["rule"] == "power":
        node["params"]["k"] = -node["params"]["k"]
    else:
        node["rule"] = {"subtract": "combine", "combine": "subtract"}[node["rule"]]


POWER_CORRUPTIONS = {
    "conclusion-weight": _bump_first_weight,
    "premise-dropped": lambda node: node["premises"].pop(),
    "operation": _change_operation,
}


@pytest.mark.parametrize("how", sorted(POWER_CORRUPTIONS))
def test_corrupted_power_subtract_combine_nodes_are_rejected(how):
    cert = _power_fixture()
    ids = [i for i, n in enumerate(cert["nodes"]) if n["rule"] in ("power", "subtract", "combine")]
    assert len(ids) == 7
    for i in ids:
        corrupted = json.loads(json.dumps(cert))
        POWER_CORRUPTIONS[how](corrupted["nodes"][i])
        with pytest.raises(ReplayError, match=f"node {cert['nodes'][i]['id']} "):
            replay_certificate(corrupted)


def test_chase_preconditions():
    e = Engine(T4)
    e.ensure_acycles()
    from tropmono.builders import build_side_graph

    res = build_side_graph(T4, ((1, 1), (2, 1)))
    comp = e.axiom_rea(res.certificate)
    with pytest.raises(DerivationError):
        e.chase(comp, (1, 1))  # valency 2 before absorbing the end bridges


def test_minimal_subdag_replays():
    e = Engine(T4)
    e.derive_surjectivity()
    key = (GEOMETRIC, ("bridge", (1, 1)))
    _, nid = e.facts[key]
    sub = e.minimal_subdag(nid)
    assert replay_certificate(sub)
    assert len(sub["nodes"]) < len(e.nodes)


def test_replay_rejects_a_non_smooth_polygon():
    """Replay checks smoothness, as a derivation does, before it forms the
    adjoint: the adjoint of this triangle has a fractional vertex, so it
    would enumerate the N^2 / 2 interior points."""
    for n in (300, 10**9):
        cert = {"polygon": {"vertices": [[0, 0], [n, 0], [0, n + 1]]}, "nodes": []}
        with pytest.raises(ReplayError, match="^bad polygon: polygon not smooth$"):
            replay_certificate(cert)


def test_replay_checks_a_large_smooth_polygon_in_closed_form():
    """The polygon check costs O(#edges): ``analyze`` would list the
    divisors of n = 10^16 - 3 by trial division, seconds of work."""
    n = 10**16
    start = time.perf_counter()
    try:
        replay_certificate({"polygon": {"vertices": [[0, 0], [n, 0], [0, n]]}, "nodes": []})
    except ReplayError:
        pass
    assert time.perf_counter() - start < 1


@pytest.fixture(scope="module")
def t4_certificate():
    return _derived(T4).export_certificate()


def _admissible_params(cert):
    return next(n for n in cert["nodes"] if n["rule"] == "admissible")["params"]["certificate"]


def _replace(items, i, f):
    items[i] = f(items[i])


# certificates that decoding used to coerce into valid ones with int()
UNDECODABLE = {
    "cell-half-integer-vertex": lambda c: _replace(
        _admissible_params(c)["cells"][0]["vertices"], 1, lambda v: [v[0] + 0.5, v[1]]),
    "cell-three-coordinates": lambda c: _replace(
        _admissible_params(c)["cells"][0]["vertices"], 1, lambda v: v + [1]),
    "heights-repeated-point": lambda c: _admissible_params(c)["heights"].append(
        list(_admissible_params(c)["heights"][0])),
    "graph-half-integer-point": lambda c: _replace(
        _admissible_params(c)["graph"]["edges"][0], 0, lambda v: [v[0] + 0.5, v[1]]),
    "graph-float-weight": lambda c: _replace(
        _admissible_params(c)["graph"]["edges"][0], 2, float),
    "polygon-bool-coordinate": lambda c: _replace(
        c["polygon"]["vertices"], 0, lambda v: [bool(v[0]), v[1]]),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_strict_decoding_rejects_coercible_corruption(case, t4_certificate):
    cert = json.loads(json.dumps(t4_certificate))
    UNDECODABLE[case](cert)
    assert json.dumps(cert) != json.dumps(t4_certificate)  # False == 0 and 1.0 == 1 in Python
    with pytest.raises(ReplayError):
        replay_certificate(cert)


def corruptible_paths(obj, path=()):
    """Paths to the pinned integer fields of a certificate.

    Excluded: DAG wiring (rewiring premises can produce a different but
    still-sound derivation) and height witnesses (they are not canonical: a
    witness perturbed within its strictness margins replays to the same
    subdivision, which is still a valid certificate)."""
    out = []
    if isinstance(obj, bool):
        return out
    if isinstance(obj, int):
        return [path]
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            out.extend(corruptible_paths(v, path + (i,)))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            if k in ("premises", "id", "heights"):
                continue
            out.extend(corruptible_paths(v, path + (k,)))
    return out


def corrupt(data, path, delta):
    obj = data
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] += delta


def corruption_survives(cert, path, delta) -> bool:
    corrupted = json.loads(json.dumps(cert))
    corrupt(corrupted, path, delta)
    try:
        replay_certificate(corrupted)
    except Exception:
        return False
    return True


def test_corruption_sample():
    e = Engine(T3)
    rep = e.derive_surjectivity()
    cert = rep["certificate"]
    paths = corruptible_paths(cert)
    assert paths
    rng = random.Random(5)
    for _ in range(60):
        path = rng.choice(paths)
        delta = rng.choice([-2, -1, 1, 2, 7])
        assert not corruption_survives(cert, path, delta), path


def test_exhaustive_coverage_rectangle_with_deep_interior():
    """n = 1 polygon whose adjoint has interior lattice points: every
    primitive segment with a non-boundary end gets an exponent-one fact."""
    rect = LatticePolygon([(0, 0), (4, 0), (4, 5), (0, 5)])
    e = Engine(rect)
    rep = e.derive_surjectivity()
    assert rep["verdict"]["mu"] == "surjective"
    for s in interior_targets(e.poly):
        e.derive_segment(s, GEOMETRIC)
        exp, _ = e.fact(GEOMETRIC, e.key_of(s))
        assert exp == 1, s
    assert replay_certificate(e.export_certificate())


def test_composite_loops_pairwise_disjoint_homologically():
    """Loops of composite facts are pairwise disjoint; in homology their
    classes pair to zero."""
    from tropmono.homology import Loop, SurfaceModel
    from tropmono.builders import build_corner_graph, build_interior_graph, build_side_graph

    surf = SurfaceModel(T6)
    for graph in (
        build_corner_graph(T6, (1, 1)).graph,
        build_side_graph(T6, ((1, 1), (4, 1))).graph,
        build_interior_graph(T6, seg((2, 2), (3, 2))).graph,
    ):
        assert graph.loops_pairwise_disjoint()
        segs = graph.segments()
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                pairing = surf.intersection(
                    Loop.of_segment(segs[i]), Loop.of_segment(segs[j])
                )
                assert pairing == 0


def test_hyperelliptic_reports_deferred():
    rect32 = LatticePolygon([(0, 0), (3, 0), (3, 2), (0, 2)])
    e = Engine(rect32)
    rep = e.derive_surjectivity()
    assert rep["verdict"]["mu"] == "hyperelliptic_deferred"
    assert rep["certificate"] is None


OPTIMIZED_REPLAY = """
import random, sys
sys.path[:0] = [{tests!r}, {src!r}]
from test_engine import POLYGONS, _digest, corruptible_paths, corruption_survives
from tropmono.engine import Engine, replay_certificate

survivors = 0
for name, poly in POLYGONS.items():
    engine = Engine(poly)
    report = engine.derive_surjectivity()
    cert = engine.export_certificate()
    print(_digest(cert), _digest(report["certificate"]))
    replay_certificate(cert)
    replay_certificate(report["certificate"])
    paths = corruptible_paths(cert)
    rng = random.Random(5)
    for _ in range(60):
        survivors += corruption_survives(cert, rng.choice(paths), rng.choice([-2, -1, 1, 2, 7]))
print(__debug__, survivors)
"""


def test_soundness_under_python_O():
    """Derivation, replay and corruption rejection with assert statements
    compiled out: the rule kernel's and the certification kernel's checks
    do not rest on assert, and the T3, T4, SQ4 and T6 certificates (whole
    DAG and report) keep their pinned bytes and replay."""
    tests = os.path.dirname(os.path.abspath(__file__))
    code = OPTIMIZED_REPLAY.format(tests=tests, src=os.path.join(os.path.dirname(tests), "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    digests = [d for name in POLYGONS for d in (CERTIFICATE_DIGESTS[name], REPORT_DIGESTS[name])]
    assert proc.stdout.split() == digests + ["False", "0"]


def test_gcdedges_failure_lists_every_bridge_exponent(monkeypatch):
    """R4x6 (adjoint 2 x 4, n = 2) derives only through the gcd1 seeds from
    the exponent-one points inside the far edge.  Refusing those seeds
    forces the stall it had before them: the bridge class at (2, 1) keeps
    exponent 4, the length of the other adjoint edge.  The error names it
    and gives the exponent of every class on the adjoint boundary cycle,
    the number of passes and the counts of failed seed graphs, gcd1 seeds
    and gcd2 spreadings."""
    gcd1 = Engine.pipeline_gcd1

    def refuse_seeds(self, kappa, m, l, known_toward, flavor=GEOMETRIC):
        if m < lattice_length(kappa, known_toward):
            raise DerivationError("gcd", "refused")
        return gcd1(self, kappa, m, l, known_toward, flavor)

    monkeypatch.setattr(Engine, "pipeline_gcd1", refuse_seeds)
    with pytest.raises(DerivationError) as info:
        Engine(R4x6).derive_surjectivity()
    err = info.value
    assert err.rule == "gcdedges"
    assert err.message.startswith("bridge class at (2, 1) reached exponent 4, want 2;")
    listed = err.message.split("{")[1].split("}")[0]
    exponents = {}
    for item in listed.split(", ("):
        point, exp = item.strip("(").split("): ")
        exponents[tuple(int(x) for x in point.split(", "))] = int(exp)
    assert list(exponents) == adjoint_boundary_cycle(adjoint_polygon(R4x6))
    assert exponents[2, 1] == exponents[2, 5] == 4
    assert all(exponents[v] == 1 for v in ((1, 1), (3, 1), (3, 5), (1, 5)))
    assert "fixed point after 2 passes" in err.message
    assert err.message.endswith(
        "; 0 seed graphs failed; 8 gcd1 seeds failed; 0 gcd2 spreadings failed"
    )

    def refuse(self, *args, **kwargs):
        raise DerivationError("gcd", "refused")

    # gcd2 runs only when it lowers a class: with every gcd1 transfer refused,
    # (1, 2) keeps the seed's exponent 2 and the spreading toward (1, 3) runs
    monkeypatch.setattr(Engine, "pipeline_gcd1", refuse)
    monkeypatch.setattr(Engine, "pipeline_gcd2", refuse)
    with pytest.raises(DerivationError, match=r"gcdedges.*; [1-9]\d* gcd2 spreadings failed$"):
        Engine(R4x6).derive_surjectivity()
