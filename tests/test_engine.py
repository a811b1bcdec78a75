import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from tropmono.geometry import LatticePolygon, seg
from tropmono.engine import (
    Engine,
    DerivationError,
    GEOMETRIC,
    HOMOLOGICAL,
    Node,
    ReplayError,
    replay_certificate,
    single,
)
from tropmono.polygons import adjoint_polygon
from tropmono.builders import adjoint_boundary_cycle

T3 = LatticePolygon([(0, 0), (3, 0), (0, 3)])
T4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])
T6 = LatticePolygon([(0, 0), (6, 0), (0, 6)])
SQ4 = LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])


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
    for s in e.interior_targets():
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


@pytest.mark.parametrize(
    "poly, digest",
    [
        (T3, "6a89695aea2baf46bd572f90b147e49b972c5d9de79bfd8af9b95166088421f8"),
        (T4, "50d54b10c9fd62f50be054856673858d07d621c14d55835f3587d16fb185b434"),
        (SQ4, "dc1512df2e047a997e6cad7e0bb5774c29315423c2c68facc4917f77c38e299d"),
    ],
    ids=["T3", "T4", "SQ4"],
)
def test_certificate_bytes_golden(poly, digest):
    """Derived certificates are pinned byte for byte: changes to the
    arithmetic under the derivation must not change what it emits."""
    assert _digest(Engine(poly).derive_surjectivity()["certificate"]) == digest


def test_interior_d_and_dd_on_sq4():
    e = Engine(SQ4)
    e.pipeline_gcdedges()
    nid = e.pipeline_interior_d(seg((2, 2), (3, 3)), 2)
    assert e.nodes[nid].conclusion["exponent"] == 1
    nid2 = e.pipeline_interior_dd(seg((2, 1), (2, 2)), 2)
    assert e.nodes[nid2].conclusion["exponent"] == 2
    assert replay_certificate(e.export_certificate())


def test_interior_d_rejects_missed_line():
    e = Engine(SQ4)
    e.pipeline_gcdedges()
    with pytest.raises(DerivationError):
        e.pipeline_interior_d(seg((2, 1), (2, 2)), 2)


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
    for s in e.interior_targets():
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
from test_engine import T3, T4, corruptible_paths, corruption_survives
from tropmono.engine import Engine, replay_certificate

survivors = 0
for poly in (T3, T4):
    cert = Engine(poly).derive_surjectivity()["certificate"]
    replay_certificate(cert)
    replay_certificate(cert)
    paths = corruptible_paths(cert)
    rng = random.Random(5)
    for _ in range(60):
        survivors += corruption_survives(cert, rng.choice(paths), rng.choice([-2, -1, 1, 2, 7]))
print(__debug__, survivors)
"""


def test_soundness_under_python_O():
    """Derivation, replay and corruption rejection with assert statements
    compiled out: the rule kernel's checks do not rest on assert."""
    tests = os.path.dirname(os.path.abspath(__file__))
    code = OPTIMIZED_REPLAY.format(tests=tests, src=os.path.join(os.path.dirname(tests), "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0"]
