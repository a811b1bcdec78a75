"""The rule-driven peeler, and the derivations it completes: rectangles
whose derivation used to stall and a seeded sample of random smooth
polygons."""

import json
import random

import pytest

from tropmono import builders
from tropmono.engine import GEOMETRIC, DerivationError, Engine, replay_certificate, single
from tropmono.geometry import LatticePolygon, seg
from tropmono.polygons import analyze

from test_polygons import random_smooth_polygon

T4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])
T6 = LatticePolygon([(0, 0), (6, 0), (0, 6)])
SQ4 = LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])


def test_peel_collapses_the_corner_graph():
    """The corner graph's three edges are one bridge class: nothing is
    chased or absorbed, the composite collapses to the bridge twist."""
    e = Engine(T4)
    nid = e.run_plan(e._build("build_corner_graph", (1, 1)))
    assert [n.rule for n in e.nodes] == ["admissible", "collapse"]
    assert e.nodes[nid].conclusion == single(GEOMETRIC, ("bridge", (1, 1)), 1)


def test_a_stuck_peel_names_the_edge_without_a_fact():
    """The gcd1 graph at (1, 1) with the vertical adjoint edge still unknown:
    the peel absorbs and chases what it can and then names that edge.  Once
    the edge's side chain is derived, the same graph peels to its target."""
    e = Engine(T4)
    e.ensure_acycles()
    for v in e.adjoint.vertices:
        e.pipeline_corner(v)
    e.pipeline_side(((1, 1), (2, 1)))
    build = e._build("build_gcd1_graph", (1, 1), 1, 1, (2, 1))
    with pytest.raises(DerivationError) as info:
        e.run_plan(build)
    assert info.value.rule == "peel"
    assert info.value.message == (
        "stuck before the fact for ((0, 1), (1, 2)) with 2 edges left; "
        "no fact for [((1, 1), (1, 2))]"
    )
    e.pipeline_side(((1, 1), (1, 2)))
    nid = e.run_plan(build)
    assert e.nodes[nid].conclusion == single(GEOMETRIC, ("bridge", (1, 2)), 1)


def test_peel_chases_the_interior_target_at_its_interior_end():
    """With the device legs absorbed, the target is the lone edge at its
    interior end (1, 2) and is chased there while the device's chain is
    still in the composite; when the target is the last edge left, the
    peel ends with ``terminal``, which needs no A-cycle premise."""
    e = Engine(T4)
    e.derive_surjectivity()
    sigma = seg((1, 2), (2, 0))
    build = e._build("build_interior_graph", sigma)
    assert build.notes["device_v"].kind == "chain" and build.notes["device_w"].kind == "none"
    node = e.nodes[e.pipeline_interior(sigma)]
    assert (node.rule, node.params) == ("chase", {"vertex": [1, 2]})
    assert node.conclusion == single(GEOMETRIC, ("seg", sigma), 1)
    last = e.nodes[e.pipeline_interior(seg((1, 1), (2, 2)))]
    assert last.rule == "terminal"


def test_a_pair_that_does_not_peel_leaves_nothing_behind(monkeypatch):
    """Each leg pair's search first meets a decoy: the first certified pair
    aimed at a segment outside its graph, which peels until stuck.  The
    derivation then takes the real pair and records the same DAG and fact
    store as without the decoy."""
    e = Engine(T6)
    e.derive_surjectivity()
    want = (e.export_certificate(), dict(e.facts))
    pairs, decoys = builders.build_leg_pair, []

    def with_decoy(*args, **kwargs):
        candidates = pairs(*args, **kwargs)
        first = next(candidates)
        decoys.append(args)
        yield first._replace(target=seg((0, 0), (1, 0)))
        yield first
        return (yield from candidates)

    monkeypatch.setattr(builders, "build_leg_pair", with_decoy)
    e = Engine(T6)
    e.derive_surjectivity()
    assert decoys
    assert (e.export_certificate(), dict(e.facts)) == want


def test_interior_d_peels_a_chain_from_the_divisible_point():
    """After gcdedges on SQ4 the segment from the 2-divisible point (1, 1)
    to (2, 4) has no fact; the interior_d pipeline peels it off the first
    device pair whose graph peels, and the whole DAG replays."""
    e = Engine(SQ4)
    e.pipeline_gcdedges()
    sigma = seg((1, 1), (2, 4))
    assert e.fact(GEOMETRIC, e.key_of(sigma)) is None
    nid = e.pipeline_interior_d(sigma, 2)
    assert e.nodes[nid].conclusion == single(GEOMETRIC, ("seg", sigma), 1)
    assert replay_certificate(e.export_certificate())


def _derives_and_replays(poly) -> dict:
    """The report of a derivation whose certificate replays after a JSON
    round trip."""
    report = Engine(poly).derive_surjectivity()
    assert report["certificate"] is None or replay_certificate(
        json.loads(json.dumps(report["certificate"]))
    )
    return report


RECTANGLES = {f"R{a}x{b}": LatticePolygon([(0, 0), (a, 0), (a, b), (0, b)])
              for a, b in ((4, 6), (5, 7), (6, 7), (7, 7))}


@pytest.mark.parametrize("name", list(RECTANGLES))
def test_rectangles_derive_replay_and_rederive(name):
    """R4x6 and R5x7 stalled in gcdedges when gcd1 was seeded from the far
    vertex alone; R6x7 and R7x7 also needed a leg pair whose union peels,
    not just the first one that certifies."""
    poly = RECTANGLES[name]
    report = _derives_and_replays(poly)
    assert report["certificate"] is not None
    assert json.dumps(Engine(poly).derive_surjectivity()) == json.dumps(report)


def test_sweep_sample_derives_and_replays():
    """The first 32 polygons of genus at most 20 and d != 1 from the seeded
    generator all derive and replay.  Index 13 (genus 15, n = 2) stalled in
    gcdedges before the seeds from interior exponent-one points."""
    rng = random.Random(7)
    polys = []
    while len(polys) < 32:
        poly = random_smooth_polygon(rng)
        a, _ = analyze(poly)
        if a.genus <= 20 and a.d != 1:
            polys.append(poly)
    assert (analyze(polys[13])[0].genus, analyze(polys[13])[0].n) == (15, 2)
    for poly in polys:
        _derives_and_replays(poly)
