"""The benchmark's own tests: oracles, seeded inputs and the tracer.

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a checkout.  The file is not named ``test_*.py`` so the
repository's test run does not pick it up.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from math import gcd

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [HERE, SRC]

import inputs  # noqa: E402
from tracer import LAYERS, Tracer, _resolve  # noqa: E402

import tropmono  # noqa: E402
from tropmono import engine, graphs, homology, subdivision  # noqa: E402
from tropmono.geometry import LatticePolygon  # noqa: E402
from tropmono.polygons import analyze  # noqa: E402


def area2(vertices):
    n = len(vertices)
    return abs(sum(vertices[i][0] * vertices[(i + 1) % n][1]
                   - vertices[(i + 1) % n][0] * vertices[i][1] for i in range(n)))


def boundary_count(vertices):
    n = len(vertices)
    return sum(gcd(abs(vertices[(i + 1) % n][0] - vertices[i][0]),
                   abs(vertices[(i + 1) % n][1] - vertices[i][1])) for i in range(n))


@pytest.mark.parametrize("name", sorted(inputs.BASE))
def test_pinned_values_match_closed_forms(name):
    g, d, n, mu, alg = inputs.EXPECTED[name]
    assert (g, n) == inputs.closed_form(name)
    # Pick: g = (2A - b + 2) / 2, independent of lattice enumeration
    verts = inputs.BASE[name]
    assert g == (area2(verts) - boundary_count(verts) + 2) // 2
    assert d == (0 if g == 1 else 2)
    assert (mu, alg) == inputs.expected_verdict(g, d, n)


def test_closed_forms():
    assert inputs.closed_form("T6") == (10, 3)
    assert inputs.closed_form("SQ4") == (9, 2)
    assert inputs.closed_form("R300x202") == (299 * 201, 2)


@pytest.mark.parametrize("name", inputs.DERIVE_LADDER)
def test_base_and_seeded_images_analyze_as_pinned(name):
    for verts in [inputs.BASE[name]] + [inputs.seeded_vertices(name, s) for s in (1, 2, 3)]:
        a, v = analyze(LatticePolygon(verts))
        got = (a.genus, a.d, a.n, v.mu.value, v.algebraic_mu.value)
        assert got == inputs.EXPECTED[name], verts


@pytest.mark.parametrize("name", inputs.VERDICT_SET)
def test_large_seeded_image_analyzes_as_pinned(name):
    a, v = analyze(LatticePolygon(inputs.seeded_vertices(name, 7)))
    assert (a.genus, a.d, a.n, v.mu.value, v.algebraic_mu.value) == inputs.EXPECTED[name]


def test_sp_order_formula():
    assert inputs.sp_order_formula(1, 2) == 6  # |SL(2, F_2)|
    assert inputs.sp_order_formula(1, 3) == 24
    assert inputs.CLOSURE_ORDER == 1451520 == homology.sp_order(3, 2)


def test_seeded_images():
    seen = set()
    for seed in range(60):
        f = inputs.image_of("T6", seed)
        seen.add((f.swap, f.sx, f.sy))
        assert all(-5 <= c <= 5 for c in f.t)
        verts = inputs.seeded_vertices("R300x202", seed)
        assert area2(verts) == area2(inputs.BASE["R300x202"])
        assert verts == inputs.seeded_vertices("R300x202", seed)
    assert len(seen) == 8


def test_corruption_batch_repeats_spreads_and_skips_wiring():
    cert = engine.Engine(LatticePolygon(inputs.BASE["T3"])).derive_surjectivity()["certificate"]
    first = inputs.corruption_batch([cert, cert], 5, (30, 4))
    assert first == inputs.corruption_batch([cert, cert], 5, (30, 4))
    assert first != inputs.corruption_batch([cert, cert], 6, (30, 4))
    assert [i for i, _, _ in first].count(0) == 30 and len(first) == 34
    paths = inputs.corruptible_paths(cert)
    picked = sorted(paths.index(p) for i, p, _ in first if i == 0)
    # evenly spaced: one field from each thirtieth of the certificate
    assert [k * 30 // len(paths) for k in picked] == list(range(30))
    for _, path, delta in first:
        assert not {"premises", "id", "heights"} & set(path)
        assert delta in inputs.DELTAS


def test_t6_witnesses():
    cert = engine.Engine(LatticePolygon(inputs.BASE["T6"])).derive_surjectivity()["certificate"]
    admissible = inputs.node_counts(cert)["admissible"]
    assert (admissible, len(inputs.distinct_witnesses(cert))) == (88, 37)


def test_tracer_rebinds_every_import_and_restores():
    originals = {
        "graphs": graphs.subdivision_from_heights,
        "engine_fn": engine.pipeline_interior_d,
        "engine_cls": engine.Engine.__dict__["pipeline_interior_d"],
        "from_json": graphs.AdmissibilityCertificate.__dict__["from_json"],
        "init": homology.SurfaceModel.__init__,
    }
    with Tracer():
        assert graphs.subdivision_from_heights is subdivision.subdivision_from_heights
        assert tropmono.subdivision_from_heights is subdivision.subdivision_from_heights
        assert graphs.subdivision_from_heights is not originals["graphs"]
        assert engine.pipeline_interior_d is engine.Engine.__dict__["pipeline_interior_d"]
        assert engine.pipeline_interior_d is not originals["engine_fn"]
        assert isinstance(graphs.AdmissibilityCertificate.__dict__["from_json"], staticmethod)
        assert homology.SurfaceModel.__init__ is not originals["init"]
    assert graphs.subdivision_from_heights is originals["graphs"]
    assert subdivision.subdivision_from_heights is originals["graphs"]
    assert engine.pipeline_interior_d is originals["engine_fn"]
    assert engine.Engine.__dict__["pipeline_interior_d"] is originals["engine_cls"]
    assert graphs.AdmissibilityCertificate.__dict__["from_json"] is originals["from_json"]
    assert homology.SurfaceModel.__init__ is originals["init"]


def test_every_layer_target_resolves():
    for targets in LAYERS.values():
        for target in targets:
            assert _resolve(target), target
    assert len(_resolve("builders.build_*")) >= 10
    with Tracer() as tracer:
        rebound = {key for _, key, _ in tracer._saved}
    assert {"unimodular_refinement", "solve_lp", "lattice_points", "__init__",
            "build_ray_sweep", "pipeline_interior_dd"} <= rebound


TRACE_T4 = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import inputs
from tracer import Tracer
from tropmono import engine
from tropmono.geometry import LatticePolygon
poly = LatticePolygon(inputs.seeded_vertices("T4", 3))
with Tracer() as tracer:
    cert = engine.Engine(poly).derive_surjectivity()["certificate"]
    engine.replay_certificate(cert)
print(json.dumps({{k: v["calls"] for k, v in tracer.snapshot().items()}}))
"""


def test_traced_call_counts_repeat_across_processes():
    code = TRACE_T4.format(here=HERE, src=SRC)
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        counts.append(json.loads(out))
    assert counts[0] == counts[1]
    calls = counts[0]
    # graphs and the certificate replay reach subdivision_from_heights through
    # their own imported bindings
    assert calls["subdivision.subdivision_from_heights"] > calls["graphs.AdmissibilityCertificate.from_json"] > 0
    assert calls["engine.replay_certificate"] == 1
    assert calls["builders.build"] > 0 and calls["linprog.solve_lp"] == 0


def test_fails_without_sources():
    """In a directory holding only BENCHMARK.json and perfbench/ the run
    exits non-zero without a result line."""
    root = os.path.dirname(HERE)
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "derive", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
