import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from test_folds import merged_witness_certificate
from tropmono.cli import main
from tropmono.engine import Engine, ReplayError, replay_certificate
from tropmono.geometry import LatticePolygon, seg
from tropmono.graphs import CertificationError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def polyfile(tmp_path):
    def write(name, vertices):
        path = tmp_path / name
        path.write_text(json.dumps({"vertices": vertices}))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_analyze_t3(polyfile, capsys):
    path = polyfile("t3.json", [[0, 0], [3, 0], [0, 3]])
    code, out = run(capsys, ["analyze", path])
    assert code == 0
    data = json.loads(out)
    assert (data["g"], data["d"], data["n"]) == (1, 0, 1)
    assert data["mu"] == "surjective" and data["algebraic_mu"] == "surjective"


def test_invalid_inputs_exit_2(polyfile, capsys):
    bad = polyfile("bad.json", [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]])
    code, _ = run(capsys, ["analyze", bad])
    assert code == 2
    nonsmooth = polyfile("ns.json", [[0, 0], [2, 0], [1, 2]])
    code, _ = run(capsys, ["analyze", nonsmooth])
    assert code == 2


@pytest.mark.parametrize("vertex", [[4.7, 0], [4, 0, 9], [True, 0]],
                         ids=["float", "three-coordinates", "bool"])
def test_malformed_vertex_exit_2(vertex, polyfile, capsys):
    path = polyfile("bad.json", [[0, 0], vertex, [0, 4]])
    assert main(["verdict", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected a lattice point" in captured.err


@pytest.mark.parametrize("case", ["replay-missing", "heights-missing", "heights-no-key", "short-params"])
def test_unreadable_inputs_exit_2(case, polyfile, capsys, tmp_path):
    poly = polyfile("t6.json", [[0, 0], [6, 0], [0, 6]])
    nokey = tmp_path / "h.json"
    nokey.write_text(json.dumps({"foo": 1}))
    argv = {
        "replay-missing": ["replay", str(tmp_path / "missing.json")],
        "heights-missing": ["subdivide", poly, "--heights", str(tmp_path / "missing.json")],
        "heights-no-key": ["subdivide", poly, "--heights", str(nokey)],
        "short-params": ["graph", poly, "--family", "side", "--params", "1,1"],
    }[case]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ")


# sha256 of the `tropmono analyze` output, pinned from the enumerating
# implementation that the half-plane one replaced.
ANALYZE_GOLDEN = {
    "T3": ([[0, 0], [3, 0], [0, 3]],
           "bd85536dc22f49924d4f58ba10b4d4eb52bdf6382acc085243535a0493f23d2f"),
    "T4": ([[0, 0], [4, 0], [0, 4]],
           "dffea2a4fe0f5b7e91297f17fc9746309bd1396f62a9dd2155f4cfdfd06d3121"),
    "SQ4": ([[0, 0], [4, 0], [4, 4], [0, 4]],
            "995790ba7313e08f51a7167df8908a161479f1e453b8fa2e93e20aac60ab175a"),
    "T6": ([[0, 0], [6, 0], [0, 6]],
           "9fb9ee7a6c05721f2b98690e3f90795dc0e7b53f6f64d5641455a2666945bb9a"),
    "T300": ([[0, 0], [300, 0], [0, 300]],
             "dd0b0173a5d1822cb661bd6556839d125fbe769b088d5bdc98145bf6d4b8209c"),
    "R300x202": ([[0, 0], [300, 0], [300, 202], [0, 202]],
                 "19893be8259595fb4b41ded39fbee9266b334ebc61c89358088768e2cff02d04"),
    "HEX250": ([[1, 0], [250, 0], [250, 1], [1, 250], [0, 250], [0, 1]],
               "fced8574d832494575e005b1e84f9f48780269723a7aeb5ced8a841963297dac"),
}


@pytest.mark.parametrize("name", list(ANALYZE_GOLDEN))
def test_analyze_output_golden(name, polyfile, capsys):
    vertices, digest = ANALYZE_GOLDEN[name]
    code, out = run(capsys, ["analyze", polyfile(f"{name}.json", vertices)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_certify_segment(polyfile, capsys, tmp_path):
    path = polyfile("t4.json", [[0, 0], [4, 0], [0, 4]])
    code, out = run(capsys, ["certify", path, "--segment", "0,0,1,1"])
    assert code == 0
    data = json.loads(out)
    assert data["exponent"] == 1
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(data["certificate"]))
    code, out = run(capsys, ["replay", str(cert)])
    assert code == 0 and json.loads(out)["replay"] == "ok"


def test_certify_deterministic(polyfile, capsys):
    path = polyfile("t4.json", [[0, 0], [4, 0], [0, 4]])
    _, out1 = run(capsys, ["certify", path, "--segment", "1,1,2,1"])
    _, out2 = run(capsys, ["certify", path, "--segment", "1,1,2,1"])
    assert out1 == out2


def test_subdivide_refine_dual(polyfile, capsys):
    path = polyfile("t3.json", [[0, 0], [3, 0], [0, 3]])
    code, out = run(capsys, ["subdivide", path, "--refine", "--dual"])
    assert code == 0
    data = json.loads(out)
    assert data["unimodular"] is True
    assert len(data["subdivision"]["cells"]) == 9
    assert len(data["tropical_curve"]["rays"]) == 9


def test_snake_and_homology(polyfile, capsys):
    path = polyfile("t4.json", [[0, 0], [4, 0], [0, 4]])
    code, out = run(capsys, ["snake", path])
    assert code == 0
    assert len(json.loads(out)["snake"]["chain"]) == 3
    code, out = run(capsys, ["homology", path, "--loop", "v:1,1"])
    data = json.loads(out)
    assert code == 0 and data["genus"] == 3
    assert sum(map(abs, data["class"])) == 1


def test_graph_families(polyfile, capsys):
    path = polyfile("t6.json", [[0, 0], [6, 0], [0, 6]])
    code, out = run(capsys, ["graph", path, "--family", "corner", "--params", "1,1"])
    assert code == 0
    data = json.loads(out)
    assert len(data["graph"]["edges"]) == 3
    code, out = run(capsys, [
        "graph", path, "--family", "gcdedges", "--params", "1,1,4,1",
    ])
    assert code == 0


# sha256 of the `tropmono graph` output of the two sweep families, pinned
# before their branches of the command were merged.
SWEEP_GOLDEN = {
    ("T6", "raysweep", "1,1,1,2,2,2,1,1", False):
        "5385ec025faa2016a9a48e416229f4144c6d2eaad5a697f65a3087d9f124404f",
    ("T6", "raysweep", "1,1,1,2,2,2,1,1", True):
        "6101a5603892426ac11a2fbaccddb9e651c4323376b01ccc1c2ee305b2d04e68",
    ("T6", "divisible", "3,1,1,1,2,4,1,1,1", False):
        "f955ac9826224a058e2917158288ae649e280be1fdaa99413340ee565d1ab067",
    ("SQ4", "divisible", "2,1,1,1,2,3,3,1,1", False):
        "0f37c504612821a6c7786b4280fe8a5511041fe1d9b6c3461eb36c00479204ef",
    ("SQ4", "divisible", "2,1,1,1,2,3,3,1,1", True):
        "7a6f7487caf74003443a523ef491f0beb05ce094ff40e33b15292c8fb857df35",
}


@pytest.mark.parametrize("case", list(SWEEP_GOLDEN), ids=lambda c: "-".join(map(str, c)))
def test_sweep_graph_output_golden(case, polyfile, capsys):
    name, family, params, swap = case
    path = polyfile(f"{name}.json", ANALYZE_GOLDEN[name][0])
    argv = ["graph", path, "--family", family, "--params", params] + ["--swap"] * swap
    code, out = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_GOLDEN[case]


def test_verdict_out_file(polyfile, capsys, tmp_path):
    path = polyfile("sq4.json", [[0, 0], [4, 0], [4, 4], [0, 4]])
    dest = tmp_path / "verdict.json"
    code, _ = run(capsys, ["verdict", path, "--out", str(dest)])
    assert code == 0
    data = json.loads(dest.read_text())
    assert data["mu"] == "not_surjective" and data["n"] == 2


@pytest.fixture(scope="module")
def t3_certificate():
    return Engine(LatticePolygon([(0, 0), (3, 0), (0, 3)])).derive_surjectivity()["certificate"]


def test_rejected_certificate_exit_3(t3_certificate, polyfile, capsys, tmp_path):
    cert = json.loads(json.dumps(t3_certificate))
    cert["nodes"][0]["conclusion"]["exponent"] = 2
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, _ = run(capsys, ["replay", str(path)])
    assert code == 3
    bad = polyfile("bad.json", [[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]])
    code, _ = run(capsys, ["analyze", bad])
    assert code == 2


# malformed replay input: (mutation, what the error must name; {id} and
# {rule} are the last node's)
MALFORMED = {
    "missing-param": (lambda c: c["nodes"][0]["params"].pop("v"), "node 0 (acycle)"),
    "string-param": (lambda c: c["nodes"][0]["params"].update(v="ab"), "node 0 (acycle)"),
    "null-node": (lambda c: c.update(nodes=[None]), "nodes[0]"),
    "no-nodes": (lambda c: c.pop("nodes"), "node list"),
    "extra-premises": (lambda c: c["nodes"][-1].update(premises=[0, 0, 0]), "node {id} ({rule})"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_certificate_is_a_named_replay_error(case, t3_certificate, capsys, tmp_path):
    mutate, names = MALFORMED[case]
    cert = json.loads(json.dumps(t3_certificate))
    names = names.format(**cert["nodes"][-1])
    mutate(cert)
    with pytest.raises(ReplayError, match=re.escape(names)):
        replay_certificate(cert)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    assert main(["replay", str(path)]) == 3
    assert names in capsys.readouterr().err


R3X2 = [[0, 0], [3, 0], [3, 2], [0, 2]]


def test_certify_without_a_device_pair_names_the_cause():
    """On the hyperelliptic 3 x 2 rectangle every end-device pair of the
    segment (1,1)-(2,1) changes its weight, and the error says so.  The
    ``certify`` command stops before this search (see the next test)."""
    engine = Engine(LatticePolygon([tuple(p) for p in R3X2]))
    with pytest.raises(CertificationError) as info:
        engine.derive_segment(seg((1, 1), (2, 1)))
    assert str(info.value) == (
        "no interior configuration for ((1, 1), (2, 1)): "
        "no end-device pair reached certification (64 pairs: 64 change the chain's weights)"
    )


# standard modules that deriving and replaying do not need: dataclasses
# brings inspect, ast and dis, fractions brings decimal
NOT_ON_THE_KERNEL_PATH = ("dataclasses", "inspect", "ast", "fractions", "decimal")

# tropmono.cli.main in a fresh interpreter; prints its exit code and the
# tropmono modules and NOT_ON_THE_KERNEL_PATH modules it loaded
LOADED = """
import json, sys
sys.path.insert(0, {src!r})
from tropmono.cli import main
code = main({argv!r})
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("tropmono.") or m in {watched!r})]))
"""


def _loaded(*argv) -> tuple[int, list[str]]:
    script = LOADED.format(src=SRC, argv=list(argv), watched=NOT_ON_THE_KERNEL_PATH)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def test_certify_says_at_once_that_the_hyperelliptic_case_is_deferred(polyfile, capsys):
    """On a d = 1 polygon ``certify`` exits 3 naming the deferred case,
    before it loads the engine or any builder."""
    path = polyfile("r3x2.json", R3X2)
    assert main(["certify", path, "--segment", "1,1,2,1"]) == 3
    assert capsys.readouterr().err == "certification failed: [certify] hyperelliptic case deferred\n"
    code, modules = _loaded("certify", path, "--segment", "1,1,2,1")
    assert code == 3 and "tropmono.engine" not in modules and "tropmono.builders" not in modules


@pytest.mark.parametrize("command", ["verdict", "analyze"])
def test_verdicts_at_scale_load_only_geometry_and_polygons(command, polyfile):
    """``verdict`` and ``analyze`` on T300 and HEX250 (integral adjoints)
    load the CLI, the errors, ``geometry`` and ``polygons`` and nothing
    else of the library, and none of NOT_ON_THE_KERNEL_PATH: the polygon
    keeps its adjoint without loading another layer or ``fractions``."""
    for name in ("T300", "HEX250"):
        path = polyfile(f"{name}.json", ANALYZE_GOLDEN[name][0])
        code, modules = _loaded(command, path)
        assert code == 0
        assert modules == ["tropmono.cli", "tropmono.errors", "tropmono.geometry",
                           "tropmono.polygons"], (name, modules)


def test_replay_loads_neither_builders_nor_the_lp(t3_certificate, tmp_path):
    """Replay runs the rule kernel and the witness checks: it loads the
    engine but neither the graph builders nor the LP."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(t3_certificate))
    code, modules = _loaded("replay", str(path))
    assert code == 0 and "tropmono.engine" in modules
    assert "tropmono.builders" not in modules and "tropmono.linprog" not in modules


def test_derive_and_replay_load_only_what_runs(polyfile, tmp_path):
    """Deriving T4 and replaying its report load none of
    NOT_ON_THE_KERNEL_PATH and not the homology layer either.  Replaying
    T6's report runs the chain_rule_square rule, so it loads homology, and
    still none of the others."""
    loaded = {}
    for name, side in (("T4", 4), ("T6", 6)):
        report = str(tmp_path / f"{name}.report.json")
        path = polyfile(f"{name}.json", [[0, 0], [side, 0], [0, side]])
        loaded["derive", name] = _loaded("derive", path, "--out", report)
        loaded["replay", name] = _loaded("replay", report)
    assert all(code == 0 for code, _ in loaded.values())
    unused = set(NOT_ON_THE_KERNEL_PATH)
    for run in (("derive", "T4"), ("replay", "T4")):
        assert not set(loaded[run][1]) & (unused | {"tropmono.homology"}), run
    _, modules = loaded["replay", "T6"]
    assert "tropmono.homology" in modules and not set(modules) & unused


def test_derive_writes_a_report_that_replays(polyfile, capsys, tmp_path):
    """``derive`` writes derive_surjectivity's report; ``replay`` takes the
    file as it is.  Genus 0 and the deferred d = 1 case exit 0 with a null
    certificate, which replay rejects."""
    path = tmp_path / "t4.report.json"
    code, _ = run(capsys, ["derive", polyfile("t4.json", [[0, 0], [4, 0], [0, 4]]),
                           "--out", str(path)])
    assert code == 0
    want = Engine(LatticePolygon([(0, 0), (4, 0), (0, 4)])).derive_surjectivity()
    assert json.loads(path.read_text()) == json.loads(json.dumps(want))
    code, out = run(capsys, ["replay", str(path)])
    assert code == 0 and json.loads(out) == {"schema": "1", "replay": "ok"}
    for name, vertices in (("t2.json", [[0, 0], [2, 0], [0, 2]]), ("r3x2.json", R3X2)):
        code, out = run(capsys, ["derive", polyfile(name, vertices)])
        assert code == 0 and json.loads(out)["certificate"] is None
        report = tmp_path / f"{name}.report.json"
        report.write_text(out)
        assert main(["replay", str(report)]) == 3
        assert "certificate has no node list" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_exit_codes_in_fresh_processes(flags, t3_certificate, polyfile, capsys, tmp_path):
    """The exit-code mapping runs before any layer is loaded; it holds in a
    fresh interpreter, with and without python -O."""
    env = {**os.environ, "PYTHONPATH": SRC}

    def fresh(*argv):
        return subprocess.run(
            [sys.executable, *flags, "-c", "import sys; from tropmono.cli import main; sys.exit(main())",
             *argv], capture_output=True, text=True, env=env)

    t3 = polyfile("t3.json", [[0, 0], [3, 0], [0, 3]])
    _, want = run(capsys, ["verdict", t3])
    got = fresh("verdict", t3)
    assert (got.returncode, got.stdout, got.stderr) == (0, want, "")

    got = fresh("verdict", polyfile("ns.json", [[0, 0], [2, 0], [1, 2]]))
    assert (got.returncode, got.stdout) == (2, "")
    assert got.stderr == "invalid input: polygon not smooth\n"

    cert = json.loads(json.dumps(t3_certificate))
    cert["nodes"][0]["conclusion"]["exponent"] = 2
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    got = fresh("replay", str(path))
    assert (got.returncode, got.stdout) == (3, "")
    assert got.stderr.startswith("certification failed: ")

    path = tmp_path / "merged-cells.json"
    path.write_text(json.dumps(merged_witness_certificate()))
    got = fresh("replay", str(path))
    assert (got.returncode, got.stdout) == (3, "")
    assert got.stderr.startswith("certification failed: ") and "(admissible)" in got.stderr

    path = tmp_path / "not-smooth.json"
    path.write_text(json.dumps({"polygon": {"vertices": [[0, 0], [300, 0], [0, 301]]}, "nodes": []}))
    got = fresh("replay", str(path))
    assert (got.returncode, got.stdout) == (3, "")
    assert got.stderr == "certification failed: bad polygon: polygon not smooth\n"

    got = fresh("certify", polyfile("r3x2.json", R3X2), "--segment", "1,1,2,1")
    assert (got.returncode, got.stdout) == (3, "")
    assert got.stderr == "certification failed: [certify] hyperelliptic case deferred\n"

    got = fresh("certify", t3, "--segment", "10,10,11,10")
    assert (got.returncode, got.stdout) == (2, "")
    assert got.stderr == "invalid input: ((10, 10), (11, 10)) leaves the polygon\n"

    # rejected before any analysis: not after a whole derivation of T8, and
    # ahead of the hyperelliptic verdict of R3X2
    for name, vertices in (("t8.json", [[0, 0], [8, 0], [0, 8]]), ("r3x2.json", R3X2)):
        got = fresh("certify", polyfile(name, vertices), "--segment", "0,0,1,0")
        assert (got.returncode, got.stdout) == (2, "")
        assert got.stderr == "invalid input: both ends on the polygon boundary\n"
