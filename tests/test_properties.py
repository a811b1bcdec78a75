"""Property tests.

A derivation does not depend on the lattice frame: a random unimodular
image of T4 or SQ4 (``random_unimodular`` of ``test_polygons``) gets the
base polygon's verdict, derives, replays its report certificate after a
JSON round trip and claims as many facts.  Node counts are not compared:
they vary across images (T4 reports of 13 or 15 nodes, T6 reports of 120 to
168).

Replay is total: a certificate mutated in its structure (nodes dropped,
duplicated, swapped or spliced in from another polygon's certificate,
premises reversed or rewired, rules renamed, params or conclusions copied
from another node) replays to True or raises ReplayError, never anything
else."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from test_polygons import random_unimodular
from tropmono.engine import RULES, Engine, ReplayError, claims, replay_certificate
from tropmono.geometry import LatticePolygon

BASES = {
    "T4": LatticePolygon([(0, 0), (4, 0), (0, 4)]),
    "SQ4": LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)]),
}
T6 = LatticePolygon([(0, 0), (6, 0), (0, 6)])


def _derived(poly):
    e = Engine(poly)
    return e, e.derive_surjectivity()


BASE_RUNS = {}


def _base(name):
    if name not in BASE_RUNS:
        e, report = _derived(BASES[name])
        BASE_RUNS[name] = report["verdict"], len(claims(e))
    return BASE_RUNS[name]


@pytest.mark.parametrize("name", list(BASES))
@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_derivation_is_invariant_under_unimodular_maps(name, seed):
    image = BASES[name].transform(random_unimodular(random.Random(seed)))
    verdict, n_claims = _base(name)
    e, report = _derived(image)
    assert report["verdict"] == verdict
    assert len(claims(e)) == n_claims
    assert replay_certificate(json.loads(json.dumps(report["certificate"])))


CERTIFICATES = {}


def _certificate(name) -> dict:
    """A fresh copy of T4's whole DAG ("T4") or of the report certificate of
    SQ4 or T6, the donors of spliced nodes."""
    if name not in CERTIFICATES:
        if name == "T4":
            e = Engine(BASES["T4"])
            e.derive_surjectivity()
            cert = e.export_certificate()
        else:
            cert = _derived(BASES.get(name, T6))[1]["certificate"]
        CERTIFICATES[name] = json.dumps(cert)
    return json.loads(CERTIFICATES[name])


MUTATIONS = ("drop", "duplicate", "append-copy", "swap", "reverse-premises", "rewire",
             "rename", "splice", "copy-params", "copy-conclusion")


def _mutate(data, nodes, how):
    """Apply one structural mutation to ``nodes`` in place, drawing what it
    needs from ``data``."""
    index = st.integers(0, len(nodes) - 1)
    i = data.draw(index)
    node = nodes[i]
    if how == "drop":
        del nodes[i]
    elif how == "duplicate":
        nodes.insert(i, json.loads(json.dumps(node)))
    elif how == "append-copy":
        nodes.append({**json.loads(json.dumps(node)), "id": nodes[-1]["id"] + 1})
    elif how == "swap":
        j = data.draw(index)
        nodes[i], nodes[j] = nodes[j], nodes[i]
    elif how == "reverse-premises":
        node["premises"] = node["premises"][::-1]
    elif how == "rewire":
        if node["premises"]:
            k = data.draw(st.integers(0, len(node["premises"]) - 1))
            node["premises"][k] = data.draw(st.integers(-1, nodes[-1]["id"] + 1))
    elif how == "rename":
        node["rule"] = data.draw(st.sampled_from(sorted(RULES) + ["no_such_rule"]))
    elif how == "splice":
        donor = _certificate(data.draw(st.sampled_from(["SQ4", "T6"])))["nodes"]
        spliced = donor[data.draw(st.integers(0, len(donor) - 1))]
        nodes[i] = {**spliced, "id": node["id"]}
    else:
        other = nodes[data.draw(index)]
        key = "params" if how == "copy-params" else "conclusion"
        node[key] = json.loads(json.dumps(other[key]))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_structural_mutations_replay_or_raise_replay_error(data):
    cert = _certificate("T4")
    for how in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        if cert["nodes"]:
            _mutate(data, cert["nodes"], how)
    try:
        outcome = replay_certificate(cert)
    except ReplayError:
        return
    assert outcome is True
