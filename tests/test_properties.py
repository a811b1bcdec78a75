"""Property tests: a derivation does not depend on the lattice frame.

A random unimodular image of T4 or SQ4 (``random_unimodular`` of
``test_polygons``) gets the base polygon's verdict, derives, replays its
report certificate after a JSON round trip and claims as many facts.  Node
counts are not compared: they vary across images (T4 reports of 13 or 15
nodes, T6 reports of 120 to 168)."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from test_polygons import random_unimodular
from tropmono.engine import Engine, claims, replay_certificate
from tropmono.geometry import LatticePolygon

BASES = {
    "T4": LatticePolygon([(0, 0), (4, 0), (0, 4)]),
    "SQ4": LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)]),
}


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
