import itertools
import random

import pytest

from tropmono.geometry import LatticePolygon, seg
from tropmono.graphs import build_snake
from tropmono.homology import (
    Loop,
    SurfaceModel,
    canonical_triangulation,
    pants_check,
    sp_order,
    subgroup_order_mod_p,
)
from tropmono.intlinalg import mat_vec, matmul
from tropmono.subdivision import trivial_subdivision

T3 = LatticePolygon([(0, 0), (3, 0), (0, 3)])
T4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])


def test_genus_and_euler():
    s3 = SurfaceModel(T3)
    assert s3.genus == 1 and s3.euler_characteristic == 0 and s3.h1_rank == 2
    s4 = SurfaceModel(T4)
    assert s4.genus == 3 and s4.euler_characteristic == -4 and s4.h1_rank == 6
    sq = SurfaceModel(LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)]))
    assert sq.genus == 9


def test_acycle_classes_are_basis_vectors():
    s = SurfaceModel(T4)
    for i, v in enumerate(s.interior_colex):
        cls = s.loop_class(Loop.acycle(v))
        assert cls[i] == 1 and sum(abs(x) for x in cls) == 1


def test_intersection_rules():
    s = SurfaceModel(T4)
    # A-cycle vs segment: +-1 exactly at endpoints
    assert abs(s.intersection(Loop.acycle((1, 1)), Loop.of_segment(seg((0, 0), (1, 1))))) == 1
    assert s.intersection(Loop.acycle((2, 1)), Loop.of_segment(seg((0, 0), (1, 1)))) == 0
    # disjoint A-cycles
    assert s.intersection(Loop.acycle((1, 1)), Loop.acycle((2, 1))) == 0
    # segments sharing at most endpoints pair to zero
    assert s.intersection(
        Loop.of_segment(seg((0, 0), (1, 1))), Loop.of_segment(seg((1, 1), (1, 0)))
    ) == 0
    assert s.intersection(
        Loop.of_segment(seg((1, 1), (2, 1))), Loop.of_segment(seg((1, 2), (2, 2)))
    ) == 0


def test_boundary_ends_segment_can_vanish():
    s = SurfaceModel(T3)
    assert s.loop_class(Loop.of_segment(seg((1, 0), (0, 1)))) == [0, 0]


def test_twists_symplectic_and_relations():
    s = SurfaceModel(T4)
    loops = [
        Loop.acycle((1, 1)),
        Loop.acycle((2, 1)),
        Loop.of_segment(seg((0, 0), (1, 1))),
        Loop.of_segment(seg((1, 1), (2, 1))),
        Loop.of_segment(seg((2, 1), (1, 2))),
    ]
    mats = {l.to_json().__str__(): s.dehn_twist_matrix(l) for l in loops}
    for m in mats.values():
        assert s.is_symplectic(m)
    for l1, l2 in itertools.combinations(loops, 2):
        m1 = s.dehn_twist_matrix(l1)
        m2 = s.dehn_twist_matrix(l2)
        pairing = s.intersection(l1, l2)
        if pairing == 0:
            assert matmul(m1, m2) == matmul(m2, m1)
        if abs(pairing) == 1:
            assert matmul(matmul(m1, m2), m1) == matmul(matmul(m2, m1), m2)


def test_trivial_class_gives_identity_twist():
    s = SurfaceModel(T3)
    m = s.dehn_twist_matrix(Loop.of_segment(seg((1, 0), (0, 1))))
    assert m == [[1, 0], [0, 1]]


def test_sl2_orders():
    s = SurfaceModel(T3)
    ma = s.dehn_twist_matrix(Loop.acycle((1, 1)))
    mb = s.dehn_twist_matrix(Loop.of_segment(seg((0, 0), (1, 1))))
    assert subgroup_order_mod_p([ma, mb], 2) == 6
    assert subgroup_order_mod_p([ma, mb], 3) == 24
    assert subgroup_order_mod_p([ma], 2) == 2


def test_chain_rule_identity_on_snake_head():
    for poly in (T4, LatticePolygon([(0, 0), (6, 0), (0, 6)])):
        s = SurfaceModel(poly)
        sn = build_snake(poly)
        m1 = s.dehn_twist_matrix(Loop.of_segment(sn.chain[0]))
        mv = s.dehn_twist_matrix(Loop.acycle(sn.points[1]))
        m2 = s.dehn_twist_matrix(Loop.of_segment(sn.chain[1]))
        ms = s.dehn_twist_matrix(Loop.of_segment(sn.bridge))
        prod = matmul(matmul(m1, mv), m2)
        p4 = matmul(matmul(prod, prod), matmul(prod, prod))
        assert p4 == matmul(ms, ms)


def test_humphries_intersection_pattern():
    s = SurfaceModel(T4)
    sn = build_snake(T4)
    family = []
    for i, c in enumerate(sn.chain):
        family.append(Loop.of_segment(c))
        family.append(Loop.acycle(sn.points[i + 1]))
    chain_len = len(family)
    for i in range(chain_len - 1):
        assert abs(s.intersection(family[i], family[i + 1])) == 1
    for i in range(chain_len):
        for j in range(i + 2, chain_len):
            assert s.intersection(family[i], family[j]) == 0
    extra = Loop.of_segment(sn.bridge)
    pairings = [abs(s.intersection(extra, f)) for f in family]
    # the extra curve meets only the A-cycle at the second chain point
    assert pairings == [0, 0, 0, 1, 0, 0]


def test_pants_check():
    t = canonical_triangulation(T3)
    assert pants_check(T3, t) and len(t.cells) == 9
    t4 = canonical_triangulation(T4)
    assert pants_check(T4, t4) and len(t4.cells) == 16
    assert not pants_check(T3, trivial_subdivision(T3))


def test_sp_order_formula():
    assert sp_order(1, 2) == 6
    assert sp_order(1, 3) == 24
    assert sp_order(3, 2) == 1451520


def test_mat_vec_matches_dense_product_on_sparse_vectors():
    rng = random.Random(11)
    for _ in range(50):
        m, n = rng.randint(0, 12), rng.randint(0, 12)
        a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        x = [rng.choice([0, 0, 0, 0, rng.randint(-9, 9)]) for _ in range(n)]
        dense = [sum(row[j] * x[j] for j in range(n)) for row in a]
        assert mat_vec(a, x) == dense
