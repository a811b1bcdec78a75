import ast
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import tropmono.homology
import tropmono.intlinalg
from tropmono.geometry import LatticePolygon, seg
from tropmono.graphs import build_snake
from tropmono.homology import (
    Loop,
    SurfaceModel,
    _bfs_tree,
    _packing,
    canonical_triangulation,
    sp_order,
    subgroup_order_mod_p,
)
from tropmono.intlinalg import IntSolver, mat_vec, matmul, smith_normal_form
from tropmono.polygons import analyze
from tropmono.subdivision import trivial_subdivision

from test_polygons import random_smooth_polygon

T3 = LatticePolygon([(0, 0), (3, 0), (0, 3)])
T4 = LatticePolygon([(0, 0), (4, 0), (0, 4)])


def test_genus_and_euler():
    s3 = SurfaceModel(T3)
    assert s3.genus == 1 and s3.euler_characteristic == 0 and s3.h1_rank == 2
    s4 = SurfaceModel(T4)
    assert s4.genus == 3 and s4.euler_characteristic == -4 and s4.h1_rank == 6
    sq = SurfaceModel(LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)]))
    assert sq.genus == 9
    s8 = SurfaceModel(LatticePolygon([(0, 0), (8, 0), (0, 8)]))
    assert s8.genus == 21 and s8.euler_characteristic == -40 and s8.h1_rank == 42


def dense_h1(s):
    """Oracle: the dense Smith-normal-form route to H1 of the model's CW
    complex.  A kernel basis of the dense d1, the face boundaries solved in
    it, and the rows of the boundaries' Smith form that project onto the
    free quotient; returns the map from a 1-cycle to its quotient
    coordinates."""
    ne = len(s._ends)
    d1 = [[0] * ne for _ in s._nodes]
    for j, (tail, head) in enumerate(s._ends):
        d1[tail][j] -= 1
        d1[head][j] += 1
    _, d, v = smith_normal_form(d1)
    r = sum(1 for i in range(min(len(d1), ne)) if d[i][i])
    kernel = [[v[i][j] for j in range(r, ne)] for i in range(ne)]
    cycles = IntSolver(kernel)
    bounds = [cycles.solve([f.get(j, 0) for j in range(ne)]) for f in s._faces]
    assert None not in bounds, "a face boundary is not a cycle"
    u, d, _ = smith_normal_form([list(row) for row in zip(*bounds)])
    diag = [d[i][i] for i in range(min(len(d), len(bounds)))]
    assert all(abs(x) <= 1 for x in diag), "torsion"
    proj = u[sum(1 for x in diag if x):]
    assert len(proj) == 2 * s.genus

    def raw(chain):
        x = cycles.solve([chain.get(j, 0) for j in range(ne)])
        assert x is not None
        return mat_vec(proj, x)

    return raw


@pytest.mark.parametrize("poly", [
    LatticePolygon([(0, 0), (k, 0), (0, k)]) for k in (3, 4, 5, 6)
] + [
    LatticePolygon([(0, 0), (k, 0), (k, k), (0, k)]) for k in (3, 4, 5)
], ids=["T3", "T4", "T5", "T6", "SQ3", "SQ4", "SQ5"])
def test_tree_cotree_matches_dense_smith_route(poly):
    s = SurfaceModel(poly)
    raw = dense_h1(s)
    chains = [s._acycle_chain(v) for v in s.interior_colex]
    chains += [s._path_chain(s._b_paths[v]) for v in s.interior_colex]
    basis = IntSolver([list(col) for col in zip(*(raw(c) for c in chains))])
    cellular = IntSolver([list(col) for col in zip(*(s._cycle_class_raw(c) for c in chains))])
    chains += [s._segment_chain(e) for e in sorted(s.triangulation.edges())]
    for chain in chains:
        coords = basis.solve(raw(chain))
        assert coords is not None and coords == cellular.solve(s._cycle_class_raw(chain))


def root_to_leaves_h1(s):
    """Oracle: the cellular class of a 1-cycle by clearing the cotree edges
    root to leaves, one chain at a time (the tree-cotree decomposition of
    ``SurfaceModel._homology``, rebuilt from the model's cells): each face
    gets the coefficient that clears the edge to its parent, and the class
    is what is left on the leftover edges."""
    on_edge = [[] for _ in s._ends]
    for f, col in enumerate(s._faces):
        for j, c in col.items():
            on_edge[j].append((f, c))
    skeleton = [(j, tail, head) for j, (tail, head) in enumerate(s._ends)]
    _, up = _bfs_tree(len(s._nodes), skeleton, "1-skeleton")
    tree = set(up.values())
    links = [(j, f, h) for j, ((f, _), (h, _)) in enumerate(on_edge) if j not in tree]
    order, up = _bfs_tree(len(s._faces), links, "dual graph")
    cotree = [(f, up[f], s._faces[f][up[f]]) for f in order[1:]]
    leftover = sorted(set(range(len(s._ends))) - tree - set(up.values()))
    assert leftover == s._leftover

    def raw(chain):
        coef = [0] * len(s._faces)

        def reduced(j):
            return chain.get(j, 0) - sum(coef[f] * c for f, c in on_edge[j])

        for f, j, c in cotree:
            coef[f] = reduced(j) * c
        return [reduced(j) for j in leftover]

    return raw


def _oracle_polygons():
    rng = random.Random(3)
    polys = [T3, T4, LatticePolygon([(0, 0), (6, 0), (0, 6)]),
             LatticePolygon([(0, 0), (4, 0), (4, 4), (0, 4)])]
    while len(polys) < 9:
        poly = random_smooth_polygon(rng)
        if 1 <= analyze(poly)[0].genus <= 25:
            polys.append(poly)
    return polys


@pytest.mark.parametrize("poly", _oracle_polygons(),
                         ids=["T3", "T4", "T6", "SQ4"] + [f"random{i}" for i in range(5)])
def test_cotree_table_matches_root_to_leaves_pass(poly):
    """The per-edge table of ``_homology`` gives every A-cycle, segment
    double and B-path double the class the root-to-leaves pass gives."""
    s = SurfaceModel(poly)
    raw = root_to_leaves_h1(s)
    chains = [s._acycle_chain(v) for v in s.interior_colex]
    chains += [s._path_chain(s._b_paths[v]) for v in s.interior_colex]
    chains += [s._segment_chain(e) for e in sorted(s.triangulation.edges())]
    for chain in chains:
        assert s._cycle_class_raw(chain) == raw(chain)


class SwappedBPaths(SurfaceModel):
    """Two interior points trade their stored B-path classes: the A/B
    classes still form a basis, but the segment doubles disagree."""

    def _reference_paths(self):
        super()._reference_paths()
        v, w = self.interior_colex[:2]
        self._b_class[v], self._b_class[w] = self._b_class[w], self._b_class[v]


class ShiftedBClasses(SurfaceModel):
    """Every stored B-class gains its point's A-class: still a basis, and
    each segment double still has one sign, but is not +-(B_head - B_tail)."""

    def _reference_paths(self):
        super()._reference_paths()
        for v, b in self._b_class.items():
            a = self._cycle_class_raw(self._acycle_chain(v))
            self._b_class[v] = [x + y for x, y in zip(a, b)]


class FlippedSide(SurfaceModel):
    """One side edge's coefficient is flipped in the first face."""

    def _build_cw(self):
        super()._build_cw()
        j = self._side_idx[(sorted(self.triangulation.edges())[0], 0)]
        f = next(f for f, col in enumerate(self._faces) if j in col)
        self._faces[f][j] = -self._faces[f][j]


@pytest.mark.parametrize("corrupted", [SwappedBPaths, ShiftedBClasses, FlippedSide])
def test_corrupted_model_is_rejected(corrupted):
    with pytest.raises(AssertionError):
        corrupted(T4)


def test_corrupted_model_is_rejected_under_python_O():
    """The same corruptions raise AssertionError with asserts stripped."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = (
        f"import sys; sys.path[:0] = [{src!r}, {here!r}]\n"
        "from test_homology import SwappedBPaths, ShiftedBClasses, FlippedSide, T4\n"
        "for corrupted in (SwappedBPaths, ShiftedBClasses, FlippedSide):\n"
        "    try:\n"
        "        corrupted(T4)\n"
        "    except AssertionError as exc:\n"
        "        print(corrupted.__name__, 'rejected:', exc)\n"
        "    else:\n"
        "        print(corrupted.__name__, 'accepted')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["SwappedBPaths", "rejected:"], ["ShiftedBClasses", "rejected:"], ["FlippedSide", "rejected:"]
    ], lines


def test_incoherent_face_orientation_is_rejected():
    class Flipped(SurfaceModel):
        def _build_cw(self):
            super()._build_cw()
            self._faces[0] = {j: -c for j, c in self._faces[0].items()}

    with pytest.raises(AssertionError, match="orientations are incoherent"):
        Flipped(T4)


def test_surface_model_runs_one_smith_normal_form(monkeypatch):
    """One SNF of the 20 x 20 A/B matrix of T6 both checks that the A and B
    classes span the cellular H1 and serves every later solve."""
    sizes = []
    original = tropmono.intlinalg.smith_normal_form

    def counted(a):
        sizes.append(len(a))
        return original(a)

    monkeypatch.setattr(tropmono.intlinalg, "smith_normal_form", counted)
    SurfaceModel(LatticePolygon([(0, 0), (6, 0), (0, 6)]))
    assert sizes == [20]


def test_ab_classes_spanning_a_proper_sublattice_are_rejected():
    """Doubled A and B classes span a sublattice of index 2^6 in T4's H1;
    the SNF's diagonal shows it."""

    class Doubled(SurfaceModel):
        def _cycle_class_raw(self, chain):
            return [2 * x for x in super()._cycle_class_raw(chain)]

    with pytest.raises(AssertionError, match="do not span the cellular H1"):
        Doubled(T4)


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


def bfs_order(generators, p, cap):
    """Oracle: the order of the group the matrices generate mod p, by
    breadth-first closure from the identity under right multiplication
    (every element kept); None once more than ``cap`` elements are seen."""
    gen_cols = [list(zip(*(tuple(x % p for x in row) for row in m))) for m in generators]
    n = len(generators[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for cols in gen_cols:
                b = tuple(_vec_mul(row, cols, p) for row in a)
                if b not in seen:
                    seen.add(b)
                    fresh.append(b)
                    if len(seen) > cap:
                        return None
        frontier = fresh
    return len(seen)


def _vec_mul(v, cols, p):
    """Row vector v times the matrix with the given columns, over F_p."""
    return tuple(sum(x * y for x, y in zip(v, col)) % p for col in cols)


def _mul_mod(a, b, p):
    """Product of two square matrices (tuples of row tuples) over F_p."""
    cols = tuple(zip(*b))
    return tuple(_vec_mul(row, cols, p) for row in a)


def dense_order(generators, p, limit=5_000_000, checked=None):
    """Oracle: the Schreier-Sims of ``subgroup_order_mod_p`` on tuples of row
    tuples, with the dense kernel above, in the same order of work.  Every
    running product of orbit lengths compared with ``limit`` is appended to
    ``checked``.  Singular generators raise from the shared ``_inverse_mod``."""
    gens = list(dict.fromkeys(tuple(tuple(x % p for x in row) for row in m) for m in generators))
    if not gens:
        return 1
    n = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    strong = [[] for _ in range(n)]  # (s, s^-1, columns of s)
    orbits = [{ident[i]: (ident, ident)} for i in range(n)]  # x -> (u, u^-1)
    passed = [set() for _ in range(n)]  # (x, k): Schreier generator sifted

    def add_strong(h, first, last):
        inv = tuple(map(tuple, tropmono.homology._inverse_mod(h, p)))
        item = (h, inv, tuple(zip(*h)))
        for i in range(first, last + 1):
            strong[i].append(item)
            close_orbit(i)

    def close_orbit(i):
        orbit = orbits[i]
        others = math.prod(len(o) for j, o in enumerate(orbits) if j != i)
        queue = list(orbit)
        for x in queue:
            u, u_inv = orbit[x]
            for s, s_inv, cols in strong[i]:
                y = _vec_mul(x, cols, p)
                if y not in orbit:
                    orbit[y] = (_mul_mod(u, s, p), _mul_mod(s_inv, u_inv, p))
                    if checked is not None:
                        checked.append(others * len(orbit))
                    if others * len(orbit) > limit:
                        raise RuntimeError("subgroup order exceeded the safety limit")
                    queue.append(y)

    def sift(h, start):
        for j in range(start, n):
            x = h[j]
            if x == ident[j]:
                continue
            entry = orbits[j].get(x)
            if entry is None:
                return h, j
            h = _mul_mod(h, entry[1], p)
        return h, n

    def first_failure(i):
        orbit = orbits[i]
        for x, (u, _) in orbit.items():
            for k, (s, _, cols) in enumerate(strong[i]):
                if (x, k) in passed[i]:
                    continue
                g = _mul_mod(_mul_mod(u, s, p), orbit[_vec_mul(x, cols, p)][1], p)
                h, j = sift(g, i + 1)
                if j < n:
                    add_strong(h, i + 1, j)
                    return j
                passed[i].add((x, k))
        return None

    for s in gens:
        if s == ident:
            continue
        moved = next(i for i in range(n) if s[i] != ident[i])
        add_strong(s, 0, moved)
    i = n - 1
    while i >= 0:
        j = first_failure(i)
        i = i - 1 if j is None else j
    return math.prod(len(o) for o in orbits)


def outcome(order_fn, gens, p, **kw):
    """The order, or the type of the exception raised."""
    try:
        return order_fn(gens, p, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def random_generators(rng, n, p):
    """One to three n x n matrices mod p: dense random ones, transvections,
    signed permutations and -(J + I), p - 1 off the diagonal and p - 2 on it
    (nonsingular unless p divides n + 1), mixed so that some closures stay
    small."""
    def dense():
        return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]

    def transvection():
        i, j = rng.sample(range(n), 2)
        m = [[int(r == c) for c in range(n)] for r in range(n)]
        m[i][j] = rng.randrange(1, p)
        return m

    def signed_permutation():
        perm = rng.sample(range(n), n)
        return [[(rng.choice((1, p - 1)) if c == perm[r] else 0) for c in range(n)] for r in range(n)]

    def all_minus_one():
        return [[p - 1 - (r == c) for c in range(n)] for r in range(n)]

    kinds = (dense, transvection, signed_permutation, all_minus_one)
    return [rng.choice(kinds)() for _ in range(rng.randint(1, 3))]


def test_packed_vec_mul_matches_dense_kernel_on_worst_case_slots():
    """Every slot at its largest sum n*(p-1)^2 (all entries p - 1), and seeded
    random rows, up to p = 101 and n = 6."""
    rng = random.Random(5)
    for p in (2, 3, 5, 7, 11, 101):
        for n in range(1, 7):
            pack, unpack, vec_mul = _packing(n, p)
            top = [[p - 1] * n for _ in range(n)]
            mats = [top] + [[[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(6)]
            for m in mats:
                rows = pack(m)
                assert unpack(rows) == m
                cols = tuple(zip(*m))
                for v in [[p - 1] * n] + [[rng.randrange(p) for _ in range(n)] for _ in range(6)]:
                    (x,) = pack([v])
                    assert unpack([vec_mul(x, rows)]) == [list(_vec_mul(v, cols, p))]


def test_packed_kernel_matches_dense_oracle_and_bfs():
    """Seeded generator sets for p in {2, 3, 5, 7, 11} and n in {2, 3, 4},
    plus dense ones mod 101 in dimension 6: the same order or the same
    exception as the dense oracle (at a limit that keeps the oracle fast),
    and the BFS order wherever the closure is small enough to list."""
    rng = random.Random(41)
    listed = 0
    for p in (2, 3, 5, 7, 11):
        for n in (2, 3, 4):
            for _ in range(6):
                gens = random_generators(rng, n, p)
                got = outcome(subgroup_order_mod_p, gens, p, limit=10**4)
                assert got == outcome(dense_order, gens, p, limit=10**4), (gens, p)
                if isinstance(got, int) and got <= 5000:
                    assert got == bfs_order(gens, p, 5000), (gens, p)
                    listed += 1
    assert listed >= 20
    for _ in range(3):
        gens = random_generators(rng, 6, 101)
        assert outcome(subgroup_order_mod_p, gens, 101, limit=10**4) == outcome(
            dense_order, gens, 101, limit=10**4)
    minus = [[100 - (r == c) for c in range(6)] for r in range(6)]
    assert subgroup_order_mod_p([minus], 101) == dense_order([minus], 101) == bfs_order([minus], 101, 10**4)


def test_limit_fires_where_the_dense_oracle_fires(monkeypatch):
    """Sweep ``limit`` over every running product of orbit lengths the
    oracle compares (and one below each): both kernels raise RuntimeError
    at the same limits, after the same number of strong generators."""
    inverses = []
    real_inverse = tropmono.homology._inverse_mod

    def counted(m, p):
        inverses.append(p)
        return real_inverse(m, p)

    monkeypatch.setattr(tropmono.homology, "_inverse_mod", counted)
    elementary = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
                  [[1, 0, 0], [0, 1, 0], [1, 0, 1]]]
    t4 = snake_twists(T4)
    sets = [(list(sl2_twists()), 3), ([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], 5), (t4[:3], 3),
            (t4[:5], 2), (elementary, 3), (elementary[:2], 7)]
    for gens, p in sets:
        checked = []
        order = dense_order(gens, p, checked=checked)
        assert checked and max(checked) == order
        for limit in sorted({v + d for v in checked for d in (-1, 0)}):
            results = []
            for order_fn in (dense_order, subgroup_order_mod_p):
                inverses.clear()
                results.append((outcome(order_fn, gens, p, limit=limit), len(inverses)))
            assert results[0] == results[1], (gens, p, limit)
            assert (results[1][0] is RuntimeError) == (limit < order)


def sl2_twists():
    s = SurfaceModel(T3)
    ma = s.dehn_twist_matrix(Loop.acycle((1, 1)))
    mb = s.dehn_twist_matrix(Loop.of_segment(seg((0, 0), (1, 1))))
    return ma, mb


def snake_twists(poly):
    """The twists of the snake chain, its A-cycles and its bridge."""
    s = SurfaceModel(poly)
    sn = build_snake(poly)
    family = []
    for i, c in enumerate(sn.chain):
        family.append(Loop.of_segment(c))
        family.append(Loop.acycle(sn.points[i + 1]))
    family.append(Loop.of_segment(sn.bridge))
    return [s.dehn_twist_matrix(l) for l in family]


def all_twists(poly):
    """Distinct twists of every A-cycle and of the double of every edge of
    the canonical triangulation (boundary edges give the identity)."""
    s = SurfaceModel(poly)
    loops = [Loop.acycle(v) for v in s.interior_colex]
    loops += [Loop.of_segment(e) for e in sorted(s.triangulation.edges())]
    mats = []
    for loop in loops:
        m = s.dehn_twist_matrix(loop)
        if m not in mats:
            mats.append(m)
    return mats


def test_sl2_orders():
    ma, mb = sl2_twists()
    for gens, p, order in (([ma, mb], 2, 6), ([ma, mb], 3, 24), ([ma], 2, 2)):
        assert subgroup_order_mod_p(gens, p) == order == bfs_order(gens, p, 10**4)
    # SL(2, F_5) from the two elementary transvections
    gens = [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]
    assert subgroup_order_mod_p(gens, 5) == 120 == bfs_order(gens, 5, 10**4)


def test_subgroup_order_matches_bfs_on_seeded_twist_subsets():
    """Seeded subsets of the T3 and T4 twists mod 2 and mod 3, in seeded
    order with repeats (up to six mod 2, four mod 3); only subsets whose
    closure stays under 2*10^4 elements are compared, and at least half of
    each batch must be."""
    rng = random.Random(23)
    for poly in (T3, T4):
        twists = all_twists(poly)
        for p in (2, 3):
            compared = 0
            for _ in range(8):
                gens = [rng.choice(twists) for _ in range(rng.randint(1, 6 if p == 2 else 4))]
                oracle = bfs_order(gens, p, 2 * 10**4)
                if oracle is not None:
                    assert subgroup_order_mod_p(gens, p) == oracle, (gens, p)
                    compared += 1
            assert compared >= 4


def test_sp6_f2_order_under_seeded_generator_orders():
    mats = snake_twists(T4)
    assert len(mats) == 7
    for seed in range(20):
        order = list(range(7))
        random.Random(seed).shuffle(order)
        assert subgroup_order_mod_p([mats[i] for i in order], 2) == sp_order(3, 2) == 1451520


def test_closure_of_the_seeded_snake_twists_runs_few_vector_products(monkeypatch):
    """The Sp(6, F_2) closure of T4's seven snake twists in the generator
    order of seed 1 (``random.Random("1:closure")``; the seed-1 image of T4
    is T4) forms and sifts Schreier generators on the unfixed rows only,
    and stops when the orbits reach |Sp(6, F_2)|: at most 4,030 packed
    vector products (6,314 without the ceiling, 15,740 on full matrices,
    8,722 if a Schreier generator that passed were sifted again)."""
    calls = []
    real_packing = tropmono.homology._packing

    def counted_packing(n, p):
        pack, unpack, vec_mul = real_packing(n, p)

        def counted(x, rows):
            calls.append(None)
            return vec_mul(x, rows)

        return pack, unpack, counted

    mats = snake_twists(T4)
    order = list(range(7))
    random.Random("1:closure").shuffle(order)
    monkeypatch.setattr(tropmono.homology, "_packing", counted_packing)
    assert subgroup_order_mod_p([mats[i] for i in order], 2) == sp_order(3, 2)
    assert 0 < len(calls) <= 4_030


def test_symplectic_ceiling_agrees_with_the_dense_oracle():
    """The closure stops at |Sp(n, F_p)| only when every generator preserves
    the standard form J, and it agrees with the dense oracle, which has no
    ceiling, on: the full group (T4's snake twists mod 2, the T3 twists
    mod 3 and 5); GL(2, F_3), which holds Sp(2, F_3) = SL(2, F_3); proper
    symplectic subgroups (subsets of the snake twists); a whole symplectic
    group for another form (the snake twists conjugated by the swap of e_0
    and e_1, mod 2); and odd n."""
    ma, mb = sl2_twists()
    t4 = snake_twists(T4)
    swap = [[int(j == (1, 0, 2, 3, 4, 5)[i]) for j in range(6)] for i in range(6)]  # its own inverse
    elementary = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]],
                  [[1, 0, 0], [0, 1, 0], [1, 0, 1]]]
    # I + E_{k, k+1 mod 4} for k < 4: SL(4, F_2), of order 20160 > |Sp(4, F_2)| = 720
    cyclic = [[[int(j == i or (k, j) == (i, (i + 1) % 4)) for j in range(4)] for i in range(4)]
              for k in range(4)]
    # (generators, p, whether they preserve J mod p, whether the order is |Sp(n, F_p)|)
    cases = [(t4, 2, True, True), ([ma, mb], 3, True, True), ([ma, mb], 5, True, True),
             *((t4[:k], 2, True, False) for k in range(1, 7)), (t4[:2], 3, True, False),
             ([matmul(matmul(swap, m), swap) for m in t4], 2, False, True),
             ([ma, mb, [[1, 0], [0, 2]]], 3, False, False), (cyclic, 2, False, False),
             (elementary, 3, False, False), (elementary[:2], 5, False, False)]
    for gens, p, preserves, full in cases:
        n = len(gens[0])
        form = [[int(j == i + n // 2) - int(i == j + n // 2) for j in range(n)] for i in range(n)]
        got = [[[x % p for x in row] for row in matmul(matmul(m, form), [list(c) for c in zip(*m)])]
               for m in gens]
        assert (n % 2 == 0 and all(g == [[x % p for x in row] for row in form] for g in got)) == preserves
        order = subgroup_order_mod_p(gens, p)
        assert order == dense_order(gens, p), (gens, p)
        assert (n % 2 == 0 and order == sp_order(n // 2, p)) == full, (gens, p)


def test_subgroup_order_contract():
    assert subgroup_order_mod_p([], 2) == 1
    ma, mb = sl2_twists()
    # reduced mod p and deduplicated: ma + 2 I equals ma mod 2
    shifted = [[x + 2 * (i == j) for j, x in enumerate(row)] for i, row in enumerate(ma)]
    assert subgroup_order_mod_p([ma, shifted, ma, mb], 2) == 6
    assert subgroup_order_mod_p([[[1, 0], [0, 1]]], 3) == 1
    with pytest.raises(ValueError, match="singular"):
        subgroup_order_mod_p([ma, [[1, 1], [1, 3]]], 2)  # det 2
    with pytest.raises(ValueError):
        subgroup_order_mod_p([ma], 4)
    with pytest.raises(ValueError):
        subgroup_order_mod_p([ma, [[1]]], 2)
    with pytest.raises(ValueError, match="generator 1 .*1.0"):
        subgroup_order_mod_p([ma, [[1.0, 0], [0, 1]]], 2)
    with pytest.raises(ValueError, match="generator 2 .*True"):
        subgroup_order_mod_p([ma, mb, [[1, True], [0, 1]]], 3)
    with pytest.raises(ValueError, match="generator 0 .*'1'"):
        subgroup_order_mod_p([[["1", 0], [0, 1]]], 5)
    with pytest.raises(ValueError, match="generator 0 .*None"):
        subgroup_order_mod_p([[[None]]], 2)
    with pytest.raises(ValueError, match="generator 1 .*None"):
        subgroup_order_mod_p([ma, [[1, None], [0, 1]]], 3)
    with pytest.raises(RuntimeError):
        subgroup_order_mod_p(snake_twists(T4), 2, limit=1000)
    assert subgroup_order_mod_p([ma, mb], 3, limit=24) == 24


def test_subgroup_order_matches_sympy_permutation_group():
    """Cross-check on the permutation action on F_p^n minus zero."""
    combinatorics = pytest.importorskip("sympy.combinatorics")
    t4 = snake_twists(T4)
    for gens, p in ((t4, 2), (t4[:4], 3), (list(sl2_twists()), 3)):
        n = len(gens[0])
        points = [v for v in itertools.product(range(p), repeat=n) if any(v)]
        index = {v: i for i, v in enumerate(points)}
        perms = []
        for m in gens:
            cols = list(zip(*m))
            image = [index[_vec_mul(v, cols, p)] for v in points]
            perms.append(combinatorics.Permutation(image))
        assert subgroup_order_mod_p(gens, p) == combinatorics.PermutationGroup(perms).order()


# modules that neither the CLI's import nor a verdict may load: the layers
# a verdict does not run, and the standard modules they would bring
NOT_ON_THE_VERDICT_PATH = (
    "tropmono.subdivision", "tropmono.graphs", "tropmono.builders", "tropmono.engine",
    "tropmono.homology", "tropmono.intlinalg", "tropmono.linprog",
    "dataclasses", "inspect", "fractions", "numpy",
)


def test_cli_import_loads_no_numpy(tmp_path):
    """tropmono has no third-party runtime dependency, and the CLI loads a
    layer only for a command that runs it: after ``import tropmono.cli``,
    and after a verdict on T3, a fresh interpreter holds none of
    NOT_ON_THE_VERDICT_PATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    poly = tmp_path / "t3.json"
    poly.write_text('{"vertices": [[0, 0], [3, 0], [0, 3]]}')
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import tropmono.cli\n"
        f"names = {NOT_ON_THE_VERDICT_PATH!r}\n"
        "print(sorted(set(names) & set(sys.modules)), file=sys.stderr)\n"
        f"code = tropmono.cli.main(['verdict', {str(poly)!r}])\n"
        "print(code, sorted(set(names) & set(sys.modules)), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["[]", "0 []"]
    assert '"mu": "surjective"' in proc.stdout


def test_homology_checks_are_not_assert_statements():
    """The SurfaceModel cross-checks raise explicitly, so python -O keeps them."""
    tree = ast.parse(open(tropmono.homology.__file__).read())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


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
    """Cutting along the doubles of a subdivision's edges leaves one pair of
    pants per cell iff the subdivision is unimodular: its cells are then
    triangles, and the piece over a cell with c corners has chi = 2 - c = -1."""
    t = canonical_triangulation(T3)
    assert t.is_unimodular() and len(t.cells) == 9
    t4 = canonical_triangulation(T4)
    assert t4.is_unimodular() and len(t4.cells) == 16
    assert not trivial_subdivision(T3).is_unimodular()


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
