"""Combinatorial model of the doubled curve: the genus-g closed surface
obtained by gluing two copies of the polygon, blown up at its lattice
points, along the blow-up circles, with the boundary-edge punctures capped.

Loops: the A-cycle over every interior lattice point (its blow-up circle)
and the double of every primitive integer segment.  Homology is computed
two ways and cross-checked: cellularly (Smith normal form of the boundary
maps of the explicit CW structure built from the canonical unimodular
triangulation; cycle checks walk the sparse columns of d1) and through the symplectic calculus (A-classes are the
circles, B-classes are doubles of lattice paths to the boundary; a segment
double has no A-part and its B-coordinates are carried by its interior
endpoints).  Dehn twists act by Picard-Lefschetz transvections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    LatticePolygon,
    Point,
    Segment,
    seg,
)
from .intlinalg import det_unimodular, kernel_basis, matmul, mat_vec, smith_normal_form, snf_diagonal
from .subdivision import RegularSubdivision, trivial_subdivision, unimodular_refinement


@dataclass(frozen=True)
class Loop:
    """Either the A-cycle over an interior lattice point or the double of a
    primitive integer segment."""

    kind: str  # "acycle" | "segment"
    v: Point | None = None
    segment: Segment | None = None

    @staticmethod
    def acycle(v: Point) -> "Loop":
        return Loop("acycle", v=(int(v[0]), int(v[1])))

    @staticmethod
    def of_segment(s: Segment) -> "Loop":
        return Loop("segment", segment=seg(*s))

    def to_json(self):
        if self.kind == "acycle":
            return {"acycle": list(self.v)}
        return {"segment": [list(self.segment[0]), list(self.segment[1])]}


def canonical_triangulation(poly: LatticePolygon) -> RegularSubdivision:
    return unimodular_refinement(trivial_subdivision(poly))


class SurfaceModel:
    """The closed oriented genus-g surface over a smooth polygon with its
    distinguished loops, symplectic basis and twist matrices."""

    def __init__(self, poly: LatticePolygon):
        from .polygons import analyze

        analysis, _ = analyze(poly)
        if analysis.genus < 1:
            raise ValueError("genus zero surface has no twist calculus")
        self.polygon = poly
        self.genus = analysis.genus
        self.punctures = analysis.boundary
        self.triangulation = canonical_triangulation(poly)
        self.interior = poly.interior_points()  # colex order below
        self.interior_colex = sorted(self.interior, key=lambda p: (p[1], p[0]))
        self.a_index = {v: i for i, v in enumerate(self.interior_colex)}
        self._build_cw()
        self._homology()
        self._reference_paths()
        self._validate_against_cw()
        self.J = [[0] * (2 * self.genus) for _ in range(2 * self.genus)]
        for i in range(self.genus):
            self.J[i][self.genus + i] = 1
            self.J[self.genus + i][i] = -1

    # -- CW structure -------------------------------------------------------

    def _build_cw(self):
        T = self.triangulation
        poly = self.polygon
        tris = [c.vertices for c in T.cells]
        edges = sorted(T.edges())
        boundary_segs = set(poly.boundary_segments())
        edge_index = {e: i for i, e in enumerate(edges)}
        # cw vertices: (p, e)
        nodes = {}
        for e in edges:
            for p in e:
                nodes.setdefault((p, e), len(nodes))
        self._nodes = nodes
        # cw edges: sides (e, sheet) for sheet in (0, 1) and arcs (p, t)
        cw_edges = []
        self._side_idx = {}
        for e in edges:
            for sheet in (0, 1):
                self._side_idx[(e, sheet)] = len(cw_edges)
                cw_edges.append(("side", e, sheet))
        self._arc_idx = {}
        self._tri_at = {}
        for ti, t in enumerate(tris):
            for k in range(3):
                p = t[k]
                self._tri_at.setdefault(p, []).append(ti)
                self._arc_idx[(p, ti)] = len(cw_edges)
                cw_edges.append(("arc", p, ti))
        self._cw_edges = cw_edges
        ne = len(cw_edges)
        nv = len(nodes)
        # boundary of a side (e, s): node(q, e) - node(p, e) with e = (p, q)
        d1 = [[0] * ne for _ in range(nv)]
        for e in edges:
            for sheet in (0, 1):
                j = self._side_idx[(e, sheet)]
                d1[nodes[(e[0], e)]][j] -= 1
                d1[nodes[(e[1], e)]][j] += 1
        # boundary of an arc (p, t): node(p, e_out) - node(p, e_in) where the
        # ccw walk of t enters p along e_in and leaves along e_out
        for ti, t in enumerate(tris):
            for k in range(3):
                p = t[k]
                prv = t[(k - 1) % 3]
                nxt = t[(k + 1) % 3]
                e_in = seg(prv, p)
                e_out = seg(p, nxt)
                j = self._arc_idx[(p, ti)]
                d1[nodes[(p, e_out)]][j] += 1
                d1[nodes[(p, e_in)]][j] -= 1
        self._d1 = d1
        self._d1_cols = [[(i, row[j]) for i, row in enumerate(d1) if row[j]] for j in range(ne)]
        # faces: (t, sheet) walked ccw on sheet 0 and cw on sheet 1, plus one
        # cap per boundary edge closing the puncture
        faces = []
        for ti, t in enumerate(tris):
            col = [0] * ne
            for k in range(3):
                p, q = t[k], t[(k + 1) % 3]
                e = seg(p, q)
                sgn = 1 if (p, q) == e else -1
                col[self._side_idx[(e, 0)]] += sgn
                col[self._arc_idx[(q, ti)]] += 1
            faces.append(col)
            col = [0] * ne
            for k in range(3):
                p, q = t[k], t[(k + 1) % 3]
                e = seg(p, q)
                sgn = 1 if (p, q) == e else -1
                col[self._side_idx[(e, 1)]] -= sgn
                col[self._arc_idx[(q, ti)]] -= 1
            faces.append(col)
        # caps close the punctures: each is a bigon whose orientation opposes
        # the residual of the triangle faces along its boundary edge
        residual = [0] * ne
        for col in faces:
            residual = [x + y for x, y in zip(residual, col)]
        for e in sorted(boundary_segs):
            col = [0] * ne
            for sheet in (0, 1):
                j = self._side_idx[(e, sheet)]
                col[j] = -residual[j]
            assert any(col), "puncture cap with empty boundary"
            faces.append(col)
        self._d2_cols = faces
        # closedness and orientability sanity checks
        for col in faces:
            if not self._is_cycle(enumerate(col)):
                raise AssertionError("face boundary is not a cycle")
        total = [0] * ne
        for col in faces:
            total = [x + y for x, y in zip(total, col)]
        assert all(x == 0 for x in total), "face orientations are incoherent"
        chi = nv - ne + len(faces)
        assert chi == 2 - 2 * self.genus, f"Euler characteristic {chi}"
        self.euler_characteristic = chi

    # -- homology -----------------------------------------------------------

    def _homology(self):
        d1 = self._d1
        ne = len(self._cw_edges)
        kb = kernel_basis(d1)  # columns spanning the cycle space
        self._cycle_basis = kb
        k = len(kb)
        # express boundaries in the cycle basis: solve K x = d2_col
        kt = [[kb[j][i] for j in range(k)] for i in range(ne)]
        from .intlinalg import IntSolver

        self._ksolver = IntSolver(kt)
        cols = []
        for col in self._d2_cols:
            x = self._ksolver.solve(col)
            if x is None:
                raise AssertionError("boundary is not a cycle?")
            cols.append(x)
        bmat = [[cols[j][i] for j in range(len(cols))] for i in range(k)]
        u, d, v = smith_normal_form(bmat)
        diag = snf_diagonal(d)
        r = sum(1 for x in diag if x)
        assert all(abs(x) == 1 for x in diag if x), "torsion in surface homology"
        self.h1_rank = k - r
        assert self.h1_rank == 2 * self.genus, "H1 rank mismatch"
        self._proj_rows = u[r:]  # the rows onto the free rank-2g quotient

    def _is_cycle(self, entries) -> bool:
        """Whether a 1-chain given by (edge, coefficient) pairs is closed."""
        img: dict[int, int] = {}
        for j, c in entries:
            if c:
                for i, a in self._d1_cols[j]:
                    img[i] = img.get(i, 0) + a * c
        return not any(img.values())

    def _cycle_class_raw(self, chain: dict[int, int]) -> list[int]:
        """Coordinates of a cellular 1-cycle in the rank-2g quotient."""
        if not self._is_cycle(chain.items()):
            raise AssertionError("chain is not a cycle")
        vec = [chain.get(j, 0) for j in range(len(self._cw_edges))]
        x = self._ksolver.solve(vec)
        if x is None:
            raise AssertionError("cycle does not lie in the cycle lattice")
        return mat_vec(self._proj_rows, x)

    def _acycle_chain(self, v: Point) -> dict[int, int]:
        return {self._arc_idx[(v, ti)]: 1 for ti in self._tri_at[v]}

    def _segment_chain(self, s: Segment) -> dict[int, int]:
        chain = {}
        chain[self._side_idx[(s, 0)]] = 1
        chain[self._side_idx[(s, 1)]] = -1
        return chain

    def _reference_paths(self):
        """B-classes: doubles of triangulation paths from each interior point
        to the boundary; A-classes: the circles.  Asserts they form a basis
        of the cellular H1."""
        T = self.triangulation
        poly = self.polygon
        adj: dict[Point, list[Point]] = {}
        for e in T.edges():
            adj.setdefault(e[0], []).append(e[1])
            adj.setdefault(e[1], []).append(e[0])
        for p in adj:
            adj[p].sort()
        interior = set(poly.interior_points())

        def bfs_path(v):
            # prefer paths that avoid other interior points
            from collections import deque

            for allow_interior in (False, True):
                prev = {v: None}
                dq = deque([v])
                while dq:
                    cur = dq.popleft()
                    if poly.side(cur) == 0:
                        path = [cur]
                        while prev[path[-1]] is not None:
                            path.append(prev[path[-1]])
                        return list(reversed(path))
                    for w in adj[cur]:
                        if w in prev:
                            continue
                        if w != v and w in interior and not allow_interior and poly.side(w) != 0:
                            continue
                        prev[w] = cur
                        dq.append(w)
            raise AssertionError("no path to the boundary")

        self._b_paths = {}
        basis_vectors = []
        for v in self.interior_colex:
            basis_vectors.append(self._cycle_class_raw(self._acycle_chain(v)))
        for v in self.interior_colex:
            path = bfs_path(v)
            chain: dict[int, int] = {}
            for a, b in zip(path, path[1:]):
                e = seg(a, b)
                sgn = 1 if (a, b) == e else -1
                chain[self._side_idx[(e, 0)]] = chain.get(self._side_idx[(e, 0)], 0) + sgn
                chain[self._side_idx[(e, 1)]] = chain.get(self._side_idx[(e, 1)], 0) - sgn
            self._b_paths[v] = path
            basis_vectors.append(self._cycle_class_raw(chain))
        mat = [[basis_vectors[j][i] for j in range(len(basis_vectors))] for i in range(self.h1_rank)]
        assert det_unimodular(mat), "A/B classes do not span the cellular H1"
        self._ab_matrix = mat

    def _to_ab(self, raw: list[int]) -> list[int]:
        from .intlinalg import IntSolver

        if not hasattr(self, "_absolver"):
            self._absolver = IntSolver(self._ab_matrix)
        x = self._absolver.solve(raw)
        assert x is not None, "class does not lie in the A/B lattice"
        return x

    def _validate_against_cw(self):
        """Cross-check: every triangulation edge's double has no A-part, and
        its B-part is +-1 exactly on its interior endpoints with the
        head-minus-tail sign pattern."""
        g = self.genus
        self._head_sign = None
        for e in sorted(self.triangulation.edges()):
            coords = self._to_ab(self._cycle_class_raw(self._segment_chain(e)))
            a_part, b_part = coords[:g], coords[g:]
            assert all(x == 0 for x in a_part), f"segment double {e} has an A-part"
            expected = {}
            tail, head = e
            if tail in self.a_index:
                expected[self.a_index[tail]] = -1
            if head in self.a_index:
                expected[self.a_index[head]] = 1
            got = {i: x for i, x in enumerate(b_part) if x}
            if set(got) != set(expected):
                raise AssertionError(f"B-support mismatch for {e}: {got} vs {expected}")
            if not expected:
                continue
            signs = {got[i] * expected[i] for i in got}
            assert signs in ({1}, {-1}), f"incoherent endpoint signs for {e}"
            sign = signs.pop()
            if self._head_sign is None:
                self._head_sign = sign
            else:
                assert self._head_sign == sign, "endpoint sign convention not global"
        if self._head_sign is None:
            self._head_sign = 1

    # -- public calculus -----------------------------------------------------

    def loop_class(self, loop: Loop) -> list[int]:
        """Class of a loop in the symplectic basis (A-vectors then B-vectors)."""
        g = self.genus
        out = [0] * (2 * g)
        if loop.kind == "acycle":
            if loop.v not in self.a_index:
                raise ValueError(f"{loop.v} is not an interior lattice point")
            out[self.a_index[loop.v]] = 1
            return out
        s = loop.segment
        if not self.polygon.contains_segment(s):
            raise ValueError(f"{s} leaves the polygon")
        if self.polygon.side(s[0]) == 0 and self.polygon.side(s[1]) == 0:
            if s in set(self.polygon.boundary_segments()):
                return out  # boundary segments double to cap boundaries
        tail, head = s
        if tail in self.a_index:
            out[g + self.a_index[tail]] -= self._head_sign
        if head in self.a_index:
            out[g + self.a_index[head]] += self._head_sign
        return out

    def pairing(self, x: list[int], y: list[int]) -> int:
        return sum(x[i] * self.J[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))

    def intersection(self, l1: Loop, l2: Loop) -> int:
        """Algebraic intersection number of two distinguished loops."""
        return self.pairing(self.loop_class(l1), self.loop_class(l2))

    def dehn_twist_matrix(self, loop: Loop) -> list[list[int]]:
        """Picard-Lefschetz transvection x -> x + <x, c> c along the loop."""
        c = self.loop_class(loop)
        n = 2 * self.genus
        jc = mat_vec(self.J, c)
        m = [[(1 if i == k else 0) + c[i] * jc[k] for k in range(n)] for i in range(n)]
        return m

    def is_symplectic(self, m: list[list[int]]) -> bool:
        mt = [[m[j][i] for j in range(len(m))] for i in range(len(m))]
        return matmul(matmul(mt, self.J), m) == self.J


# ---------------------------------------------------------------------------
# subgroup enumeration over small fields
# ---------------------------------------------------------------------------


def subgroup_order_mod_p(generators, p: int, limit: int = 5_000_000) -> int:
    """Order of the subgroup generated by the matrices modulo p, by BFS
    closure (numpy-batched)."""
    if not generators:
        return 1
    n = len(generators[0])
    gens = []
    seen_gen = set()
    for gmat in generators:
        arr = np.array(gmat, dtype=np.int64) % p
        key = arr.tobytes()
        if key not in seen_gen:
            seen_gen.add(key)
            gens.append(arr.astype(np.uint8))
    ident = np.eye(n, dtype=np.uint8)
    seen = {ident.tobytes()}
    frontier = np.stack([ident])
    total = 1
    while len(frontier):
        prods = []
        for gmat in gens:
            prod = np.einsum("bij,jk->bik", frontier.astype(np.int64), gmat.astype(np.int64)) % p
            prods.append(prod.astype(np.uint8))
        batch = np.concatenate(prods)
        fresh = []
        for mat in batch:
            key = mat.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(mat)
        total += len(fresh)
        if total > limit:
            raise RuntimeError("subgroup closure exceeded the safety limit")
        frontier = np.stack(fresh) if fresh else np.empty((0, n, n), dtype=np.uint8)
    return total


def sp_order(g: int, q: int) -> int:
    """|Sp(2g, F_q)| by the standard product formula."""
    order = q ** (g * g)
    for i in range(1, g + 1):
        order *= q ** (2 * i) - 1
    return order


# ---------------------------------------------------------------------------
# pair of pants decompositions
# ---------------------------------------------------------------------------


def pants_check(poly: LatticePolygon, sub_div: RegularSubdivision) -> bool:
    """Cutting the punctured surface along the doubles of all subdivision
    edges leaves one piece per 2-cell, each of Euler characteristic -1.

    Computed cellularly on each piece: two sheets of the cell glued along
    one blow-up arc per corner."""
    if not sub_div.is_unimodular():
        return False
    for cell in sub_div.cells:
        corners = len(cell.vertices)
        # piece: 2 faces, 2*corners side edges, corners arcs, 2*corners nodes
        chi = 2 * corners - (2 * corners + corners) + 2
        if chi != -1:
            return False
        # connectivity: the two sheets are glued along at least one arc
        if corners < 1:
            return False
    return True
