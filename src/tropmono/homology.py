"""Combinatorial model of the doubled curve: the genus-g closed surface
obtained by gluing two copies of the polygon, blown up at its lattice
points, along the blow-up circles, with the boundary-edge punctures capped.

Loops: the A-cycle over every interior lattice point (its blow-up circle)
and the double of every primitive integer segment.  Homology is computed
two ways and cross-checked: cellularly (a tree-cotree decomposition of the
explicit CW structure built from the canonical unimodular triangulation,
kept as sparse edge ends and face columns; no boundary matrix is formed)
and through the symplectic calculus (A-classes are the circles, B-classes
are doubles of lattice paths to the boundary; a segment double has no
A-part and its B-coordinates are carried by its interior endpoints).

The cellular class map is linear, so one leaves-to-root pass over the
cotree tabulates the class of every cw edge, and a chain's class is the
sum of its edges' classes.  One Smith normal form shows that the A and B
classes form a basis; each segment double is then checked against
+-(B_head - B_tail) in cellular coordinates, which, coordinates in a basis
being unique, is the symplectic rule itself, with no solve per edge.  The
cross-checks raise AssertionError explicitly, so they also hold under
``python -O``.
Dehn twists act by Picard-Lefschetz transvections.

Orders of twist groups mod a prime p come from a deterministic
Schreier-Sims on the action on row vectors over F_p, with the standard
basis as base (Seress, *Permutation Group Algorithms*, CUP 2003, ch. 4);
no group element list is kept, and each row vector is one int with its
entries in fixed-width bit slots.  An element of the stabilizer of
e_0..e_i is formed and sifted on its rows i+1.. only, the others being
e_0..e_i.  Standard library only.
"""

from __future__ import annotations

from collections import deque, namedtuple
from math import isqrt, prod

from .geometry import (
    LatticePolygon,
    Point,
    Segment,
    seg,
)
from .intlinalg import IntSolver, mat_vec, matmul
from .polygons import analyze
from .subdivision import RegularSubdivision, trivial_subdivision, unimodular_refinement


class Loop(namedtuple("Loop", "kind v segment", defaults=(None, None))):
    """Either the A-cycle over an interior lattice point v (kind "acycle")
    or the double of a primitive integer segment (kind "segment")."""

    __slots__ = ()

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


def _bfs_tree(n: int, links: list[tuple[int, int, int]], what: str):
    """BFS spanning tree from vertex 0 of the graph on range(n) with the
    given (edge, end, end) links, neighbours in link order: the vertices in
    visiting order and each one's edge to its parent (None at the root).
    AssertionError if the graph is not connected."""
    star: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for j, a, b in links:
        star[a].append((j, b))
        star[b].append((j, a))
    parent = {0: None}
    order = [0]
    for a in order:
        for j, b in star[a]:
            if b not in parent:
                parent[b] = j
                order.append(b)
    if len(order) != n:
        raise AssertionError(f"{what} is not connected")
    return order, parent


class SurfaceModel:
    """The closed oriented genus-g surface over a smooth polygon with its
    distinguished loops, symplectic basis and twist matrices."""

    def __init__(self, poly: LatticePolygon):
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
        """Nodes (p, e) for each end p of a triangulation edge e; cw edges
        stored as (tail, head) nodes; faces as sparse {cw edge: +-1} columns."""
        T = self.triangulation
        tris = [c.vertices for c in T.cells]
        edges = sorted(T.edges())
        nodes = {}
        for e in edges:
            for p in e:
                nodes.setdefault((p, e), len(nodes))
        self._nodes = nodes
        # sides (e, sheet) for sheet in (0, 1) run from node(p, e) to
        # node(q, e), with e = (p, q)
        ends = []
        self._side_idx = {}
        for e in edges:
            for sheet in (0, 1):
                self._side_idx[(e, sheet)] = len(ends)
                ends.append((nodes[(e[0], e)], nodes[(e[1], e)]))
        # arcs (p, t) run from node(p, e_in) to node(p, e_out), where the ccw
        # walk of t enters p along e_in and leaves along e_out
        self._arc_idx = {}
        self._tri_at = {}
        for ti, t in enumerate(tris):
            for k in range(3):
                p = t[k]
                self._tri_at.setdefault(p, []).append(ti)
                self._arc_idx[(p, ti)] = len(ends)
                ends.append((nodes[(p, seg(t[k - 1], p))], nodes[(p, seg(p, t[(k + 1) % 3]))]))
        self._ends = ends
        # faces: (t, sheet) walked ccw on sheet 0 and cw on sheet 1, plus one
        # cap per boundary edge closing the puncture
        faces = []
        for ti, t in enumerate(tris):
            for sheet, orient in ((0, 1), (1, -1)):
                col = {}
                for k in range(3):
                    p, q = t[k], t[(k + 1) % 3]
                    e = seg(p, q)
                    col[self._side_idx[(e, sheet)]] = orient if (p, q) == e else -orient
                    col[self._arc_idx[(q, ti)]] = orient
                faces.append(col)
        # caps close the punctures: each is a bigon whose orientation opposes
        # the residual of the triangle faces along its boundary edge
        residual: dict[int, int] = {}
        for col in faces:
            for j, c in col.items():
                residual[j] = residual.get(j, 0) + c
        for e in sorted(set(self.polygon.boundary_segments())):
            col = {}
            for sheet in (0, 1):
                j = self._side_idx[(e, sheet)]
                if residual.get(j):
                    col[j] = -residual[j]
            if not col:
                raise AssertionError("puncture cap with empty boundary")
            faces.append(col)
        self._faces = faces
        chi = len(nodes) - len(ends) + len(faces)
        if chi != 2 - 2 * self.genus:
            raise AssertionError(f"Euler characteristic {chi}")
        self.euler_characteristic = chi

    # -- homology -----------------------------------------------------------

    def _homology(self):
        """H1 by a tree-cotree decomposition (Eppstein, "Dynamic generators
        of topologically embedded graphs", SODA 2003; Erickson-Whittlesey,
        "Greedy optimal homotopy and homology generators", SODA 2005).

        T is a spanning tree of the 1-skeleton and C a spanning tree of the
        dual graph (faces, adjacent across the cw edges not in T), both by
        BFS in index order; L holds the leftover edges, and |L| = E - (V-1)
        - (F-1) = 2 - chi = 2g.  Every edge lies on exactly two faces with
        coefficient +-1, so a cycle z has unique face coefficients c with
        c = 0 at the root of C that clear z' = z - d(c) on every C-edge
        (fix them root to leaves, each face from the C-edge to its parent).
        Then z -> z'|L is an isomorphism H1 -> Z^L:

        - well defined: it is linear, and faces are coherently oriented
          (sum of d(f) = 0), so for z = d(w) the coefficients are
          c = w - w_root and z' = 0;
        - onto: the fundamental cycle of l in T has no C-edge, so c = 0
          and it maps to e_l;
        - one-to-one: if z'|L = 0, then z' is a cycle on the tree T, hence
          0, and z = d(c) is a boundary.

        So H1 is free of rank 2g, with no torsion or rank check.  Checked
        here: closed faces, coherent orientation (every edge on exactly two
        faces, with coefficients +1 and -1) and both trees spanning.

        The map is linear in z, so it is tabulated once per cw edge j, as
        the image of the one-edge chain e_j, in one pass from the leaves of
        C to its root:

        - j in L: no C-edge is touched, c = 0, and the image is e_j;
        - j in T: likewise c = 0, and the image is 0;
        - j the C-edge from face f to its parent, with coefficient s in f:
          clearing j sets c_f = s; each child f' of f, across a C-edge k,
          then gets c_f' = -s * d(f)_k * d(f')_k = s, since coherent
          orientation makes d(f)_k d(f')_k = -1; faces outside f's subtree
          keep c = 0.  So the image is -s * (the boundary of f's subtree)
          restricted to L, and that boundary is d(f) plus the boundaries of
          the children's subtrees.
        """
        ends, faces = self._ends, self._faces
        on_edge: list[list[tuple[int, int]]] = [[] for _ in ends]  # (face, coefficient)
        for f, col in enumerate(faces):
            if not self._is_cycle(col.items()):
                raise AssertionError("face boundary is not a cycle")
            for j, c in col.items():
                on_edge[j].append((f, c))
        for j, fc in enumerate(on_edge):
            if sorted(c for _, c in fc) != [-1, 1]:
                raise AssertionError(f"face orientations are incoherent at cw edge {j}: {fc}")
        skeleton = [(j, tail, head) for j, (tail, head) in enumerate(ends)]
        _, up = _bfs_tree(len(self._nodes), skeleton, "1-skeleton")
        tree = set(up.values())
        links = [(j, f, h) for j, ((f, _), (h, _)) in enumerate(on_edge) if j not in tree]
        order, up = _bfs_tree(len(faces), links, "dual graph")
        self._leftover = sorted(set(range(len(ends))) - tree - set(up.values()))
        self.h1_rank = len(self._leftover)
        if self.h1_rank != 2 * self.genus:
            raise AssertionError("H1 rank mismatch")
        # edge j -> its image as sparse (position in L, value) pairs
        self._edge_class: list[list[tuple[int, int]]] = [[] for _ in ends]
        pos = {j: i for i, j in enumerate(self._leftover)}
        for j, i in pos.items():
            self._edge_class[j] = [(i, 1)]
        rim: list[dict[int, int]] = [{} for _ in faces]  # d(subtree of f) on L
        for f in reversed(order[1:]):
            j, acc = up[f], rim[f]
            for k, c in faces[f].items():
                if k in pos:
                    acc[pos[k]] = acc.get(pos[k], 0) + c
            self._edge_class[j] = [(i, -faces[f][j] * x) for i, x in acc.items() if x]
            (g, _), (h, _) = on_edge[j]
            above = rim[h if g == f else g]
            for i, x in acc.items():
                above[i] = above.get(i, 0) + x

    def _is_cycle(self, entries) -> bool:
        """Whether a 1-chain given by (edge, coefficient) pairs is closed."""
        img: dict[int, int] = {}
        for j, c in entries:
            if c:
                tail, head = self._ends[j]
                img[tail] = img.get(tail, 0) - c
                img[head] = img.get(head, 0) + c
        return not any(img.values())

    def _cycle_class_raw(self, chain: dict[int, int]) -> list[int]:
        """Coordinates of a cellular 1-cycle on the leftover edges L: the
        sum of its edges' tabulated images (see ``_homology``)."""
        if not self._is_cycle(chain.items()):
            raise AssertionError("chain is not a cycle")
        out = [0] * self.h1_rank
        for j, z in chain.items():
            for i, x in self._edge_class[j]:
                out[i] += z * x
        return out

    def _acycle_chain(self, v: Point) -> dict[int, int]:
        return {self._arc_idx[(v, ti)]: 1 for ti in self._tri_at[v]}

    def _segment_chain(self, s: Segment) -> dict[int, int]:
        return {self._side_idx[(s, 0)]: 1, self._side_idx[(s, 1)]: -1}

    def _path_chain(self, path: list[Point]) -> dict[int, int]:
        """The double of a triangulation path: along it on sheet 0, back on
        sheet 1."""
        chain: dict[int, int] = {}
        for a, b in zip(path, path[1:]):
            e = seg(a, b)
            sgn = 1 if (a, b) == e else -1
            chain[self._side_idx[(e, 0)]] = chain.get(self._side_idx[(e, 0)], 0) + sgn
            chain[self._side_idx[(e, 1)]] = chain.get(self._side_idx[(e, 1)], 0) - sgn
        return chain

    def _reference_paths(self):
        """B-classes: doubles of triangulation paths from each interior point
        to the boundary, kept by point in ``_b_class`` (cellular
        coordinates); A-classes: the circles.  Asserts they form a basis of
        the cellular H1: the Smith form of the square matrix of their
        classes has a unit diagonal, so the matrix is unimodular."""
        T = self.triangulation
        poly = self.polygon
        adj: dict[Point, list[Point]] = {}
        for e in T.edges():
            adj.setdefault(e[0], []).append(e[1])
            adj.setdefault(e[1], []).append(e[0])
        for p in adj:
            adj[p].sort()

        def bfs_path(v):
            # prefer paths that avoid other interior points
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
                        if w != v and w in self.a_index and not allow_interior:
                            continue
                        prev[w] = cur
                        dq.append(w)
            raise AssertionError("no path to the boundary")

        self._b_paths = {v: bfs_path(v) for v in self.interior_colex}
        a_classes = [self._cycle_class_raw(self._acycle_chain(v)) for v in self.interior_colex]
        self._b_class = {v: self._cycle_class_raw(self._path_chain(self._b_paths[v]))
                         for v in self.interior_colex}
        columns = a_classes + list(self._b_class.values())
        d = IntSolver([list(row) for row in zip(*columns)]).d  # its Smith form
        if any(abs(d[i][i]) != 1 for i in range(self.h1_rank)):
            raise AssertionError("A/B classes do not span the cellular H1")

    def _validate_against_cw(self):
        """Cross-check: every triangulation edge's double has no A-part, and
        its B-part is +-1 exactly on its interior endpoints with the
        head-minus-tail sign pattern, one sign for all edges.

        Read in the cellular coordinates: the double of e = (tail, head)
        has class s * (B_head - B_tail), a term dropped for an endpoint on
        the boundary, with the B-path classes ``_reference_paths`` stored
        and s = +-1 the same for every edge.  The A and B classes form a
        basis (checked there by the SNF), and coordinates in a basis are
        unique, so this equality holds exactly when the double's A/B
        coordinates are those stated above: no integer solve is needed."""
        zero = [0] * self.h1_rank
        self._head_sign = None
        for e in sorted(self.triangulation.edges()):
            got = self._cycle_class_raw(self._segment_chain(e))
            if not any(v in self._b_class for v in e):
                if any(got):
                    raise AssertionError(f"segment double {e} with ends on the boundary is not 0")
                continue
            b_tail, b_head = (self._b_class.get(v, zero) for v in e)
            diff = [x - y for x, y in zip(b_head, b_tail)]
            if got == diff:
                sign = 1
            elif got == [-x for x in diff]:
                sign = -1
            else:
                raise AssertionError(f"segment double {e} is not +-(B_head - B_tail)")
            if self._head_sign is None:
                self._head_sign = sign
            elif self._head_sign != sign:
                raise AssertionError("endpoint sign convention not global")
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
# subgroup orders over prime fields (Schreier-Sims)
# ---------------------------------------------------------------------------


def _inverse_mod(m, p: int):
    """Inverse of a square matrix over F_p by Gauss-Jordan elimination, as a
    list of rows; ValueError if the matrix is singular mod p."""
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            raise ValueError(f"generator is singular mod {p}")
        rows[c], rows[piv] = rows[piv], rows[c]
        f = pow(rows[c][c], -1, p)
        pivot = rows[c] = [x * f % p for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], pivot)]
    return [row[n:] for row in rows]


def _packing(n: int, p: int):
    """``(pack, unpack, vec_mul)`` for n x n matrices over F_p on packed
    rows: ``pack`` takes rows of entries in 0..p-1 to a tuple of row ints,
    ``unpack`` takes them back to lists, and ``vec_mul(x, rows)`` is the
    packed row x times the packed matrix.  The layout, and why no slot
    carries and the reduction is exact, are in ``subgroup_order_mod_p``."""
    c = (n * (p - 1) ** 2).bit_length()
    b = 2 * c + 1
    t = c + p.bit_length()
    bm = -(-(1 << t) // p)
    low = (1 << b) - 1
    qmask = sum(((1 << (b - t)) - 1) << (k * b) for k in range(n))

    def pack(rows):
        return tuple([sum(x << (k * b) for k, x in enumerate(row)) for row in rows])

    def unpack(h):
        return [[(x >> (k * b)) & low for k in range(n)] for x in h]

    def vec_mul(x, rows):
        """Packed x times the matrix with packed ``rows``, over F_p."""
        acc = 0
        for row in rows:
            xk = x & low
            if xk:
                acc += xk * row
            x >>= b
            if not x:
                break
        return acc - p * (((acc * bm) >> t) & qmask)

    return pack, unpack, vec_mul


def subgroup_order_mod_p(generators, p: int, limit: int = 5_000_000) -> int:
    """Order of the group generated by the integer matrices reduced mod the
    prime p, by deterministic Schreier-Sims (Seress, *Permutation Group
    Algorithms*, CUP 2003, ch. 4).

    The group acts on row vectors over F_p.  The base is the standard basis
    e_1..e_n, which is always a base: only the identity fixes every basis
    vector.  Level i holds strong generators fixing e_1..e_{i-1} and the
    orbit of e_i under them, each orbit point x with a transversal element
    u (e_i u = x) and its inverse; orbits grow on demand, so F_p^n is never
    listed.  A level is complete when every Schreier generator u_x s
    u_{xs}^-1 sifts to the identity through the deeper levels; one that does
    not becomes a strong generator where it dropped out.  A Schreier
    generator that sifted once keeps sifting, since transversal entries
    are never replaced, so each is sifted until it passes once.  The order
    is the product of the basic orbit lengths.

    Unfixed rows.  Every strong generator at level i, and so every
    transversal element and Schreier generator there, fixes e_0..e_{i-1},
    and a Schreier generator g = u_x s u_y^-1 (y = xs) fixes e_i too
    (e_i u_x s = y).  So rows 0..i of g are e_0..e_i: only rows i+1..n-1
    are formed, and u, u^-1 are formed from row i on.  Row k of g is
    (row k of u_x s) u_y^-1, which is e_k, with no second product, where
    row k of u_x s equals row k of u_y.  Sifting keeps this: at level j,
    h fixes e_0..e_{j-1}, and e_j h u_x^-1 = x u_x^-1 = e_j, so only rows
    j+1..n-1 are multiplied.  A generator that drops out at level j is
    completed with the rows e_0..e_{j-1} into the very matrix the full
    products give, so the strong generators, orbits and limit checks are
    those of full-matrix Schreier-Sims, in the same order.  Orbits: a level
    gains one strong generator at a time and its orbit is closed under the
    others, so close_orbit applies only the newest one to the points it
    already had (an older one maps them into the orbit and adds nothing),
    and every one to the points it adds: it meets each pair (x, s) once.
    When that reaches a new point y, the transversal of y is u_x s, so the
    Schreier generator is the identity and is never sifted; otherwise the
    pair waits in ``pending`` with its y = xs until it sifts.

    Packed rows.  A row vector x over F_p is one int, entry x_k in bits
    [k*b, (k+1)*b), and a matrix is the tuple of its rows, so row i of h is
    e_i h.  With c the bit length of n*(p-1)^2, the slot width is
    b = 2c + 1.  Then x M is the int sum of x_k * (row k of M) over the
    nonzero x_k, reduced slot by slot.
    - No carry.  Slot k of the sum is sum_j x_j M_jk <= n*(p-1)^2 < 2^c,
      below 2^b, so each slot holds its own dot product.
    - Reduction (Barrett).  With t = c + bitlen(p) and m = ceil(2^t / p),
      write m*p = 2^t + r with 0 <= r < p.  For 0 <= a < 2^c with
      a = q*p + s, 0 <= s < p: a*m / 2^t = q + s/p + a*r / (p * 2^t), and
      a*r < 2^c * p <= 2^t, so the fraction part stays below
      (s + 1) / p <= 1: floor(a*m / 2^t) = q = floor(a / p) exactly, for
      every slot value below 2^c.  Since p >= 2^(bitlen(p)-1), m <= 2^(c+1),
      so a*m < 2^(2c+1) = 2^b: multiplying the packed sum by m keeps every
      slot's product a*m inside its own slot.  As c >= bitlen(p - 1) >=
      bitlen(p) - 1, b >= t.  Shifted right by t, slot k's
      quotient floor(a*m / 2^t) < 2^(b-t) lands in the low b - t bits of
      slot k, and the bits that slot k+1 sheds fall into the top t bits of
      slot k, so masking each slot to b - t bits leaves exactly the
      quotients.  Subtracting p times them takes each slot to a mod p with
      no borrow.  One routine for every prime.
    Packing is one-to-one on reduced matrices, so the orbits, transversals,
    ``pending`` pairs and sifts do the same work in the same order as on
    tuples of tuples.  Inverses are computed unpacked, once per strong
    generator.

    Symplectic ceiling.  When n is even and every reduced generator M has
    M J M^T = J mod p (J the standard form of ``SurfaceModel``), the group
    lies in Sp(n, F_p).  Each level's orbit lies in the true basic orbit,
    so the closure stops as soon as the running product of orbit lengths
    equals |Sp(n, F_p)|, and returns it; no other run changes.

    Generators are reduced mod p and deduplicated; ``[]`` gives 1.  The
    running product of orbit lengths bounds the order from below, so
    RuntimeError is raised as soon as it passes ``limit``.  ValueError if p
    is not prime, an entry is not an int (bools excluded), the generators
    are not square matrices of one size, or one is singular mod p.
    """
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"modulus {p} is not prime")
    generators = list(generators)
    ok = object()  # no entry is this object, so even a None entry is reported
    for idx, m in enumerate(generators):
        bad = next((x for row in m for x in row if type(x) is bool or not isinstance(x, int)), ok)
        if bad is not ok:
            raise ValueError(f"generator {idx} has entry {bad!r}, not an int")
    if not generators:
        return 1
    n = len(generators[0])
    if any(len(m) != n or any(len(row) != n for row in m) for m in generators):
        raise ValueError("generators must be square matrices of one size")
    pack, unpack, vec_mul = _packing(n, p)
    reduced = [[[x % p for x in row] for row in m] for m in generators]
    gens = list(dict.fromkeys(pack(m) for m in reduced))
    ident = pack([[int(i == j) for j in range(n)] for i in range(n)])
    form = [[((j == i + n // 2) - (i == j + n // 2)) % p for j in range(n)] for i in range(n)]  # J
    ceiling = sp_order(n // 2, p) if n % 2 == 0 and all(
        [[x % p for x in r] for r in matmul(matmul(m, form), list(zip(*m)))] == form for m in reduced
    ) else None

    def mul(a, rows, first: int):
        """a times ``rows``, both fixing e_0..e_{first-1}: those rows are e_k."""
        return ident[:first] + tuple([vec_mul(x, rows) for x in a[first:]])

    strong: list[list[tuple]] = [[] for _ in range(n)]  # (s, s^-1)
    orbits = [{ident[i]: (ident, ident)} for i in range(n)]  # x -> (u, u^-1)
    # (x, k) -> xs for each Schreier generator not yet sifted to the identity
    pending: list[dict] = [{} for _ in range(n)]

    def add_strong(h, first: int, last: int) -> None:
        item = (h, pack(_inverse_mod(unpack(h), p)))
        for i in range(first, last + 1):
            strong[i].append(item)
            close_orbit(i)

    def close_orbit(i: int) -> None:
        orbit = orbits[i]
        others = prod(len(o) for j, o in enumerate(orbits) if j != i)
        queue = list(orbit)
        closed, newest = len(queue), len(strong[i]) - 1  # closed under all but the newest
        for q, x in enumerate(queue):
            u, u_inv = orbit[x]
            for k in range(newest if q < closed else 0, newest + 1):
                s, s_inv = strong[i][k]
                y = vec_mul(x, s)
                if y in orbit:
                    pending[i][(x, k)] = y
                    continue
                orbit[y] = (mul(u, s, i), mul(s_inv, u_inv, i))  # u_x s u_y^-1 = 1
                if others * len(orbit) > limit:
                    raise RuntimeError("subgroup order exceeded the safety limit")
                if others * len(orbit) == ceiling:
                    raise _Ceiling
                queue.append(y)

    def sift(rows: list, start: int):
        """Strip h, which fixes e_0..e_{start-1} and has rows ``rows`` from
        row ``start`` on, through levels start.. : (h as a matrix, the level
        where it drops out), or (None, n) if it sifts to the identity."""
        for j in range(start, n):
            x, *rows = rows  # x = e_j h
            if x != ident[j]:
                entry = orbits[j].get(x)
                if entry is None:
                    return ident[:j] + (x, *rows), j
                rows = [vec_mul(r, entry[1]) for r in rows]  # and e_j h u_x^-1 = e_j
        return None, n

    def first_failure(i: int):
        """Level that gained a strong generator while checking level i, or None."""
        orbit = orbits[i]
        for x, (u, _) in orbit.items():  # levels > i change, level i does not
            for k, (s, _) in enumerate(strong[i]):
                y = pending[i].get((x, k))
                if y is None:
                    continue
                u_y, u_y_inv = orbit[y]
                # row t of u s u_y^-1 is e_t where row t of u s is that of u_y
                rows = [vec_mul(r, s) for r in u[i + 1:]]
                h, j = sift([ident[t] if r == u_y[t] else vec_mul(r, u_y_inv)
                             for t, r in enumerate(rows, i + 1)], i + 1)
                if j < n:
                    add_strong(h, i + 1, j)
                    return j
                del pending[i][(x, k)]
        return None

    try:
        for s in gens:
            if s == ident:
                continue
            moved = next(i for i in range(n) if s[i] != ident[i])
            add_strong(s, 0, moved)
        i = n - 1
        while i >= 0:
            j = first_failure(i)
            i = i - 1 if j is None else j
    except _Ceiling:
        return ceiling
    return prod(len(o) for o in orbits)


class _Ceiling(Exception):
    """The running product of orbit lengths reached |Sp(n, F_p)|."""


def sp_order(g: int, q: int) -> int:
    """|Sp(2g, F_q)| by the standard product formula."""
    order = q ** (g * g)
    for i in range(1, g + 1):
        order *= q ** (2 * i) - 1
    return order
