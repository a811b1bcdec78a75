"""Small exact integer linear algebra: Smith normal form with transformation
matrices, integer kernels and integer linear solves.  Dense lists of ints;
sized for cell complexes with a few hundred cells."""

from __future__ import annotations


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            f = ai[t]
            if f:
                bt = b[t]
                row = out[i]
                for j in range(m):
                    row[j] += f * bt[j]
    return out


def mat_vec(a, x):
    nonzero = [(j, c) for j, c in enumerate(x) if c]
    return [sum(r[j] * c for j, c in nonzero) for r in a]


def smith_normal_form(a):
    """U, D, V with U a V = D in Smith normal form, U and V unimodular."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [row[:] for row in a]
    u = identity(m)
    v = identity(n)

    def add_row(src, dst, f):
        d[dst] = [x + f * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, f):
        for row in d:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            d[t], d[i0] = d[i0], d[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in d:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        while True:
            # clear column t then row t; restart if a smaller remainder appears
            redo = False
            for i in range(m):
                if i != t and d[i][t]:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t]:
                        d[t], d[i] = d[i], d[t]
                        u[t], u[i] = u[i], u[t]
                        redo = True
                        break
            if redo:
                continue
            for j in range(n):
                if j != t and d[t][j]:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j]:
                        for row in d:
                            row[t], row[j] = row[j], row[t]
                        for row in v:
                            row[t], row[j] = row[j], row[t]
                        redo = True
                        break
            if redo:
                continue
            # pivot must divide the remaining submatrix
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


def snf_diagonal(d):
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        out.append(d[i][i])
    return out


def kernel_basis(a):
    """Integer basis of {x : a x = 0} as a list of column vectors."""
    m = len(a)
    n = len(a[0]) if m else 0
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    u, d, v = smith_normal_form(a)
    r = sum(1 for i in range(min(m, n)) if d[i][i])
    return [[v[i][j] for i in range(n)] for j in range(r, n)]


class IntSolver:
    """Reusable integer solver for a fixed matrix (one SNF, many solves)."""

    def __init__(self, a):
        self.m = len(a)
        self.n = len(a[0]) if self.m else 0
        self.u, self.d, self.v = smith_normal_form(a)

    def solve(self, b):
        ub = mat_vec(self.u, b)
        y = [0] * self.n
        for i in range(self.m):
            di = self.d[i][i] if i < min(self.m, self.n) else 0
            if di:
                if ub[i] % di:
                    return None
                y[i] = ub[i] // di
            elif ub[i]:
                return None
        return mat_vec(self.v, y)


def solve_int(a, b):
    """Some integer solution x of a x = b, or None."""
    return IntSolver(a).solve(b)


def det_unimodular(a) -> bool:
    """Whether a square integer matrix has determinant +-1."""
    if not a:
        return True
    u, d, v = smith_normal_form(a)
    prod = 1
    for i in range(len(a)):
        prod *= d[i][i]
    return abs(prod) == 1
