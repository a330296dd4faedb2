"""Exact integer linear algebra on plain list-of-list matrices.

Everything runs over unbounded Python ints.  No floats.  The determinant and
the inverse are fraction-free (Bareiss): every division they make is exact.
`mat_inverse_fraction` is the one routine over Fraction, and no other
routine here calls it.  Matrices are rectangular lists of rows; none of the
functions mutate their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

Matrix = list[list[int]]
Vector = list[int]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def copy_matrix(a) -> Matrix:
    return [list(row) for row in a]


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b) -> Matrix:
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> Vector:
    return [sum(map(mul, row, v)) for row in a]


def det(a) -> int:
    """Fraction-free Bareiss determinant."""
    n = len(a)
    if n == 0:
        return 1
    m = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_inverse_fraction(a) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over Fraction; raises ValueError when singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def mat_inverse_integer(a) -> Matrix:
    """Inverse of a square integer matrix that must again be integral.

    Fraction-free Gauss-Jordan on [a | 1] (Bareiss): at step k every row
    i != k becomes (x*p - f*y) // prev, where p is the k-th pivot, f the
    row's entry in column k and prev the pivot before p.  Every entry is
    then a minor of [a | 1], so each division is exact.  At the end every
    pivot is det a up to the sign of the row swaps, and the right half is
    that pivot times the inverse.  Raises ValueError("singular matrix")
    when a column has no pivot, and ValueError("inverse is not integral")
    when the last pivot is not +-1."""
    n = len(a)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[k], m[piv] = m[piv], m[k]
        pivot_row = m[k]
        p = pivot_row[k]
        for i in range(n):
            f = m[i][k]
            # With f = 0 and p = prev the update gives the row back.
            if i != k and (f or p != prev):
                m[i] = [(x * p - f * y) // prev for x, y in zip(m[i], pivot_row)]
        prev = p
    if prev not in (1, -1):
        raise ValueError("inverse is not integral")
    return [[x * prev for x in row[n:]] for row in m]


def smith_normal_form(a) -> tuple[Matrix, Matrix, Matrix]:
    """Return (u, d, v) with u*a*v = d, u and v unimodular, d diagonal with
    each diagonal entry non-negative and dividing the next."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    d = copy_matrix(a)
    u = identity(nrows)
    v = identity(ncols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if d[i][j] and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        while True:
            if d[t][t] < 0:
                negate_row(t)
            # Euclid down the pivot column, then across the pivot row.
            for i in range(t + 1, nrows):
                while d[i][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    if d[i][t]:
                        swap_rows(i, t)
            for j in range(t + 1, ncols):
                while d[t][j]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    if d[t][j]:
                        swap_cols(j, t)
            if any(d[i][t] for i in range(t + 1, nrows)):
                continue
            # Divisibility chain: pivot must divide the rest of the block.
            bad = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if d[i][j] % d[t][t]:
                        bad = j
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_col(t, bad, 1)
        t += 1
    for i in range(min(nrows, ncols)):
        if d[i][i] < 0:
            negate_row(i)
    return u, d, v


def invariant_factors(a) -> list[int]:
    """Nonzero diagonal of the Smith form, in divisibility order."""
    _, d, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


def kernel_basis(a) -> list[Vector]:
    """Basis of the integer kernel {x : a*x = 0} (a saturated sublattice)."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [row[:] for row in identity(ncols)]
    _, d, v = smith_normal_form(a)
    r = sum(1 for i in range(min(nrows, ncols)) if d[i][i])
    return [[v[i][j] for i in range(ncols)] for j in range(r, ncols)]


def solve(a, b) -> Vector | None:
    """One integer solution of a*x = b, or None."""
    return solve_many(a, [b])[0]


def solve_many(a, bs) -> list[Vector | None]:
    """solve(a, b) for each b in bs, from one Smith reduction of a."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u, d, v = smith_normal_form(a)
    diag = [d[i][i] if i < ncols else 0 for i in range(nrows)]
    out = []
    for b in bs:
        c = mat_vec(u, b)
        if any(ci % di if di else ci for ci, di in zip(c, diag)):
            out.append(None)
            continue
        y = [c[i] // diag[i] if i < nrows and diag[i] else 0 for i in range(ncols)]
        out.append(mat_vec(v, y))
    return out


def hermite_row_form(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite form of the row span: positive pivots, entries above
    each pivot reduced to [0, pivot), zero rows dropped.  Two generating sets
    span the same sublattice iff their forms are equal."""
    m = [list(row) for row in rows if any(row)]
    if not m:
        return ()
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if not m[i][c]:
                continue
            g, x, y = xgcd(m[r][c], m[i][c])
            p, q = m[r][c] // g, m[i][c] // g
            m[r], m[i] = (
                [x * s + y * t for s, t in zip(m[r], m[i])],
                [-q * s + p * t for s, t in zip(m[r], m[i])],
            )
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [s - q * t for s, t in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r] if any(row))


def abelian_quotient(ambient_rank: int, rows) -> list[int]:
    """Invariant factors of Z^ambient_rank modulo the row span: the torsion
    factors (> 1) followed by one 0 per free rank."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return [0] * ambient_rank
    factors = invariant_factors(rows)
    torsion = [f for f in factors if f > 1]
    return torsion + [0] * (ambient_rank - len(factors))
