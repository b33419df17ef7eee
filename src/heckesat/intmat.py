"""Exact integer-matrix utilities: p-adic Hermite and Smith normal forms.

Matrices are tuples of tuples of Python ints (row-major).  The normal
forms here are specific to matrices whose determinant is +/- a power of a
fixed prime p: they canonicalize left cosets g*GL_n(Z_p) and classify
double cosets by elementary-divisor type.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from operator import mul


class NormalFormError(ValueError):
    pass


def is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def as_matrix(rows):
    m = tuple(tuple(int(x) for x in r) for r in rows)
    if not m or any(len(r) != len(m[0]) for r in m):
        raise NormalFormError("ragged or empty matrix")
    return m


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise NormalFormError("dimension mismatch in product")
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )

def mat_vec(a, v):
    return tuple(sum(map(mul, row, v)) for row in a)


def moved_rows(g):
    """The nonzero entries of g - 1, by row: ((i, ((j, entry), ...)), ...).

    g.v = v + (g - 1) v changes v only in these rows.  For a reflection
    x - <a, x> a^v they are the rows where a^v is nonzero, and each holds
    the nonzero entries of a, so moving a vector reads only those entries,
    not all rank**2 entries of g.
    """
    out = []
    for i, row in enumerate(g):
        entries = tuple((j, x - (i == j)) for j, x in enumerate(row)
                        if x != (i == j))
        if entries:
            out.append((i, entries))
    return tuple(out)


def apply_moved(rows, v):
    """g.v from ``moved_rows(g)``; returns v itself when g fixes v."""
    out = None
    for i, entries in rows:
        s = 0
        for j, x in entries:
            s += x * v[j]
        if s:
            if out is None:
                out = list(v)
            out[i] += s
    return v if out is None else tuple(out)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def det(m):
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(m)
    a = [list(r) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def p_valuation(x, p):
    if p < 2:
        raise NormalFormError(f"valuation at p={p} is undefined")
    if x == 0:
        raise NormalFormError("valuation of zero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _check_p_power_det(m, p):
    d = det(m)
    if d == 0:
        raise NormalFormError("singular matrix")
    k = p_valuation(d, p)
    if abs(d) != p ** k:
        raise NormalFormError(
            f"determinant {d} has a prime factor other than {p}"
        )
    return k


def hnf_padic(m, p):
    """Canonical upper-triangular representative of the left coset m*GL_n(Z_p).

    The result H has diagonal entries p**a_i, every off-diagonal entry
    H[i][j] (i < j) reduced into {0, ..., p**a_i - 1}, and H = m*U for a
    p-integral U of p-unit determinant.  H is the unique such matrix, so
    two matrices generate the same coset iff they share an hnf_padic image.
    """
    m = as_matrix(m)
    n = len(m)
    if len(m[0]) != n:
        raise NormalFormError("hnf_padic needs a square matrix")
    k = _check_p_power_det(m, p)
    pk = p ** k
    # Column span of [m | p^k I] over Z equals the Z_p-lattice of m.
    cols = [[m[i][j] for i in range(n)] for j in range(n)]
    cols += [[pk if i == j else 0 for i in range(n)] for j in range(n)]
    basis = [None] * n
    for i in range(n - 1, -1, -1):
        live = [c for c in cols if any(c[r] != 0 for r in range(i + 1))]
        work = [c for c in live if c[i] != 0]
        rest = [c for c in live if c[i] == 0]
        # gcd-reduce row i across the working columns down to one pivot
        while len(work) > 1:
            work.sort(key=lambda c: abs(c[i]))
            piv = work[0]
            new_work = [piv]
            for c in work[1:]:
                q = c[i] // piv[i]
                if q:
                    for r in range(i + 1):
                        c[r] -= q * piv[r]
                if c[i] != 0:
                    new_work.append(c)
                elif any(c[r] != 0 for r in range(i)):
                    rest.append(c)
            work = new_work
        piv = work[0]
        if piv[i] < 0:
            for r in range(i + 1):
                piv[r] = -piv[r]
        basis[i] = piv
        cols = rest
    h = [[basis[j][i] for j in range(n)] for i in range(n)]
    # Reduce entry (i, j), i < j, modulo the row diagonal p^{a_i}.  Work
    # down each column so earlier reductions are not disturbed: adding a
    # multiple of column i only touches rows <= i.
    for j in range(n):
        for i in range(j - 1, -1, -1):
            q = h[i][j] // h[i][i]
            if q:
                for r in range(i + 1):
                    h[r][j] -= q * h[r][i]
    return tuple(tuple(r) for r in h)


def snf_type(m, p):
    """Elementary-divisor exponents of m at p, sorted descending.

    Returns (a_1 >= ... >= a_n >= 0) with m equivalent to diag(p**a_i)
    under p-unit row and column operations.  Computed from determinant
    divisors: a_k is read off the p-valuations of the gcds of k x k minors.
    """
    m = as_matrix(m)
    n = len(m)
    if len(m[0]) != n:
        raise NormalFormError("snf_type needs a square matrix")
    _check_p_power_det(m, p)
    vals = []  # v_p of the k-th determinant divisor
    prev = 0
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cs in combinations(range(n), k):
                sub = tuple(tuple(m[i][j] for j in cs) for i in rows)
                g = gcd(g, det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        vk = p_valuation(g, p)
        vals.append(vk - prev)
        prev = vk
    return tuple(sorted(vals, reverse=True))


def inverse_rational(m):
    """Exact inverse with Fraction entries, by Gauss-Jordan elimination."""
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise NormalFormError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(r[n:]) for r in a)


def inverse_integer(m):
    """Inverse of a unimodular integer matrix, as an integer matrix."""
    inv = inverse_rational(m)
    if any(x.denominator != 1 for row in inv for x in row):
        raise NormalFormError("matrix is not unimodular")
    return tuple(tuple(int(x) for x in row) for row in inv)


def coset_equal(g1, g2, p):
    """True iff g1*GL_n(Z_p) == g2*GL_n(Z_p) for invertible rational matrices.

    Entries may be ints or Fractions.  Both matrices are scaled by one
    common denominator s, which moves neither coset, to integer matrices
    a = s*g1 and b = s*g2.  Then a**-1 * b lies in GL_n(Z_p) iff its
    entries are p-integral and v_p(det a) == v_p(det b).
    """
    g1, g2 = ([[Fraction(x) for x in r] for r in g] for g in (g1, g2))
    s = lcm(*(x.denominator for g in (g1, g2) for r in g for x in r))
    a, b = (as_matrix([s * x for x in r] for r in g) for g in (g1, g2))
    da, db = det(a), det(b)
    if da == 0 or db == 0:
        raise NormalFormError("singular input to coset_equal")
    if p_valuation(da, p) != p_valuation(db, p):
        return False
    return all(x.denominator % p for row in mat_mul(inverse_rational(a), b)
               for x in row)
