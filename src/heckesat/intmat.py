"""Exact integer-matrix utilities: p-adic Hermite and Smith normal forms.

Matrices are tuples of tuples of Python ints (row-major).  The normal
forms here are specific to matrices whose determinant is +/- a power of a
fixed prime p: they canonicalize left cosets g*GL_n(Z_p) and classify
double cosets by elementary-divisor type.  Both come from one method:
reduce mod p**(k+1), k = v_p(det), and eliminate with a pivot of least
p-adic valuation scaled by the inverse of its unit part; the ``_core``
forms take k from a caller that knows it.  ``frozen`` makes the package's
value classes: immutable, and compared, hashed and shown by their fields;
it generates no code at import, so the package imports quickly.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt
from operator import add


PRIME_BOUND = 10 ** 12  # largest n ``is_prime`` tests


class NormalFormError(ValueError):
    pass


class PrimeBoundError(RuntimeError):
    pass


def frozen(cls):
    """Make cls an immutable value class on its annotated fields, in order:
    built by position or keyword (TypeError on a missing, extra or repeated
    field), then checked by ``__post_init__`` if cls has one; ``==`` and
    hash on the field tuple, within one class; repr ``Name(f=value!r, ...)``;
    AttributeError on setting or deleting.  Fields live in ``__dict__``, so
    ``functools.cached_property`` works."""
    names = tuple(cls.__annotations__)

    def __init__(self, *args, **kw):
        values = dict(zip(names, args), **kw)
        if len(args) + len(kw) != len(names) or values.keys() != set(names):
            raise TypeError(f"{cls.__name__} takes the fields {names}")
        self.__dict__.update(values)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def fields(self):
        return tuple(getattr(self, name) for name in names)

    def refuse(self, name, *value):
        raise AttributeError(f"{cls.__name__} is immutable: {name!r}")

    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, refuse, refuse
    cls.__repr__ = lambda self: "{}({})".format(cls.__qualname__, ", ".join(
        map("{}={!r}".format, names, fields(self))))
    cls.__eq__ = lambda self, other: (
        fields(self) == fields(other) if other.__class__ is self.__class__
        else NotImplemented)
    cls.__hash__ = lambda self: hash(fields(self))
    return cls


def int_tuple(xs, size, what, error):
    """xs as a tuple; raises error unless it is exactly size ints, no bool."""
    try:
        xs = tuple(xs)
    except TypeError:
        raise error(f"{what} {xs!r} is not {size} ints") from None
    if len(xs) != size or not all(type(x) is int for x in xs):
        raise error(f"{what} {xs} is not {size} ints")
    return xs


def is_prime(n):
    """Trial division; PrimeBoundError above PRIME_BOUND, before any."""
    if n > PRIME_BOUND:
        raise PrimeBoundError(f"{n} exceeds the primality-test bound "
                              f"{PRIME_BOUND}")
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def as_matrix(rows):
    """rows as a tuple of tuples; NormalFormError unless a nonempty
    rectangle of ints (a float, Fraction or bool entry is refused)."""
    m = tuple(map(tuple, rows))
    if not m or any(len(r) != len(m[0]) for r in m):
        raise NormalFormError("ragged or empty matrix")
    if not all(type(x) is int for r in m for x in r):
        raise NormalFormError(f"matrix {m} has an entry that is not an int")
    return m


def mat_mul(a, b):
    """a*b, each row a combination of the rows of b.

    Row i sums x * b[t] over the nonzero entries x = a[i][t], found by
    ``itertools.compress``; an entry 1 reuses b[t], so a permutation row
    runs no Python loop.  Entries may be ints or Fractions.
    """
    width = len(b[0]) if b else 0
    if any(len(r) != len(b) for r in a) or any(len(r) != width for r in b):
        raise NormalFormError("dimension mismatch in product")
    out = []
    for r in a:
        acc = None
        for x, row in zip(compress(r, r), compress(b, r)):
            row = row if x == 1 else [x * y for y in row]
            acc = tuple(row) if acc is None else tuple(map(add, acc, row))
        out.append(acc or (0,) * width)
    return tuple(out)


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
    # q = p**k, k = 1, 2, 4, ... and back to 1 when q fails: O(log(v)**2) steps
    v, q, k = 0, p, 1
    while x % p == 0:
        if x % q:
            q, k = p, 1
        x //= q
        v += k
        q, k = q * q, 2 * k
    return v


def _check_p_power_det(m, p, name):
    m = as_matrix(m)
    if len(m[0]) != len(m):
        raise NormalFormError(f"{name} needs a square matrix")
    d = det(m)
    if d == 0:
        raise NormalFormError("singular matrix")
    k = p_valuation(d, p)
    if abs(d) != p ** k:
        raise NormalFormError(f"determinant {d} has a prime factor "
                              f"other than {p}")
    return m, k


def hnf_padic(m, p):
    """Canonical upper-triangular representative of the left coset m*GL_n(Z_p).

    The result H has diagonal entries p**a_i, every off-diagonal entry
    H[i][j] (i < j) reduced into {0, ..., p**a_i - 1}, and H = m*U for a
    p-integral U of p-unit determinant.  H is the unique such matrix, so
    two matrices generate the same coset iff they share an hnf_padic image.
    """
    m, k = _check_p_power_det(m, p, "hnf_padic")
    return hnf_core(m, p, k)


def hnf_core(m, p, k):
    """hnf_padic(m, p) for square int rows m of known det +/- p**k; nothing
    is checked.  Every elementary divisor of m divides p**k, so reducing
    mod p**(k+1) moves neither m*GL_n(Z_p) nor its double coset.  Two
    passes follow: ``_eliminate`` makes the rows triangular, bottom first,
    and ``_reduce`` brings each entry right of the diagonal into range."""
    mod = p ** (k + 1)
    h = [[x % mod for x in r] for r in m]
    _eliminate(h, range(len(h) - 1, -1, -1), p, mod)
    _reduce(h, 0)
    return tuple(tuple(r) for r in h)


def _eliminate(h, rows, p, mod):
    """Column operations mod p**(k+1) leaving each of ``rows``, in order,
    zero left of a p-power diagonal; the pivot of row i is its entry of
    least valuation in columns 0..i, and only rows 0..i move."""
    for i in rows:
        v, c = min((p_valuation(h[i][j] or mod, p), j) for j in range(i + 1))
        w = pow(h[i][c] // p ** v, -1, mod)
        for r in h[:i + 1]:
            r[i], r[c] = r[c], r[i]
            r[i] = r[i] * w % mod
        for j in range(i):
            q = h[i][j] // p ** v
            if q:
                for r in h[:i + 1]:
                    r[j] = (r[j] - q * r[i]) % mod


def _reduce(h, start):
    """Reduce entry (i, j), i < j, of the columns j >= start of triangular
    h modulo the row diagonal p**a_i, each column from the diagonal up:
    adding a multiple of column i only touches rows <= i."""
    for j in range(start, len(h)):
        for i in range(j - 1, -1, -1):
            q = h[i][j] // h[i][i]
            if q:
                for r in range(i + 1):
                    h[r][j] -= q * h[r][i]


def snf_type(m, p):
    """Elementary-divisor exponents of m at p, sorted descending.

    Returns (a_1 >= ... >= a_n >= 0) with m equivalent to diag(p**a_i)
    under p-unit row and column operations.
    """
    m, k = _check_p_power_det(m, p, "snf_type")
    return snf_core(m, p, k)


def snf_core(m, p, k):
    """snf_type(m, p) for square int rows m of known det +/- p**k, reduced
    as in hnf_core; nothing is checked.  Each step moves a least-valuation
    entry of the remaining block to the pivot and clears the column below
    it; clearing the pivot row would not touch the block."""
    mod = p ** (k + 1)
    a = [[x % mod for x in r] for r in m]
    n = len(a)
    vals = []
    for t in range(n):
        v, i, j = min((p_valuation(a[i][j] or mod, p), i, j)
                      for i in range(t, n) for j in range(t, n))
        a[t], a[i] = a[i], a[t]
        for r in a[t:]:
            r[t], r[j] = r[j], r[t]
        w = pow(a[t][t] // p ** v, -1, mod)
        for r in a[t + 1:]:
            q = r[t] // p ** v * w
            if q:
                for c in range(t + 1, n):
                    r[c] = (r[c] - q * a[t][c]) % mod
        vals.append(v)
    return tuple(sorted(vals, reverse=True))

