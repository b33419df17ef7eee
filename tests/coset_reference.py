"""Test references: left-coset expansion of the spherical Hecke algebra of
GL_n(Q_p), elementary divisors from determinantal divisors, double coset
sizes from q-factorials at q = 1/p, Hall-Littlewood polynomials by the
branching rule in Fractions of t = 1/p, a Fraction Gauss-Jordan inverse
with the coset test built on it, and the classical Weyl group orders.

The first three are independent of the algorithms in
:mod:`heckesat.padic` and :mod:`heckesat.intmat`.  ``inverse_rational``
and ``coset_equal`` use only ``as_matrix``, ``det``, ``mat_mul`` and
``p_valuation`` from intmat, none of its normal forms, nor the
back-substitution in padic; ``weyl_order_formula`` reads only the group
name.  A left-coset sum is a dict {PCoset: Fraction} with no zero
coefficients.  The Satake transform here is the definition: restrict to
the Borel (automatic for the upper-triangular Hermite representatives),
read the diagonal off onto the torus, and twist the coefficient at
exponent chi by v**<delta, chi>.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import factorial, gcd, lcm, prod

from heckesat.intmat import (
    NormalFormError,
    as_matrix,
    det,
    mat_mul,
    p_valuation,
)
from heckesat.laurent import Laurent
from heckesat.padic import (
    PCoset,
    decompose_double_coset,
    gl_delta,
    reduce_mod_v2,
)
from heckesat.rootdata import RootDatumError, parse_group_name
from heckesat.satake import GroupAlgebraElement


def _add(out, key, c):
    out[key] = out.get(key, Fraction(0)) + c


def _nonzero(out):
    return {g: c for g, c in out.items() if c}


def expand(h):
    """Left-coset expansion of a DoubleCosetSum."""
    out = {}
    for lam, c in h.terms.items():
        for g in decompose_double_coset(lam, h.n, h.p):
            _add(out, g, c)
    return _nonzero(out)


def convolve_left(f, h):
    """1_{gK} * 1_{KhK} = sum over representatives h_i of 1_{g h_i K}."""
    out = {}
    for g, cf in f.items():
        for lam, ch in h.terms.items():
            for hi in decompose_double_coset(lam, h.n, h.p):
                _add(out, PCoset.from_matrix(mat_mul(g.rep, hi.rep), h.p),
                     cf * ch)
    return _nonzero(out)


def sigma_to_torus(f, n):
    """Diagonal read-off: diag(p**v_i) carries the exponent chi = -v."""
    out = {}
    for g, c in f.items():
        chi = tuple(-p_valuation(g.rep[i][i], g.p) for i in range(n))
        _add(out, chi, c)
    return GroupAlgebraElement(n, out)


def satake_by_expansion(h):
    """The numeric Satake transform of h, reduced modulo v**2 - p."""
    delta = gl_delta(h.n)
    torus = sigma_to_torus(expand(h), h.n)
    return reduce_mod_v2(GroupAlgebraElement(h.n, {
        chi: c * Laurent.v_power(sum(d * x for d, x in zip(delta, chi)))
        for chi, c in torus.terms.items()}), h.p)


def snf_type_by_minors(m, p):
    """Elementary-divisor exponents of a square m with p-power determinant.

    The k-th determinantal divisor is the gcd of the k x k minors; the
    p-valuations of consecutive divisors differ by the k-th exponent.
    """
    n = len(m)
    vals, prev = [], 0
    for k in range(1, n + 1):
        g = 0
        for rows, cols in product(combinations(range(n), k), repeat=2):
            g = gcd(g, det([[m[i][j] for j in cols] for i in rows]))
            if g == 1:
                break
        vk = p_valuation(g, p)
        vals.append(vk - prev)
        prev = vk
    return tuple(sorted(vals, reverse=True))


def _q_factorial(k, q):
    return prod(sum(q ** j for j in range(i)) for i in range(1, k + 1))


def coset_count_by_q_factorials(lam, p):
    """Left cosets in K p**lam K: p**<2 rho, lam> * [n]!_{1/p} divided by
    prod_j [m_j]!_{1/p}, m_j the multiplicities of lam's parts, in
    Fractions at q = 1/p."""
    q = Fraction(1, p)
    count = p ** sum(d * x for d, x in zip(gl_delta(len(lam)), lam))
    count *= _q_factorial(len(lam), q)
    for m in Counter(lam).values():
        count /= _q_factorial(m, q)
    assert count.denominator == 1
    return count.numerator


@cache
def hall_littlewood_by_fractions(lam, p):
    """P_lam(x_1, ..., x_n; 1/p) as {exponent of x: coefficient}.

    Branching rule (Macdonald III (5.8'), (5.11')): P_lam is the sum over
    kappa with n - 1 parts, lam_{j+1} <= kappa_j <= lam_j, of psi_{lam/kappa}
    x_n**(|lam| - |kappa|) P_kappa(x_1, ..., x_{n-1}), where psi_{lam/kappa}
    is the product of 1 - t**m_j(kappa) over the j >= 1 such that
    lam/kappa has a box in column j + 1 and none in column j.
    """
    if not lam:
        return {(): Fraction(1)}
    t, out = Fraction(1, p), {}
    bounds = zip(lam[1:], lam)
    for kappa in product(*(range(lo, hi + 1) for lo, hi in bounds)):
        cols = {c for hi, lo in zip(lam, kappa + (0,))
                for c in range(lo + 1, hi + 1)}
        mult = Counter(kappa)
        psi = prod(1 - t ** mult[j] for j in range(1, lam[0])
                   if j + 1 in cols and j not in cols)
        for x, c in hall_littlewood_by_fractions(kappa, p).items():
            x += (sum(lam) - sum(kappa),)
            out[x] = out.get(x, 0) + psi * c
    return {x: c for x, c in out.items() if c}


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


def coset_equal(g1, g2, p):
    """True iff g1*GL_n(Z_p) == g2*GL_n(Z_p) for invertible rational matrices.

    Entries may be ints or Fractions.  Both matrices are scaled by one
    common denominator s, which moves neither coset, to integer matrices
    a = s*g1 and b = s*g2.  Then a**-1 * b lies in GL_n(Z_p) iff its
    entries are p-integral and v_p(det a) == v_p(det b).
    """
    g1, g2 = ([[Fraction(x) for x in r] for r in g] for g in (g1, g2))
    s = lcm(*(x.denominator for g in (g1, g2) for r in g for x in r))
    a, b = (as_matrix([(s * x).numerator for x in r] for r in g)
            for g in (g1, g2))
    da, db = det(a), det(b)
    if da == 0 or db == 0:
        raise NormalFormError("singular input to coset_equal")
    if p_valuation(da, p) != p_valuation(db, p):
        return False
    return all(x.denominator % p for row in mat_mul(inverse_rational(a), b)
               for x in row)


def weyl_order_formula(rd):
    """Classical |W| from the constructor name, for cross-checks."""
    fam, size = parse_group_name(rd.name)
    if fam in ("GL", "SL"):
        return factorial(size)
    if fam == "GSp":
        g = size // 2
        return 2 ** g * factorial(g)
    if fam == "GSO":
        n = size // 2
        return 2 ** (n - 1) * factorial(n)
    if fam == "GSpin":
        n = (size - 1) // 2
        return 2 ** n * factorial(n)
    raise RootDatumError(rd.name)
