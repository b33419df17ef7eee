"""Concrete coset calculus for GL_n(Q_p) at hyperspecial level.

Left cosets g*GL_n(Z_p) are canonicalized by the p-adic Hermite form,
double cosets K g K by elementary-divisor type.  The left cosets of a
double coset form one transvection orbit of Hermite rows, each step
incremental: a neighbour re-eliminates at most two rows.  A product of
double cosets is counted on those rows, (1_{KaK} * 1_{KbK})(p**nu) =
#{x in KaK/K : x**-1 p**nu in KbK}, all nu from one solve per coset: row
and column valuations give the ends of the type of x**-1 p**nu, which
fix it for n <= 3; closed-form coset counts are kept per (type, p), their
bounds read on each call.  The numeric Satake transform is the
Hall-Littlewood closed form v**<delta, lam> * P_lam(x; 1/p) of Macdonald,
*Symmetric Functions and Hall Polynomials*, V (3.3), with P_lam in ints
over one power of p from the branching rule III (5.8') and signs fixed in
:mod:`heckesat.conventions`.

Haar measure is normalized so that K has volume 1; measures of compact
opens are exact rationals (reciprocal coset counts).
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, gcd, lcm, log2, prod
from operator import add, sub

from .intmat import (
    _eliminate,
    _reduce,
    frozen,
    hnf_padic,
    int_tuple,
    is_prime,
    p_valuation,
    snf_core,
)
from .laurent import Laurent
from .rootdata import build_group, simple_reflections
from .satake import GroupAlgebraElement, is_weyl_invariant

ENUM_BOUND = 2 * 10 ** 5  # most left cosets one double coset may enumerate
COUNT_BITS = 10 ** 6  # most bits of the power p**e in a coset count


class CosetError(ValueError):
    pass


class EnumerationBoundError(RuntimeError):
    pass


def check_size_prime(n, p):
    if n < 1:
        raise CosetError(f"matrix size n={n} must be >= 1")
    if not is_prime(p):
        raise CosetError(f"p={p} is not prime")


@frozen
class PCoset:
    """Canonical left coset rep * GL_n(Z_p), rep = hnf_padic(rep, p).

    A rep not of that unique shape (n x n int tuples, upper triangular,
    diagonal p**a_i, entries right of it in [0, p**a_i)) is refused.  The
    form is homogeneous, so a central p-power stays inside ``rep``."""
    n: int
    p: int
    rep: tuple

    def __post_init__(self):
        n, p = int_tuple((self.n, self.p), 2, "size and prime", CosetError)
        check_size_prime(n, p)
        rep = self.rep
        if not (isinstance(rep, tuple) and len(rep) == n and all(
                isinstance(r, tuple) and len(r) == n
                and all(type(x) is int for x in r) and not any(r[:i])
                and r[i] > 0 and p ** p_valuation(r[i], p) == r[i]
                and all(0 <= x < r[i] for x in r[i + 1:])
                for i, r in enumerate(rep))):
            raise CosetError(f"rep {rep} is not a Hermite form at p={p}")

    @classmethod
    def from_matrix(cls, m, p):
        h = hnf_padic(m, p)
        return cls(len(h), p, h)

    @classmethod
    def unit(cls, n, p):
        return cls(n, p, tuple(tuple(int(i == j) for j in range(n))
                               for i in range(n)))

    def snf(self):
        k = sum(p_valuation(r[i], self.p) for i, r in enumerate(self.rep))
        return snf_core(self.rep, self.p, k)


class DoubleCosetSum:
    """Rational combination of double cosets keyed by elementary-divisor type."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, n, p, terms=None):
        self.n, self.p = int_tuple((n, p), 2, "size and prime", CosetError)
        check_size_prime(self.n, self.p)
        self.terms = {}
        for lam, c in (terms or {}).items():
            lam = _check_type(lam, self.n)
            if type(c) is not int and not isinstance(c, Fraction):
                raise CosetError(f"coefficient {c!r} of type {lam} is not "
                                 f"an int or a Fraction")
            if c:
                self.terms[lam] = Fraction(c)

    @classmethod
    def basis(cls, lam, n, p, coeff=1):
        return cls(n, p, {tuple(lam): coeff})

    @classmethod
    def unit(cls, n, p):
        return cls.basis(tuple(0 for _ in range(n)), n, p)

    def __eq__(self, other):
        if not isinstance(other, DoubleCosetSum):
            return NotImplemented
        return (self.n, self.p, self.terms) == (other.n, other.p, other.terms)

    def __repr__(self):
        return f"DoubleCosetSum(n={self.n}, p={self.p}, {dict(self.terms)})"


def _check_type(lam, n):
    lam = int_tuple(lam, n, "type", CosetError)
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise CosetError(f"type {lam} is not sorted descending")
    if lam[-1] < 0:
        raise CosetError(f"type {lam} has a negative entry")
    return lam


def gl_delta(n):
    """Sum of positive roots of GL(n): (n-1, n-3, ..., -(n-1))."""
    return tuple(n - 1 - 2 * i for i in range(n))


def coset_count(lam, p):
    """Left cosets in K p**lam K: p**<2 rho, lam> [n]!_{1/p} / prod_j
    [m_j]!_{1/p}, m_j the multiplicities of lam's parts; with [m]!_{1/p} =
    p**-C(m, 2) [m]!_p this is an exact integer quotient; EnumerationBoundError
    before its power p**e if that has more than COUNT_BITS bits."""
    n = len(lam)
    check_size_prime(n, p)
    return _coset_count(_check_type(lam, n), p)


@cache
def _count_form(lam, p):
    """(e, [n]!_p / prod_j [m_j]!_p) of ``coset_count``, p - 1 cancelled."""
    n, mults = len(lam), Counter(lam).values()
    e = (sum(d * x for d, x in zip(gl_delta(n), lam)) - comb(n, 2)
         + sum(comb(m, 2) for m in mults))
    return e, (prod(p ** i - 1 for i in range(1, n + 1))
               // prod(p ** i - 1 for m in mults for i in range(1, m + 1)))


def _coset_count(lam, p):
    """``coset_count`` of a checked type and prime; COUNT_BITS read here."""
    e, quotient = _count_form(lam, p)
    if e > COUNT_BITS / log2(p):  # e may be too large for a float
        raise EnumerationBoundError(
            f"the coset count of type {lam} at p={p} has the factor "
            f"p**{e}, above the bound 2**{COUNT_BITS}")
    return p ** e * quotient


def _hermite_step(rep, i, j, p, mod):
    """hnf_core of Hermite rows rep (det +/- p**k, mod = p**(k+1)) with row
    j = i +- 1 added to row i.  Row i += row i+1 keeps the diagonal, so only
    columns > i need reducing; row i += row i-1 breaks the shape of row i
    alone, so rows i and i-1 are eliminated again before reducing from
    column i-1.  Rows below i are shared, not copied."""
    h = [list(r) for r in rep[:i]]
    h.append([x + y for x, y in zip(rep[i], rep[j])])
    h += rep[i + 1:]
    if j < i:
        _eliminate(h, (i, j), p, mod)
    _reduce(h, j)
    return tuple(map(tuple, h))


@cache
def _coset_orbit(lam0, n, p):
    # Adding row j to row i (j = i +- 1) is left multiplication by the
    # transvection I + E_ij.  These generate SL_n(Z), which is dense in
    # SL_n(Z_p), and the diagonal units of K fix p**lam0 K, so the orbit of
    # p**lam0 K is the whole double coset.  Each move permutes the finite
    # orbit, so no inverse moves are needed; each keeps |det| = p**|lam0|,
    # and ``_hermite_step`` puts each neighbour back into Hermite form.
    moves = [(i, j) for i in range(n) for j in (i - 1, i + 1) if 0 <= j < n]
    start = tuple(tuple(p ** x * (i == j) for j in range(n))
                  for i, x in enumerate(lam0))
    mod = p ** (sum(lam0) + 1)
    seen, todo = {start}, [start]
    while todo:
        rep = todo.pop()
        for i, j in moves:
            h = _hermite_step(rep, i, j, p, mod)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return tuple(sorted(seen))


def _central_orbit(lam, n, p):
    """(c, orbit of lam0) for lam = (c, ..., c) + lam0, lam0 ending in 0,
    so one cached orbit serves every c.  More than ENUM_BOUND cosets raise
    EnumerationBoundError before any enumeration."""
    c = lam[-1]
    lam0 = tuple(x - c for x in lam)
    count = _coset_count(lam0, p)
    if count > ENUM_BOUND:
        raise EnumerationBoundError(
            f"enumeration of {count} cosets for type {lam} at p={p} "
            f"exceeds the bound {ENUM_BOUND}")
    return c, _coset_orbit(lam0, n, p)


def decompose_double_coset(lam, n, p):
    """Canonical left-coset representatives of the double coset of type
    lam: p**c times the orbit of p**lam0 K.  More than ENUM_BOUND cosets
    raise EnumerationBoundError (see ``_central_orbit``)."""
    n, p = int_tuple((n, p), 2, "size and prime", CosetError)
    check_size_prime(n, p)
    c, reps = _central_orbit(_check_type(lam, n), n, p)
    q = p ** c
    return [PCoset(n, p, tuple(tuple(q * x for x in row) for row in rep))
            for rep in reps]


def _degree(h: DoubleCosetSum):
    return sum(c * _coset_count(lam, h.p) for lam, c in h.terms.items())


def _back_substitute(x, pnu):
    """x**-1 diag(pnu) as int rows, solved column by column from the
    diagonal upwards (x is upper triangular); None once a division leaves
    a remainder, i.e. the result is not integral."""
    n = len(x)
    y = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in range(j, -1, -1):
            s = pnu[j] * (i == j) - sum(
                x[i][t] * y[t][j] for t in range(i + 1, j + 1))
            y[i][j], r = divmod(s, x[i][i])
            if r:
                return None
    return y


def _product_counts(cosets, s1, b, nus, p):
    """[#{x in cosets : x**-1 p**nu in K p**b K} for nu in nus], x Hermite
    rows of a type with largest part s1, so z = x**-1 p**s1 is integral and
    y = x**-1 p**nu is z with column j times p**(nu_j - s1).  The type of y
    has size |b|, least part min_j(nu_j + c_j), c_j + s1 the least valuation
    in column j of z (negative iff y is not integral), and, as y**-1 =
    p**-nu x, largest part max_i(nu_i - r_i), r_i that of row i of x.
    These fix the type for n <= 3; for n >= 4 a match gets a Smith form."""
    n, k, q = len(b), sum(b), p ** s1
    counts = [0] * len(nus)
    for x in cosets:
        z = _back_substitute(x, [q] * n)
        r = [p_valuation(gcd(*row), p) for row in x]
        c = [p_valuation(gcd(*col), p) - s1 for col in zip(*z)]
        for t, nu in enumerate(nus):
            ends = min(map(add, nu, c)), max(map(sub, nu, r))
            if ends == (b[-1], b[0]) and (n <= 3 or snf_core(
                    [[e * p ** v // q for e, v in zip(row, nu)] for row in z],
                    p, k) == b):
                counts[t] += 1
    return counts


def _product_types(a, b):
    """The descending nu with |nu| = |a| + |b|, nu_1 <= a_1 + b_1 and
    nu_i >= max(a_i + b_n, b_i + a_n), lexicographically decreasing.  Less
    the central parts a_n and b_n, the coefficient of nu is a Hall
    polynomial, zero unless nu contains a and b (Macdonald, ch. II)."""
    n, total = len(a), sum(a) + sum(b)
    low = [max(x + b[-1], y + a[-1]) for x, y in zip(a, b)]
    nus = [()]
    for i in range(n):  # every prefix kept has a completion
        nus = [nu + (v,) for nu in nus
               for v in range(min(nu[-1] if nu else a[0] + b[0],
                                  total - sum(nu) - sum(low[i + 1:])),
                              low[i] - 1, -1)
               if total - sum(nu) - v <= v * (n - 1 - i)]
    return nus


def convolve_double(h1: DoubleCosetSum, h2: DoubleCosetSum) -> DoubleCosetSum:
    """Hecke-algebra product, one coefficient per candidate type.

    For factor types a and b the candidates nu are ``_product_types(a,
    b)``; one ``_product_counts`` sweep counts them all on the factor with
    fewer cosets (the algebra is commutative), its central part c moved
    into nu: the orbit of its type minus c is counted against p**(nu - c).
    The result is checked against the degree homomorphism: the product's
    coset count is the product of the counts; a lost coefficient raises.
    """
    if (h1.n, h1.p) != (h2.n, h2.p):
        raise CosetError("size/prime mismatch")
    n, p = h1.n, h1.p
    out = {}
    for a, ca in h1.terms.items():
        for b, cb in h2.terms.items():
            small, big = sorted((a, b), key=lambda t: _coset_count(t, p))
            c, cosets = _central_orbit(small, n, p)
            nus = _product_types(a, b)
            counts = _product_counts(cosets, small[0] - c, big,
                                     [[v - c for v in nu] for nu in nus], p)
            for nu, k in zip(nus, counts):
                out[nu] = out.get(nu, Fraction(0)) + ca * cb * k
    result = DoubleCosetSum(n, p, out)
    degree, expected = _degree(result), _degree(h1) * _degree(h2)
    if degree != expected:
        raise RuntimeError(f"product degree {degree} is not {expected}; "
                           f"internal inconsistency")
    return result


def measure_intersection(g: PCoset) -> Fraction:
    """Volume of K \\cap g K g**-1, i.e. 1 / #(left cosets of K g K)."""
    return Fraction(1, coset_count(g.snf(), g.p))


def reduce_mod_v2(x: GroupAlgebraElement, p) -> GroupAlgebraElement:
    """Reduce every v-coefficient modulo v**2 - p (canonical a + b*v form)."""
    return GroupAlgebraElement(
        x.rank, {lam: c.eval_quad(p) for lam, c in x.terms.items()})


@cache
def _gl_reflections(n):
    return simple_reflections(build_group(f"GL({n})"))


@cache
def _hall_littlewood(lam, p):
    """P_lam(x_1, ..., x_n; 1/p) = sum N x**a / p**D as (D, {a: int N}).

    Branching rule (Macdonald III (5.8'), (5.11')): P_lam is the sum over
    kappa with n - 1 parts, lam_{j+1} <= kappa_j <= lam_j, of psi_{lam/kappa}
    x_n**(|lam| - |kappa|) P_kappa(x_1, ..., x_{n-1}), where psi_{lam/kappa}
    is the product of 1 - p**-m = (p**m - 1) / p**m, m = m_j(kappa), over
    the j >= 1 such that lam/kappa has a box in column j + 1 and none in
    column j.  D is the largest sum of those m plus D_kappa.
    """
    if not lam:
        return 0, {(): 1}
    terms = []
    for kappa in product(*(range(lo, hi + 1) for lo, hi in zip(lam[1:], lam))):
        cols = {c for hi, lo in zip(lam, kappa + (0,))
                for c in range(lo + 1, hi + 1)}
        ms = [kappa.count(j) for j in range(1, lam[0])
              if j + 1 in cols and j not in cols]
        d, sub = _hall_littlewood(kappa, p)
        terms.append((sum(ms) + d, prod(p ** m - 1 for m in ms), kappa, sub))
    top, out = max(t[0] for t in terms), {}
    for d, psi, kappa, sub in terms:
        psi, last = psi * p ** (top - d), (sum(lam) - sum(kappa),)
        for x, c in sub.items():
            x += last
            out[x] = out.get(x, 0) + psi * c
    return top, out


def satake_numeric(h: DoubleCosetSum) -> GroupAlgebraElement:
    """Numeric Satake transform from the Hall-Littlewood closed form.

    The transform of 1_{K p**lam K} has coefficient v**<delta, lam> *
    [x**a] P_lam(x; 1/p) at exponent chi = -a (Macdonald V (3.3); the
    exponent sign is convention 1), summed in the form a + b*v, v**2 = p,
    in ints over one denominator: the lcm of the coefficients' denominators
    times p**-E, E <= 0 the least p-power of a term.  The output is checked
    to be invariant under the symmetric group permuting the exponents;
    failure signals an inconsistency and raises.
    """
    delta, p, terms = gl_delta(h.n), h.p, []
    for lam, c in h.terms.items():
        # <delta, lam> >= 0 for descending lam: v**e = p**half * v**rem
        half, rem = divmod(sum(d * x for d, x in zip(delta, lam)), 2)
        d, poly = _hall_littlewood(lam, p)
        terms.append((half - d, rem, c, poly))
    low = min([0] + [t[0] for t in terms])
    lcd, out = lcm(*(c.denominator for c in h.terms.values())), {}
    for e, rem, c, poly in terms:
        s = c.numerator * (lcd // c.denominator) * p ** (e - low)
        for a, k in poly.items():
            out.setdefault(a, [0, 0])[rem] += s * k
    if (den := lcd * p ** -low) > 1:
        out = {a: [Fraction(s, den) for s in ss] for a, ss in out.items()}
    result = GroupAlgebraElement._trusted(h.n, {
        tuple(-x for x in a): Laurent(dict(enumerate(ss)))
        for a, ss in out.items()})
    if not is_weyl_invariant(_gl_reflections(h.n), result.terms):
        raise RuntimeError("numeric Satake image is not Weyl invariant; "
                           "convention inconsistency")
    return result


# ---------------------------------------------------------------------------
# serialization

def double_coset_sum_to_dict(h: DoubleCosetSum):
    terms = [{"type": list(lam), "coeff": [c.numerator, c.denominator]}
             for lam, c in sorted(h.terms.items())]
    return {"n": h.n, "p": h.p, "terms": terms}


def double_coset_sum_from_dict(d) -> DoubleCosetSum:
    """Parse the form of ``double_coset_sum_to_dict``: each coefficient is
    [int, nonzero int] under a distinct type; CosetError otherwise."""
    match d:
        case {"n": n, "p": p, "terms": list(entries)}:
            pass
        case _:
            raise CosetError("a double coset sum is a dict of n, p and a "
                             "list of terms")
    n, p = int_tuple((n, p), 2, "size and prime", CosetError)
    check_size_prime(n, p)
    terms = {}
    for t in entries:
        match t:
            case {"type": lam, "coeff": coeff}:
                pass
            case _:
                raise CosetError(
                    f"the term {t!r} is not a dict of type and coeff")
        lam = _check_type(lam, n)
        num, den = int_tuple(coeff, 2, f"coefficient of type {lam}",
                             CosetError)
        if not den or lam in terms:
            raise CosetError(f"type {lam} is repeated or its coefficient "
                             f"{num}/{den} has denominator 0")
        terms[lam] = Fraction(num, den)
    return DoubleCosetSum(n, p, terms)


def double_coset_sum_to_json(h) -> str:
    return json.dumps(double_coset_sum_to_dict(h), sort_keys=True)


def double_coset_sum_from_json(s) -> DoubleCosetSum:
    return double_coset_sum_from_dict(json.loads(s))
