"""Concrete coset calculus for GL_n(Q_p) at hyperspecial level.

Left cosets g*GL_n(Z_p) are canonicalized by the p-adic Hermite form,
double cosets K g K by elementary-divisor type.  Convolution follows the
rule 1_{g1 K} * 1_{K g2 K} = 1_{g1 K g2 K}, expanded over canonical
left-coset representatives.  The numeric Satake transform composes
restriction to the Borel (automatic for upper-triangular
representatives), the diagonal read-off map, and the half-power modulus
twist, with signs fixed in :mod:`heckesat.conventions`.

Haar measure is normalized so that K has volume 1; measures of compact
opens are exact rationals (reciprocal coset counts).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product as iproduct

from .intmat import (
    NormalFormError,
    as_matrix,
    hnf_padic,
    is_prime,
    mat_mul,
    p_valuation,
    snf_type,
)
from .intmat import coset_equal as _coset_equal
from .laurent import Laurent
from .rootdata import build_group, simple_reflections
from .satake import GroupAlgebraElement, is_weyl_invariant

DEFAULT_ENUM_BOUND = 10 ** 7
ENUM_BOUND_ENV = "HECKE_SAT_MAX_ENUM"


class CosetError(ValueError):
    pass


class EnumerationBoundError(RuntimeError):
    pass


def _enum_bound():
    raw = os.environ.get(ENUM_BOUND_ENV)
    if raw is None:
        return DEFAULT_ENUM_BOUND
    try:
        return int(raw)
    except ValueError:
        raise CosetError(f"bad {ENUM_BOUND_ENV} value {raw!r}")


def _check_size_prime(n, p):
    if n < 1:
        raise CosetError(f"matrix size n={n} must be >= 1")
    if not is_prime(p):
        raise CosetError(f"p={p} is not prime")


@dataclass(frozen=True)
class PCoset:
    """Canonical left coset p**shift * rep * GL_n(Z_p).

    ``rep`` is in p-adic Hermite form and its entries have no common
    factor of p; the shared central p-power lives in ``shift``.
    """
    n: int
    p: int
    rep: tuple
    shift: int = 0

    def __post_init__(self):
        _check_size_prime(self.n, self.p)

    @classmethod
    def from_matrix(cls, m, p, shift=0):
        m = as_matrix(m)
        n = len(m)
        h = hnf_padic(m, p)
        content = 0
        while all(x % p ** (content + 1) == 0 for row in h for x in row):
            content += 1
        if content:
            q = p ** content
            h = tuple(tuple(x // q for x in row) for row in h)
        return cls(n, p, h, shift + content)

    @classmethod
    def unit(cls, n, p):
        return cls(n, p, tuple(tuple(int(i == j) for j in range(n))
                               for i in range(n)))

    def diagonal_valuations(self):
        return tuple(p_valuation(self.rep[i][i], self.p) + self.shift
                     for i in range(self.n))

    def snf(self):
        return tuple(a + self.shift for a in snf_type(self.rep, self.p))

    def matrix(self):
        """The representative with the central shift folded in (shift >= 0)."""
        if self.shift < 0:
            raise CosetError("negative central shift has no integer matrix")
        q = self.p ** self.shift
        return tuple(tuple(q * x for x in row) for row in self.rep)


class CosetSum:
    """Rational linear combination of left cosets; the module H(G/K)."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, n, p, terms=None):
        self.n = int(n)
        self.p = int(p)
        _check_size_prime(self.n, self.p)
        d = {}
        if terms:
            for g, c in terms.items():
                if g.n != self.n or g.p != self.p:
                    raise CosetError("size/prime mismatch in CosetSum")
                c = Fraction(c)
                if c:
                    d[g] = c
        self.terms = d

    @classmethod
    def from_coset(cls, g: PCoset, coeff=1):
        return cls(g.n, g.p, {g: Fraction(coeff)})

    @classmethod
    def unit(cls, n, p):
        return cls.from_coset(PCoset.unit(n, p))

    def __add__(self, other):
        if (self.n, self.p) != (other.n, other.p):
            raise CosetError("size/prime mismatch")
        d = dict(self.terms)
        for g, c in other.terms.items():
            d[g] = d.get(g, Fraction(0)) + c
        return CosetSum(self.n, self.p, d)

    def scale(self, c):
        c = Fraction(c)
        return CosetSum(self.n, self.p,
                        {g: k * c for g, k in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, CosetSum):
            return NotImplemented
        return (self.n, self.p, self.terms) == (other.n, other.p, other.terms)

    def __repr__(self):
        return f"CosetSum(n={self.n}, p={self.p}, {len(self.terms)} terms)"


class DoubleCosetSum:
    """Rational combination of double cosets keyed by elementary-divisor type."""

    __slots__ = ("n", "p", "terms")

    def __init__(self, n, p, terms=None):
        self.n = int(n)
        self.p = int(p)
        _check_size_prime(self.n, self.p)
        d = {}
        if terms:
            for lam, c in terms.items():
                lam = _check_type(lam, self.n)
                c = Fraction(c)
                if c:
                    d[lam] = d.get(lam, Fraction(0)) + c
        self.terms = {k: v for k, v in d.items() if v}

    @classmethod
    def basis(cls, lam, n, p, coeff=1):
        return cls(n, p, {tuple(lam): Fraction(coeff)})

    @classmethod
    def unit(cls, n, p):
        return cls.basis(tuple(0 for _ in range(n)), n, p)

    def __add__(self, other):
        if (self.n, self.p) != (other.n, other.p):
            raise CosetError("size/prime mismatch")
        d = dict(self.terms)
        for lam, c in other.terms.items():
            d[lam] = d.get(lam, Fraction(0)) + c
        return DoubleCosetSum(self.n, self.p, d)

    def scale(self, c):
        return DoubleCosetSum(self.n, self.p,
                              {lam: k * Fraction(c)
                               for lam, k in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, DoubleCosetSum):
            return NotImplemented
        return (self.n, self.p, self.terms) == (other.n, other.p, other.terms)

    def __repr__(self):
        return f"DoubleCosetSum(n={self.n}, p={self.p}, {dict(self.terms)})"


def _check_type(lam, n):
    lam = tuple(int(x) for x in lam)
    if len(lam) != n:
        raise CosetError(f"type {lam} has wrong length for n={n}")
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise CosetError(f"type {lam} is not sorted descending")
    if lam[-1] < 0:
        raise CosetError(f"type {lam} has a negative entry")
    return lam


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# decomposition cache: (lam, n, p) -> tuple of PCoset.  Filled either by
# direct enumeration or as a byproduct of convolve_double, whose grouped
# product support is the complete coset list of each product type.
_DECOMP_CACHE = {}


def _enumerate_type(lam, n, p, bound):
    total = sum(lam)
    if p ** (total * n) > bound:
        raise EnumerationBoundError(
            f"enumeration for type {lam} at p={p} exceeds the bound {bound}; "
            f"raise {ENUM_BOUND_ENV} to override"
        )
    out = []
    for diag in _compositions(total, n):
        ranges = []
        for i in range(n):
            for j in range(n):
                if i < j:
                    ranges.append(range(p ** diag[i]))
        for offs in iproduct(*ranges):
            m = [[0] * n for _ in range(n)]
            it = iter(offs)
            for i in range(n):
                m[i][i] = p ** diag[i]
                for j in range(i + 1, n):
                    m[i][j] = next(it)
            m = tuple(tuple(r) for r in m)
            if snf_type(m, p) == lam:
                out.append(PCoset(n, p, m, 0))
    return tuple(out)


def decompose_double_coset(lam, n, p):
    """Canonical left-coset representatives of the double coset of type lam.

    The central part is factored out first: for lam = (c, ..., c) + lam0
    with lam0 ending in 0, the representatives of lam0 are computed by
    exhaustive Hermite-form enumeration and shifted by p**c.
    """
    lam = _check_type(lam, n)
    n, p = int(n), int(p)
    c = lam[-1]
    lam0 = tuple(x - c for x in lam)
    key = (lam0, n, p)
    if key not in _DECOMP_CACHE:
        _DECOMP_CACHE[key] = _enumerate_type(lam0, n, p, _enum_bound())
    reps = _DECOMP_CACHE[key]
    if c == 0:
        return list(reps)
    return [PCoset(g.n, g.p, g.rep, g.shift + c) for g in reps]


def expand_to_cosets(h: DoubleCosetSum) -> CosetSum:
    """Left-coset expansion of a double-coset sum."""
    out = {}
    for lam, c in h.terms.items():
        for g in decompose_double_coset(lam, h.n, h.p):
            out[g] = out.get(g, Fraction(0)) + c
    return CosetSum(h.n, h.p, out)


def convolve_left_by_double(f: CosetSum, h: DoubleCosetSum) -> CosetSum:
    """1_{gK} * 1_{KhK} = sum over representatives h_i of 1_{g h_i K}."""
    if (f.n, f.p) != (h.n, h.p):
        raise CosetError("size/prime mismatch")
    out = {}
    for g, cf in f.terms.items():
        for lam, ch in h.terms.items():
            for hi in decompose_double_coset(lam, h.n, h.p):
                prod = PCoset.from_matrix(
                    mat_mul(g.rep, hi.rep), f.p, g.shift + hi.shift)
                out[prod] = out.get(prod, Fraction(0)) + cf * ch
    return CosetSum(f.n, f.p, out)


def convolve_double(h1: DoubleCosetSum, h2: DoubleCosetSum) -> DoubleCosetSum:
    """Hecke-algebra product, regrouped by elementary-divisor type.

    The pairwise left-coset products are regrouped by type and checked
    for bi-invariance: within each type every representative must appear
    with one common coefficient.
    """
    f = convolve_left_by_double(expand_to_cosets(h1), h2)
    by_type = {}
    for g, c in f.terms.items():
        by_type.setdefault(g.snf(), {})[g] = c
    out = {}
    for lam, cosets in by_type.items():
        coeffs = set(cosets.values())
        if len(coeffs) != 1:
            raise RuntimeError(
                f"product is not bi-invariant at type {lam}; "
                f"internal inconsistency")
        out[lam] = coeffs.pop()
        # Bi-invariance makes this group the full coset list of the type;
        # seed the decomposition cache so the type need not be enumerated.
        lam0 = tuple(x - lam[-1] for x in lam)
        key = (lam0, h1.n, h1.p)
        if key not in _DECOMP_CACHE:
            _DECOMP_CACHE[key] = tuple(sorted(
                (PCoset(g.n, g.p, g.rep, 0) for g in cosets),
                key=lambda g: g.rep))
    return DoubleCosetSum(h1.n, h1.p, out)


def measure_intersection(g: PCoset) -> Fraction:
    """Volume of K \\cap g K g**-1, i.e. 1 / #(left cosets of K g K)."""
    return Fraction(1, len(decompose_double_coset(g.snf(), g.n, g.p)))


def gl_delta(n):
    """Sum of positive roots of GL(n): (n-1, n-3, ..., -(n-1))."""
    return tuple(n - 1 - 2 * i for i in range(n))


def sigma_to_torus(f: CosetSum) -> GroupAlgebraElement:
    """Diagonal read-off of upper-triangular representatives.

    A coset with diagonal valuations (v_1, ..., v_n) maps to the torus
    coset of diag(p**v_i), identified with the exponent chi =
    (-v_1, ..., -v_n) via the convention chi corresponds to chi(pi**-1).
    """
    out = {}
    for g, c in f.terms.items():
        chi = tuple(-v for v in g.diagonal_valuations())
        out[chi] = out.get(chi, Laurent.zero()) + Laurent.from_scalar(c)
    return GroupAlgebraElement(f.n, out)


def reduce_mod_v2(x: GroupAlgebraElement, p) -> GroupAlgebraElement:
    """Reduce every v-coefficient modulo v**2 - p (canonical a + b*v form)."""
    out = {}
    for lam, c in x.terms.items():
        q = c.eval_quad(p)
        out[lam] = Laurent({0: q.a, 1: q.b})
    return GroupAlgebraElement(x.rank, out)


@cache
def _gl_reflections(n):
    return simple_reflections(build_group(f"GL({n})"))


def satake_numeric(h: DoubleCosetSum) -> GroupAlgebraElement:
    """Numeric Satake transform: expand, read off the torus, twist by v-powers.

    The coefficient at exponent chi is multiplied by v**<delta, chi> and
    the result is reduced modulo v**2 - p.  The output is checked to be
    invariant under the symmetric group permuting the exponents; failure
    signals a convention inconsistency and raises.
    """
    f = expand_to_cosets(h)
    delta = gl_delta(h.n)
    out = {}
    for g, c in f.terms.items():
        chi = tuple(-v for v in g.diagonal_valuations())
        e = sum(d * x for d, x in zip(delta, chi))
        out[chi] = out.get(chi, Laurent.zero()) + Laurent.v_power(e, c)
    result = reduce_mod_v2(GroupAlgebraElement(h.n, out), h.p)
    if not is_weyl_invariant(_gl_reflections(h.n), result):
        raise RuntimeError("numeric Satake image is not Weyl invariant; "
                           "convention inconsistency")
    return result


def coset_equal(g1, g2, p) -> bool:
    """True iff g1 and g2 generate the same left GL_n(Z_p)-coset."""
    try:
        return _coset_equal(g1, g2, p)
    except NormalFormError as exc:
        raise CosetError(str(exc))


# ---------------------------------------------------------------------------
# serialization

def coset_sum_to_dict(f: CosetSum):
    terms = []
    for g in sorted(f.terms, key=lambda g: (g.shift, g.rep)):
        c = f.terms[g]
        terms.append({
            "rep": [list(r) for r in g.rep],
            "shift": g.shift,
            "coeff": [c.numerator, c.denominator],
        })
    return {"n": f.n, "p": f.p, "terms": terms}


def double_coset_sum_to_dict(h: DoubleCosetSum):
    terms = []
    for lam in sorted(h.terms):
        c = h.terms[lam]
        terms.append({"type": list(lam), "coeff": [c.numerator, c.denominator]})
    return {"n": h.n, "p": h.p, "terms": terms}


def double_coset_sum_from_dict(d) -> DoubleCosetSum:
    return DoubleCosetSum(
        int(d["n"]), int(d["p"]),
        {tuple(int(x) for x in t["type"]): Fraction(*t["coeff"])
         for t in d["terms"]})


def double_coset_sum_to_json(h) -> str:
    return json.dumps(double_coset_sum_to_dict(h), sort_keys=True)


def double_coset_sum_from_json(s) -> DoubleCosetSum:
    return double_coset_sum_from_dict(json.loads(s))
