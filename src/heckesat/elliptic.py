"""Elliptic curves over small finite fields and the trace of Frobenius.

Everything is exhaustive and exact: point counts come from a full
x-sweep against a precomputed square table, the group law is the
chord-tangent formula, and the Frobenius endomorphism is the coordinate
p-power map.  The headline checks are

* count consistency: N_k = p^k + 1 - s_k with s_1 = a_p,
  s_k = a_p s_{k-1} - p s_{k-2};
* pointwise annihilation: pi^2(P) - [a_p] pi(P) + [p] P = O on
  E(F_{p^k});
* the bridge to the symbolic side: the specialized degree-2 Hecke
  polynomial equals t**2 - a_p t + p.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .corresp import FinitePointSet
from .intmat import is_prime
from .laurent import QuadExt
from .rootdata import build_group
from .satake import SatakeParameterSymmetric, hecke_polynomial, specialize

COUNT_BOUND = 10 ** 6


class CurveError(ValueError):
    pass


class CountBoundError(CurveError):
    """Exhaustive counting over F_{p^k} would exceed COUNT_BOUND elements."""


# ---------------------------------------------------------------------------
# finite field extensions F_{p^k}

class FieldExt:
    """F_{p^k} as F_p[x] modulo a fixed irreducible monic polynomial.

    Elements are coefficient tuples (c_0, ..., c_{k-1}).  The defining
    polynomial x^k + a_{k-1} x^{k-1} + ... + a_0 is the first irreducible
    one in lexicographic order on (a_{k-1}, ..., a_1, a_0), so element
    orderings are reproducible.
    """

    def __init__(self, p, k):
        if not is_prime(p):
            raise CurveError(f"{p} is not prime")
        if k < 1:
            raise CurveError("extension degree must be >= 1")
        self.p = p
        self.k = k
        self.modulus = self._find_modulus()

    def _find_modulus(self):
        from itertools import product
        p, k = self.p, self.k
        if k == 1:
            return (0,)
        for high_to_low in product(range(p), repeat=k):
            coeffs = tuple(reversed(high_to_low))  # (a_0, ..., a_{k-1})
            if self._is_irreducible(coeffs):
                return coeffs
        raise CurveError("no irreducible polynomial found")  # unreachable

    def _is_irreducible(self, coeffs):
        p, k = self.p, self.k
        if k <= 3:
            # no roots in F_p suffices for degree 2 and 3
            for x in range(p):
                val = (pow(x, k, p) + sum(
                    c * pow(x, i, p) for i, c in enumerate(coeffs))) % p
                if val == 0:
                    return False
            return k >= 2
        # general criterion: x^{p^k} = x mod f and gcd(x^{p^{k/r}} - x, f) = 1
        f = coeffs + (1,)
        xq = self._powmod_x(p ** k, f)
        if xq != (0, 1) + (0,) * (k - 2):
            return False
        r = 2
        kk = k
        primes = set()
        while kk > 1:
            while kk % r == 0:
                primes.add(r)
                kk //= r
            r += 1
        for r in primes:
            g = self._poly_gcd(
                self._poly_sub(self._powmod_x(p ** (k // r), f),
                               (0, 1) + (0,) * (k - 2)), f)
            if len([c for c in g if c]) and self._poly_deg(g) > 0:
                return False
        return True

    # small dense polynomial helpers over F_p (coefficient lists, low first)
    def _poly_deg(self, a):
        d = -1
        for i, c in enumerate(a):
            if c % self.p:
                d = i
        return d

    def _poly_sub(self, a, b):
        n = max(len(a), len(b))
        return tuple(((a[i] if i < len(a) else 0)
                      - (b[i] if i < len(b) else 0)) % self.p
                     for i in range(n))

    def _poly_mod(self, a, f):
        p = self.p
        a = list(a)
        df = self._poly_deg(f)
        inv_lead = pow(f[df], p - 2, p)
        for i in range(len(a) - 1, df - 1, -1):
            if a[i] % p:
                q = a[i] * inv_lead % p
                for j in range(df + 1):
                    a[i - df + j] = (a[i - df + j] - q * f[j]) % p
        return tuple(c % p for c in a[:df])

    def _poly_gcd(self, a, b):
        a, b = tuple(c % self.p for c in a), tuple(c % self.p for c in b)
        while self._poly_deg(b) >= 0:
            a, b = b, self._poly_mod(a, b + (0,) * max(0, len(a) - len(b)))
            if self._poly_deg(b) < 0:
                break
        return a

    def _powmod_x(self, e, f):
        """x**e modulo f, as a coefficient tuple of length deg f."""
        result = (1,) + (0,) * (self._poly_deg(f) - 1)
        base = (0, 1) + (0,) * (self._poly_deg(f) - 2)
        while e:
            if e & 1:
                result = self._poly_mod(self._mul_raw(result, base), f)
            base = self._poly_mod(self._mul_raw(base, base), f)
            e >>= 1
        return result

    def _mul_raw(self, a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % self.p
        return tuple(out)

    # element arithmetic -----------------------------------------------------
    @property
    def order(self):
        return self.p ** self.k

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def embed(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def elements(self):
        from itertools import product
        for low_to_high in product(range(self.p), repeat=self.k):
            yield low_to_high

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        if self.k == 1:
            return (a[0] * b[0] % self.p,)
        raw = self._mul_raw(a, b)
        mod = self.modulus + (1,)
        return self._poly_mod(raw, mod)

    def pow(self, a, e):
        out = self.one()
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        if a == self.zero():
            raise CurveError("division by zero in field extension")
        return self.pow(a, self.order - 2)

    def frob(self, a):
        """The p-power Frobenius of an element."""
        return self.pow(a, self.p)


# ---------------------------------------------------------------------------
# curves and counting

@dataclass(frozen=True)
class EllipticCurve:
    p: int
    a: int
    b: int

    def __post_init__(self):
        if self.p < 3 or not is_prime(self.p):
            raise CurveError("p must be an odd prime >= 3")
        if (4 * self.a ** 3 + 27 * self.b ** 2) % self.p == 0:
            raise CurveError("singular curve: discriminant is zero")


@dataclass(frozen=True)
class FrobeniusData:
    a_p: int
    counts: tuple   # N_1, ..., N_kmax
    ordinary: bool


def _check_bound(p, k):
    if p ** k > COUNT_BOUND:
        raise CountBoundError(f"p**k = {p ** k} exceeds the counting bound "
                              f"{COUNT_BOUND}")


def _square_table(field):
    """Map y**2 -> number of square roots y, over the whole field."""
    table = {}
    for y in field.elements():
        sq = field.mul(y, y)
        table[sq] = table.get(sq, 0) + 1
    return table


def count_points(curve: EllipticCurve, k=1) -> int:
    """#E(F_{p^k}) by exhaustive x-sweep against a full square table."""
    _check_bound(curve.p, k)
    field = FieldExt(curve.p, k)
    table = _square_table(field)
    a, b = field.embed(curve.a), field.embed(curve.b)
    total = 1  # the point at infinity
    for x in field.elements():
        rhs = field.add(field.mul(field.mul(x, x), x),
                        field.add(field.mul(a, x), b))
        total += table.get(rhs, 0)
    return total


def frobenius_data(curve: EllipticCurve, k_max=2) -> FrobeniusData:
    counts = tuple(count_points(curve, k) for k in range(1, k_max + 1))
    a_p = curve.p + 1 - counts[0]
    if a_p * a_p > 4 * curve.p:
        raise RuntimeError("Hasse bound violated; counting bug")
    return FrobeniusData(a_p, counts, a_p % curve.p != 0)


def trace_power_sums(a_p, p, k_max):
    """s_k = alpha^k + beta^k for the roots of t**2 - a_p t + p."""
    s = [2, a_p]
    for _ in range(2, k_max + 1):
        s.append(a_p * s[-1] - p * s[-2])
    return s[1:k_max + 1]


def verify_count_consistency(curve: EllipticCurve, k_max=2,
                             a_p=None) -> bool:
    """Independent counts N_k vs the recurrence N_k = p^k + 1 - s_k."""
    if k_max < 2:
        raise CurveError("k_max must be >= 2")
    data = frobenius_data(curve, k_max)
    a_p = data.a_p if a_p is None else a_p
    s = trace_power_sums(a_p, curve.p, k_max)
    return all(data.counts[k - 1] == curve.p ** k + 1 - s[k - 1]
               for k in range(1, k_max + 1))


# group law ------------------------------------------------------------------

def add_points(field, curve, P, Q):
    """Chord-tangent addition; None is the point at infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and field.add(y1, y2) == field.zero():
        return None
    if P == Q:
        num = field.add(field.mul(field.embed(3), field.mul(x1, x1)),
                        field.embed(curve.a))
        den = field.mul(field.embed(2), y1)
    else:
        num = field.sub(y2, y1)
        den = field.sub(x2, x1)
    lam = field.mul(num, field.inv(den))
    x3 = field.sub(field.sub(field.mul(lam, lam), x1), x2)
    y3 = field.sub(field.mul(lam, field.sub(x1, x3)), y1)
    return (x3, y3)


def negate_point(field, P):
    if P is None:
        return None
    return (P[0], field.neg(P[1]))


def scalar_mult(field, curve, m, P):
    if m < 0:
        return scalar_mult(field, curve, -m, negate_point(field, P))
    out = None
    base = P
    while m:
        if m & 1:
            out = add_points(field, curve, out, base)
        base = add_points(field, curve, base, base)
        m >>= 1
    return out


def enumerate_points(field, curve):
    """Affine points plus None for infinity, in deterministic order."""
    roots = {}
    for y in field.elements():
        roots.setdefault(field.mul(y, y), []).append(y)
    a, b = field.embed(curve.a), field.embed(curve.b)
    pts = [None]
    for x in sorted(field.elements()):
        rhs = field.add(field.mul(field.mul(x, x), x),
                        field.add(field.mul(a, x), b))
        for y in sorted(roots.get(rhs, [])):
            pts.append((x, y))
    return pts


def verify_frobenius_annihilation(curve: EllipticCurve, k=2,
                                  a_p=None) -> bool:
    """pi^2(P) - [a_p] pi(P) + [p] P = O for every P in E(F_{p^k})."""
    _check_bound(curve.p, k)
    if a_p is None:
        a_p = curve.p + 1 - count_points(curve, 1)
    field = FieldExt(curve.p, k)
    for P in enumerate_points(field, curve):
        if P is None:
            continue
        piP = (field.frob(P[0]), field.frob(P[1]))
        pi2P = (field.frob(piP[0]), field.frob(piP[1]))
        total = add_points(field, curve, pi2P,
                           scalar_mult(field, curve, -a_p, piP))
        total = add_points(field, curve, total,
                           scalar_mult(field, curve, curve.p, P))
        if total is not None:
            return False
    return True


def satake_link(curve: EllipticCurve):
    """Specialize the degree-2 Hecke polynomial at (a_p, p).

    Returns (ok, coefficients) where ok is True iff the specialized
    polynomial is exactly t**2 - a_p t + p.
    """
    p = curve.p
    a_p = p + 1 - count_points(curve, 1)
    rd = build_group("GL(2)")
    H = hecke_polynomial(rd, (1, 0))
    s = SatakeParameterSymmetric(
        {(1, 0): QuadExt(0, Fraction(a_p, p), p), (1, 1): 1}, p)
    coeffs = specialize(H, s, rd)
    ok = coeffs == [Fraction(p), Fraction(-a_p), Fraction(1)]
    return ok, coeffs


def export_point_set(curve: EllipticCurve, k=1) -> FinitePointSet:
    """E(F_{p^k}) with the coordinate p-power map as its permutation."""
    _check_bound(curve.p, k)
    field = FieldExt(curve.p, k)
    pts = enumerate_points(field, curve)
    index = {P: i for i, P in enumerate(pts)}
    perm = []
    for P in pts:
        if P is None:
            perm.append(index[None])
        else:
            perm.append(index[(field.frob(P[0]), field.frob(P[1]))])
    return FinitePointSet(len(pts), tuple(perm), curve.p, k)


def all_curves(p):
    """Every nonsingular short Weierstrass curve over F_p."""
    out = []
    for a in range(p):
        for b in range(p):
            if (4 * a ** 3 + 27 * b ** 2) % p:
                out.append(EllipticCurve(p, a, b))
    return out


def curve_report(curve: EllipticCurve, k_max=2):
    data = frobenius_data(curve, k_max)
    ok_counts = verify_count_consistency(curve, k_max)
    ok_frob = verify_frobenius_annihilation(curve, 2)
    ok_link, coeffs = satake_link(curve)
    return {
        "p": curve.p,
        "a": curve.a,
        "b": curve.b,
        "a_p": data.a_p,
        "ordinary": data.ordinary,
        "counts": list(data.counts),
        "count_consistency": ok_counts,
        "frobenius_annihilation": ok_frob,
        "satake_link": ok_link,
        "hecke_polynomial": [str(c) for c in coeffs],
    }


def report_json(curve: EllipticCurve, k_max=2) -> str:
    return json.dumps(curve_report(curve, k_max), sort_keys=True)
