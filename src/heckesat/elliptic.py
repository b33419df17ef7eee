"""Elliptic curves over small finite fields and the trace of Frobenius.

Everything is exhaustive and exact.  F_{p^k} is its tables
(``FieldExt``): elements are ints, and the log, antilog and Zech tables,
the p-power table and the Frobenius orbits are built once per (p, k).
The modulus is found by the walk over the powers of x that fills the
tables: candidates whose norm does not generate F_p^* are skipped, and a
walk stops as soon as x is seen not to have order p^k - 1.  Point counts
sweep one x per Frobenius orbit on those tables, with squares read off
the parity of the log; the group law is the chord-tangent formula,
worked on the same tables, and the Frobenius endomorphism is the
coordinate p-power map.  The headline checks are

* count consistency: N_k = p^k + 1 - s_k with s_1 = a_p,
  s_k = a_p s_{k-1} - p s_{k-2};
* pointwise annihilation: pi^2(P) + [p] P = pi([a_p] P) for every P in
  E(F_{p^k}), with [m] P read off the multiples of a generator of each
  cyclic subgroup, walked once, and no addition where pi^2(P) = P;
* the bridge to the symbolic side: the specialized degree-2 Hecke
  polynomial equals t**2 - a_p t + p.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from collections import Counter
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain
from math import gcd

from .corresp import FinitePointSet
from .intmat import frozen, int_tuple, is_prime
from .laurent import Laurent
from .rootdata import build_group
from .satake import SatakeParameterSymmetric, hecke_polynomial, specialize

COUNT_BOUND = 10 ** 6


class CurveError(ValueError):
    pass


class CountBoundError(CurveError):
    """A field F_{p^k} would exceed COUNT_BOUND elements."""


def _check_bound(p, k):
    if p ** k > COUNT_BOUND:
        raise CountBoundError(f"p**k = {p ** k} exceeds the counting bound "
                              f"{COUNT_BOUND}")


# ---------------------------------------------------------------------------
# finite field extensions F_{p^k}

def _generators(p):
    """The generators of F_p^*: g^j with gcd(j, p - 1) = 1, g the least
    element whose powers first return to 1 at step p - 1."""
    for g in range(1, p):
        powers = [1]
        while (v := powers[-1] * g % p) != 1:
            powers.append(v)
        if len(powers) == p - 1:
            return {v for j, v in enumerate(powers) if gcd(j, p - 1) == 1}


def _walk(p, modulus, exp, log):
    """Write x^e into exp[e] and exp[e + n], and e into log[x^e], for e = 0,
    1, ... modulo x^k + modulus (n = p^k - 1); stop where x^e is 0 or 1, or
    lies in F_p before step r = n / (p - 1).  True iff x first returns to 1
    at step n: x has order n, so the modulus is primitive (Lidl and
    Niederreiter, *Finite Fields*, Thm 3.16).  The powers of a primitive x
    meet F_p first at step r, so the early stops reject only the others."""
    k = len(modulus)
    n, top = p ** k - 1, p ** (k - 1)
    r = n // (p - 1)
    # x * (t x^{k-1} + rest) = x rest - t (a_0 + ... + a_{k-1} x^{k-1})
    terms = [(p ** i, -c % p) for i, c in enumerate(modulus) if c]
    v = 1
    for e in range(n):
        exp[e] = exp[e + n] = v
        log[v] = e
        t, v = divmod(v, top)
        v *= p
        for w, c in terms:
            d = v // w % p
            v += ((d + t * c) % p - d) * w
        if v < p and (e + 1 < r or v < 2):
            break
    return e == n - 1 and v == 1


class FieldExt:
    """F_{p^k} as F_p[x] modulo a fixed primitive monic polynomial.

    An element is an int 0 <= a < p^k whose base-p digits are its
    coefficients c_0, ..., c_{k-1}, c_0 least significant; F_p embeds as
    0..p-1.  The modulus x^k + a_{k-1} x^{k-1} + ... + a_0 (stored as
    ``modulus = (a_0, ..., a_{k-1})``) is the first primitive one in
    lexicographic order on (a_{k-1}, ..., a_1, a_0), so the tables are
    reproducible.  A candidate is skipped unless its norm (-1)^k a_0
    generates F_p^*; on the others ``_walk`` fills the exp and log tables
    until x is seen not to be primitive, and the first walk to reach
    x^(p^k - 1) = 1 wins and overwrites all the rejected ones wrote.  The
    callers read the tables directly.  The tables are O(p^k), so
    construction raises CountBoundError above COUNT_BOUND.
    """

    def __init__(self, p, k):
        int_tuple((p, k), 2, "p and k", CurveError)
        if not is_prime(p):
            raise CurveError(f"{p} is not prime")
        if k < 1:
            raise CurveError("extension degree must be >= 1")
        _check_bound(p, k)
        self.p, self.k = p, k
        self.order = q = p ** k
        n = self._n = q - 1
        # exp[e] = x^e for 0 <= e < 2n, so a sum of two logs needs no mod
        exp = self._exp = array("i", [0]) * (2 * n)
        log = self._log = array("i", [0]) * q
        # lexicographic order on (a_{k-1}, ..., a_0) is the order of the ints
        norms, sign = _generators(p), (-1) ** k
        candidates = (tuple(i // p ** j % p for j in range(k))
                      for i in range(q) if sign * i % p in norms)
        self.modulus = next(m for m in candidates if _walk(p, m, exp, log))
        # zech[e] = log(1 + x^e), or -1 where 1 + x^e = 0, at x^e = p - 1
        self._zech = array("i", [log[v + 1 if v % p != p - 1 else v - p + 1]
                                 for v in exp[:n]])
        self._zech[log[p - 1]] = -1

    def embed(self, n):
        return n % self.p

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a):
        if not a:
            raise CurveError("division by zero in field extension")
        return self._exp[self._n - self._log[a]]

    @cached_property
    def frobenius(self):
        """frobenius[a] = a^p, as (x^e)^p = x^(p e); built on first use."""
        exp, n, p = self._exp, self._n, self.p
        return [0] + [exp[p * e % n] for e in self._log[1:]]

    @cached_property
    def frobenius_orbits(self):
        """(exponents, sizes): the least e of each orbit of e -> p e (mod n),
        increasing, and that orbit's size; (x^e)^p = x^(p e), so these are
        the Frobenius orbits of the nonzero elements.  Built on first use.
        """
        n, p, k = self._n, self.p, self.k
        least = range(n)
        for m in (p ** j for j in range(1, k)):
            least = [e for e in least if e * m % n >= e]
        # x^e is in F_{p^d}, d | k, iff n / (p^d - 1) divides e; the least
        # such d is the orbit size (a smaller d is written later)
        size = {e: d for d in range(k - 1, 0, -1) if not k % d
                for e in range(0, n, n // (p ** d - 1))}
        return least, [size.get(e, k) for e in least]


_cached_field = cache(FieldExt)


def field_ext(p, k):
    """F_{p^k}, built once per (p, k) and kept for the life of the process.
    p and k are checked to be ints before the cache is read: (5, 2.0)
    would find the field built for (5, 2)."""
    int_tuple((p, k), 2, "p and k", CurveError)
    _check_bound(p, k)  # again: COUNT_BOUND may have dropped since the build
    return _cached_field(p, k)


# ---------------------------------------------------------------------------
# curves and counting

def _check_prime(p):
    if p < 3 or not is_prime(p):
        raise CurveError("p must be an odd prime >= 3")


@frozen
class EllipticCurve:
    p: int
    a: int
    b: int

    def __post_init__(self):
        int_tuple((self.p, self.a, self.b), 3, "p, a and b", CurveError)
        _check_prime(self.p)
        if (4 * self.a ** 3 + 27 * self.b ** 2) % self.p == 0:
            raise CurveError("singular curve: discriminant is zero")


@frozen
class FrobeniusData:
    a_p: int
    counts: tuple   # N_1, ..., N_kmax
    ordinary: bool


def _rhs_logs(field, curve, exponents):
    """log(x^3 + a x + b) at x = 0, then at x = x^e for each e of
    exponents; -1 where the value is 0, and every log is below 2n.

    Worked on the tables, with no field call per x: for x = x^e,
    x^3 + a x = x^(3e) (1 + a x^(-2e)) and s + b = s (1 + b / s), each
    factor 1 + u read off the Zech table.
    """
    a, b = field.embed(curve.a), field.embed(curve.b)
    log, zech, n = field._log, field._zech, field._n
    la, lb = log[a], log[b] if b else -1
    out = [lb]  # x = 0
    for e in exponents:
        s = 3 * e % n  # log(x^3 + a x), or -1 where it is 0
        if a:
            z = zech[(la - 2 * e) % n]
            s = (s + z) % n if z >= 0 else -1
        if s < 0:
            out.append(lb)
        elif b:
            z = zech[(lb - s) % n]
            out.append(s + z if z >= 0 else -1)
        else:
            out.append(s)
    return out


def count_points(curve: EllipticCurve, k=1) -> int:
    """#E(F_{p^k}) by an exhaustive sweep of one x per Frobenius orbit,
    weighted by its size (f(x^p) = f(x)^p for the curve's f): rhs 0 gives
    one point, a nonzero square two (its log is even, as p^k - 1 is)."""
    field = field_ext(curve.p, k)
    exponents, sizes = field.frobenius_orbits
    total = 1  # the point at infinity
    for r, size in zip(_rhs_logs(field, curve, exponents),
                       chain((1,), sizes)):  # x = 0 is its own orbit
        if r < 0:
            total += size
        elif not r % 2:
            total += 2 * size
    return total


def frobenius_data(curve: EllipticCurve, k_max=2) -> FrobeniusData:
    int_tuple((k_max,), 1, "k_max", CurveError)
    if k_max < 1:
        raise CurveError("k_max must be >= 1")
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
    (a_p,) = int_tuple((data.a_p if a_p is None else a_p,), 1, "a_p",
                       CurveError)
    s = trace_power_sums(a_p, curve.p, k_max)
    return all(data.counts[k - 1] == curve.p ** k + 1 - s[k - 1]
               for k in range(1, k_max + 1))


# group law ------------------------------------------------------------------

def add_points(field, curve, P, Q):
    """Chord-tangent addition; None is the point at infinity.  Worked on
    the tables: logs add, and u - w = u (1 + x^(log w + n/2 - log u)), as
    -1 = x^(n/2) for odd p, with the factor read off the Zech table."""
    if P is None:
        return Q
    if Q is None:
        return P
    exp, log, zech, n = field._exp, field._log, field._zech, field._n

    def sub(u, w):
        if not w:
            return u
        lw = log[w] + n // 2
        if not u:
            return exp[lw]
        z = zech[(lw - log[u]) % n]
        return exp[log[u] + z] if z >= 0 else 0

    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and y2 == sub(0, y1):
        return None
    if P == Q:
        # 3 x1^2 + a over 2 y1, with 2, 3 and -a their residues mod p
        three = 3 % field.p
        three_x2 = exp[(log[three] + 2 * log[x1]) % n] if three and x1 else 0
        num, den = sub(three_x2, -curve.a % field.p), exp[log[2] + log[y1]]
    else:
        num, den = sub(y2, y1), sub(x2, x1)
    if not den:
        raise CurveError("division by zero in field extension")
    lam = (log[num] - log[den]) % n if num else -1  # log, or -1 for 0
    x3 = sub(sub(exp[2 * lam % n] if num else 0, x1), x2)
    t = sub(x1, x3)
    y3 = sub(exp[lam + log[t]] if num and t else 0, y1)
    return (x3, y3)


def multiples(field, curve, R):
    """[None, R, 2R, ..., (n - 1)R], n the order of R, by addition."""
    table = [None]
    P = R
    while P is not None:
        table.append(P)
        P = add_points(field, curve, P, R)
    return table


def enumerate_points(field, curve):
    """Affine points plus None for infinity, in deterministic order: x
    increasing, then y; the roots of x^r are x^(r/2) and -x^(r/2)."""
    exp, half = field._exp, field._n // 2
    pts = [None]
    for x, r in enumerate(_rhs_logs(field, curve, field._log[1:])):
        if r < 0:
            pts.append((x, 0))
        elif not r % 2:
            pts += sorted([(x, exp[r // 2]), (x, exp[r // 2 + half])])
    return pts


def verify_frobenius_annihilation(curve: EllipticCurve, k=2,
                                  a_p=None) -> bool:
    """pi^2(P) - [a_p] pi(P) + [p] P = O for every P in E(F_{p^k}).

    Checked as pi^2(P) + [p] P = pi([a_p] P) (pi commutes with [m], as
    the curve is defined over F_p).  The multiples of each point R not
    yet covered are walked once; for each uncovered P = jR the right side
    is pi of a table entry, the left one the entry at (p + 1) j if
    pi^2(P) = P (always so for k <= 2, but tested), else one chord.
    """
    field = field_ext(curve.p, k)
    if a_p is None:
        a_p = frobenius_data(curve, 1).a_p
    (a_p,) = int_tuple((a_p,), 1, "a_p", CurveError)
    p, frob = curve.p, field.frobenius
    covered = {None}
    for R in enumerate_points(field, curve):
        if R in covered:
            continue
        table = multiples(field, curve, R)
        order = len(table)
        for j, P in enumerate(table):
            if P in covered:
                continue
            covered.add(P)
            pi2 = (frob[frob[P[0]]], frob[frob[P[1]]])
            lhs = (table[(p + 1) * j % order] if pi2 == P
                   else add_points(field, curve, pi2, table[p * j % order]))
            Q = table[a_p * j % order]
            if lhs != (Q and (frob[Q[0]], frob[Q[1]])):
                return False
    return True


@cache
def _gl2_hecke_polynomial():
    """GL(2) and its degree-2 Hecke polynomial, shared by every curve."""
    rd = build_group("GL(2)")
    return rd, hecke_polynomial(rd, (1, 0))


def satake_link(curve: EllipticCurve, a_p=None):
    """Specialize the degree-2 Hecke polynomial at a_p (counted if None), p.

    Returns (ok, coefficients) where ok is True iff the specialized
    polynomial is exactly t**2 - a_p t + p and a_p**2 <= 4p (Hasse).
    """
    p = curve.p
    if a_p is None:
        a_p = frobenius_data(curve, 1).a_p
    (a_p,) = int_tuple((a_p,), 1, "a_p", CurveError)
    rd, H = _gl2_hecke_polynomial()
    s = SatakeParameterSymmetric(
        {(1, 0): Laurent.v_power(1, Fraction(a_p, p)), (1, 1): 1}, p)
    coeffs = specialize(H, s, rd)
    ok = coeffs == [p, -a_p, 1] and a_p * a_p <= 4 * p
    return ok, coeffs


def export_point_set(curve: EllipticCurve, k=1) -> FinitePointSet:
    """E(F_{p^k}) with the coordinate p-power map as its permutation."""
    field = field_ext(curve.p, k)
    pts = enumerate_points(field, curve)
    index = {P: i for i, P in enumerate(pts)}
    frob = field.frobenius
    perm = tuple(index[P and (frob[P[0]], frob[P[1]])] for P in pts)
    return FinitePointSet(len(pts), perm, curve.p, k)


class _Curves(Sequence):
    """The nonsingular curves over F_p in (a, b) order, each built when read;
    ``_starts[a]`` counts those of smaller a, p less #{b: 27 b^2 = -4 a^3}."""

    def __init__(self, p):
        hits = Counter(27 * b ** 2 % p for b in range(p))
        self.p, self._starts = p, list(accumulate(
            (p - hits[-4 * a ** 3 % p] for a in range(p)), initial=0))

    def __len__(self):
        return self._starts[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # IndexError outside the sequence
        a, p = bisect(self._starts, i) - 1, self.p
        bs = [b for b in range(p) if (4 * a ** 3 + 27 * b ** 2) % p]
        return EllipticCurve(p, a, bs[i - self._starts[a]])


def all_curves(p):
    """Every nonsingular short Weierstrass curve over F_p, as a sequence
    that builds only the curves read from it (``random.sample`` reads k)."""
    _check_prime(p)
    _check_bound(p, 2)  # about p^2 curves, each checked over F_{p^2}
    return _Curves(p)
