"""Hall polynomials from Hall-Littlewood functions, for the correctness gate.

The structure constants of the spherical Hecke algebra of GL_n(Q_p) are
Hall polynomials (Macdonald, *Symmetric Functions and Hall Polynomials*,
2nd ed., III (3.6) and V (2.6)):

    c_lam * c_mu = sum_nu g^nu_{lam mu}(p) c_nu,
    g^nu_{lam mu}(p) = p^{n(nu) - n(lam) - n(mu)} f^nu_{lam mu}(1/p),

where P_lam P_mu = sum_nu f^nu_{lam mu}(t) P_nu in the Hall-Littlewood
basis and n(lam) = sum_i (i - 1) lam_i.  This module computes P_lam in n
variables at the numeric value t = 1/p from the symmetrization formula
(III (2.1)) and reads f^nu off by unitriangularity.  It shares no code
with the program under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations


def _mul(f, g):
    out = {}
    for a, x in f.items():
        for b, y in g.items():
            e = tuple(i + j for i, j in zip(a, b))
            out[e] = out.get(e, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _sub_scaled(f, g, c):
    out = dict(f)
    for e, y in g.items():
        out[e] = out.get(e, 0) - c * y
    return {e: x for e, x in out.items() if x}


def _perm_sign(w):
    sign = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                sign = -sign
    return sign


def _divide_linear(f, i, j):
    """Exact quotient of f by (x_i - x_j).

    Writing f = sum_k f_k x_i^k with f_k free of x_i, the quotient
    q = sum_k q_k x_i^k satisfies q_{k-1} = f_k + x_j q_k (Horner).
    """
    by_deg = {}
    for e, c in f.items():
        rest = e[:i] + (0,) + e[i + 1:]
        by_deg.setdefault(e[i], {})[rest] = c
    top = max(by_deg, default=0)
    q = {}
    carry = {}
    for k in range(top, 0, -1):
        qk = dict(by_deg.get(k, {}))
        for e, c in carry.items():
            qk[e] = qk.get(e, 0) + c
        qk = {e: c for e, c in qk.items() if c}
        for e, c in qk.items():
            q[e[:i] + (k - 1,) + e[i + 1:]] = c
        carry = {e[:j] + (e[j] + 1,) + e[j + 1:]: c for e, c in qk.items()}
    remainder = dict(by_deg.get(0, {}))
    for e, c in carry.items():
        remainder[e] = remainder.get(e, 0) + c
    if any(remainder.values()):
        raise ArithmeticError("polynomial is not divisible")
    return q


class HallLittlewood:
    """P_lam(x_1, ..., x_n; t) at a fixed rational t, memoized per lam."""

    def __init__(self, n, t):
        self.n = n
        self.t = Fraction(t)
        self._cache = {}

    def P(self, lam):
        lam = tuple(lam)
        if lam not in self._cache:
            self._cache[lam] = self._compute(lam)
        return self._cache[lam]

    def _compute(self, lam):
        n, t = self.n, self.t
        # f = x^lam * prod_{i<j} (x_i - t x_j); R_lam = (sum_w sgn(w) w f) / Vandermonde
        f = {lam: Fraction(1)}
        for i in range(n):
            for j in range(i + 1, n):
                xi = tuple(int(k == i) for k in range(n))
                xj = tuple(int(k == j) for k in range(n))
                f = _mul(f, {xi: Fraction(1), xj: -t})
        anti = {}
        for w in permutations(range(n)):
            s = _perm_sign(w)
            for e, c in f.items():
                img = [0] * n
                for k in range(n):
                    img[w[k]] = e[k]
                img = tuple(img)
                anti[img] = anti.get(img, 0) + s * c
        r = {e: c for e, c in anti.items() if c}
        for i in range(n):
            for j in range(i + 1, n):
                r = _divide_linear(r, i, j)
        lead = r[lam]
        return {e: c / lead for e, c in r.items()}


def _n_stat(lam):
    return sum(i * x for i, x in enumerate(lam))


def hall_product(lam, mu, n, p):
    """{nu: g^nu_{lam mu}(p)} for types with n parts, as int coefficients."""
    hl = HallLittlewood(n, Fraction(1, p))
    rest = _mul(hl.P(lam), hl.P(mu))
    out = {}
    while rest:
        nu = max(rest)  # the lex-largest monomial of a symmetric polynomial is dominant
        f = rest[nu]
        out[nu] = f * Fraction(p) ** (_n_stat(nu) - _n_stat(lam) - _n_stat(mu))
        rest = _sub_scaled(rest, hl.P(nu), f)
    if any(c.denominator != 1 or c <= 0 for c in out.values()):
        raise ArithmeticError(f"non-positive or non-integral Hall number {out}")
    return {nu: int(c) for nu, c in out.items()}
