"""Exact Laurent polynomials in the formal half-power v (v**2 = q).

All coefficient arithmetic is exact: coefficients are Python ints or
``fractions.Fraction``.  The zero polynomial is the empty coefficient map;
no stored coefficient is ever zero.  The same type serves as the scalar
ring Q[v]/(v**2 - p) once q is fixed to a prime p: ``eval_quad`` reduces
a Laurent to its canonical form a + b*v.
"""

from __future__ import annotations

from fractions import Fraction


def _norm_scalar(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class Laurent:
    """A Laurent polynomial in v, stored as {exponent: coefficient}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if not isinstance(e, int):
                    raise ValueError(f"exponent {e!r} is not an int")
                if not isinstance(c, (int, Fraction)):
                    raise ValueError(
                        f"coefficient {c!r} is not an int or a Fraction")
                c = _norm_scalar(c)
                if c != 0:
                    d[e] = c
        self.coeffs = d

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def v_power(cls, e, c=1):
        return cls({e: c})

    @classmethod
    def from_scalar(cls, c):
        return cls({0: c})

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            d[e] = d.get(e, 0) + c
        return Laurent(d)

    def __neg__(self):
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        d = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return Laurent(d)

    __rmul__ = __mul__

    def scale(self, c):
        if c == 0:
            return Laurent()
        return Laurent({e: k * c for e, k in self.coeffs.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers of a general Laurent polynomial")
        out = Laurent.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def eval_quad(self, p):
        """The reduced form a + b*v equal to self when v**2 = p.

        Returns a Laurent with exponents in {0, 1}: v**e is
        p**(e // 2) * v**(e % 2), also for negative e since v is
        invertible, so this is the ring map onto Q[v]/(v**2 - p).
        """
        d = {}
        for e, c in self.coeffs.items():
            half, rem = divmod(e, 2)
            c = c * p ** half if half >= 0 else Fraction(c, p ** -half)
            d[rem] = d.get(rem, 0) + c
        return Laurent(d)

    def __repr__(self):
        def term(e, c):
            power = "v" if e == 1 else f"v^{e}"
            return f"{c}" if e == 0 else power if c == 1 else f"{c}*{power}"
        return " + ".join(term(e, self.coeffs[e]) for e in
                          sorted(self.coeffs, reverse=True)) or "0"
