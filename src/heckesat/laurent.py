"""Exact Laurent polynomials in the formal half-power v (v**2 = q).

All coefficient arithmetic is exact: coefficients are Python ints or
``fractions.Fraction``.  The zero polynomial is the empty coefficient map;
no stored coefficient is ever zero.
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
                c = _norm_scalar(c)
                if c != 0:
                    d[int(e)] = c
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
        """Evaluate in Q[v]/(v**2 - p), returning a QuadExt."""
        a = Fraction(0)
        b = Fraction(0)
        for e, c in self.coeffs.items():
            # v**e = p**(e // 2) * v**(e % 2); for negative e the floor
            # division still gives v**e exactly since v is invertible.
            half, rem = divmod(e, 2)
            scale = Fraction(p) ** half
            if rem == 0:
                a += c * scale
            else:
                b += c * scale
        return QuadExt(a, b, p)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*v" if c != 1 else "v")
            else:
                parts.append(f"{c}*v^{e}" if c != 1 else f"v^{e}")
        return " + ".join(parts)


class QuadExt:
    """Element a + b*v of the quadratic extension Q[v]/(v**2 - p)."""

    __slots__ = ("a", "b", "p")

    def __init__(self, a, b=0, p=None):
        if p is None:
            raise ValueError("QuadExt needs the prime p with v**2 = p")
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.p = int(p)

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("mixed QuadExt primes")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a + other, self.b, self.p)
        self._check(other)
        return QuadExt(self.a + other.a, self.b + other.b, self.p)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.p)

    def __sub__(self, other):
        return self + (-other if isinstance(other, QuadExt) else -Fraction(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.a * other, self.b * other, self.p)
        self._check(other)
        return QuadExt(
            self.a * other.a + self.p * self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.p,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.p == other.p and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.p))

    def is_rational(self):
        return self.b == 0

    def __repr__(self):
        if self.b == 0:
            return f"{self.a}"
        return f"{self.a} + {self.b}*sqrt({self.p})"
