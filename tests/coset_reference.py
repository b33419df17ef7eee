"""Left-coset expansion of the spherical Hecke algebra of GL_n(Q_p).

A reference for the tests, independent of the closed forms in
:mod:`heckesat.padic`.  A left-coset sum is a dict {PCoset: Fraction}
with no zero coefficients.  The Satake transform here is the
definition: restrict to the Borel (automatic for the upper-triangular
Hermite representatives), read the diagonal off onto the torus, and
twist the coefficient at exponent chi by v**<delta, chi>.
"""

from fractions import Fraction

from heckesat.intmat import mat_mul, p_valuation
from heckesat.laurent import Laurent
from heckesat.padic import (
    PCoset,
    decompose_double_coset,
    gl_delta,
    reduce_mod_v2,
)
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
                _add(out, PCoset.from_matrix(mat_mul(g.rep, hi.rep), h.p,
                                             g.shift + hi.shift), cf * ch)
    return _nonzero(out)


def sigma_to_torus(f, n):
    """Diagonal read-off: diag(p**v_i) carries the exponent chi = -v."""
    out = {}
    for g, c in f.items():
        chi = tuple(-p_valuation(g.rep[i][i], g.p) - g.shift
                    for i in range(n))
        _add(out, chi, c)
    return GroupAlgebraElement(n, out)


def satake_by_expansion(h):
    """The numeric Satake transform of h, reduced modulo v**2 - p."""
    delta = gl_delta(h.n)
    torus = sigma_to_torus(expand(h), h.n)
    return reduce_mod_v2(GroupAlgebraElement(h.n, {
        chi: c * Laurent.v_power(sum(d * x for d, x in zip(delta, chi)))
        for chi, c in torus.terms.items()}), h.p)
