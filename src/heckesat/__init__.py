"""Exact spherical Hecke algebra and Satake transform calculus.

Subpackages:

* :mod:`heckesat.laurent` -- exact Laurent polynomials in v (v**2 = q),
  reduced to a + b*v in Q[v]/(v**2 - p) by ``Laurent.eval_quad``.
* :mod:`heckesat.intmat` -- integer-matrix normal forms at a prime.
* :mod:`heckesat.rootdata` -- based root data, Weyl groups, duality,
  minuscule cocharacters.
* :mod:`heckesat.satake` -- group algebra of the cocharacter lattice,
  Hecke polynomials, vanishing identity, specialization.
* :mod:`heckesat.padic` -- concrete GL_n(Q_p) coset layer: double-coset
  decomposition, convolution, numeric Satake transform.
* :mod:`heckesat.corresp` -- finite point-set correspondence algebra
  with Frobenius.
* :mod:`heckesat.elliptic` -- elliptic curves over small finite fields,
  traces of Frobenius, and the pointwise congruence-relation check.
* :mod:`heckesat.conventions` -- the shared sign conventions.
"""

from .elliptic import EllipticCurve
from .padic import DoubleCosetSum, PCoset, convolve_double, satake_numeric
from .rootdata import RootDatum, build_group, weyl_group
from .satake import GroupAlgebraElement, hecke_polynomial

__version__ = "0.1.0"

__all__ = [
    "EllipticCurve",
    "DoubleCosetSum",
    "PCoset",
    "convolve_double",
    "satake_numeric",
    "RootDatum",
    "build_group",
    "weyl_group",
    "GroupAlgebraElement",
    "hecke_polynomial",
    "__version__",
]
