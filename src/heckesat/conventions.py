"""Shared sign and normalization conventions.

Each convention is documented here once; items 1-2 name the code applying it.

1. Cocharacter vs torus coset.  A cocharacter chi of the diagonal torus
   corresponds to the coset of chi(pi**-1), where pi is the uniformizer.
   Concretely diag(p**v_1, ..., p**v_n) * T(Z_p) is labeled by the
   exponent chi = (-v_1, ..., -v_n).  ``padic.satake_numeric`` applies
   this sign when it reads the monomial x**a as the exponent -a, and
   ``tests/coset_reference.py`` when it reads off a coset's diagonal.

2. Modulus twist.  The numeric Satake transform multiplies the
   coefficient at exponent chi by v**(<delta, chi>) with delta the sum
   of positive roots and v**2 = p.  ``tests/coset_reference.py`` applies
   this twist coset by coset; ``padic.satake_numeric`` applies it as
   v**(<delta, lam>) to the whole transform of K p**lam K.

3. Reflection between the two Satake sides.  The symbolic Hecke
   polynomial writes orbit exponentials with dominant (nonnegative)
   exponents, while the numeric transform of a nonnegative-type double
   coset produces nonpositive exponents under convention 1.  The two
   sides agree after the single reflection lam -> -lam; ``reflect``
   applies it.

4. Minuscule weight orbits.  The construction of the Hecke polynomial
   as prod_{lam in W.mu} (t - v**d e^lam) relies on the classical
   theorem that the weights of the irreducible representation of the
   dual group with minuscule highest weight mu form exactly one Weyl
   orbit, each with multiplicity one.  This licenses replacing the
   characteristic polynomial of that representation by the orbit
   product; no matrix representation is ever built.
"""


def reflect(x):
    """Apply the exponent reflection lam -> -lam to a group algebra element."""
    from .satake import GroupAlgebraElement
    return GroupAlgebraElement(
        x.rank, {tuple(-v for v in lam): c for lam, c in x.terms.items()})
