"""Group algebra of the cocharacter lattice and the Hecke polynomial.

Elements live in C[X_*] with coefficients that are exact Laurent
polynomials in the formal half-power v (v**2 = q).  A cocharacter chi
corresponds to the torus double coset of chi(pi**-1); this sign
convention is fixed in :mod:`heckesat.conventions` and shared with the
concrete coset layer.

The Hecke polynomial of a dominant minuscule cocharacter mu is

    H = prod_{lam in W.mu} (t - v**d * e^lam),    d = <delta, mu>,

where delta is the sum of positive roots.  This uses the classical fact
that the weights of the irreducible representation of the dual group
with minuscule highest weight form a single Weyl orbit with multiplicity
one, so the characteristic polynomial of t - q^{d/2} r(g) factors over
the orbit exponentials.  Its t**k coefficient is (-1)**(m-k) v**(d(m-k))
times the elementary symmetric function e_{m-k} of the m orbit exponentials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .intmat import apply_moved, moved_rows
from .laurent import Laurent, QuadExt
from .rootdata import (
    ParabolicData,
    RootDatum,
    _reflection_matrix_costar,
    dominant_representative,
    is_minuscule,
    orbit,
    simple_reflections,
)


TERM_BOUND = 10 ** 6  # most e_j terms one Hecke polynomial may hold


class SatakeError(ValueError):
    pass


class TermBoundError(RuntimeError):
    pass


class GroupAlgebraElement:
    """Finite sum of terms c_lam * e^lam with Laurent coefficients."""

    __slots__ = ("terms", "rank")

    def __init__(self, rank, terms=None):
        self.rank = int(rank)
        d = {}
        if terms:
            for lam, c in terms.items():
                lam = tuple(int(x) for x in lam)
                if len(lam) != self.rank:
                    raise SatakeError("exponent rank mismatch")
                if not isinstance(c, Laurent):
                    c = Laurent.from_scalar(c)
                if not c.is_zero():
                    d[lam] = c
        self.terms = d

    @classmethod
    def zero(cls, rank):
        return cls(rank)

    @classmethod
    def one(cls, rank):
        return cls(rank, {tuple(0 for _ in range(rank)): Laurent.one()})

    @classmethod
    def exp(cls, lam, coeff=None):
        lam = tuple(int(x) for x in lam)
        return cls(len(lam), {lam: coeff if coeff is not None else Laurent.one()})

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.rank != other.rank:
            raise SatakeError("rank mismatch")

    @classmethod
    def _trusted(cls, rank, terms):
        """Wrap int-tuple exponents and Laurent coefficients; drop zeros."""
        x = cls.__new__(cls)
        x.rank = rank
        x.terms = {lam: c for lam, c in terms.items() if not c.is_zero()}
        return x

    def __add__(self, other):
        self._check(other)
        d = dict(self.terms)
        for lam, c in other.terms.items():
            d[lam] = d[lam] + c if lam in d else c
        return GroupAlgebraElement._trusted(self.rank, d)

    def __neg__(self):
        return GroupAlgebraElement._trusted(
            self.rank, {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Laurent)):
            return self.scale(other)
        self._check(other)
        d = {}
        for l1, c1 in self.terms.items():
            for l2, c2 in other.terms.items():
                lam = tuple(map(add, l1, l2))
                d[lam] = d[lam] + c1 * c2 if lam in d else c1 * c2
        return GroupAlgebraElement._trusted(self.rank, d)

    __rmul__ = __mul__

    def scale(self, c):
        if not isinstance(c, Laurent):
            c = Laurent.from_scalar(c)
        return GroupAlgebraElement._trusted(
            self.rank, {lam: k * c for lam, k in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def is_integral(self):
        return all(c.is_integral() for c in self.terms.values())

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for lam in sorted(self.terms):
            parts.append(f"({self.terms[lam]})*e^{lam}")
        return " + ".join(parts)


def weyl_act(w, x: GroupAlgebraElement) -> GroupAlgebraElement:
    """Apply a Weyl matrix to every exponent; a ring automorphism."""
    if len(w) != x.rank:
        raise SatakeError("rank mismatch between Weyl matrix and element")
    rows = moved_rows(w)
    d = {apply_moved(rows, lam): c for lam, c in x.terms.items()}
    if len(d) != len(x.terms):
        raise SatakeError("Weyl matrix is singular: two exponents collide")
    return GroupAlgebraElement._trusted(x.rank, d)


def is_weyl_invariant(gens, x: GroupAlgebraElement) -> bool:
    """True iff every matrix in gens fixes x.

    Then the whole group they generate fixes x, so passing
    ``simple_reflections(rd)`` tests invariance under the Weyl group.
    A Weyl matrix permutes exponents, so g fixes x iff x has the
    coefficient c at g.lam for every term c e^lam; no element is built,
    and a term that g fixes needs no lookup.
    """
    terms = x.terms
    for rows in map(moved_rows, gens):
        for lam, c in terms.items():
            img = apply_moved(rows, lam)
            if img is not lam and terms.get(img) != c:
                return False
    return True


@dataclass(frozen=True)
class HeckePolynomialSatake:
    mu: tuple
    d: int
    degree: int
    coefficients: tuple  # GroupAlgebraElement, ascending degree, len degree+1
    rank: int


def hecke_polynomial(rd: RootDatum, mu) -> HeckePolynomialSatake:
    """Expand prod_{lam in W.mu} (t - v**d e^lam) by powers of t.

    Every factor has the scalar v**d, so only the elementary symmetric
    functions e_j of the orbit exponentials are expanded, on {exponent: int}
    maps by e_j += e^lam e_{j-1} (j descending); then the t**k coefficient
    is (-1)**(m-k) v**(d(m-k)) e_{m-k}, m = |W.mu|.  Raises TermBoundError
    as soon as the maps hold more than TERM_BOUND terms in all.
    """
    mu = tuple(mu)
    if not is_minuscule(rd, mu):
        raise SatakeError(f"{mu} is not minuscule for {rd.name}")
    mu = dominant_representative(rd, mu)
    gens = simple_reflections(rd)
    orb = sorted(orbit(gens, mu))
    d = rd.pairing(rd.delta(), mu)
    m = len(orb)
    e = [{(0,) * rd.rank: 1}] + [{} for _ in orb]
    total = 1
    for j, lam in enumerate(orb, 1):
        for i in range(j, 0, -1):
            upper = e[i]
            total -= len(upper)
            for key, c in e[i - 1].items():
                key = tuple(map(add, key, lam))
                upper[key] = upper.get(key, 0) + c
            total += len(upper)
            if total > TERM_BOUND:
                raise TermBoundError(
                    f"the Hecke polynomial of {rd.name} at {mu} needs more "
                    f"than the bound of {TERM_BOUND} e_j terms")
    coeffs = tuple(
        GroupAlgebraElement._trusted(rd.rank, {
            lam: Laurent.v_power(d * (m - k), (-1) ** (m - k) * c)
            for lam, c in e[m - k].items()})
        for k in range(m + 1))
    H = HeckePolynomialSatake(mu, d, m, coeffs, rd.rank)
    _validate_polynomial(rd, gens, H)
    return H


def _validate_polynomial(rd, gens, H):
    top = H.coefficients[-1]
    if top != GroupAlgebraElement.one(rd.rank):
        raise SatakeError("Hecke polynomial is not monic")
    for c in H.coefficients:
        if not is_weyl_invariant(gens, c):
            raise SatakeError("non-Weyl-invariant Hecke coefficient")
        if not c.is_integral():
            raise SatakeError(
                f"non-integral v-coefficient in the Hecke polynomial of "
                f"{rd.name} at {H.mu}; flagged for review"
            )


def evaluate_vanishing(H: HeckePolynomialSatake,
                       lam=None) -> GroupAlgebraElement:
    """Substitute t := v**d e^lam (default lam = mu); contract: zero.

    H(v**d e^lam) = sum_k c_k v**(dk) e^(k lam) is summed on one flat
    {(exponent, v-power): coefficient} map that drops each entry the
    moment it cancels, so nothing is left when H vanishes at lam.
    """
    lam = tuple(int(x) for x in lam) if lam is not None else H.mu
    if len(lam) != H.rank:
        raise SatakeError("rank mismatch")
    acc = {}
    for k, c in enumerate(H.coefficients):
        shift = tuple(k * x for x in lam)
        for nu, lau in c.terms.items():
            nu = tuple(map(add, nu, shift))
            for e, a in lau.coeffs.items():
                key = (nu, e + H.d * k)
                a += acc.get(key, 0)
                if a:
                    acc[key] = a
                else:
                    del acc[key]
    out = {}
    for (nu, e), a in acc.items():
        out.setdefault(nu, {})[e] = a
    return GroupAlgebraElement._trusted(
        H.rank, {nu: Laurent(coeffs) for nu, coeffs in out.items()})


def restrict_to_levi(H: HeckePolynomialSatake, rd: RootDatum,
                     levi: ParabolicData) -> HeckePolynomialSatake:
    """Inclusion of full-Weyl invariants into Levi-Weyl invariants.

    The coefficient data is unchanged, so H itself is returned after
    re-verifying that every coefficient is invariant under the reflections
    in the Levi roots; errors out otherwise.
    """
    gens = tuple(
        _reflection_matrix_costar(rd.roots[i], rd.coroots[i], rd.rank)
        for i in levi.levi_root_indices
    )
    for c in H.coefficients:
        if not is_weyl_invariant(gens, c):
            raise RuntimeError("coefficient not invariant under the Levi Weyl "
                               "group; internal inconsistency")
    return H


# ---------------------------------------------------------------------------
# specialization at Satake parameters

@dataclass(frozen=True)
class SatakeParameterSymmetric:
    """Exact values assigned to Weyl-orbit sums of exponentials.

    ``values`` maps the dominant representative of each needed orbit to a
    scalar: a Fraction/int or a QuadExt over Z[v]/(v**2 - p).  ``p`` is
    the prime used to evaluate the v-powers multiplying each orbit sum.
    """
    values: dict
    p: int


def orbit_sum_decomposition(rd: RootDatum, x: GroupAlgebraElement):
    """Express a Weyl-invariant element as {orbit representative: Laurent}.

    Orbit representatives are the dominant vectors, the lexicographically
    largest element of each orbit.  Raises if the element is not constant
    on some orbit.
    """
    out = {}
    for lam, c in x.terms.items():
        rep = dominant_representative(rd, lam)
        if rep in out:
            if out[rep] != c:
                raise SatakeError("element is not constant on a Weyl orbit")
        else:
            out[rep] = c
    return out


def specialize(H: HeckePolynomialSatake, s: SatakeParameterSymmetric,
               rd: RootDatum):
    """Replace each orbit sum by its assigned scalar and v**2 by p.

    Returns the list of scalar coefficients in ascending degree; entries
    are Fraction when rational, else QuadExt.
    """
    out = []
    for c in H.coefficients:
        dec = orbit_sum_decomposition(rd, c)
        total = QuadExt(0, 0, s.p)
        for rep, lau in dec.items():
            if rep not in s.values:
                if all(x == 0 for x in rep):
                    val = 1  # the trivial orbit sum e^0 is the unit
                else:
                    raise SatakeError(f"no Satake value assigned to orbit {rep}")
            else:
                val = s.values[rep]
            if not isinstance(val, QuadExt):
                val = QuadExt(val, 0, s.p)
            total = total + lau.eval_quad(s.p) * val
        out.append(total.a if total.is_rational() else total)
    return out


# ---------------------------------------------------------------------------
# serialization

def polynomial_to_dict(H: HeckePolynomialSatake):
    return {
        "mu": list(H.mu),
        "d": H.d,
        "degree": H.degree,
        "rank": H.rank,
        "coefficients": [
            sorted(
                ([list(lam), [[e, [c.numerator, c.denominator]
                               if isinstance(c, Fraction) else [c, 1]]
                              for e, c in coeff.terms[lam].to_pairs()]]
                 for lam in coeff.terms),
            )
            for coeff in H.coefficients
        ],
    }


def polynomial_from_dict(data) -> HeckePolynomialSatake:
    rank = int(data["rank"])
    coeffs = []
    for entry in data["coefficients"]:
        terms = {}
        for lam, pairs in entry:
            terms[tuple(int(x) for x in lam)] = Laurent(
                {int(e): Fraction(num, den) for e, (num, den) in pairs})
        coeffs.append(GroupAlgebraElement(rank, terms))
    return HeckePolynomialSatake(
        tuple(int(x) for x in data["mu"]), int(data["d"]),
        int(data["degree"]), tuple(coeffs), rank)


def polynomial_to_json(H: HeckePolynomialSatake) -> str:
    return json.dumps(polynomial_to_dict(H), sort_keys=True)


def polynomial_from_json(s) -> HeckePolynomialSatake:
    return polynomial_from_dict(json.loads(s))
