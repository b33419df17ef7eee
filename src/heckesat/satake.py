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
the orbit exponentials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .intmat import mat_vec
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


class SatakeError(ValueError):
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

    def __add__(self, other):
        self._check(other)
        d = dict(self.terms)
        for lam, c in other.terms.items():
            d[lam] = d.get(lam, Laurent.zero()) + c
        return GroupAlgebraElement(self.rank, d)

    def __neg__(self):
        return GroupAlgebraElement(self.rank,
                                   {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Laurent)):
            return self.scale(other)
        self._check(other)
        d = {}
        for l1, c1 in self.terms.items():
            for l2, c2 in other.terms.items():
                lam = tuple(a + b for a, b in zip(l1, l2))
                d[lam] = d.get(lam, Laurent.zero()) + c1 * c2
        return GroupAlgebraElement(self.rank, d)

    __rmul__ = __mul__

    def scale(self, c):
        if not isinstance(c, Laurent):
            c = Laurent.from_scalar(c)
        return GroupAlgebraElement(self.rank,
                                   {lam: k * c for lam, k in self.terms.items()})

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
    d = {}
    for lam, c in x.terms.items():
        img = mat_vec(w, lam)
        d[img] = d.get(img, Laurent.zero()) + c
    return GroupAlgebraElement(x.rank, d)


def is_weyl_invariant(gens, x: GroupAlgebraElement) -> bool:
    """True iff every matrix in gens fixes x.

    Then the whole group they generate fixes x, so passing
    ``simple_reflections(rd)`` tests invariance under the Weyl group.
    """
    return all(weyl_act(g, x) == x for g in gens)


@dataclass(frozen=True)
class HeckePolynomialSatake:
    mu: tuple
    d: int
    degree: int
    coefficients: tuple  # GroupAlgebraElement, ascending degree, len degree+1
    rank: int


def hecke_polynomial(rd: RootDatum, mu) -> HeckePolynomialSatake:
    """Expand prod_{lam in W.mu} (t - v**d e^lam) by powers of t."""
    mu = tuple(mu)
    if not is_minuscule(rd, mu):
        raise SatakeError(f"{mu} is not minuscule for {rd.name}")
    mu = dominant_representative(rd, mu)
    gens = simple_reflections(rd)
    orb = sorted(orbit(gens, mu))
    d = rd.pairing(rd.delta(), mu)
    vd = Laurent.v_power(d)
    # coeffs[k] = coefficient of t**k, built by repeated multiplication
    coeffs = [GroupAlgebraElement.one(rd.rank)]
    for lam in orb:
        root = GroupAlgebraElement.exp(lam, vd)
        new = [GroupAlgebraElement.zero(rd.rank) for _ in range(len(coeffs) + 1)]
        for k, c in enumerate(coeffs):
            new[k + 1] = new[k + 1] + c
            new[k] = new[k] - root * c
        coeffs = new
    H = HeckePolynomialSatake(mu, d, len(orb), tuple(coeffs), rd.rank)
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


def evaluate_polynomial(H: HeckePolynomialSatake, x: GroupAlgebraElement):
    """Substitute t := x into the expanded coefficient form."""
    out = GroupAlgebraElement.zero(H.rank)
    power = GroupAlgebraElement.one(H.rank)
    for c in H.coefficients:
        out = out + c * power
        power = power * x
    return out


def evaluate_vanishing(H: HeckePolynomialSatake,
                       lam=None) -> GroupAlgebraElement:
    """Substitute t := v**d e^lam (default lam = mu); contract: zero."""
    lam = tuple(lam) if lam is not None else H.mu
    return evaluate_polynomial(
        H, GroupAlgebraElement.exp(lam, Laurent.v_power(H.d)))


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
