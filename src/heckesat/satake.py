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
times the elementary symmetric function e_{m-k} of the m orbit exponentials,
so the integer maps e_0, ..., e_m are all a polynomial stores; the exact
Laurent coefficients are built only when asked for.

The maps are kept on Kronecker keys: at digit width s the exponent nu
becomes the int <w, nu>, w = (1, 2**s, 2**(2s), ...), read as balanced
base-2**s digits.  Keys add as exponents do and are distinct on vectors
with every |x| < 2**(s-1), so cancellation among keys is cancellation in
Z[X_*].  Tuple exponents are decoded only where they are read.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import add, mul

from .intmat import frozen, int_tuple
from .laurent import Laurent
from .rootdata import (
    RootDatum,
    apply_reflection,
    dominant_representative,
    is_dominant,
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
        (self.rank,) = int_tuple((rank,), 1, "rank", SatakeError)
        d = {}
        if terms:
            for lam, c in terms.items():
                lam = int_tuple(lam, self.rank, "exponent", SatakeError)
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
        lam = tuple(lam)
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

    def __repr__(self):
        return " + ".join(f"({self.terms[lam]})*e^{lam}"
                          for lam in sorted(self.terms)) or "0"


def is_weyl_invariant(gens, terms) -> bool:
    """True iff every reflection in gens fixes the {exponent: coefficient} map.

    Then the whole group they generate fixes it, so passing
    ``simple_reflections(rd)`` tests invariance under the Weyl group.
    A reflection s permutes exponents, so it fixes the map iff the map
    holds the coefficient c at s(lam) for every term c e^lam; nothing is
    built, and a term with <a, lam> = 0 needs no lookup.
    """
    for s in gens:
        for lam, c in terms.items():
            img = apply_reflection(s, lam)
            if img is not lam and terms.get(img) != c:
                return False
    return True


def _width(bound):
    """The least digit width s with 2**(s-1) > bound."""
    return bound.bit_length() + 1


def _weights(width, rank):
    """(1, 2**s, 2**(2s), ...): the key of nu is the dot product with them."""
    return [1 << (width * i) for i in range(rank)]


def _key(nu, weights):
    return sum(map(mul, nu, weights))


def _decode(keys, width, rank):
    """The exponent tuples of ``keys``, in order: the inverse of ``_key`` on
    vectors with every |x| < 2**(width-1).

    Adding the key of (h, ..., h), h = 2**(width-1), makes every balanced
    digit x + h lie in [0, 2**width), so plain shifts and masks read it;
    each coordinate is read for all keys at once.
    """
    half = 1 << (width - 1)
    offset = _key((half,) * rank, _weights(width, rank))
    mask = (1 << width) - 1
    keys = [key + offset for key in keys]
    return zip(*[[((key >> s) & mask) - half for key in keys]
                 for s in range(0, width * rank, width)])


def _pack(elementary, rank, reach=0):
    """(width, bound, keyed maps) of {exponent tuple: int} maps: bound is
    their largest coordinate, and the width holds every exponent moved by
    up to ``reach`` in each coordinate.  SatakeError unless every exponent
    is ``rank`` ints."""
    elementary = tuple(elementary)
    bound = max((abs(x) for e in elementary for nu in e
                 for x in int_tuple(nu, rank, "exponent", SatakeError)),
                default=0)
    width = _width(bound + reach)
    weights = _weights(width, rank)
    return width, bound, tuple({_key(nu, weights): c for nu, c in e.items()}
                               for e in elementary)


class HeckePolynomialSatake:
    """A polynomial sum_k (-1)**(m-k) v**(d(m-k)) e_{m-k} t**k, m = degree.

    ``maps[j]`` is e_j, j = 0..degree, as {key: nonzero int} at digit
    ``width``, every exponent coordinate within ``bound``; ``elementary``
    decodes them to {exponent tuple: int} maps on each read.  Every field
    is set here, once: tuple maps are packed at the width of their largest
    coordinate, and ``keyed = (width, bound, maps)`` passes packed ones.
    Tuple maps other than degree + 1 maps of rank-long int exponents raise
    SatakeError.
    """

    __slots__ = ("mu", "d", "degree", "rank", "width", "bound", "maps")

    def __init__(self, mu, d, degree, elementary, rank, *, keyed=None):
        self.mu, self.d, self.degree, self.rank = mu, d, degree, rank
        if keyed is None:
            keyed = _pack(elementary, rank)
            if len(keyed[2]) != degree + 1:
                raise SatakeError(f"degree {degree} needs {degree + 1} maps")
        self.width, self.bound, self.maps = keyed

    @property
    def elementary(self):
        return tuple(dict(zip(_decode(e, self.width, self.rank), e.values()))
                     for e in self.maps)

    def __eq__(self, other):
        if not isinstance(other, HeckePolynomialSatake):
            return NotImplemented
        return ((self.mu, self.d, self.degree, self.rank, self.elementary)
                == (other.mu, other.d, other.degree, other.rank,
                    other.elementary))

    @property
    def coefficients(self):
        """The exact t**k coefficients, ascending in k, built on access."""
        m, d = self.degree, self.d
        return tuple(
            GroupAlgebraElement._trusted(self.rank, {
                lam: Laurent.v_power(d * (m - k), (-1) ** (m - k) * c)
                for lam, c in e.items()})
            for k, e in enumerate(reversed(self.elementary)))


def hecke_polynomial(rd: RootDatum, mu) -> HeckePolynomialSatake:
    """Expand prod_{lam in W.mu} (t - v**d e^lam) by powers of t.

    e_0 .. e_h, h = m // 2, are expanded on keys by e_j += e^lam e_{j-1}
    (j descending); the rest follow from the functional equation
    e_{m-j}(x) = e_m(x) e_j(x**-1), that is e_{m-j}[sigma - nu] = e_j[nu]
    with sigma the sum of the orbit (Macdonald, Symmetric Functions and
    Hall Polynomials, I.2).  Raises TermBoundError as soon as the maps,
    counted with their mirror images, would hold more than TERM_BOUND
    terms in all: the counts only grow, so this refuses exactly the
    polynomials whose full expansion exceeds the bound.  Raises SatakeError
    unless every simple reflection maps the orbit into itself: it then
    permutes the j-subsets of the orbit, so every e_j is Weyl invariant.
    """
    mu = int_tuple(mu, rd.rank, "rank-length cocharacter", SatakeError)
    if not is_minuscule(rd, mu):
        raise SatakeError(f"{mu} is not minuscule for {rd.name}")
    mu = dominant_representative(rd, mu)
    gens = simple_reflections(rd)
    orb = sorted(orbit(gens, mu))
    if not is_weyl_invariant(gens, dict.fromkeys(orb, 1)):
        raise SatakeError("non-Weyl-invariant Hecke coefficient")
    d = rd.pairing(rd.delta(), mu)
    m = len(orb)
    h = m // 2
    # exponents are sums of at most m orbit vectors; evaluate_vanishing at
    # an orbit element reaches 2 * bound, so it runs on these keys
    bound = m * max(abs(x) for lam in orb for x in lam)
    width = _width(2 * bound)
    weights = _weights(width, rd.rank)
    keys = [_key(lam, weights) for lam in orb]
    # e_j for j < m - j counts twice; e_h, when m = 2h, is its own mirror
    weight = [2] * h + [2 if m % 2 else 1]
    e = [{0: 1}] + [{} for _ in range(h)]
    total = weight[0]
    for j, lam in enumerate(keys, 1):
        for i in range(min(j, h), 0, -1):
            upper = e[i]
            size = len(upper)
            get = upper.get
            for key, c in e[i - 1].items():
                key += lam
                upper[key] = get(key, 0) + c
            total += weight[i] * (len(upper) - size)
            if total > TERM_BOUND:
                raise TermBoundError(
                    f"the Hecke polynomial of {rd.name} at {mu} needs more "
                    f"than the bound of {TERM_BOUND} e_j terms")
    sigma = sum(keys)
    e += [{sigma - key: c for key, c in e[m - j].items()}
          for j in range(h + 1, m + 1)]
    return HeckePolynomialSatake(mu, d, m, None, rd.rank,
                                 keyed=(width, bound, tuple(e)))


def evaluate_vanishing(H: HeckePolynomialSatake,
                       lam=None) -> GroupAlgebraElement:
    """Substitute t := v**d e^lam (default lam = mu); contract: zero.

    Every term of H(v**d e^lam) = v**(dm) sum_k (-1)**(m-k) e_{m-k} e^(k lam)
    carries v**(dm), so the sum runs on one {key: int} map that drops each
    entry the moment it cancels; nothing is left when H vanishes at lam.
    Each exponent is a stored one plus k lam, k <= m; when that needs more
    digits than H's keys have, the sum runs on a wider local copy.
    """
    lam = int_tuple(H.mu if lam is None else lam, H.rank,
                    "rank-length exponent", SatakeError)
    m, width, maps = H.degree, H.width, H.maps
    reach = m * max(map(abs, lam), default=0)
    if _width(H.bound + reach) > width:
        width, _, maps = _pack(H.elementary, H.rank, reach)
    step = _key(lam, _weights(width, H.rank))
    acc = {}
    for k, ej in enumerate(reversed(maps)):
        sign = (-1) ** (m - k)
        shift = k * step
        for key, c in ej.items():
            key += shift
            a = acc.get(key, 0) + sign * c
            if a:
                acc[key] = a
            else:
                del acc[key]
    return GroupAlgebraElement._trusted(H.rank, {
        nu: Laurent.v_power(H.d * m, a)
        for nu, a in zip(_decode(acc, width, H.rank), acc.values())})


# ---------------------------------------------------------------------------
# specialization at Satake parameters

@frozen
class SatakeParameterSymmetric:
    """Exact values assigned to Weyl-orbit sums of exponentials.

    ``values`` maps the dominant member of each needed orbit to a scalar:
    a Fraction/int, or a Laurent in v read modulo v**2 - p; the trivial
    orbit {0} is 1 unless given.  ``p`` is the prime used to evaluate the
    v-powers multiplying each orbit sum.
    """
    values: dict
    p: int


def specialize(H: HeckePolynomialSatake, s: SatakeParameterSymmetric,
               rd: RootDatum):
    """Replace each orbit sum by its assigned scalar and v**2 by p.

    Raises SatakeError unless every coefficient is Weyl invariant, that is
    constant on each orbit; it is then the sum of c_lam times the orbit sum
    of lam over its dominant exponents lam, one per orbit.  Returns the list
    of scalar coefficients in ascending degree; entries are Fraction when
    rational, else the reduced Laurent a + b*v.
    """
    if H.rank != rd.rank:
        raise SatakeError(f"rank {H.rank} polynomial on {rd.name}")
    gens = simple_reflections(rd)
    m, out = H.degree, []
    for k, e in enumerate(reversed(H.elementary)):
        if not is_weyl_invariant(gens, e):
            raise SatakeError("element is not constant on a Weyl orbit")
        power, sign = H.d * (m - k), (-1) ** (m - k)
        total = Laurent()
        for rep, c in e.items():
            if not is_dominant(rd, rep):
                continue
            if rep in s.values:
                val = s.values[rep]
            elif any(rep):
                raise SatakeError(f"no Satake value assigned to orbit {rep}")
            else:
                val = 1  # the trivial orbit sum e^0 is the unit
            total += Laurent.v_power(power, sign * c) * val
        total = total.eval_quad(s.p)
        out.append(total if 1 in total.coeffs
                   else Fraction(total.coeffs.get(0, 0)))
    return out


# ---------------------------------------------------------------------------
# serialization

def polynomial_to_dict(H: HeckePolynomialSatake):
    """Per t**k, the terms [exponent, [[d(m-k), [c, 1]]]] by exponent; each
    e_{m-k} is decoded and sorted on its own."""
    m, d = H.degree, H.d
    return {"mu": list(H.mu), "d": d, "degree": m, "rank": H.rank,
            "coefficients": [
                [[list(lam), [[d * (m - k), [(-1) ** (m - k) * c, 1]]]]
                 for lam, c in sorted(zip(_decode(e, H.width, H.rank),
                                          e.values()))]
                for k, e in enumerate(reversed(H.maps))]}


def polynomial_from_dict(data) -> HeckePolynomialSatake:
    """Parse the form of ``polynomial_to_dict``; SatakeError on any other."""
    match data:
        case {"mu": mu, "d": d, "degree": m, "rank": rank,
              "coefficients": list(coeffs)} if all(
                  isinstance(entry, list) for entry in coeffs):
            pass
        case _:
            raise SatakeError("a polynomial is a dict of mu, d, degree, rank "
                              "and coefficients, a list of term lists")
    rank, d, m = int_tuple((rank, d, m), 3, "rank, d and degree", SatakeError)
    if m < 0:
        raise SatakeError(f"degree {m} is negative")
    if rank < 1:
        raise SatakeError(f"rank {rank} is not positive")
    mu = int_tuple(mu, rank, "mu", SatakeError)
    if len(coeffs) != m + 1:
        raise SatakeError(
            f"degree {m} needs {m + 1} coefficients, got {len(coeffs)}")
    elementary = [None] * (m + 1)
    for k, entry in enumerate(coeffs):
        sign, e = (-1) ** (m - k), {}
        for term in entry:
            match term:
                case [list(lam), [[v, [num, den]]]]:
                    pass
                case [list(lam), list(pairs)] if len(pairs) != 1:
                    v = None
                case _:
                    raise SatakeError(f"the t^{k} term {term!r} is not "
                                      f"[exponent, [[v-power, [num, den]]]]")
            lam = int_tuple(lam, len(lam), "exponent", SatakeError)
            if len(lam) != rank or lam in e:
                raise SatakeError(f"exponent {lam} is repeated or not of "
                                  f"rank {rank}")
            if not isinstance(v, int) or v != d * (m - k):
                raise SatakeError(
                    f"the t^{k} coefficient at {lam} is not one multiple "
                    f"of v^{d * (m - k)}")
            if (not isinstance(num, int) or not isinstance(den, int)
                    or den != 1 or num == 0):
                raise SatakeError(f"the t^{k} coefficient {num}/{den} at "
                                  f"{lam} is not a nonzero integer")
            e[lam] = sign * num
        elementary[m - k] = e
    return HeckePolynomialSatake(mu, d, m, elementary, rank)


def polynomial_to_json(H: HeckePolynomialSatake) -> str:
    return json.dumps(polynomial_to_dict(H), sort_keys=True)


def polynomial_from_json(s) -> HeckePolynomialSatake:
    return polynomial_from_dict(json.loads(s))
