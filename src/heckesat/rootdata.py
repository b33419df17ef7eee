"""Based root data, Weyl groups, duality, and minuscule cocharacters.

A root datum is stored in a single lattice pair (X*, X_*) = (Z^rank, Z^rank)
with the standard dot pairing; roots live on the X* side, coroots on the
X_* side, in matching order.  A simple reflection x -> x - <a, x> a^v of
the cocharacter lattice is kept as its pair (a, a^v) alone; orbits and
invariance need only these, and the full closure, as integer matrices,
is built only where |W| is wanted.

Each constructor gives only its simple (root, coroot) pairs; the other
positive pairs come from one walk of simple reflections up the heights
(``_walk``), and the result is validated like any other datum.  The same
walk from a datum's own simple pairs decides its positive roots, and the
datum is refused unless the walk reaches exactly half of its pairs, the
rest being their negatives.  So a datum must be reduced: the root datum
of a reductive group is (Springer, Linear Algebraic Groups, 7.4.3), and
the walk never reaches 2a.
The constructors, the lattice bases they use, and the roots that result:

* ``GL(n)``   -- X* = X_* = Z^n, roots e_i - e_j, coroots e_i - e_j.
* ``SL(n)``   -- rank n-1; X* spanned by the images ebar_1..ebar_{n-1} of
  e_1..e_{n-1} modulo (1,...,1), so ebar_n = -(1,...,1); X_* the sum-zero
  sublattice in the dual coordinates, written by its first n-1 entries;
  roots ebar_i - ebar_j, coroots e_i - e_j.
* ``GSp(2g)`` -- rank g+1, basis (eps_1..eps_g, eta) with eta the
  similitude character; roots eps_i - eps_j, eps_i + eps_j - eta,
  2 eps_i - eta (type C_g), coroots eps_i - eps_j, eps_i + eps_j, eps_i.
* ``GSO(2n)`` -- rank n+1, basis (eps_1..eps_n, eta); roots eps_i - eps_j
  and eps_i + eps_j - eta (type D_n), coroots eps_i - eps_j, eps_i + eps_j.
* ``GSpin(2n+1)`` -- rank n+1, basis (e_1..e_n, e_0) with e_0 the
  similitude direction; roots e_i - e_j, e_i + e_j, e_i (type B_n);
  coroots f_i - f_j, f_i + f_j - f_0, 2 f_i - f_0, so the dual datum has
  a type C_n root system (dual group of GSp type).  This basis choice is
  the documented integral normalization of the similitude cocharacter.
"""

from __future__ import annotations

import json
import math
import re
from functools import cache, cached_property
from itertools import product

from .intmat import frozen, identity, int_tuple

MAX_WEYL_ELEMENTS = 10 ** 6


class RootDatumError(ValueError):
    pass


class WeylBoundError(RuntimeError):
    pass


@frozen
class RootDatum:
    name: str
    rank: int
    roots: tuple          # X*-vectors
    coroots: tuple        # X_*-vectors, same order as roots
    simple_indices: tuple  # indices into roots/coroots

    def pairing(self, char, cochar):
        return sum(a * b for a, b in zip(char, cochar))

    @cached_property
    def _positive(self):
        """Ascending indices of the pairs ``_walk`` reaches from the simple
        ones; RootDatumError unless those and their negatives are exactly
        the datum's pairs, each once."""
        pairs = list(zip(self.roots, self.coroots))
        up = _walk([pairs[i] for i in self.simple_indices], len(pairs) // 2)
        both = {*up, *_negatives(up)}
        if not len(pairs) == len(both) == 2 * len(up) or set(pairs) != both:
            raise RootDatumError(
                "the roots are not the pairs the simple roots reach and "
                "their negatives")
        index = {p: i for i, p in enumerate(pairs)}
        return tuple(sorted(index[p] for p in up))

    def positive_root_indices(self):
        return self._positive

    def delta(self):
        """Sum of all positive roots (an X*-vector)."""
        d = [0] * self.rank
        for i in self.positive_root_indices():
            for a in range(self.rank):
                d[a] += self.roots[i][a]
        return tuple(d)


@frozen
class WeylGroup:
    elements: tuple      # integer matrices acting on X_*


def validate(rd: RootDatum):
    """Check the root-datum axioms; raises RootDatumError on failure.

    In this order, cheapest first: the Cartan integers <a_i, a_j^>
    (i != j) of the simple pairs are at most 0, <a, a^> = 2 for every
    pair, each simple reflection permutes the roots and the coroots, and
    the pairs are those the simple pairs reach (``_walk``) and their
    negatives, each once, so the datum is reduced.
    """
    if len(rd.roots) != len(rd.coroots):
        raise RootDatumError("root/coroot count mismatch")
    for i in rd.simple_indices:
        for j in rd.simple_indices:
            if i != j and rd.pairing(rd.roots[i], rd.coroots[j]) > 0:
                raise RootDatumError("positive off-diagonal Cartan integer")
    for a, av in zip(rd.roots, rd.coroots):
        if rd.pairing(a, av) != 2:
            raise RootDatumError(f"<a, a^> != 2 for {a}, {av}")
    rootset = set(rd.roots)
    corootset = set(rd.coroots)
    for a, av in simple_reflections(rd):
        # dual reflection on X*: b -> b - <b, a^> a
        if any(apply_reflection((av, a), b) not in rootset for b in rd.roots):
            raise RootDatumError("simple reflection does not permute roots")
        # reflection on X_*: b^ -> b^ - <a, b^> a^
        if any(apply_reflection((a, av), bv) not in corootset
               for bv in rd.coroots):
            raise RootDatumError("simple reflection does not permute coroots")
    rd.positive_root_indices()  # the walk from the simple pairs
    return rd


# ---------------------------------------------------------------------------
# constructors

_NAME_RE = re.compile(r"^\s*(GL|SL|GSp|GSO|GSpin)\s*\(?\s*(\d+)\s*\)?\s*$", re.I)

_CANON = {"gl": "GL", "sl": "SL", "gsp": "GSp", "gso": "GSO", "gspin": "GSpin"}


def parse_group_name(name):
    m = _NAME_RE.match(name)
    if not m:
        raise RootDatumError(f"unknown group name {name!r}")
    return _CANON[m.group(1).lower()], int(m.group(2))


def build_group(name) -> RootDatum:
    """Construct the root datum of a named split group.

    Accepted spellings: ``GL(4)``, ``GL4``, ``GSp(6)``, ``GSO(8)``,
    ``GSpin(7)`` and case variants.  Each (family, size) is built and
    validated once and then shared for the life of the process, which a
    frozen datum allows; a bad name or size raises on every call.
    """
    return _build(*parse_group_name(name))


@cache
def _build(fam, size):
    if fam == "GL":
        return _build_gl(size)
    if fam == "SL":
        return _build_sl(size)
    if fam == "GSp":
        if size < 2 or size % 2:
            raise RootDatumError("GSp size must be even and >= 2")
        return _build_gsp(size // 2)
    if fam == "GSO":
        if size < 4 or size % 2:
            raise RootDatumError("GSO size must be even and >= 4")
        return _build_gso(size // 2)
    # GSpin, the last of the five families parse_group_name admits
    if size < 3 or size % 2 == 0:
        raise RootDatumError("GSpin size must be odd and >= 3")
    return _build_gspin((size - 1) // 2)


def _e(i, n):
    return tuple(1 if j == i else 0 for j in range(n))


def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _chain(k, rank):
    """The self-dual pairs e_i - e_{i+1}, i < k - 1, in Z^rank (type A_{k-1})."""
    return [(v, v) for v in (_vsub(_e(i, rank), _e(i + 1, rank))
                             for i in range(k - 1))]


def _negatives(pairs):
    return [tuple(tuple(-x for x in v) for v in p) for p in pairs]


def _walk(simple, bound):
    """The positive (root, coroot) pairs of the base ``simple``, by height.

    Every positive root is reached from a simple one by simple reflections
    that raise its height (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.2 Lemma B and 10.3 Theorem (c)).
    s_i is applied to a reached pair (b, b^) only when k = <b, a_i^> < 0;
    the image (b - k a_i, b^ - <a_i, b^> a_i^) is positive and its
    simple-root expansion differs from that of b in place i alone.  The
    pairs come by height and then by expansion (so the simple ones lead,
    in the given order).  RootDatumError once more than ``bound`` pairs
    are reached: from pairs that are not a base, such as {a, -a}, the
    walk can climb without end.
    """
    r = len(simple)
    found = {_e(i, r): pair for i, pair in enumerate(simple)}
    gens = [(_sparse(a), _sparse(av)) for a, av in simple]
    frontier = list(found)
    while frontier:
        if len(found) > bound:
            raise RootDatumError(
                f"the simple roots reach more than {bound} positive roots")
        nxt = []
        for c in frontier:
            b, bv = found[c]
            for i, (a, av) in enumerate(gens):
                k = 0
                for j, x in av:
                    k += x * b[j]
                if k >= 0:
                    continue
                up = c[:i] + (c[i] - k,) + c[i + 1:]
                if up not in found:
                    found[up] = (apply_reflection((av, a), b),
                                 apply_reflection((a, av), bv))
                    nxt.append(up)
        frontier = nxt
    order = sorted(found, key=lambda c: (sum(c), [-x for x in c]))
    return [found[c] for c in order]


def _from_simple(name, rank, simple):
    """The validated datum whose simple (root, coroot) pairs are ``simple``:
    the pairs of ``_walk`` and then their negatives."""
    pairs = _walk(simple, math.inf)
    pairs += _negatives(pairs)
    return validate(RootDatum(name, rank, tuple(b for b, _ in pairs),
                              tuple(bv for _, bv in pairs),
                              tuple(range(len(simple)))))


def _build_gl(n):
    if n < 1:
        raise RootDatumError("GL size must be >= 1")
    return _from_simple(f"GL({n})", n, _chain(n, n))


def _build_sl(n):
    if n < 2:
        raise RootDatumError("SL size must be >= 2")
    rank = n - 1
    # ebar_1..ebar_n in X* = Z^n / (1,..,1), with ebar_n = -(1,..,1); the
    # coroot e_i - e_{i+1} in sum-zero coordinates keeps its first n-1 entries
    bar = [_e(i, rank) for i in range(rank)] + [(-1,) * rank]
    return _from_simple(f"SL({n})", rank, [
        (_vsub(bar[i], bar[i + 1]), _vsub(_e(i, n), _e(i + 1, n))[:rank])
        for i in range(rank)])


def _build_gsp(g):
    # (eps_1..eps_g, eta): 2 eps_g - eta with coroot eps_g closes the chain
    return _from_simple(f"GSp({2 * g})", g + 1, _chain(g, g + 1) + [
        ((0,) * (g - 1) + (2, -1), (0,) * (g - 1) + (1, 0))])


def _build_gso(n):
    # (eps_1..eps_n, eta): eps_{n-1} + eps_n - eta, coroot eps_{n-1} + eps_n
    return _from_simple(f"GSO({2 * n})", n + 1, _chain(n, n + 1) + [
        ((0,) * (n - 2) + (1, 1, -1), (0,) * (n - 2) + (1, 1, 0))])


def _build_gspin(n):
    # (e_1..e_n, e_0): the short root e_n with coroot 2 f_n - f_0
    return _from_simple(f"GSpin({2 * n + 1})", n + 1, _chain(n, n + 1) + [
        ((0,) * (n - 1) + (1, 0), (0,) * (n - 1) + (2, -1))])


def dual(rd: RootDatum) -> RootDatum:
    """Dual root datum: swap characters with cocharacters."""
    name = rd.name[5:-1] if rd.name.startswith("dual(") else f"dual({rd.name})"
    return validate(RootDatum(name, rd.rank, rd.coroots, rd.roots,
                              rd.simple_indices))


# ---------------------------------------------------------------------------
# Weyl groups and cocharacter combinatorics

def simple_reflections(rd: RootDatum):
    """The simple reflections x -> x - <a, x> a^v of X_*, in simple_indices
    order, each as the nonzero entries ((j, a_j), ...) of the root a and
    ((i, a^v_i), ...) of the coroot a^v."""
    return tuple((_sparse(rd.roots[i]), _sparse(rd.coroots[i]))
                 for i in rd.simple_indices)


def _sparse(v):
    return tuple((j, x) for j, x in enumerate(v) if x)


def apply_reflection(s, x):
    """s(x) = x - <a, x> a^v for s = (a, a^v) from ``simple_reflections``.

    One pairing and one update per nonzero entry of a^v; x itself is
    returned when <a, x> = 0, the one case where s fixes x.
    """
    a, av = s
    k = 0
    for j, c in a:
        k += c * x[j]
    if not k:
        return x
    y = list(x)
    for i, c in av:
        y[i] -= k * c
    return tuple(y)


def weyl_group(rd: RootDatum) -> WeylGroup:
    """Closure of the simple reflections acting on X_*.

    An element is kept as the tuple of its column images, so s.w reflects
    each column; the matrices are formed once, at the end.
    """
    gens = simple_reflections(rd)
    seen = {identity(rd.rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                sw = tuple(apply_reflection(s, col) for col in w)
                if sw not in seen:
                    seen.add(sw)
                    nxt.append(sw)
                    if len(seen) > MAX_WEYL_ELEMENTS:
                        raise WeylBoundError(
                            f"Weyl closure exceeds {MAX_WEYL_ELEMENTS} elements"
                        )
        frontier = nxt
    return WeylGroup(tuple(sorted(tuple(zip(*w)) for w in seen)))


def _cocharacter(rd: RootDatum, mu):
    """mu as a tuple; RootDatumError unless it is exactly rd.rank ints."""
    return int_tuple(mu, rd.rank, f"{rd.name} cocharacter",
                     RootDatumError)


def is_minuscule(rd: RootDatum, mu) -> bool:
    """True iff <alpha, mu> lies in {-1, 0, 1} for every root alpha."""
    mu = _cocharacter(rd, mu)
    return all(rd.pairing(a, mu) in (-1, 0, 1) for a in rd.roots)


def is_dominant(rd: RootDatum, mu) -> bool:
    mu = _cocharacter(rd, mu)
    return all(rd.pairing(rd.roots[i], mu) >= 0
               for i in rd.positive_root_indices())


def dominant_representative(rd: RootDatum, mu):
    """The unique dominant vector in the Weyl orbit of mu."""
    mu = _cocharacter(rd, mu)
    gens = simple_reflections(rd)
    changed = True
    while changed:
        changed = False
        for s in gens:
            if sum(c * mu[j] for j, c in s[0]) < 0:
                mu = apply_reflection(s, mu)
                changed = True
    return mu


def orbit(gens, mu):
    """Orbit of mu under the reflections gens, as a set.

    Pass ``simple_reflections(rd)`` for the full Weyl orbit of a
    cocharacter; no group element beyond the generators is formed.
    """
    mu = tuple(mu)
    seen = {mu}
    frontier = [mu]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = apply_reflection(s, x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def enumerate_dominant_minuscule(rd: RootDatum):
    """Dominant minuscule cocharacters with coordinates in {0, 1}.

    Every noncentral minuscule orbit of the constructor groups has a
    representative in the {0,1} box under the documented bases.
    """
    return [mu for mu in product((0, 1), repeat=rd.rank)
            if is_minuscule(rd, mu) and is_dominant(rd, mu)]


def named_cocharacter(rd: RootDatum, alias):
    """Resolve a documented cocharacter alias for a constructor group.

    * GL(n): ``std`` = (1, 0, ..., 0); ``central`` = (1, ..., 1).
    * GSp(2g): ``siegel`` = (1, ..., 1, 1).
    * GSO(2n): ``half-spin`` = (1, ..., 1, 1).
    * GSpin(2n+1): ``spin`` = (1, 0, ..., 0, 0), the unique noncentral
      dominant minuscule cocharacter in the documented basis; ``central``
      = the similitude direction e_0.
    * SL(n): none; it has no nonzero central cocharacter.
    """
    fam, size = parse_group_name(rd.name)
    alias = alias.lower().replace("_", "-")
    n = rd.rank
    if alias == "central":
        if fam == "GL":
            return tuple(1 for _ in range(n))
        if fam in ("GSp", "GSO"):
            # z with <eps_i - eps_j, z> = 0 and <eps_i + eps_j - eta, z> = 0
            return tuple(1 for _ in range(n - 1)) + (2,)
        if fam == "GSpin":
            return _e(n - 1, n)  # the e_0 direction
    if fam == "GL" and alias in ("std", "standard"):
        return _e(0, n)
    if fam == "GSp" and alias == "siegel":
        return tuple(1 for _ in range(n))
    if fam == "GSO" and alias == "half-spin":
        return tuple(1 for _ in range(n))
    if fam == "GSpin" and alias == "spin":
        return _e(0, n)
    raise RootDatumError(f"no cocharacter alias {alias!r} for {rd.name}")


# ---------------------------------------------------------------------------
# serialization

def to_dict(rd: RootDatum):
    return {
        "name": rd.name,
        "rank": rd.rank,
        "roots": [list(r) for r in rd.roots],
        "coroots": [list(c) for c in rd.coroots],
        "simple_indices": list(rd.simple_indices),
    }


def from_dict(d) -> RootDatum:
    """Parse the form of ``to_dict``; RootDatumError unless it is a dict
    of a name string, a positive rank and ints of the right lengths that
    form a root datum."""
    match d:
        case {"name": str(name), "rank": rank, "roots": list(roots),
              "coroots": list(coroots), "simple_indices": list(simple)}:
            pass
        case _:
            raise RootDatumError("a root datum is a dict of a name string, "
                                 "a rank and lists of roots, coroots and "
                                 "simple indices")
    (rank,) = int_tuple((rank,), 1, "rank", RootDatumError)
    if rank < 1:
        raise RootDatumError(f"rank {rank} is not positive")
    roots = tuple(int_tuple(r, rank, "root", RootDatumError) for r in roots)
    simple = int_tuple(simple, len(simple), "simple indices", RootDatumError)
    if any(i not in range(len(roots)) for i in simple):
        raise RootDatumError(
            f"simple indices {simple} are not all in range({len(roots)})")
    return validate(RootDatum(
        name, rank, roots,
        tuple(int_tuple(c, rank, "coroot", RootDatumError) for c in coroots),
        simple))


def to_json(rd: RootDatum) -> str:
    return json.dumps(to_dict(rd), sort_keys=True)


def from_json(s) -> RootDatum:
    return from_dict(json.loads(s))
