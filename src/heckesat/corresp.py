"""Finite point-set model of the correspondence algebra with Frobenius.

Varieties are modeled by their finite sets of points over an extension
field, zero-cycles by integer coefficient vectors, and correspondences
by integer weight matrices; composition is matrix product and the graph
of Frobenius is a permutation matrix.  This is deliberately a
0-dimensional sanity model: rational equivalence collapses, so the
vanishing criterion (a correspondence killed by every point mass is
zero) is exact linear algebra.
"""

from __future__ import annotations

import json
import operator

from .intmat import frozen, int_tuple, mat_mul


class CorrespError(ValueError):
    pass


@frozen
class FinitePointSet:
    """Point set of a variety over F_{q^m} with its Frobenius permutation."""
    size: int
    frobenius: tuple   # permutation of range(size), i -> frobenius[i]
    q: int
    m: int

    def __post_init__(self):
        if self.q < 2 or self.m < 1:
            raise CorrespError(f"need q >= 2 and m >= 1, got q = {self.q}, "
                               f"m = {self.m}")
        if sorted(self.frobenius) != list(range(self.size)):
            raise CorrespError("frobenius is not a permutation")
        # frobenius**m is the identity iff every cycle length divides m
        seen = [False] * self.size
        for start in range(self.size):
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = self.frobenius[i]
                length += 1
            if length and self.m % length:
                raise CorrespError("frobenius**m is not the identity")


@frozen
class Correspondence:
    source: FinitePointSet
    target: FinitePointSet
    weights: tuple  # integer matrix, source.size x target.size

    def __post_init__(self):
        w = self.weights
        if len(w) != self.source.size or any(
                len(r) != self.target.size for r in w):
            raise CorrespError("weight matrix shape mismatch")

    def _entrywise(self, op, other):
        if (self.source, self.target) != (other.source, other.target):
            raise CorrespError("mismatched point sets in sum")
        return Correspondence(self.source, self.target, tuple(
            tuple(map(op, r1, r2))
            for r1, r2 in zip(self.weights, other.weights)))

    def __add__(self, other):
        return self._entrywise(operator.add, other)

    def __sub__(self, other):
        return self._entrywise(operator.sub, other)


@frozen
class CycleZero:
    base: FinitePointSet
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != self.base.size:
            raise CorrespError("cycle length mismatch")

    @classmethod
    def point_mass(cls, base, index):
        if index not in range(base.size):
            raise CorrespError(f"point index {index} is not in "
                               f"range({base.size})")
        return cls(base, tuple(int(i == index) for i in range(base.size)))

    def is_zero(self):
        return all(c == 0 for c in self.coefficients)


def identity_corr(v: FinitePointSet) -> Correspondence:
    return graph_corr(v, v, range(v.size))


def graph_corr(source: FinitePointSet, target: FinitePointSet,
               mapping) -> Correspondence:
    """Graph of a map source -> target given as an index sequence: row i
    is the unit vector at mapping[i]."""
    if len(mapping) != source.size or not all(
            0 <= j < target.size for j in mapping):
        raise CorrespError("mapping is not a map from source to target")
    zeros = (0,) * target.size
    return Correspondence(source, target, tuple(
        zeros[:j] + (1,) + zeros[j + 1:] for j in mapping))


def frobenius_corr(v: FinitePointSet) -> Correspondence:
    """Graph of the q-power Frobenius as a permutation matrix."""
    return graph_corr(v, v, v.frobenius)


def compose(c: Correspondence, d: Correspondence) -> Correspondence:
    if c.target != d.source:
        raise CorrespError("middle point sets do not match")
    if not d.source.size:  # no row of d to give the product its width
        return Correspondence(c.source, d.target,
                              tuple((0,) * d.target.size for _ in c.weights))
    return Correspondence(c.source, d.target, mat_mul(c.weights, d.weights))


def act(p: CycleZero, c: Correspondence) -> CycleZero:
    """Right action of a correspondence on a zero-cycle: the row vector
    of coefficients times the weight matrix."""
    if p.base != c.source:
        raise CorrespError("cycle base does not match correspondence source")
    if not c.source.size:
        return CycleZero(c.target, (0,) * c.target.size)
    (coeffs,) = mat_mul((p.coefficients,), c.weights)
    return CycleZero(c.target, coeffs)


def vanishing_test(c: Correspondence) -> bool:
    """True iff every point mass is annihilated.  The point mass at i acts
    as row i of the weight matrix, so this holds iff every row is zero."""
    return not any(map(any, c.weights))


# ---------------------------------------------------------------------------
# serialization

def point_set_to_dict(v: FinitePointSet):
    return {"size": v.size, "frobenius": list(v.frobenius),
            "q": v.q, "m": v.m}


def point_set_from_dict(d) -> FinitePointSet:
    match d:
        case {"size": size, "frobenius": frobenius, "q": q, "m": m}:
            pass
        case _:
            raise CorrespError("a point set is a dict of size, frobenius, q "
                               "and m")
    size, q, m = int_tuple((size, q, m), 3, "size, q and m", CorrespError)
    return FinitePointSet(
        size, int_tuple(frobenius, size, "frobenius", CorrespError), q, m)


def corr_to_dict(c: Correspondence):
    return {"source": point_set_to_dict(c.source),
            "target": point_set_to_dict(c.target),
            "weights": [list(r) for r in c.weights]}


def corr_from_dict(d) -> Correspondence:
    match d:
        case {"source": source, "target": target, "weights": list(weights)}:
            pass
        case _:
            raise CorrespError("a correspondence is a dict of source, target "
                               "and a list of weight rows")
    source = point_set_from_dict(source)
    target = point_set_from_dict(target)
    return Correspondence(source, target, tuple(
        int_tuple(r, target.size, "weight row", CorrespError)
        for r in weights))


def corr_to_json(c) -> str:
    return json.dumps(corr_to_dict(c), sort_keys=True)


def corr_from_json(s) -> Correspondence:
    return corr_from_dict(json.loads(s))
