import itertools
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add, mul

import pytest
from hypothesis import given, settings, strategies as st

from heckesat import satake as sk
from heckesat.cli import ALL_GROUPS
from heckesat.laurent import Laurent
from heckesat.rootdata import (
    build_group,
    dominant_representative,
    enumerate_dominant_minuscule,
    is_dominant,
    named_cocharacter,
    orbit,
    simple_reflections,
    weyl_group,
)
from heckesat.satake import (
    GroupAlgebraElement as G,
    HeckePolynomialSatake,
    SatakeError,
    SatakeParameterSymmetric,
    evaluate_vanishing,
    hecke_polynomial,
    is_weyl_invariant,
    specialize,
)


def test_group_algebra_ring_laws():
    x = G.exp((1, 0)) + G.exp((0, 1), Laurent.v_power(2))
    y = G.exp((1, 1)) - G.one(2)
    assert x * y == y * x
    assert x * (y + y) == x * y + x * y
    assert x * G.one(2) == x
    assert (x - x).is_zero()


def test_is_weyl_invariant():
    gens = simple_reflections(build_group("GL(2)"))
    assert is_weyl_invariant(gens, G.one(2).terms)
    assert is_weyl_invariant(gens, (G.exp((1, 0)) + G.exp((0, 1))).terms)
    assert not is_weyl_invariant(gens, G.exp((1, 0)).terms)
    assert not is_weyl_invariant(gens,
                                 (G.exp((1, 0)) + G.exp((0, 1), 2)).terms)
    assert is_weyl_invariant(gens, {(1, 0): 3, (0, 1): 3})
    assert not is_weyl_invariant(gens, {(1, 0): 3, (0, 1): -3})


@pytest.mark.parametrize("build", [
    lambda: G(2, {(1.5, 0): 1}),
    lambda: G(2, {(1, 0, 0): 1}),
    lambda: G(2.5, {}),
    lambda: G.exp((Fraction(1), 0)),
], ids=["float-exponent", "wrong-rank", "float-rank", "fraction-exponent"])
def test_group_algebra_refuses_non_int_exponents(build):
    with pytest.raises(SatakeError, match="ints"):
        build()


def test_gl2_hecke_polynomial_exact():
    rd = build_group("GL(2)")
    H = hecke_polynomial(rd, (1, 0))
    assert H.degree == 2 and H.d == 1
    v = Laurent.v_power(1)
    assert H.coefficients[2] == G.one(2)
    assert H.coefficients[1] == -(G.exp((1, 0), v) + G.exp((0, 1), v))
    assert H.coefficients[0] == G.exp((1, 1), Laurent.v_power(2))


def test_central_case_degree_one():
    rd = build_group("GSp(4)")
    z = named_cocharacter(rd, "central")
    H = hecke_polynomial(rd, z)
    assert H.degree == 1 and H.d == 0
    assert evaluate_vanishing(H).is_zero()


def test_non_minuscule_rejected():
    rd = build_group("GL(2)")
    with pytest.raises(SatakeError):
        hecke_polynomial(rd, (2, 0))


def test_non_dominant_input_replaced():
    rd = build_group("GL(2)")
    assert hecke_polynomial(rd, (0, 1)) == hecke_polynomial(rd, (1, 0))


GROUPS = ["GL(2)", "GL(3)", "GL(4)", "GSp(4)", "GSp(6)", "GSO(8)", "GSpin(7)"]


@pytest.mark.parametrize("name", GROUPS)
def test_vanishing_all_dominant_minuscule(name):
    rd = build_group(name)
    for mu in enumerate_dominant_minuscule(rd):
        H = hecke_polynomial(rd, mu)
        assert evaluate_vanishing(H).is_zero()


def test_vanishing_at_every_orbit_element():
    rd = build_group("GSp(4)")
    mu = named_cocharacter(rd, "siegel")
    H = hecke_polynomial(rd, mu)
    for lam in orbit(simple_reflections(rd), mu):
        assert evaluate_vanishing(H, lam).is_zero()


@pytest.mark.parametrize("name", GROUPS)
def test_coefficients_invariant_and_integral(name):
    rd = build_group(name)
    gens = simple_reflections(rd)
    for mu in enumerate_dominant_minuscule(rd):
        H = hecke_polynomial(rd, mu)
        assert H.coefficients[-1] == G.one(rd.rank)
        for c in H.coefficients:
            assert is_weyl_invariant(gens, c.terms)
        assert all(type(x) is int for e in H.elementary for x in e.values())


def test_degree_d_table():
    table = [("GL(2)", "std", 2, 1), ("GSp(4)", "siegel", 4, 3),
             ("GSp(6)", "siegel", 8, 6), ("GSO(8)", "half-spin", 8, 6),
             ("GSpin(7)", "spin", 6, 5)]
    for name, alias, degree, d in table:
        rd = build_group(name)
        H = hecke_polynomial(rd, named_cocharacter(rd, alias))
        assert (H.degree, H.d) == (degree, d)


def test_specialize_gl2():
    rd = build_group("GL(2)")
    H = hecke_polynomial(rd, (1, 0))
    p, a_p = 7, 3
    s = SatakeParameterSymmetric(
        {(1, 0): Laurent.v_power(1, Fraction(a_p, p)), (1, 1): 1}, p)
    coeffs = specialize(H, s, rd)
    assert coeffs == [Fraction(p), Fraction(-a_p), Fraction(1)]
    assert all(type(c) is Fraction for c in coeffs)


def test_specialize_irrational_coefficient():
    # t**2 - v e^(1,0)-sum t + v**2 e^(1,1) at orbit values 1: t**2 - v t + 5
    rd = build_group("GL(2)")
    H = hecke_polynomial(rd, (1, 0))
    s = SatakeParameterSymmetric({(1, 0): 1, (1, 1): 1}, 5)
    assert specialize(H, s, rd) == [Fraction(5), Laurent({1: -1}),
                                     Fraction(1)]


def test_specialize_all_zero_gives_t_power():
    rd = build_group("GL(2)")
    H = hecke_polynomial(rd, (1, 0))
    s = SatakeParameterSymmetric({(1, 0): 0, (1, 1): 0}, 5)
    assert specialize(H, s, rd) == [0, 0, Fraction(1)]


def test_specialize_missing_orbit_raises():
    rd = build_group("GL(2)")
    H = hecke_polynomial(rd, (1, 0))
    with pytest.raises(SatakeError):
        specialize(H, SatakeParameterSymmetric({(1, 1): 1}, 5), rd)


def test_specialize_refuses_a_non_invariant_coefficient():
    # a loaded GL(2) polynomial whose t**1 coefficient is -v e^(1,0) alone;
    # read by its dominant terms alone it would give [5, -v, 1] at orbit
    # values 1 and p = 5, an answer with no meaning
    rd = build_group("GL(2)")
    data = sk.polynomial_to_dict(hecke_polynomial(rd, (1, 0)))
    data["coefficients"][1] = [t for t in data["coefficients"][1]
                               if t[0] != [0, 1]]
    H = sk.polynomial_from_dict(data)
    s = SatakeParameterSymmetric({(1, 0): 1, (1, 1): 1}, 5)
    with pytest.raises(SatakeError, match="not constant on a Weyl orbit"):
        specialize(H, s, rd)


def test_specialize_refuses_a_root_datum_of_another_rank():
    H = hecke_polynomial(build_group("GL(2)"), (1, 0))
    s = SatakeParameterSymmetric({(1, 0): 1, (1, 1): 1}, 5)
    with pytest.raises(SatakeError, match="rank 2"):
        specialize(H, s, build_group("GL(3)"))


def evaluate_polynomial(H, x):
    """Substitute t := x into the coefficient form by group algebra
    products; the reference for ``evaluate_vanishing``."""
    out = G.zero(H.rank)
    power = G.one(H.rank)
    for c in H.coefficients:
        out = out + c * power
        power = power * x
    return out


def _substitute(H, lam):
    return evaluate_polynomial(H, G.exp(lam, Laurent.v_power(H.d)))


@pytest.mark.parametrize("name, alias", [("GL(3)", "std"),
                                         ("GSp(4)", "siegel"),
                                         ("GSpin(7)", "spin"),
                                         ("GSO(8)", "half-spin")])
def test_evaluate_vanishing_matches_reference(name, alias):
    rd = build_group(name)
    mu = named_cocharacter(rd, alias)
    H = hecke_polynomial(rd, mu)
    orb = orbit(simple_reflections(rd), mu)
    for lam in sorted(orb):
        got = evaluate_vanishing(H, lam)
        assert got == _substitute(H, lam) and got.is_zero()
    # off the orbit H(v**d e^lam) = prod (v**d e^lam - v**d e^nu) != 0
    for lam in ((0,) * rd.rank, tuple(2 * x for x in mu),
                mu[:-1] + (mu[-1] - 1,)):
        assert lam not in orb
        got = evaluate_vanishing(H, lam)
        assert got == _substitute(H, lam) and not got.is_zero()


LOADED = {  # e_0 = 2, e_1 = -3 e^(1,0) + 5 e^(0,1), e_2 = 5 e^(1,1); d = 1
    "mu": [1, 0], "d": 1, "degree": 2, "rank": 2,
    "coefficients": [
        [[[1, 1], [[2, [5, 1]]]]],
        [[[0, 1], [[1, [-5, 1]]]], [[1, 0], [[1, [3, 1]]]]],
        [[[0, 0], [[0, [2, 1]]]]]]}


def test_evaluate_vanishing_on_loaded_polynomial():
    # at lam = (1, 0): v**2 (e_2 - e_1 e^lam + e_0 e^(2 lam)); the e^(1,1)
    # terms 5 - 5 cancel, leaving (3 + 2) v**2 e^(2,0)
    H = sk.polynomial_from_json(json.dumps(LOADED))
    assert H.elementary == ({(0, 0): 2}, {(1, 0): -3, (0, 1): 5},
                            {(1, 1): 5})
    assert sk.polynomial_to_dict(H) == LOADED
    expected = G.exp((2, 0), Laurent.v_power(2, 5))
    assert evaluate_vanishing(H, (1, 0)) == _substitute(H, (1, 0)) == expected
    assert evaluate_vanishing(H) == expected
    got = evaluate_vanishing(H, (0, 1))
    assert got == _substitute(H, (0, 1)) == (
        G.exp((1, 1), Laurent.v_power(2, 8))
        + G.exp((0, 2), Laurent.v_power(2, -3)))
    with pytest.raises(SatakeError, match="rank"):
        evaluate_vanishing(H, (1, 0, 0))


def _spoiled(edit):
    data = json.loads(json.dumps(LOADED))
    edit(data)
    return data


@pytest.mark.parametrize("data, match", [
    (_spoiled(lambda d: d["coefficients"].pop()), "needs 3 coefficients"),
    (_spoiled(lambda d: d.update(degree=3)), "needs 4 coefficients"),
    (_spoiled(lambda d: d["coefficients"][1][0][0].append(0)), "rank 2"),
    (_spoiled(lambda d: d["coefficients"][1][1].__setitem__(0, [0, 1])),
     "\\(0, 1\\) is repeated"),
    (_spoiled(lambda d: d["coefficients"][1][0][1].append([0, [1, 1]])),
     "one multiple of v\\^1"),
    (_spoiled(lambda d: d["coefficients"][0][0][1][0].__setitem__(0, 1)),
     "one multiple of v\\^2"),
    (_spoiled(lambda d: d["coefficients"][2][0][1][0].__setitem__(1, [1, 2])),
     "1/2 at \\(0, 0\\) is not a nonzero integer"),
    (_spoiled(lambda d: d["coefficients"][1][1][1][0].__setitem__(1, [0, 1])),
     "0/1 at \\(1, 0\\) is not a nonzero integer"),
    (_spoiled(lambda d: d["coefficients"][1][0].__setitem__(0, [0.9, 1.9])),
     "exponent \\(0.9, 1.9\\) is not 2 ints"),
    (_spoiled(lambda d: d.update(mu=[1.5, 0])),
     "mu \\(1.5, 0\\) is not 2 ints"),
    (_spoiled(lambda d: d.update(rank="2")), "is not 3 ints"),
    # no polynomial has these shapes; one loaded would "vanish" everywhere
    (_spoiled(lambda d: d.update(degree=-1, rank=0, mu=[], coefficients=[])),
     "degree -1 is negative"),
    (_spoiled(lambda d: d.update(degree=-1, coefficients=[])),
     "degree -1 is negative"),
    (_spoiled(lambda d: d.update(rank=0, mu=[])), "rank 0 is not positive"),
    # malformed shapes are refused as such, not with a bare Python error
    (_spoiled(lambda d: d["coefficients"][1].__setitem__(0, [[0, 1]])),
     "term \\[\\[0, 1\\]\\] is not \\[exponent"),
    (_spoiled(lambda d: d["coefficients"][1].__setitem__(0, 5)),
     "term 5 is not \\[exponent"),
    (_spoiled(lambda d: d["coefficients"][1][0][1].__setitem__(0, [1, 5])),
     "term .* is not \\[exponent"),
    (_spoiled(lambda d: d["coefficients"][1][0][1][0].__setitem__(1, [1])),
     "term .* is not \\[exponent"),
    (_spoiled(lambda d: d.update(degree=1, coefficients=[5, []])),
     "coefficients, a list of term lists"),
    (_spoiled(lambda d: d.update(coefficients=5)), "a list of term lists"),
    (_spoiled(lambda d: d.pop("mu")), "a dict of mu"),
    (_spoiled(lambda d: d.update(mu=5)), "mu 5 is not 2 ints"),
    # inexact numbers equal to the right ints
    (_spoiled(lambda d: d["coefficients"][2][0][1].__setitem__(
        0, [0.0, [1, 1]])), "one multiple of v\\^0"),
    (_spoiled(lambda d: d["coefficients"][2][0][1][0].__setitem__(
        1, [1, 1.0])), "1/1.0 at \\(0, 0\\) is not a nonzero integer"),
], ids=["too-few", "too-many", "rank", "repeated", "two-powers",
        "wrong-power", "fraction", "zero", "float-exponent", "float-mu",
        "string-rank", "empty", "negative-degree", "zero-rank",
        "term-not-pair", "term-not-list", "pair-not-power",
        "pair-not-fraction", "coefficient-not-list", "coefficients-not-list",
        "missing-mu", "int-mu", "float-power", "float-denominator"])
def test_polynomial_loader_rejects(data, match):
    with pytest.raises(SatakeError, match=match):
        sk.polynomial_from_dict(data)


def test_hecke_polynomial_rejects_cocharacter_of_wrong_shape():
    rd = build_group("GL(2)")
    for mu in ((1, 0, 0), (1,)):
        with pytest.raises(SatakeError, match="rank"):
            hecke_polynomial(rd, mu)
    with pytest.raises(SatakeError, match="ints"):
        hecke_polynomial(rd, (1.0, 0))


def test_evaluate_vanishing_rejects_non_integer_exponent():
    H = hecke_polynomial(build_group("GL(2)"), (1, 0))
    with pytest.raises(SatakeError, match="ints"):
        evaluate_vanishing(H, (1.7, 0))


def test_polynomial_json_roundtrip():
    rd = build_group("GSp(4)")
    H = hecke_polynomial(rd, named_cocharacter(rd, "siegel"))
    assert sk.polynomial_from_json(sk.polynomial_to_json(H)) == H
    s1 = sk.polynomial_to_json(H)
    s2 = sk.polynomial_to_json(sk.polynomial_from_json(s1))
    assert s1 == s2


# ---------------------------------------------------------------------------
# the elementary-symmetric construction of hecke_polynomial

def _dominant_minuscule_cases(names):
    return [(name, mu) for name in names
            for mu in enumerate_dominant_minuscule(build_group(name))]


REFERENCE_CASES = (
    _dominant_minuscule_cases(ALL_GROUPS + ("GL(5)", "GSp(8)", "GSpin(9)"))
    + [("GSO(10)", (1, 0, 0, 0, 0, 0))])  # vector
CLOSED_FORM_CASES = REFERENCE_CASES + [  # and the two GSO(10) half-spins
    ("GSO(10)", (1, 1, 1, 1, 0, 1)), ("GSO(10)", (1, 1, 1, 1, 1, 1))]


def _expand_by_multiplication(rd, mu):
    """prod_{lam in W.mu} (t - v**d e^lam), one linear factor at a time.

    Returns the coefficients of t**0, t**1, ... as group algebra elements.
    """
    mu = dominant_representative(rd, mu)
    vd = Laurent.v_power(rd.pairing(rd.delta(), mu))
    coeffs = [G.one(rd.rank)]
    for lam in sorted(orbit(simple_reflections(rd), mu)):
        root = G.exp(lam, vd)
        new = [G.zero(rd.rank) for _ in range(len(coeffs) + 1)]
        for k, c in enumerate(coeffs):
            new[k + 1] = new[k + 1] + c
            new[k] = new[k] - root * c
        coeffs = new
    return coeffs


def _case_ids(cases):
    return [f"{name}-{''.join(map(str, mu))}" for name, mu in cases]


@pytest.mark.parametrize("name, mu", REFERENCE_CASES,
                         ids=_case_ids(REFERENCE_CASES))
def test_hecke_polynomial_matches_repeated_multiplication(name, mu):
    rd = build_group(name)
    H = hecke_polynomial(rd, mu)
    expected = _expand_by_multiplication(rd, mu)
    assert H.degree == len(expected) - 1
    for k, (got, want) in enumerate(zip(H.coefficients, expected)):
        assert got == want, f"coefficient of t**{k}"


FUNCTIONAL_EQUATION_CASES = _dominant_minuscule_cases(
    ("GL(2)", "GL(3)", "GL(4)", "GL(5)", "GSp(4)", "GSp(6)", "GSp(8)",
     "GSO(8)", "GSO(10)", "GSpin(7)", "GSpin(9)")) + [
    # a large central part: e_3 = e^(43, 43, 43) is out of reach of a key
    # width fitted to the orbit box alone (|x| <= 2 * 15)
    ("GL(3)", (15, 14, 14))]


@pytest.mark.parametrize("name, mu", FUNCTIONAL_EQUATION_CASES,
                         ids=_case_ids(FUNCTIONAL_EQUATION_CASES))
def test_every_elementary_function_matches_the_full_expansion(name, mu):
    # e_j over all j-subsets of the orbit, which is read off the Weyl
    # closure; hecke_polynomial expands only e_0 .. e_{m//2} itself
    rd = build_group(name)
    orb = {tuple(sum(map(mul, row, mu)) for row in w)
           for w in weyl_group(rd).elements}
    H = hecke_polynomial(rd, mu)
    assert H.degree == len(orb) and len(H.elementary) == len(orb) + 1
    for j, ej in enumerate(H.elementary):
        full = Counter(tuple(map(sum, zip(*subset))) if subset
                       else (0,) * rd.rank
                       for subset in combinations(sorted(orb), j))
        assert ej == full, f"e_{j}"


def test_evaluation_far_outside_the_orbit_box_widens_the_keys():
    # GSp(8) siegel (16 orbit points, coordinates 0/1) is packed for
    # exponents up to 2 * 16; at lam = (40, -40, 0, 0, 0) they reach
    # 16 + 16 * 40, so the keys must be re-packed at a wider width
    rd = build_group("GSp(8)")
    mu = named_cocharacter(rd, "siegel")
    H = hecke_polynomial(rd, mu)
    assert evaluate_vanishing(H).is_zero()
    for lam in ((40, -40, 0, 0, 0), (0, 0, 0, 0, -300), mu):
        got = evaluate_vanishing(H, lam)
        assert got == _substitute(H, lam) and got.is_zero() == (lam == mu)
    assert all(evaluate_vanishing(H, lam).is_zero()
               for lam in orbit(simple_reflections(rd), mu))


def test_evaluation_leaves_the_polynomial_as_it_was():
    # an evaluation that needs wider keys packs its own copy; H keeps its
    # width and maps, and still equals its JSON round trip, whose maps are
    # packed at the width of the largest stored coordinate instead
    rd = build_group("GSp(8)")
    H = hecke_polynomial(rd, named_cocharacter(rd, "siegel"))
    width, maps = H.width, H.maps
    copies = [dict(e) for e in maps]
    assert sk._width(H.bound + H.degree * 40) > width  # needs a wider copy
    assert not evaluate_vanishing(H, (40, -40, 0, 0, 0)).is_zero()
    assert H.width == width and H.maps is maps
    assert list(H.maps) == copies
    assert evaluate_vanishing(H).is_zero()
    back = sk.polynomial_from_json(sk.polynomial_to_json(H))
    assert back.width != H.width and back == H


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 7, 8, 63, 64, 1000])
def test_kronecker_keys_decode_at_the_bound(bound):
    # the width of a bound holds every vector with coordinates in
    # [-bound, bound], the extreme ones included, and keys add as vectors
    width = sk._width(bound)
    weights = sk._weights(width, 3)
    corners = sorted(set(itertools.product((-bound, 0, bound), repeat=3)))
    keys = [sk._key(nu, weights) for nu in corners]
    assert len(set(keys)) == len(corners)
    assert list(sk._decode(keys, width, 3)) == corners
    sums = {tuple(map(add, nu, lam)): a + b
            for nu, a in zip(corners, keys) for lam, b in zip(corners, keys)}
    fit = {total: key for total, key in sums.items()
           if max(map(abs, total)) <= bound}
    assert list(sk._decode(fit.values(), width, 3)) == list(fit)


@pytest.mark.parametrize("name, mu, m", [("GL(3)", (1, 0, 0), 3),
                                         ("GL(5)", (1, 1, 0, 0, 0), 10),
                                         ("GSpin(7)", (1, 0, 0, 0), 6),
                                         ("GSp(6)", (1, 1, 1, 1), 8)])
def test_term_bound_is_the_size_of_the_full_expansion(monkeypatch, name,
                                                      mu, m):
    # odd and even degree: the bound admits exactly sum_j |e_j| terms
    rd = build_group(name)
    H = hecke_polynomial(rd, mu)
    size = sum(map(len, H.elementary))
    monkeypatch.setattr(sk, "TERM_BOUND", size)
    assert hecke_polynomial(rd, mu) == H and H.degree == m
    monkeypatch.setattr(sk, "TERM_BOUND", size - 1)
    with pytest.raises(sk.TermBoundError):
        hecke_polynomial(rd, mu)


def test_orbit_whose_sum_is_not_invariant_is_caught(monkeypatch):
    # a one-point orbit leaves only e_0 to check directly; its mirror
    # e_1 = e^sigma is invariant only if every generator fixes sigma
    rd = build_group("GL(2)")
    monkeypatch.setattr(sk, "orbit", lambda gens, mu: {(1, 0)})
    with pytest.raises(SatakeError, match="non-Weyl-invariant"):
        hecke_polynomial(rd, (1, 1))


@pytest.mark.parametrize("name, mu", CLOSED_FORM_CASES,
                         ids=_case_ids(CLOSED_FORM_CASES))
def test_hecke_polynomial_at_unit_exponentials(name, mu):
    # every e^lam := 1 turns H into (t - v**d)**m
    rd = build_group(name)
    H = hecke_polynomial(rd, mu)
    m = H.degree
    assert m == len(orbit(simple_reflections(rd), mu))
    for k, c in enumerate(H.coefficients):
        e = H.d * (m - k)
        assert all(set(lau.coeffs) == {e} for lau in c.terms.values())
        assert sum(lau.coeffs[e] for lau in c.terms.values()) == \
            (-1) ** (m - k) * comb(m, k)


@pytest.mark.parametrize("name, mu", CLOSED_FORM_CASES,
                         ids=_case_ids(CLOSED_FORM_CASES))
def test_specialize_at_unit_exponentials(name, mu):
    # e^lam := 1 gives each orbit sum the size of its orbit, and specialize
    # must read exactly one dominant term per orbit to return (t - v**d)**m
    # with v**2 = 3: v**(2i) is 3**i and v**(2i+1) the Laurent 3**i v
    rd = build_group(name)
    gens = simple_reflections(rd)
    H = hecke_polynomial(rd, mu)
    sizes = {lam: len(orbit(gens, lam)) for c in H.coefficients
             for lam in c.terms if is_dominant(rd, lam)}
    got = specialize(H, SatakeParameterSymmetric(sizes, 3), rd)
    m = H.degree
    for k, x in enumerate(got):
        e = H.d * (m - k)
        c = (-1) ** (m - k) * comb(m, k) * 3 ** (e // 2)
        assert x == (Laurent({1: c}) if e % 2 else Fraction(c)), f"t^{k}"


@pytest.mark.parametrize("name, alias", [("GL(2)", "std"),
                                         ("GSp(4)", "siegel"),
                                         ("GSpin(7)", "spin")])
def test_dropped_orbit_element_is_caught(monkeypatch, name, alias):
    rd = build_group(name)
    full_orbit = sk.orbit
    monkeypatch.setattr(sk, "orbit",
                        lambda gens, mu: set(sorted(full_orbit(gens, mu))[1:]))
    with pytest.raises(SatakeError, match="non-Weyl-invariant"):
        hecke_polynomial(rd, named_cocharacter(rd, alias))


def test_term_bound_counts_every_elementary_symmetric_term(monkeypatch):
    # the orbit of (1, 0, 0) has 3 elements: e_0..e_3 hold 1 + 3 + 3 + 1 terms
    rd = build_group("GL(3)")
    monkeypatch.setattr(sk, "TERM_BOUND", 8)
    assert hecke_polynomial(rd, (1, 0, 0)).degree == 3
    monkeypatch.setattr(sk, "TERM_BOUND", 7)
    with pytest.raises(sk.TermBoundError, match="bound of 7"):
        hecke_polynomial(rd, (1, 0, 0))


def test_cancellation_stores_no_zero_coefficient():
    a, b, v = G.exp((1, 0)), G.exp((0, 1)), Laurent.v_power(1)
    product = (a + b) * (a - b)  # the e^(1,1) terms cancel
    assert set(product.terms) == {(2, 0), (0, 2)}
    for x in (product, G.exp((1, 0), v) + G.exp((1, 0), -v),
              (a + b) - b - a, a.scale(0), a * 0, (a - a) * b):
        assert all(not c.is_zero() for c in x.terms.values())


# ---------------------------------------------------------------------------
# ring laws of the group algebra (Hypothesis)

GSP4 = build_group("GSp(4)")  # rank 3
coefficients = st.dictionaries(
    st.integers(-2, 2),
    st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3),
    max_size=2).map(Laurent)
elements = st.dictionaries(st.tuples(*[st.integers(-1, 1)] * 3), coefficients,
                           max_size=3).map(lambda t: G(3, t))


def _normalized(x):
    return all(isinstance(c, Laurent) and not c.is_zero()
               for c in x.terms.values())


@settings(max_examples=100, deadline=None)
@given(elements, elements, elements)
def test_group_algebra_ring_law_properties(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - x).terms == {}
    assert all(_normalized(r) for r in (x + y, x - y, x * y, -x,
                                        x.scale(Laurent.v_power(1))))


def _reflect_terms(i, x):
    """x with the simple reflection s_i of GSp(4) applied to every exponent,
    each image computed densely as lam - <a_i, lam> a_i^v."""
    a, av = GSP4.roots[i], GSP4.coroots[i]
    return G(3, {tuple(t - GSP4.pairing(a, lam) * c for t, c in zip(lam, av)):
                 coeff for lam, coeff in x.terms.items()})


@settings(max_examples=100, deadline=None)
@given(elements)
def test_weyl_invariance_matches_the_action(x):
    for i, s in zip(GSP4.simple_indices, simple_reflections(GSP4)):
        sx = _reflect_terms(i, x)
        assert is_weyl_invariant((s,), x.terms) == (sx == x)
        assert is_weyl_invariant((s,), (x + sx).terms)
        # same exponents as the invariant x + s.x, invariant iff s.x == x
        assert is_weyl_invariant((s,), (x + sx.scale(2)).terms) == (sx == x)


elementary_maps = st.lists(
    st.dictionaries(st.tuples(*[st.integers(-1, 1)] * 3),
                    st.integers(-3, 3).filter(bool), max_size=3),
    min_size=1, max_size=4).map(tuple)


@pytest.mark.parametrize("degree,elementary", [
    (1, ({(0, 0): 1}, {(1, 0, 5): 1})),    # exponent of rank 3, not 2
    (1, ({(0, 0): 1}, {(1,): 1})),         # exponent of rank 1
    (1, ({(0, 0): 1}, {(1, 0.5): 1})),     # exponent entry not an int
    (3, ({(0, 0): 1},)),                   # one map for degree 3
    (0, ({(0, 0): 1}, {(1, 0): 1})),       # two maps for degree 0
], ids=["long-exponent", "short-exponent", "float-exponent", "too-few-maps",
        "too-many-maps"])
def test_tuple_constructor_refuses_malformed_maps(degree, elementary):
    # a 3-long exponent must not be cut to (1, 0) by the keys, nor a
    # missing map be evaluated as if it were zero
    with pytest.raises(SatakeError):
        HeckePolynomialSatake((0, 0), 0, degree, elementary, 2)


@settings(max_examples=50, deadline=None)
@given(elementary_maps, st.tuples(*[st.integers(-2, 2)] * 3),
       st.integers(0, 6))
def test_polynomial_json_roundtrip_property(es, mu, d):
    H = HeckePolynomialSatake(mu, d, len(es) - 1, es, 3)
    assert sk.polynomial_from_json(sk.polynomial_to_json(H)) == H


@settings(max_examples=50, deadline=None)
@given(elementary_maps, st.tuples(*[st.integers(-2, 2)] * 3),
       st.integers(0, 3))
def test_evaluate_vanishing_matches_reference_property(es, lam, d):
    H = HeckePolynomialSatake((0, 0, 0), d, len(es) - 1, es, 3)
    got = evaluate_vanishing(H, lam)
    assert got == _substitute(H, lam) and _normalized(got)
