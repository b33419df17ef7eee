import random
from fractions import Fraction

import pytest

from heckesat import satake as sk
from heckesat.laurent import Laurent, QuadExt
from heckesat.rootdata import (
    build_group,
    enumerate_dominant_minuscule,
    named_cocharacter,
    orbit,
    parabolic_data,
    weyl_group,
)
from heckesat.satake import (
    GroupAlgebraElement as G,
    SatakeError,
    SatakeParameterSymmetric,
    evaluate_vanishing,
    hecke_polynomial,
    is_weyl_invariant,
    specialize,
    weyl_act,
)


def test_group_algebra_ring_laws():
    x = G.exp((1, 0)) + G.exp((0, 1), Laurent.v_power(2))
    y = G.exp((1, 1)) - G.one(2)
    assert x * y == y * x
    assert x * (y + y) == x * y + x * y
    assert x * G.one(2) == x
    assert (x - x).is_zero()


def test_weyl_act_automorphism():
    rd = build_group("GL(2)")
    w = weyl_group(rd)
    swap = next(m for m in w.elements if m == ((0, 1), (1, 0)))
    assert weyl_act(swap, G.exp((1, 0))) == G.exp((0, 1))
    assert weyl_act(swap, G.one(2)) == G.one(2)
    rng = random.Random(3)
    for _ in range(5):
        x = G.exp(tuple(rng.randint(-2, 2) for _ in range(2)))
        y = G.exp(tuple(rng.randint(-2, 2) for _ in range(2)))
        assert weyl_act(swap, x * y) == weyl_act(swap, x) * weyl_act(swap, y)


def test_is_weyl_invariant():
    rd = build_group("GL(2)")
    w = weyl_group(rd)
    assert is_weyl_invariant(w.generators, G.one(2))
    assert is_weyl_invariant(w.generators, G.exp((1, 0)) + G.exp((0, 1)))
    assert not is_weyl_invariant(w.generators, G.exp((1, 0)))


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
    for lam in orbit(weyl_group(rd).generators, mu):
        assert evaluate_vanishing(H, lam).is_zero()


@pytest.mark.parametrize("name", GROUPS)
def test_coefficients_invariant_and_integral(name):
    rd = build_group(name)
    w = weyl_group(rd)
    for mu in enumerate_dominant_minuscule(rd):
        H = hecke_polynomial(rd, mu)
        assert H.coefficients[-1] == G.one(rd.rank)
        for c in H.coefficients:
            assert is_weyl_invariant(w.generators, c)
            assert c.is_integral()


def test_degree_d_table():
    table = [("GL(2)", "std", 2, 1), ("GSp(4)", "siegel", 4, 3),
             ("GSO(8)", "half-spin", 8, 6), ("GSpin(7)", "spin", 6, 5)]
    for name, alias, degree, d in table:
        rd = build_group(name)
        H = hecke_polynomial(rd, named_cocharacter(rd, alias))
        assert (H.degree, H.d) == (degree, d)


def test_restrict_to_levi():
    rd = build_group("GL(4)")
    mu = (1, 1, 0, 0)
    H = hecke_polynomial(rd, mu)
    pd = parabolic_data(rd, mu)
    H2 = sk.restrict_to_levi(H, rd, pd)
    assert H2.coefficients == H.coefficients
    rd7 = build_group("GSpin(7)")
    mu7 = named_cocharacter(rd7, "spin")
    sk.restrict_to_levi(hecke_polynomial(rd7, mu7), rd7,
                        parabolic_data(rd7, mu7))


def test_specialize_gl2():
    rd = build_group("GL(2)")
    H = hecke_polynomial(rd, (1, 0))
    p, a_p = 7, 3
    s = SatakeParameterSymmetric(
        {(1, 0): QuadExt(0, Fraction(a_p, p), p), (1, 1): 1}, p)
    assert specialize(H, s, rd) == [Fraction(p), Fraction(-a_p), Fraction(1)]


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


def test_polynomial_json_roundtrip():
    rd = build_group("GSp(4)")
    H = hecke_polynomial(rd, named_cocharacter(rd, "siegel"))
    assert sk.polynomial_from_json(sk.polynomial_to_json(H)) == H
    s1 = sk.polynomial_to_json(H)
    s2 = sk.polynomial_to_json(sk.polynomial_from_json(s1))
    assert s1 == s2
