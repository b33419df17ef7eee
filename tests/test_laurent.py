from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heckesat.laurent import Laurent

scalars = st.integers(-5, 5) | st.fractions(-3, 3, max_denominator=4)
laurents = st.dictionaries(st.integers(-3, 3), scalars,
                           max_size=3).map(Laurent)


def test_zero_and_one():
    assert Laurent.zero().is_zero()
    assert not Laurent.one().is_zero()
    assert Laurent.one() + Laurent.zero() == Laurent.one()


def test_normalization_drops_zero_coeffs():
    x = Laurent({3: 1}) - Laurent({3: 1})
    assert x.is_zero()
    assert x.coeffs == {}


def test_fraction_demotion():
    x = Laurent({0: Fraction(4, 2)})
    assert x.coeffs[0] == 2
    assert isinstance(x.coeffs[0], int)


@pytest.mark.parametrize("coeffs", [
    {1.5: 1}, {1: 1, 1.5: 2}, {0: 0.1}], ids=["float-exponent",
                                            "colliding-exponent",
                                            "float-coefficient"])
def test_non_exact_terms_are_refused(coeffs):
    # int(1.5) would make these v, 2v and an inexact 0.1
    with pytest.raises(ValueError):
        Laurent(coeffs)


def test_arithmetic():
    v = Laurent.v_power(1)
    assert v * v == Laurent.v_power(2)
    assert (v + Laurent.one()) * (v - Laurent.one()) == Laurent({2: 1, 0: -1})
    assert v ** 3 == Laurent.v_power(3)
    assert 2 * v == Laurent.v_power(1, 2)


def test_negative_exponents():
    vinv = Laurent.v_power(-1)
    assert vinv * Laurent.v_power(1) == Laurent.one()


def test_eval_quad_positive_and_negative():
    # v**2 -> p, v**3 -> p*v, v**-1 -> v/p, v**-2 -> 1/p
    assert Laurent({2: 1}).eval_quad(5) == Laurent({0: 5})
    assert Laurent({3: 1}).eval_quad(5) == Laurent({1: 5})
    assert Laurent({-1: 1}).eval_quad(5) == Laurent({1: Fraction(1, 5)})
    assert Laurent({-2: 3, 0: 1}).eval_quad(5) == Laurent({0: Fraction(8, 5)})
    assert Laurent({-3: Fraction(1, 2)}).eval_quad(3) == \
        Laurent({1: Fraction(1, 18)})


def test_eval_quad_identity_two_v_inverse():
    # at p = 2: 2/v = v, and v**2 - 2 reduces to zero
    assert Laurent({-1: 2}).eval_quad(2) == Laurent({1: 1})
    assert Laurent({2: 1, 0: -2}).eval_quad(2).is_zero()


@settings(max_examples=150, deadline=None)
@given(laurents, laurents, laurents)
def test_laurent_ring_laws(x, y, z):
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - x).coeffs == {}
    for r in (x + y, x - y, x * y, x.scale(2)):
        assert 0 not in r.coeffs.values()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5)), laurents, laurents)
def test_eval_quad_is_ring_map_onto_reduced_forms(p, x, y):
    def r(z):
        return z.eval_quad(p)
    assert set(r(x).coeffs) <= {0, 1}
    assert r(r(x)) == r(x)
    assert r(x * y) == r(r(x) * r(y))
    assert r(x + y) == r(r(x) + r(y))
