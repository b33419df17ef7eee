import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from coset_reference import coset_equal, inverse_rational, snf_type_by_minors
from heckesat.intmat import (
    PRIME_BOUND,
    NormalFormError,
    PrimeBoundError,
    det,
    hnf_padic,
    identity,
    int_tuple,
    is_prime,
    mat_mul,
    p_valuation,
    snf_type,
)


def test_det_small():
    assert det(((1, 2), (3, 4))) == -2
    assert det(identity(4)) == 1
    assert det(((2, 0, 0), (0, 3, 0), (0, 0, 5))) == 30


def test_p_valuation():
    assert p_valuation(8, 2) == 3
    assert p_valuation(9, 2) == 0
    with pytest.raises(NormalFormError):
        p_valuation(0, 2)


def _valuation_one_power_at_a_time(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_p_valuation_matches_dividing_one_power_at_a_time():
    rng = random.Random(0)
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7, 4, 6, 10))
        x = (rng.choice((-1, 1)) * rng.randrange(1, 10 ** 6)
             * p ** rng.choice((0, 1, rng.randrange(300))))
        assert p_valuation(x, p) == _valuation_one_power_at_a_time(x, p)
    for v in (1, 2, 3, 63, 64, 65, 1000, 4097):
        for unit in (1, -1, 3, -5 ** 7):
            assert p_valuation(unit * 2 ** v, 2) == v
    assert p_valuation(-(7 ** 100000) * 13, 7) == 100000


def test_hnf_identity_fixed():
    assert hnf_padic(identity(3), 2) == identity(3)


def test_hnf_examples():
    assert hnf_padic(((2, 0), (1, 1)), 2) == ((2, 0), (0, 1))
    # row diagonal 1 forces the off-diagonal entry to 0
    assert hnf_padic(((1, 5), (0, 4)), 2) == ((1, 0), (0, 4))


def test_hnf_rejects_bad_determinant():
    with pytest.raises(NormalFormError):
        hnf_padic(((3, 0), (0, 1)), 2)
    with pytest.raises(NormalFormError):
        hnf_padic(((0, 0), (0, 1)), 2)
    with pytest.raises(NormalFormError, match="square"):
        hnf_padic(((1, 0, 0), (0, 1, 0)), 2)


def test_snf_rejects_bad_input():
    with pytest.raises(NormalFormError, match="singular"):
        snf_type(((2, 4), (1, 2)), 2)
    with pytest.raises(NormalFormError, match="other than 2"):
        snf_type(((6, 0), (0, 1)), 2)
    with pytest.raises(NormalFormError, match="square"):
        snf_type(((1, 0, 0), (0, 1, 0)), 2)


@pytest.mark.parametrize("form, m", [
    # cut to ints, the first two would read as [[1, 0], [0, 2]]
    (hnf_padic, [[1.5, 0], [0, 2]]),
    (snf_type, [[Fraction(5, 2), 0], [0, 2]]),
    (snf_type, [[1, 0], [0, 2.0]]),
], ids=["hnf-float", "snf-fraction", "snf-integral-float"])
def test_normal_forms_refuse_non_int_entries(form, m):
    with pytest.raises(NormalFormError, match="not an int"):
        form(m, 2)


@pytest.mark.parametrize("form", [hnf_padic, snf_type])
def test_normal_forms_refuse_bool_entries(form):
    with pytest.raises(NormalFormError, match="not an int"):
        form([[True, 0], [0, 2]], 2)


def test_int_tuple_refuses_bools():
    assert int_tuple([1, 0], 2, "pair", NormalFormError) == (1, 0)
    with pytest.raises(NormalFormError, match="not 2 ints"):
        int_tuple((1, False), 2, "pair", NormalFormError)


def test_coset_equal_still_takes_fractions():
    # both sides are scaled to exactly integral entries before the check
    half = Fraction(1, 2)
    assert coset_equal(((half, 0), (0, 1)), ((half, half), (0, 1)), 2)
    assert coset_equal(((Fraction(1, 3), 0), (0, 1)), identity(2), 2)
    assert not coset_equal(((half, 0), (0, 1)), identity(2), 2)


def test_snf_examples():
    assert snf_type(((1, 0), (0, 2)), 2) == (1, 0)
    assert snf_type(((2, 1), (0, 1)), 2) == (1, 0)
    assert snf_type(((4, 2), (0, 2)), 2) == (2, 1)
    assert snf_type(identity(3), 5) == (0, 0, 0)


def test_normal_forms_keep_divisor_equal_to_det_power():
    # an elementary divisor equal to p**k = |det| vanishes modulo p**k,
    # so the forms must work modulo p**(k+1)
    assert hnf_padic(((8,),), 2) == ((8,),)
    assert snf_type(((8,),), 2) == (3,)
    assert hnf_padic(((9, 4), (0, 1)), 3) == ((9, 4), (0, 1))
    assert snf_type(((1, 1), (0, 9)), 3) == (2, 0)
    assert hnf_padic(((-5, 0), (0, 5)), 5) == ((5, 0), (0, 5))


def test_hnf_idempotent_and_sound_random():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.choice((2, 3))
        p = rng.choice((2, 3))
        while True:
            diag = [p ** rng.randint(0, 2) for _ in range(n)]
            m = [[diag[i] if i == j else rng.randint(-4, 4)
                  for j in range(n)] for i in range(n)]
            d = det(m)
            if d != 0:
                ad = abs(d)
                while ad % p == 0:
                    ad //= p
                if ad == 1:
                    break
        h = hnf_padic(m, p)
        assert hnf_padic(h, p) == h
        assert coset_equal(m, h, p)
        for i in range(n):
            for j in range(n):
                if i > j:
                    assert h[i][j] == 0
                elif i < j:
                    assert 0 <= h[i][j] < h[i][i]


def test_coset_equal_examples():
    assert coset_equal(((1, 1), (0, 2)), ((1, 3), (0, 2)), 2)
    assert not coset_equal(((1, 0), (0, 2)), ((2, 0), (0, 1)), 2)
    g = ((2, 1), (0, 1))
    u = ((1, 2), (0, 1))
    assert coset_equal(g, mat_mul(g, u), 2)


def test_inverse_rational():
    m = ((2, 1), (0, 4))
    assert inverse_rational(m) == ((Fraction(1, 2), Fraction(-1, 8)),
                                   (0, Fraction(1, 4)))
    with pytest.raises(NormalFormError):
        inverse_rational(((1, 2), (2, 4)))


def test_is_prime():
    assert [n for n in range(-2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_refuses_past_its_bound_before_dividing():
    # 10**12 - 11 is the largest prime at most the bound: 10**6 divisions
    assert is_prime(PRIME_BOUND - 11) and not is_prime(PRIME_BOUND)
    for n in (PRIME_BOUND + 1, 2 ** 61 - 1, 10 ** 400):
        with pytest.raises(PrimeBoundError, match="primality-test bound"):
            is_prime(n)


def test_p_valuation_rejects_non_primes_below_two():
    for p in (1, 0, -2):
        with pytest.raises(NormalFormError):
            p_valuation(8, p)


def test_coset_equal_accepts_p_unit_determinants():
    assert coset_equal(((3, 0), (0, 1)), ((3, 0), (0, 1)), 2)
    assert coset_equal(((3, 0), (0, 1)), identity(2), 2)
    assert not coset_equal(((3, 0), (0, 1)), identity(2), 3)
    half = Fraction(1, 2)
    assert coset_equal(((half, 0), (0, 1)), ((half, half), (0, 1)), 2)
    assert not coset_equal(((half, 0), (0, 1)), identity(2), 2)
    with pytest.raises(NormalFormError):
        coset_equal(((1, 1), (1, 1)), identity(2), 2)


@st.composite
def unimodular(draw, n):
    """Row operations and a sign change applied to I: determinant +-1."""
    u = [list(r) for r in identity(n)]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    if draw(st.booleans()):
        u[0] = [-x for x in u[0]]
    return tuple(map(tuple, u))


@st.composite
def p_power_det_matrix(draw, n, p):
    """Upper triangular with p-power diagonal, times a unimodular matrix."""
    t = tuple(tuple(p ** draw(st.integers(0, 2)) if i == j
                    else draw(st.integers(-p * p, p * p)) if i < j else 0
                    for j in range(n)) for i in range(n))
    return mat_mul(t, draw(unimodular(n)))


@st.composite
def coset_pair(draw):
    n, p = draw(st.integers(1, 3)), draw(st.sampled_from((2, 3, 5)))
    g1 = draw(p_power_det_matrix(n, p))
    if draw(st.booleans()):
        g2 = mat_mul(g1, draw(unimodular(n)))
    else:
        g2 = draw(p_power_det_matrix(n, p))
    return g1, g2, p


@settings(max_examples=150, deadline=None)
@given(coset_pair())
def test_coset_equal_agrees_with_hnf(case):
    g1, g2, p = case
    assert coset_equal(g1, g2, p) == (hnf_padic(g1, p) == hnf_padic(g2, p))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_coset_equal_right_p_unit_invariance(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from((2, 3, 5)))
    g = data.draw(p_power_det_matrix(n, p))
    u = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n,
                                    max_size=n), min_size=n, max_size=n))
    assume(det(u) % p != 0)
    assert coset_equal(g, mat_mul(g, u), p)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_normal_forms_invariant_under_unimodular(data):
    n = data.draw(st.integers(1, 5))
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(p_power_det_matrix(n, p))
    u, v = data.draw(unimodular(n)), data.draw(unimodular(n))
    assert snf_type(mat_mul(mat_mul(u, m), v), p) == snf_type(m, p)
    assert hnf_padic(mat_mul(m, v), p) == hnf_padic(m, p)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_snf_type_matches_determinantal_divisors(data):
    n = data.draw(st.integers(1, 5))
    p = data.draw(st.sampled_from((2, 3, 5)))
    m = data.draw(p_power_det_matrix(n, p))
    g = mat_mul(mat_mul(data.draw(unimodular(n)), m), data.draw(unimodular(n)))
    assert snf_type(g, p) == snf_type_by_minors(g, p)


def _dense_product(a, b):
    """Reference a*b by the triple sum over every entry."""
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b)))
              for j in range(len(b[0])))
        for i in range(len(a)))


def _entries(kind):
    ints = st.integers(-9, 9)
    fracs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return {"int": ints, "fraction": fracs,
            "sparse": st.one_of(st.just(0), st.just(0), st.just(0), ints),
            "mixed": st.one_of(ints, fracs)}[kind]


def matrix(rows, cols, kind):
    """A rows x cols strategy; a permutation matrix is rows x rows."""
    if kind == "permutation":
        return st.permutations(range(rows)).map(lambda perm: tuple(
            tuple(int(j == perm[i]) for j in range(rows))
            for i in range(rows)))
    return st.lists(st.lists(_entries(kind), min_size=cols, max_size=cols)
                    .map(tuple), min_size=rows, max_size=rows).map(tuple)


KINDS = ("int", "fraction", "sparse", "mixed", "permutation")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mat_mul_matches_dense_triple_sum(data):
    kind_a, kind_b = (data.draw(st.sampled_from(KINDS)) for _ in range(2))
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(matrix(n, k, kind_a))
    b = data.draw(matrix(len(a[0]), m, kind_b))
    assert mat_mul(a, b) == _dense_product(a, b)


@pytest.mark.parametrize("a, b", [
    (((1, 2),), ((1, 2),)),                 # 1x2 times 1x2
    (((1, 2, 3), (4, 5, 6)), ((1,), (2,))),  # 2x3 times 2x1
    (((1, 2), (1,)), ((1,), (2,))),         # ragged a
    (((1, 1),), ((1, 2), (3,))),            # ragged b
], ids=["1x2-1x2", "2x3-2x1", "ragged-a", "ragged-b"])
def test_mat_mul_rejects_mismatched_shapes(a, b):
    with pytest.raises(NormalFormError, match="dimension mismatch"):
        mat_mul(a, b)
