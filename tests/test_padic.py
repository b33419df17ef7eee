import importlib.util
import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heckesat import intmat, padic as pd
from heckesat.conventions import reflect
from heckesat.intmat import (
    hnf_core,
    hnf_padic,
    mat_mul,
    snf_core,
    snf_type,
)
from heckesat.laurent import Laurent
from heckesat.padic import (
    CosetError,
    DoubleCosetSum,
    EnumerationBoundError,
    PCoset,
    convolve_double,
    coset_count,
    decompose_double_coset,
    measure_intersection,
    reduce_mod_v2,
    satake_numeric,
)
from heckesat.satake import GroupAlgebraElement as G, hecke_polynomial
from heckesat.rootdata import build_group

from coset_reference import (
    convolve_left,
    coset_count_by_q_factorials,
    expand,
    hall_littlewood_by_fractions,
    inverse_rational,
    satake_by_expansion,
    sigma_to_torus,
    snf_type_by_minors,
)


def _load_bench_hall():
    """bench/hall.py: Hall polynomials from the symmetrization formula."""
    path = Path(__file__).resolve().parents[1] / "bench" / "hall.py"
    spec = importlib.util.spec_from_file_location("hall", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hall = _load_bench_hall()


def rand_type(rng, n, hi=2):
    return tuple(sorted((rng.randint(0, hi) for _ in range(n)), reverse=True))


def test_unit_decomposition():
    assert decompose_double_coset((0, 0), 2, 2) == [PCoset.unit(2, 2)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_degree_counts(n, p):
    lam = (1,) + (0,) * (n - 1)
    assert len(decompose_double_coset(lam, n, p)) == sum(
        p ** i for i in range(n))


def types(n, hi):
    """Descending types of length n with entries in [0, hi]."""
    return list(combinations_with_replacement(range(hi, -1, -1), n))


@pytest.mark.parametrize("n,hi,primes", [
    (2, 3, (2, 3, 5)), (3, 2, (2, 3)), (4, 1, (2, 3))])
def test_decomposition_matches_coset_count(n, hi, primes):
    # Every orbit element is a canonical coset of type lam, so equal
    # sizes mean the orbit is the whole double coset.
    for p in primes:
        for lam in types(n - 1, hi):
            lam += (0,)
            reps = decompose_double_coset(lam, n, p)
            assert len(reps) == coset_count(lam, p), (lam, p)
            assert len(set(reps)) == len(reps)
            for g in reps:
                assert g.rep == pd.hnf_padic(g.rep, p) and g.snf() == lam


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coset_count_hand_values(p):
    assert coset_count((1, 0), p) == p + 1
    assert coset_count((2, 0), p) == p * p + p
    assert coset_count((1, 0, 0), p) == coset_count((1, 1, 0), p) == \
        1 + p + p * p
    assert coset_count((3, 3, 3), p) == 1


def test_coset_count_refuses_a_power_past_its_bit_bound():
    # e = 10**6 - 1 at p = 2 is within COUNT_BITS, e = 10**6 + 1 is not
    assert coset_count((10 ** 6, 0), 2) == 2 ** (10 ** 6 - 1) * 3
    for lam, p in (((10 ** 6 + 2, 0), 2), ((10 ** 6, 0), 3),
                   ((99999999999999999999, 0), 2), ((10 ** 400, 0), 5)):
        with pytest.raises(EnumerationBoundError, match="2\\*\\*1000000"):
            coset_count(lam, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coset_count_matches_q_factorial_reference(p):
    # 251 types with n <= 5 and entries <= 4 at each prime
    for n in range(1, 6):
        for lam in types(n, 4):
            assert coset_count(lam, p) == \
                coset_count_by_q_factorials(lam, p), (lam, p)


def test_decomposition_reps_are_canonical_and_distinct():
    reps = decompose_double_coset((2, 1), 2, 3)
    seen = set()
    for g in reps:
        assert g.rep == pd.hnf_padic(g.rep, 3)
        assert g.snf() == (2, 1)
        assert g not in seen
        seen.add(g)


def _scaled(rep, q):
    return tuple(tuple(q * x for x in row) for row in rep)


def test_central_shift_factoring():
    # The reps of (c, ..., c) + lam0 are p**c times those of lam0, in order.
    for lam0, p in (((1, 0), 2), ((2, 0), 3), ((1, 0, 0), 2),
                    ((2, 1, 0), 2), ((0, 0), 5)):
        n = len(lam0)
        for c in (1, 2):
            lam = tuple(x + c for x in lam0)
            reps = decompose_double_coset(lam, n, p)
            assert [g.rep for g in reps] == [
                _scaled(g.rep, p ** c)
                for g in decompose_double_coset(lam0, n, p)], (lam, p)
            assert all(g.snf() == lam for g in reps)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_from_matrix_is_the_homogeneous_hermite_form(data):
    n = data.draw(st.integers(1, 3))
    p = data.draw(st.sampled_from((2, 3, 5)))
    c = data.draw(st.integers(0, 2))
    ints = st.integers(-p * p, p * p)
    # upper triangular with p-power diagonal times unit lower triangular
    upper = [[p ** data.draw(st.integers(0, 2)) if i == j
              else data.draw(ints) if i < j else 0 for j in range(n)]
             for i in range(n)]
    lower = [[int(i == j) if i <= j else data.draw(ints) for j in range(n)]
             for i in range(n)]
    m = mat_mul(upper, lower)
    g = PCoset.from_matrix(m, p)
    assert g.rep == pd.hnf_padic(m, p)
    assert PCoset.from_matrix(_scaled(m, p ** c), p).rep == \
        _scaled(g.rep, p ** c)


@pytest.mark.parametrize("rep", [
    ((1, 5), (0, 3)),                # entry right of 1 not in [0, 1)
    ((1, 0), (0, 0)),                # singular: 0 is no power of 3
    ((1, 0), (1, 3)),                # not upper triangular
    ((1, 0), (0, 6)),                # diagonal 6 is no power of 3
    ((-1, 0), (0, 3)),               # negative diagonal
    ((3, -1), (0, 1)),               # entry below 0
    ((3, 3), (0, 1)),                # entry equal to its row's diagonal
    ((1, 0), (0, 3.0)),              # not an int
    ([1, 0], [0, 3]),                # rows not tuples
    ((1, 0, 0), (0, 3, 0)),          # not square
    ((1,),),                         # wrong size
], ids=["entry-above-bound", "singular", "lower", "diag-not-p-power",
        "diag-negative", "entry-negative", "entry-at-bound", "float",
        "list-rows", "not-square", "wrong-size"])
def test_pcoset_refuses_a_rep_that_is_not_a_hermite_form(rep):
    with pytest.raises(CosetError):
        PCoset(2, 3, rep)


def test_pcoset_equality_is_coset_equality():
    assert PCoset(2, 3, ((1, 0), (0, 3))) == \
        PCoset.from_matrix(((1, 5), (0, 3)), 3)
    rep = ((4, 2, 1), (0, 2, 1), (0, 0, 1))
    assert PCoset(3, 2, rep).snf() == snf_type_by_minors(rep, 2) == (2, 1, 0)


def test_type_validation():
    with pytest.raises(CosetError):
        decompose_double_coset((0, 1), 2, 2)
    with pytest.raises(CosetError):
        decompose_double_coset((1, -1), 2, 2)


def test_enumeration_bound(monkeypatch):
    monkeypatch.setattr(pd, "ENUM_BOUND", 10)
    with pytest.raises(EnumerationBoundError):
        decompose_double_coset((9, 0), 2, 2)


def test_bounds_are_read_when_a_product_runs(monkeypatch):
    # the counts of the first product are kept; the bounds are not: the
    # orbit of (1, 0, 0) has 7 cosets, and (3, 1, 0) has p**3 in its count
    h1, h2 = (DoubleCosetSum.basis(t, 3, 2) for t in ((2, 1, 0), (1, 0, 0)))
    assert convolve_double(h1, h2).terms
    monkeypatch.setattr(pd, "ENUM_BOUND", coset_count((1, 0, 0), 2) - 1)
    with pytest.raises(EnumerationBoundError, match="exceeds the bound"):
        convolve_double(h1, h2)
    monkeypatch.setattr(pd, "ENUM_BOUND", 2 * 10 ** 5)
    monkeypatch.setattr(pd, "COUNT_BITS", 2)
    with pytest.raises(EnumerationBoundError, match="above the bound"):
        convolve_double(h1, h2)


@pytest.mark.parametrize("lam,p", [
    ((0, 1), 2), ((1, -1), 2), ((1, 0), 4), ((1, 0), 1),
], ids=["unsorted", "negative", "composite-p", "p-1"])
def test_coset_count_refuses_bad_types_and_primes(lam, p):
    # a bool entry: test_bools_are_refused_where_ints_are_asked[count-type]
    with pytest.raises(CosetError):
        coset_count(lam, p)


def test_convolution_enumerates_only_the_smaller_factor(monkeypatch):
    monkeypatch.setattr(pd, "ENUM_BOUND", 10)
    big, t = (DoubleCosetSum.basis(lam, 2, 2) for lam in ((9, 0), (1, 0)))
    assert convolve_double(big, t).terms == {(10, 0): 1, (9, 1): 2}


def test_convolve_left_unit():
    h = DoubleCosetSum.basis((1, 0), 2, 2)
    assert convolve_left({PCoset.unit(2, 2): Fraction(1)}, h) == expand(h)


def test_convolve_left_central():
    g = PCoset.from_matrix([[1, 1], [0, 2]], 2)
    hc = DoubleCosetSum.basis((1, 1), 2, 2)
    out = convolve_left({g: Fraction(1)}, hc)
    (gc, c), = out.items()
    assert c == 1 and gc.rep == _scaled(g.rep, 2)


def test_convolve_left_merges_products():
    g = PCoset.from_matrix([[1, 0], [0, 2]], 2)
    h = DoubleCosetSum.basis((1, 0), 2, 2)
    out = convolve_left({g: Fraction(1)}, h)
    assert sum(out.values()) == 3


@pytest.mark.parametrize("p", [2, 3])
def test_tp_squared(p):
    T = DoubleCosetSum.basis((1, 0), 2, p)
    TT = convolve_double(T, T)
    assert TT.terms == {(2, 0): Fraction(1), (1, 1): Fraction(p + 1)}


def product_by_expansion(h1, h2):
    """The product from the full left-coset expansion, regrouped by type.

    Asserts bi-invariance: each type's cosets are its whole double coset,
    all with one coefficient.
    """
    f = convolve_left(expand(h1), h2)
    by_type = {}
    for g, c in f.items():
        by_type.setdefault(g.snf(), {})[g] = c
    out = {}
    for lam, cosets in by_type.items():
        assert set(cosets) == set(decompose_double_coset(lam, h1.n, h1.p))
        (out[lam],) = set(cosets.values())
    return out


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2)])
def test_product_matches_full_expansion(n, p):
    for a, b in combinations_with_replacement(types(n, 2), 2):
        h1, h2 = (DoubleCosetSum.basis(t, n, p) for t in (a, b))
        assert convolve_double(h1, h2).terms == product_by_expansion(h1, h2)


def test_product_of_sums_matches_full_expansion():
    h1 = DoubleCosetSum(3, 2, {(1, 0, 0): 1, (2, 1, 0): Fraction(1, 2)})
    h2 = DoubleCosetSum(3, 2, {(1, 1, 0): 3, (0, 0, 0): -1, (2, 2, 1): 2})
    expected = product_by_expansion(h1, h2)
    assert len(expected) > 3
    assert convolve_double(h1, h2).terms == expected


@pytest.mark.parametrize("n,hi,primes", [
    (2, 3, (2, 3, 5, 7)), (3, 2, (2, 3)), (4, 1, (2, 3))])
def test_product_matches_hall_polynomials(n, hi, primes):
    for p in primes:
        for a, b in combinations_with_replacement(types(n, hi), 2):
            h1, h2 = (DoubleCosetSum.basis(t, n, p) for t in (a, b))
            assert convolve_double(h1, h2).terms == \
                hall.hall_product(a, b, n, p), (a, b, p)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(types(4, 2)), st.sampled_from(types(4, 2)))
def test_gl4_product_matches_hall_polynomials_property(a, b):
    h1, h2 = (DoubleCosetSum.basis(t, 4, 2) for t in (a, b))
    assert convolve_double(h1, h2).terms == hall.hall_product(a, b, 4, 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_back_substitution_is_the_integral_inverse(data):
    # None exactly when x**-1 p**nu has a non-integral entry, else that matrix
    n = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from((2, 3, 5)))
    rows = []
    for i in range(n):
        d = p ** data.draw(st.integers(0, 2))
        rows.append(tuple(d if j == i else data.draw(st.integers(0, d - 1))
                          if j > i else 0 for j in range(n)))
    x = PCoset(n, p, tuple(rows)).rep
    nu = sorted(data.draw(st.lists(st.integers(0, 3), min_size=n,
                                   max_size=n)), reverse=True)
    expected = mat_mul(inverse_rational(x),
                       [[p ** v * (i == j) for j, v in enumerate(nu)]
                        for i in range(n)])
    y = pd._back_substitute(x, [p ** v for v in nu])
    if any(e.denominator != 1 for row in expected for e in row):
        assert y is None
    else:
        assert tuple(map(tuple, y)) == expected


@pytest.mark.parametrize("lam,p", [
    ((1, 0, 0), 3), ((2, 0, 0), 2), ((2, 1, 0), 2), ((2, 1, 0), 3),
    ((1, 1, 0), 3), ((1, 0, 0, 0), 2), ((2, 1, 0, 0), 2), ((1, 1, 0, 0), 3),
])
def test_cores_match_the_public_forms_on_every_coset(lam, p):
    # k = |lam| is v_p(det) of every coset of the type and of any product
    # with a unimodular matrix; the Smith core also matches the minors.
    n, k = len(lam), sum(lam)
    shear = tuple(tuple(int(i == j) + (i == j + 1) - 2 * (i == j + 2)
                        for j in range(n)) for i in range(n))
    for g in decompose_double_coset(lam, n, p):
        assert snf_core(g.rep, p, k) == snf_type(g.rep, p) == \
            snf_type_by_minors(g.rep, p) == g.snf() == lam
        m = mat_mul(mat_mul(shear, g.rep), shear)
        assert hnf_core(m, p, k) == hnf_padic(m, p)
        assert snf_core(m, p, k) == snf_type(m, p) == lam


def _integral(y):
    if all(e.denominator == 1 for row in y for e in row):
        return tuple(tuple(int(e) for e in row) for row in y)
    return None


@pytest.mark.parametrize("a,b,p", [
    ((1, 0), (1, 0), 2), ((2, 0), (1, 1), 3), ((2, 1, 0), (1, 1, 0), 3),
    ((2, 1, 0), (2, 1, 0), 2), ((2, 1, 0, 0), (1, 1, 0, 0), 2),
    ((1, 1, 0, 0), (2, 1, 1, 0), 2), ((1, 1, 0, 0, 0), (2, 1, 0, 0, 0), 2),
], ids=lambda t: "".join(map(str, t)) if isinstance(t, tuple) else f"p{t}")
def test_product_counts_match_brute_force_with_smith_forms_on_matching_ends(
        monkeypatch, a, b, p):
    # every candidate nu is counted as #{x : x**-1 p**nu in K p**b K} by the
    # exact inverse and the minors; the orbit, the counts and PCoset.snf
    # take the valuation they know (no as_matrix and no determinant), and a
    # Smith form runs only for n >= 4, on each y whose ends are b_1 and b_n
    n = len(a)
    pd._coset_orbit.cache_clear()
    rows = [x.rep for x in decompose_double_coset(a, n, p)]
    nus = pd._product_types(a, b)
    expected, matching = [0] * len(nus), []
    for x in rows:
        for t, nu in enumerate(nus):
            y = _integral(mat_mul(inverse_rational(x), [
                [p ** v * (i == j) for j, v in enumerate(nu)]
                for i in range(n)]))
            if y is None:
                continue
            s = snf_type_by_minors(y, p)
            expected[t] += s == b
            if (s[0], s[-1]) == (b[0], b[-1]):
                matching.append(y)

    def forbidden(*args):
        raise AssertionError("validation on a known valuation")
    smith = []
    with monkeypatch.context() as m:
        for name in ("as_matrix", "det"):
            m.setattr(intmat, name, forbidden)
        m.setattr(pd, "snf_core",
                  lambda y, p, k: smith.append(y) or snf_core(y, p, k))
        pd._coset_orbit.cache_clear()
        cosets = decompose_double_coset(a, n, p)
        assert [x.rep for x in cosets] == rows
        assert all(g.snf() == a for g in cosets)
        smith.clear()
        assert pd._product_counts(rows, a[0], b, nus, p) == expected
    assert [tuple(map(tuple, y)) for y in smith] == (matching if n >= 4
                                                     else [])
    assert sum(expected) and (n <= 3 or matching)
    pd._coset_orbit.cache_clear()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_solve_gives_both_ends_of_every_type(data):
    # z = x**-1 p**s1 with s1 the largest part of x's type; with r_i the
    # least valuation in row i of x and c_j that in column j of z, less s1,
    # y = x**-1 p**nu is integral iff min_j(nu_j + c_j) >= 0, and then its
    # type runs from max_i(nu_i - r_i) down to min_j(nu_j + c_j)
    n = data.draw(st.integers(1, 5))
    p = data.draw(st.sampled_from((2, 3, 5)))
    exps = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    x = tuple(tuple(p ** e if j == i else data.draw(
        st.integers(0, p ** e - 1)) if j > i else 0 for j in range(n))
        for i, e in enumerate(exps))
    nu = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    s1 = snf_type(x, p)[0]
    z = pd._back_substitute(x, [p ** s1] * n)
    r = [min(intmat.p_valuation(e, p) for e in row if e) for row in x]
    c = [min(intmat.p_valuation(e, p) for e in col if e) - s1
         for col in zip(*z)]
    low = min(v + cj for v, cj in zip(nu, c))
    y = pd._back_substitute(x, [p ** v for v in nu])
    assert (low < 0) == (y is None)
    if y is not None:
        s = snf_type_by_minors(y, p)
        assert (s[0], s[-1]) == (max(v - ri for v, ri in zip(nu, r)), low)
        assert sum(s) == sum(nu) - sum(exps)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_hermite_step_is_the_hermite_form_of_the_moved_matrix(data):
    # a Hermite form with diagonal exponents <= 2 is a coset of its own
    # type, so any such form is an orbit representative
    n = data.draw(st.integers(2, 5))
    p = data.draw(st.sampled_from((2, 3, 5)))
    exps = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    rep = tuple(tuple(p ** a if j == i else data.draw(
        st.integers(0, p ** a - 1)) if j > i else 0 for j in range(n))
        for i, a in enumerate(exps))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.sampled_from([j for j in (i - 1, i + 1) if 0 <= j < n]))
    moved = list(rep)
    moved[i] = tuple(x + y for x, y in zip(rep[i], rep[j]))
    k = sum(exps)
    assert pd._hermite_step(rep, i, j, p, p ** (k + 1)) == \
        hnf_core(moved, p, k) == hnf_padic(moved, p)


def test_orbit_and_convolution_run_no_full_hermite_form(monkeypatch):
    # the orbit re-eliminates two rows once per downward move, n - 1 per
    # coset, and convolution counts on the cached rows with no PCoset
    def forbidden(*args):
        raise AssertionError("a full Hermite form or a PCoset was built")
    monkeypatch.setattr(intmat, "hnf_core", forbidden)
    eliminations = []
    monkeypatch.setattr(pd, "_eliminate", lambda h, rows, p, mod: (
        eliminations.append(tuple(rows)), intmat._eliminate(h, rows, p, mod)))
    pd._coset_orbit.cache_clear()
    orbit = pd._coset_orbit((2, 1, 0, 0), 4, 3)
    assert len(orbit) == 4680 and len(eliminations) == 4680 * 3
    assert {len(rows) for rows in eliminations} == {2}
    monkeypatch.setattr(PCoset, "__post_init__", forbidden)
    # (2,2,1) has the fewer cosets and a central part to move into nu
    a, b = (2, 2, 1), (2, 1, 0)
    h1, h2 = (DoubleCosetSum.basis(t, 3, 2) for t in (a, b))
    assert convolve_double(h1, h2).terms == hall.hall_product(a, b, 3, 2)
    pd._coset_orbit.cache_clear()


def test_convolve_double_rejects_mismatch():
    h = DoubleCosetSum.basis((1, 0), 2, 2)
    with pytest.raises(CosetError):
        convolve_double(h, DoubleCosetSum.basis((1, 0, 0), 3, 2))
    with pytest.raises(CosetError):
        convolve_double(h, DoubleCosetSum.basis((1, 0), 2, 3))


def test_unit_laws():
    h = DoubleCosetSum.basis((2, 1), 2, 2)
    e = DoubleCosetSum.unit(2, 2)
    assert convolve_double(h, e) == h
    assert convolve_double(e, h) == h


def test_unit_product_has_one_candidate_type():
    # the product's types contain both factors' types, so a product with
    # the unit has one candidate type
    start = time.perf_counter()
    h = DoubleCosetSum.basis((40,) + (0,) * 7, 8, 2)
    assert convolve_double(h, DoubleCosetSum.unit(8, 2)) == h
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_types_are_the_types_containing_both_factors(n):
    for a, b in product(types(n, 2), repeat=2):
        # shifted by the central parts: nu - a_n - b_n contains a - a_n
        # and b - b_n
        expected = [nu for nu in combinations_with_replacement(
                        range(a[0] + b[0], -1, -1), n)
                    if sum(nu) == sum(a) + sum(b)
                    and all(v >= x + b[-1] and v >= y + a[-1]
                            for v, x, y in zip(nu, a, b))]
        assert pd._product_types(a, b) == expected, (a, b)


def test_associativity_random():
    rng = random.Random(5)
    for _ in range(4):
        n, p = rng.choice([(2, 2), (2, 3), (3, 2)])
        a, b, c = (DoubleCosetSum.basis(rand_type(rng, n), n, p)
                   for _ in range(3))
        assert convolve_double(convolve_double(a, b), c) == \
            convolve_double(a, convolve_double(b, c))


def test_measure_intersection():
    assert measure_intersection(PCoset.unit(2, 2)) == 1
    assert measure_intersection(
        PCoset.from_matrix([[1, 0], [0, 2]], 2)) == Fraction(1, 3)
    assert measure_intersection(
        PCoset.from_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 3]], 3)) == \
        Fraction(1, 13)


def test_left_coset_convolution_consistency():
    # 1_{g1K} * 1_{g2K} = measure_intersection(g2) * expansion of 1_{g1 K g2 K}
    # realized here as: the left expansion of g1 * (K g2 K) has total mass
    # equal to 1 / measure_intersection(g2)
    g1 = PCoset.from_matrix([[2, 1], [0, 1]], 2)
    g2 = PCoset.from_matrix([[1, 0], [0, 2]], 2)
    h = DoubleCosetSum.basis(g2.snf(), 2, 2)
    out = convolve_left({g1: Fraction(1)}, h)
    assert sum(out.values()) * measure_intersection(g2) == 1


def test_sigma_to_torus():
    assert sigma_to_torus({PCoset.unit(2, 2): Fraction(1)}, 2) == G.one(2)
    g = PCoset.from_matrix([[1, 0], [0, 2]], 2)
    assert sigma_to_torus({g: Fraction(1)}, 2) == G.exp((0, -1))
    f = expand(DoubleCosetSum.basis((1, 0), 2, 2))
    assert sigma_to_torus(f, 2) == \
        G.exp((0, -1)) + G.exp((-1, 0), Laurent({0: 2}))


def test_satake_unit_and_central():
    assert satake_numeric(DoubleCosetSum.unit(3, 3)) == G.one(3)
    cen = satake_numeric(DoubleCosetSum.basis((1, 1), 2, 2))
    assert cen == G.exp((-1, -1))


def test_satake_tp():
    sat = satake_numeric(DoubleCosetSum.basis((1, 0), 2, 2))
    v = Laurent.v_power(1)
    assert sat == G.exp((0, -1), v) + G.exp((-1, 0), v)


@pytest.mark.parametrize("p", [2, 3])
def test_satake_matches_coset_expansion(p):
    for n in (1, 2, 3):
        for lam in types(n, 2):
            h = DoubleCosetSum.basis(lam, n, p)
            assert satake_numeric(h) == satake_by_expansion(h), (lam, p)
    h = DoubleCosetSum(3, p, {(1, 0, 0): 1, (2, 1, 0): Fraction(2, 7),
                              (2, 2, 2): -3, (1, 1, 0): 5})
    assert satake_numeric(h) == satake_by_expansion(h)


def _satake_by_v_powers(h):
    # each term a v-power Laurent, summed per exponent, then reduce_mod_v2
    delta, out = pd.gl_delta(h.n), {}
    for lam, c in h.terms.items():
        e = sum(d * x for d, x in zip(delta, lam))
        for a, k in hall_littlewood_by_fractions(lam, h.p).items():
            chi = tuple(-x for x in a)
            out[chi] = out.get(chi, Laurent.zero()) + Laurent.v_power(e, c * k)
    return reduce_mod_v2(G(h.n, out), h.p)


def _scalar_types(x):
    return {chi: {e: type(c) for e, c in lau.coeffs.items()}
            for chi, lau in x.terms.items()}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_satake_numeric_keeps_the_exact_form_of_the_v_power_sum(data):
    # equal terms, and per exponent of v the same int or Fraction, which is
    # what the JSON output writes
    n = data.draw(st.integers(1, 5))
    p = data.draw(st.sampled_from((2, 3, 5)))
    lams = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(
        lambda t: tuple(sorted(t, reverse=True)))
    coeffs = st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=6)
    h = DoubleCosetSum(n, p, data.draw(
        st.dictionaries(lams, coeffs, min_size=1, max_size=4)))
    new, old = satake_numeric(h), _satake_by_v_powers(h)
    assert new == old
    assert _scalar_types(new) == _scalar_types(old)


def test_satake_numeric_keeps_ints_and_fractions_apart():
    h = DoubleCosetSum(3, 2, {(2, 1, 0): Fraction(1, 3), (1, 0, 0): 2})
    kinds = {t for chi in _scalar_types(satake_numeric(h)).values()
             for t in chi.values()}
    assert kinds == {int, Fraction}
    assert _scalar_types(satake_numeric(h)) == \
        _scalar_types(_satake_by_v_powers(h))


@pytest.mark.parametrize("n,hi", [(2, 4), (3, 3), (4, 2)])
@pytest.mark.parametrize("p", [2, 3])
def test_hall_littlewood_matches_symmetrization(n, hi, p):
    oracle = hall.HallLittlewood(n, Fraction(1, p))
    for lam in types(n, hi):
        d, poly = pd._hall_littlewood(lam, p)
        assert {a: Fraction(k, p ** d) for a, k in poly.items()} == \
            oracle.P(lam), lam


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_hall_littlewood_in_scaled_ints_matches_the_fraction_rule(data):
    n = data.draw(st.integers(1, 5))
    lam = tuple(sorted(data.draw(st.lists(
        st.integers(0, 3), min_size=n, max_size=n)), reverse=True))
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    d, poly = pd._hall_littlewood(lam, p)
    assert type(d) is int and d >= 0
    assert all(type(k) is int for k in poly.values())
    assert {a: Fraction(k, p ** d) for a, k in poly.items()} == \
        hall_littlewood_by_fractions(lam, p)


def test_satake_numeric_of_the_zero_sum_is_zero():
    assert satake_numeric(DoubleCosetSum(3, 2)) == G.zero(3)


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_satake_homomorphism(n, p):
    rng = random.Random(100 * n + p)
    for _ in range(3):
        h1 = DoubleCosetSum.basis(rand_type(rng, n), n, p)
        h2 = DoubleCosetSum.basis(rand_type(rng, n), n, p)
        lhs = satake_numeric(convolve_double(h1, h2))
        rhs = reduce_mod_v2(satake_numeric(h1) * satake_numeric(h2), p)
        assert lhs == rhs


def test_cross_module_convention_lock():
    rd = build_group("GL(2)")
    H = hecke_polynomial(rd, (1, 0))
    for p in (2, 3):
        lhs = satake_numeric(DoubleCosetSum.basis((1, 0), 2, p))
        rhs = reduce_mod_v2(reflect(-H.coefficients[1]), p)
        assert lhs == rhs


def test_double_coset_json_roundtrip():
    h = DoubleCosetSum(2, 3, {(2, 0): Fraction(1, 2), (1, 1): 3})
    assert pd.double_coset_sum_from_json(pd.double_coset_sum_to_json(h)) == h


@st.composite
def double_coset_sums(draw):
    n = draw(st.integers(1, 3))
    types = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
        lambda t: tuple(sorted(t, reverse=True)))
    coeffs = st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=5)
    return DoubleCosetSum(n, draw(st.sampled_from((2, 3, 5))),
                          draw(st.dictionaries(types, coeffs, max_size=4)))


@settings(max_examples=50, deadline=None)
@given(double_coset_sums())
def test_double_coset_json_roundtrip_property(h):
    text = pd.double_coset_sum_to_json(h)
    back = pd.double_coset_sum_from_json(text)
    assert back == h and pd.double_coset_sum_to_json(back) == text


@pytest.mark.parametrize("build", [
    lambda: DoubleCosetSum(2, 3, {(1.7, 0.2): 1}),
    lambda: DoubleCosetSum(2.0, 3),
    lambda: DoubleCosetSum(2, 3.0),
    lambda: DoubleCosetSum.basis((Fraction(3, 2), 0), 2, 3),
    lambda: pd.double_coset_sum_from_dict({"n": 2.9, "p": 3, "terms": []}),
    lambda: pd.double_coset_sum_from_dict(
        {"n": 2, "p": 3, "terms": [{"type": [1.5, 0], "coeff": [1, 1]}]}),
    lambda: decompose_double_coset((1.0, 0), 2, 3),
    lambda: decompose_double_coset((1, 0), 2.0, 3),
    lambda: coset_count((1, 0.5), 3),
], ids=["sum-type", "sum-n", "sum-p", "basis-type", "json-n", "json-type",
        "decompose-type", "decompose-n", "count-type"])
def test_non_int_sizes_primes_and_types_are_refused(build):
    with pytest.raises(CosetError, match="not 2 ints"):
        build()


def _bool_json(type_, coeff):
    return pd.double_coset_sum_from_json(json.dumps(
        {"n": 2, "p": 2, "terms": [{"type": type_, "coeff": coeff}]}))


@pytest.mark.parametrize("build", [
    lambda: pd.double_coset_sum_to_json(DoubleCosetSum(2, 2, {(True, 0): 1})),
    lambda: DoubleCosetSum(2, 2, {(1, 0): True}),
    lambda: DoubleCosetSum(True, 2),
    lambda: PCoset(True, 2, ((1,),)),
    lambda: PCoset(1, 2, ((True,),)),
    lambda: coset_count((True, False), 2),
    lambda: decompose_double_coset((1, False), 2, 2),
    lambda: _bool_json([True, 0], [1, 1]),
    lambda: _bool_json([1, 0], [True, 1]),
], ids=["sum-type", "sum-coeff", "sum-n", "coset-n", "coset-rep",
        "count-type", "decompose-type", "json-type", "json-coeff"])
def test_bools_are_refused_where_ints_are_asked(build):
    # a bool would pass as 0 or 1 and be written to JSON as true or false
    with pytest.raises(CosetError):
        build()


@pytest.mark.parametrize("d", [
    {},
    [],
    {"n": 2, "terms": []},
    {"n": 2, "p": 3, "terms": 5},
    {"n": 2, "p": 3, "terms": [5]},
    {"n": 2, "p": 3, "terms": [{"type": [1, 0]}]},
], ids=["empty", "list", "no-p", "int-terms", "int-term", "term-no-coeff"])
def test_double_coset_sum_from_dict_refuses_missing_or_mistyped_fields(d):
    with pytest.raises(CosetError, match="is a dict|is not a dict"):
        pd.double_coset_sum_from_dict(d)


def _sum_dict(*terms):
    return {"n": 2, "p": 3, "terms": [{"type": [1, 0], "coeff": c}
                                      for c in terms]}


@pytest.mark.parametrize("build", [
    lambda: pd.double_coset_sum_from_dict(_sum_dict([1, 1], [1, 1])),
    lambda: pd.double_coset_sum_from_dict(_sum_dict([1, 1], [0, 1])),
    lambda: pd.double_coset_sum_from_dict(_sum_dict([0.5])),
    lambda: pd.double_coset_sum_from_dict(_sum_dict(["1/2"])),
    lambda: pd.double_coset_sum_from_dict(_sum_dict([1, 0])),
    lambda: pd.double_coset_sum_from_dict(_sum_dict([1, 2, 3])),
    lambda: pd.double_coset_sum_from_dict(_sum_dict([1.0, 2])),
    lambda: pd.double_coset_sum_from_dict(_sum_dict(5)),
    lambda: DoubleCosetSum(2, 3, {(1, 0): 0.1}),
    lambda: DoubleCosetSum(2, 3, {(1, 0): "1/2"}),
    lambda: DoubleCosetSum.basis((1, 0), 2, 3, 0.5),
], ids=["repeated-type", "repeated-type-zero", "one-float", "one-string",
        "zero-denominator", "three-ints", "float-numerator", "int-coeff",
        "float", "string", "basis-float"])
def test_inexact_or_repeated_coefficients_are_refused(build):
    with pytest.raises(CosetError, match="coefficient|repeated"):
        build()


@pytest.mark.parametrize("n,p", [(2, 4), (2, 1), (2, 0), (2, -3), (0, 2)])
def test_constructors_reject_bad_size_or_prime(n, p):
    with pytest.raises(CosetError):
        PCoset(n, p, ((1, 0), (0, 1)))
    with pytest.raises(CosetError):
        DoubleCosetSum(n, p)
    with pytest.raises(CosetError):
        DoubleCosetSum.basis((1,) + (0,) * max(n - 1, 0), n, p)
