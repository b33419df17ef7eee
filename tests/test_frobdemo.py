import math
import random
import time
from array import array
from fractions import Fraction
from functools import cache
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heckesat import elliptic as el
from heckesat.cli import main
from heckesat.corresp import compose, frobenius_corr, identity_corr
from heckesat.elliptic import (
    CountBoundError,
    CurveError,
    EllipticCurve,
    FieldExt,
    all_curves,
    count_points,
    export_point_set,
    frobenius_data,
    satake_link,
    verify_count_consistency,
    verify_frobenius_annihilation,
)


def test_singular_curve_rejected():
    with pytest.raises(CurveError):
        EllipticCurve(5, 0, 0)
    with pytest.raises(CurveError):
        EllipticCurve(4, 1, 1)
    with pytest.raises(CurveError):
        EllipticCurve(2, 1, 1)


def test_field_ext_basics():
    f = FieldExt(5, 2)
    assert f.order == 25
    x = 5  # the digits (c_0, c_1) = (0, 1) in base 5
    assert f.mul(1, x) == x
    assert f.mul(x, f.inv(x)) == 1
    assert len(f.frobenius) == 25
    # Frobenius fixes exactly the prime field
    fixed = [a for a in range(f.order) if f.frobenius[a] == a]
    assert len(fixed) == 5


def test_field_ext_modulus_is_deterministic():
    assert FieldExt(5, 2).modulus == FieldExt(5, 2).modulus
    assert FieldExt(3, 3).modulus == FieldExt(3, 3).modulus


def test_field_ext_degree_four():
    f = FieldExt(3, 4)
    assert f.order == 81
    x = 3  # the digits (c_0, c_1, c_2, c_3) = (0, 1, 0, 0) in base 3
    power = 1
    for _ in range(f.order - 1):
        power = f.mul(power, x)
    assert power == 1


def test_count_points_anchors():
    assert count_points(EllipticCurve(5, 1, 1), 1) == 9
    assert count_points(EllipticCurve(5, 1, 1), 2) == 27
    assert count_points(EllipticCurve(5, 0, 1), 1) == 6


@pytest.mark.parametrize("build", [
    lambda: EllipticCurve(5, 1.5, 1),
    lambda: EllipticCurve(5, 1, "1"),
    lambda: EllipticCurve(5.0, 1, 1),
    lambda: FieldExt(5, 2.0),
    lambda: FieldExt(5.0, 1),
    lambda: count_points(EllipticCurve(5, 1, 1), 1.5),
    # 2.0 == 2 would find the cached F_25 had the cache been read first
    lambda: (count_points(EllipticCurve(5, 1, 1), 2),
             count_points(EllipticCurve(5, 1, 1), 2.0)),
], ids=["float-a", "str-b", "float-p", "float-k", "float-field-p",
        "count-float-k", "count-cached-float-k"])
def test_non_int_curve_and_field_parameters_are_refused(build):
    with pytest.raises(CurveError, match="ints"):
        build()


@pytest.mark.parametrize("k_max", [0, -1, 1.5])
def test_frobenius_data_refuses_k_max_below_one_or_not_an_int(k_max):
    with pytest.raises(CurveError, match="k_max"):
        frobenius_data(EllipticCurve(5, 1, 1), k_max)


def test_count_bound():
    with pytest.raises(CurveError):
        count_points(EllipticCurve(101, 1, 1), 4)


def test_field_bound_at_construction():
    start = time.perf_counter()
    with pytest.raises(CountBoundError):
        FieldExt(101, 4)
    assert time.perf_counter() - start < 1


def test_frobenius_data():
    data = frobenius_data(EllipticCurve(5, 1, 1), 2)
    assert data.a_p == -3 and data.ordinary
    data = frobenius_data(EllipticCurve(5, 0, 1), 2)
    assert data.a_p == 0 and not data.ordinary


def test_count_consistency():
    assert verify_count_consistency(EllipticCurve(5, 1, 1), 3)
    assert verify_count_consistency(EllipticCurve(5, 0, 1), 2)
    assert not verify_count_consistency(EllipticCurve(5, 1, 1), 2, a_p=-2)


def test_frobenius_annihilation():
    assert verify_frobenius_annihilation(EllipticCurve(5, 1, 1), 2)
    assert not verify_frobenius_annihilation(EllipticCurve(5, 1, 1), 2,
                                             a_p=-2)


@pytest.mark.parametrize("check", [
    lambda curve: verify_frobenius_annihilation(curve, 2),
    satake_link,
], ids=["annihilation", "satake_link"])
def test_a_p_outside_hasse_bound_raises(monkeypatch, check):
    # N_1 = 20 over F_5 gives a_p = -14, and 14**2 > 4 * 5
    monkeypatch.setattr(el, "count_points", lambda curve, k=1: 20)
    with pytest.raises(RuntimeError, match="Hasse bound"):
        check(EllipticCurve(5, 1, 1))


@cache
def _reference_field(p, k):
    """F_{p^k} tabulated once by schoolbook arithmetic on base-p digits,
    with the library's modulus: add[a][b], mul[a][b], neg[a], inv[a] and
    frob[a] = a^p, sharing no log, antilog or Zech table with the code
    they check."""
    modulus = el.field_ext(p, k).modulus
    q = range(p ** k)
    mul = [[_schoolbook_mul(p, modulus, a, b) for b in q] for a in q]
    return SimpleNamespace(
        p=p, mul=mul,
        add=[[_schoolbook_add(p, k, a, b) for b in q] for a in q],
        neg=[_schoolbook_neg(p, k, a) for a in q],
        inv=[row.index(1) if a else None for a, row in enumerate(mul)],
        frob=[_schoolbook_pow(p, modulus, a, p) for a in q])


def _negate_point(field, P):
    neg = _reference_field(field.p, field.k).neg
    return None if P is None else (P[0], neg[P[1]])


def _reference_add(field, curve, P, Q):
    """Chord-tangent addition on the schoolbook tables, one lookup per
    field operation: the reference for the table-driven ``add_points``."""
    if P is None:
        return Q
    if Q is None:
        return P
    f = _reference_field(field.p, field.k)
    add, mul = f.add, f.mul

    def sub(u, w):
        return add[u][f.neg[w]]

    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and not add[y1][y2]:
        return None
    if P == Q:
        # F_p embeds as 0..p-1, so 3 and a are their residues mod p
        num = add[mul[3 % f.p][mul[x1][x1]]][curve.a % f.p]
        den = add[y1][y1]
    else:
        num = sub(y2, y1)
        den = sub(x2, x1)
    lam = mul[num][f.inv[den]]
    x3 = sub(sub(mul[lam][lam], x1), x2)
    y3 = sub(mul[lam][sub(x1, x3)], y1)
    return (x3, y3)


def _scalar_mult(field, curve, m, P):
    """[m] P by double-and-add."""
    if m < 0:
        return _scalar_mult(field, curve, -m, _negate_point(field, P))
    out = None
    while m:
        if m & 1:
            out = _reference_add(field, curve, out, P)
        m >>= 1
        if m:  # no doubling after the last bit
            P = _reference_add(field, curve, P, P)
    return out


def _annihilates_pointwise(curve, k, a_p):
    """pi^2(P) - [a_p] pi(P) + [p] P = O checked point by point, each
    multiple by double-and-add: the reference for the table walk."""
    field = el.field_ext(curve.p, k)
    frob = _reference_field(curve.p, k).frob
    for P in el.enumerate_points(field, curve):
        if P is None:
            continue
        piP = (frob[P[0]], frob[P[1]])
        pi2P = (frob[piP[0]], frob[piP[1]])
        total = _reference_add(field, curve, pi2P,
                               _scalar_mult(field, curve, -a_p, piP))
        total = _reference_add(field, curve, total,
                               _scalar_mult(field, curve, curve.p, P))
        if total is not None:
            return False
    return True


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (7, 1), (7, 2)])
def test_add_points_matches_field_call_reference(p, k):
    # every ordered pair, so P = Q, Q = -P and 2-torsion points all occur
    field = el.field_ext(p, k)
    two_torsion = 0
    for curve in all_curves(p):
        pts = el.enumerate_points(field, curve)
        two_torsion += sum(1 for P in pts if P and not P[1])
        for P, Q in product(pts, repeat=2):
            assert (el.add_points(field, curve, P, Q)
                    == _reference_add(field, curve, P, Q)), (curve, P, Q)
    assert two_torsion


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (7, 2)])
def test_add_points_refuses_equal_x_with_other_y(p, k):
    # (x, y1) and (x, y2) with y2 != +-y1 cannot both lie on the curve
    field = el.field_ext(p, k)
    curve = EllipticCurve(p, 1, 1)
    neg = _reference_field(p, k).neg
    elements = range(field.order)
    for x, y1, y2 in product(range(3), elements, elements):
        if y2 not in (y1, neg[y1]):
            with pytest.raises(CurveError, match="division by zero"):
                el.add_points(field, curve, (x, y1), (x, y2))


def test_group_law_sanity():
    curve = EllipticCurve(5, 1, 1)
    field = FieldExt(5, 1)
    pts = el.enumerate_points(field, curve)
    assert len(pts) == 9
    # N * P = O for every point, N the group order
    for P in pts:
        assert _scalar_mult(field, curve, 9, P) is None


@pytest.mark.parametrize("k", [1, 2])
def test_scalar_mult_is_repeated_addition(k):
    curve = EllipticCurve(5, 1, 1)
    field = FieldExt(5, k)
    pts = el.enumerate_points(field, curve)
    bound = 2 * len(pts)
    for P in pts:
        for sign, Q in ((1, P), (-1, _negate_point(field, P))):
            total = None  # m * P by m - 1 additions, for m = 0, ..., bound
            for m in range(bound + 1):
                assert _scalar_mult(field, curve, sign * m, P) == total
                total = el.add_points(field, curve, total, Q)


@pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (7, 1), (7, 2)])
def test_multiples_match_double_and_add(p, k):
    field = el.field_ext(p, k)
    for curve in all_curves(p):
        pts = el.enumerate_points(field, curve)
        for R in pts:
            table = el.multiples(field, curve, R)
            assert len(pts) % len(table) == 0
            assert None not in table[1:]
            for j, P in enumerate(table):
                assert P == _scalar_mult(field, curve, j, R)
            assert _scalar_mult(field, curve, len(table), R) is None


@pytest.mark.parametrize("p,k", [(p, k) for p in (3, 5, 7) for k in (1, 2)]
                         + [(3, 3), (5, 3)])
def test_annihilation_matches_pointwise_check(p, k):
    bound = math.isqrt(4 * p)
    for curve in all_curves(p):
        for a_p in range(-bound, bound + 1):
            assert (verify_frobenius_annihilation(curve, k, a_p)
                    == _annihilates_pointwise(curve, k, a_p)), (curve, a_p)


@pytest.mark.parametrize("p", [5, 7])
def test_annihilation_walks_each_cyclic_subgroup_once(monkeypatch, p):
    add_points, multiples = el.add_points, el.multiples
    calls, tables = [0], []

    def counting_add(*args):
        calls[0] += 1
        return add_points(*args)

    def recording_multiples(field, curve, R):
        tables.append(multiples(field, curve, R))
        return tables[-1]

    monkeypatch.setattr(el, "add_points", counting_add)
    monkeypatch.setattr(el, "multiples", recording_multiples)
    field = el.field_ext(p, 2)
    for curve in all_curves(p):
        pts = el.enumerate_points(field, curve)
        calls[0], tables[:] = 0, []
        assert verify_frobenius_annihilation(curve, 2)
        covered = {None}
        for table in tables:
            assert table[1] not in covered  # each walk starts uncovered
            covered.update(table)
        assert covered == set(pts)
        # the walks alone: pi^2 is the identity on E(F_{p^2}), so each
        # check reads both sides off a table
        assert calls[0] == sum(len(table) - 1 for table in tables)


@pytest.mark.parametrize("p,k", [(p, k) for p in (5, 7) for k in (1, 2, 3)])
def test_rhs_sweep_with_a_or_b_zero(p, k):
    f = el.field_ext(p, k)
    curves = [c for c in all_curves(p) if c.a == 0 or c.b == 0]
    assert {c.a == 0 for c in curves} == {True, False}
    for curve in curves:
        pts = _brute_force_points(curve, k)
        assert el.enumerate_points(f, curve) == [None] + pts
        assert count_points(curve, k) == len(pts) + 1


def test_satake_link():
    ok, coeffs = satake_link(EllipticCurve(5, 1, 1))
    assert ok
    assert coeffs == [Fraction(5), Fraction(3), Fraction(1)]  # t^2 + 3t + 5
    ok, coeffs = satake_link(EllipticCurve(5, 0, 1))
    assert ok
    assert coeffs[1] == 0  # supersingular: t^2 + p


def test_satake_link_takes_a_given_a_p_without_a_count(monkeypatch):
    curve = EllipticCurve(5, 1, 1)
    monkeypatch.setattr(el, "count_points", None)  # any count would raise
    assert satake_link(curve, -3) == (True, [5, 3, 1])
    # -5 is no trace of Frobenius: 25 > 4 * 5, so the roots are not Weil
    assert satake_link(curve, -5) == (False, [5, 5, 1])
    with pytest.raises(CurveError, match="a_p"):
        satake_link(curve, -3.0)


def test_frobdemo_counts_each_curve_four_times(monkeypatch, capsys):
    calls, count = [], el.count_points
    monkeypatch.setattr(el, "count_points",
                        lambda curve, k=1: calls.append(k) or count(curve, k))
    assert main(["verify", "frobdemo", "--p", "7", "--exhaustive"]) == 0
    # a_p once, then N_1, N_2, N_3 in the count check
    assert sorted(calls) == sorted([1, 1, 2, 3] * len(all_curves(7)))
    assert "passed: True" in capsys.readouterr().out


def test_export_point_set():
    curve = EllipticCurve(5, 1, 1)
    ps1 = export_point_set(curve, 1)
    assert ps1.size == 9
    assert ps1.frobenius == tuple(range(9))
    ps2 = export_point_set(curve, 2)
    assert ps2.size == 27
    gq = frobenius_corr(ps2)
    assert compose(gq, gq).weights == identity_corr(ps2).weights
    assert sum(1 for i in range(27) if ps2.frobenius[i] == i) == 9


def test_exhaustive_small_primes():
    for p in (3, 5):
        for curve in all_curves(p):
            assert verify_count_consistency(curve, 3)
            assert verify_frobenius_annihilation(curve, 2)
            assert satake_link(curve)[0]


def test_hasse_bound_and_ordinary_dichotomy():
    for p in (3, 5, 7):
        for curve in all_curves(p):
            data = frobenius_data(curve, 1)
            assert data.a_p ** 2 <= 4 * p
            assert data.ordinary == (data.a_p % p != 0)


def test_sampled_larger_primes():
    rng = random.Random(11)
    for p in (7, 11, 13):
        for curve in rng.sample(all_curves(p), 5):
            assert verify_count_consistency(curve, 3)
            assert verify_frobenius_annihilation(curve, 2)


# ---------------------------------------------------------------------------
# the table-driven field against test-local references

SMALL_FIELDS = ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3))


def _digits(a, p, k):
    return [a // p ** i % p for i in range(k)]


def _schoolbook_mul(p, modulus, a, b):
    """a * b as polynomials over F_p, long-divided by x^k + modulus."""
    k = len(modulus)
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(_digits(a, p, k)):
        for j, y in enumerate(_digits(b, p, k)):
            prod[i + j] += x * y
    f = list(modulus) + [1]
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i]
        for j in range(k + 1):
            prod[i - k + j] -= c * f[j]
    return sum(c % p * p ** i for i, c in enumerate(prod[:k]))


def _schoolbook_pow(p, modulus, a, e):
    out = 1
    for _ in range(e):
        out = _schoolbook_mul(p, modulus, out, a)
    return out


def _schoolbook_add(p, k, a, b):
    return sum((x + y) % p * p ** i for i, (x, y) in
               enumerate(zip(_digits(a, p, k), _digits(b, p, k))))


def _schoolbook_neg(p, k, a):
    return sum(-x % p * p ** i for i, x in enumerate(_digits(a, p, k)))


def _powers_of_x(p, modulus):
    """[x^0, x^1, ..., x^(q-1)], q = p^k, by schoolbook multiplication."""
    k = len(modulus)
    x = _schoolbook_mul(p, modulus, 1, p if k > 1 else -modulus[0] % p)
    powers = [1]
    for _ in range(p ** k - 1):
        powers.append(_schoolbook_mul(p, modulus, powers[-1], x))
    return powers


def _x_is_primitive(p, modulus):
    """x^(q-1) = 1 and x, x^2, ..., x^(q-1) are q - 1 distinct elements."""
    powers = _powers_of_x(p, modulus)[1:]
    return powers[-1] == 1 and len(set(powers)) == len(powers)


def _brute_force_points(curve, k):
    """The affine points of curve over F_{p^k}, x then y increasing, by
    schoolbook arithmetic at every x and y."""
    p, modulus = curve.p, el.field_ext(curve.p, k).modulus

    def mul(a, b):
        return _schoolbook_mul(p, modulus, a, b)

    def add(a, b):
        return _schoolbook_add(p, k, a, b)

    roots = {}
    for y in range(p ** k):
        roots.setdefault(mul(y, y), []).append(y)
    return [(x, y) for x in range(p ** k)
            for y in roots.get(add(mul(mul(x, x), x),
                                   add(mul(curve.a % p, x), curve.b % p)), [])]


TABLE_FIELDS = SMALL_FIELDS + ((3, 4), (2, 6))


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_field_matches_schoolbook_arithmetic(p, k):
    f = FieldExt(p, k)
    n = f.order - 1
    powers = _powers_of_x(p, f.modulus)[:n]
    assert list(f._exp) == powers * 2
    assert [f._log[v] for v in powers] == list(range(n)) and f._log[0] == 0
    # zech[e] = log(1 + x^e), or -1 where 1 + x^e = 0
    for e, v in enumerate(powers):
        s = _schoolbook_add(p, k, 1, v)
        assert f._zech[e] == (f._log[s] if s else -1), e
    for a, b in product(range(f.order), repeat=2):
        assert f.mul(a, b) == _schoolbook_mul(p, f.modulus, a, b)


# every field the frobenius bench workload builds above F_p
BENCH_FIELDS = ((5, 3), (7, 2), (7, 3), (11, 2), (11, 3), (13, 2), (13, 3))


@pytest.mark.parametrize("p,k", SMALL_FIELDS + ((2, 1), (3, 1), (7, 1))
                         + BENCH_FIELDS + ((3, 4), (2, 6)))
def test_modulus_is_first_primitive(p, k):
    modulus = FieldExt(p, k).modulus
    # lexicographic order on (a_{k-1}, ..., a_0)
    candidates = [c[::-1] for c in product(range(p), repeat=k)]
    first = next(m for m in candidates if _x_is_primitive(p, m))
    assert modulus == first


@pytest.mark.parametrize("p,k", SMALL_FIELDS + ((2, 1), (3, 1), (7, 1)))
def test_walk_judges_every_candidate_as_schoolbook(p, k):
    # every monic modulus of degree k, a_0 = 0 and reducible ones included
    n = p ** k - 1
    generators = el._generators(p)
    verdicts = []
    for modulus in product(range(p), repeat=k):
        exp, log = array("i", [0]) * (2 * n), array("i", [0]) * (n + 1)
        primitive = el._walk(p, modulus, exp, log)
        assert primitive == _x_is_primitive(p, modulus), modulus
        verdicts.append(primitive)
        # the walk wrote a prefix of the powers of x (a non-unit x may repeat
        # one, so log keeps its last e), and never log[0]
        powers = _powers_of_x(p, modulus)[:n]
        steps = list(exp[:n]).index(0) if 0 in exp[:n] else n
        assert exp[:steps] == exp[n:n + steps] == array("i", powers[:steps])
        assert not any(exp[steps:n]) and log[0] == 0
        assert all(powers[log[v]] == v for v in powers[:steps])
        # the norm filter skips no primitive modulus
        assert not primitive or (-1) ** k * modulus[0] % p in generators
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 97])
def test_generators_have_order_p_minus_one(p):
    def order(g):
        return next(e for e in range(1, p) if pow(g, e, p) == 1)
    assert el._generators(p) == {g for g in range(1, p) if order(g) == p - 1}


FIELD_SIZES = [(p, k) for p in (2, 3, 5, 7, 11, 13, 97, 241)
               for k in range(1, 9) if p ** k <= 3 ** 5]


@st.composite
def field_and_elements(draw):
    p, k = draw(st.sampled_from(FIELD_SIZES))
    f = el.field_ext(p, k)
    a, b, c = (draw(st.integers(0, f.order - 1)) for _ in range(3))
    return f, a, b, c


@settings(max_examples=300, deadline=None)
@given(field_and_elements())
def test_field_axioms(fabc):
    f, a, b, c = fabc
    mul = f.mul

    def add(u, w):
        return _schoolbook_add(f.p, f.k, u, w)

    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, b) == mul(b, a) and mul(a, 1) == a
    if a:
        assert mul(a, f.inv(a)) == 1
    if a and b:  # a + b = a (1 + b/a), read off the Zech table
        z = f._zech[(f._log[b] - f._log[a]) % (f.order - 1)]
        assert (f._exp[f._log[a] + z] if z >= 0 else 0) == add(a, b)


@pytest.mark.parametrize("p,k", FIELD_SIZES)
def test_sqrt_finds_exactly_the_squares(p, k):
    # the roots enumerate_points reads off the log: x^e is a square iff e
    # is even (every element is when p = 2), its roots x^(e/2) and
    # x^(e/2 + n/2) = -x^(e/2)
    f = el.field_ext(p, k)
    n = f.order - 1
    squares = {_schoolbook_mul(p, f.modulus, y, y) for y in range(f.order)}
    for a in range(1, f.order):
        e = f._log[a]
        assert (a in squares) == (p == 2 or not e % 2)
        if not e % 2:
            root = f._exp[e // 2]
            assert _schoolbook_mul(p, f.modulus, root, root) == a
            if p > 2:
                assert f._exp[e // 2 + n // 2] == _schoolbook_neg(p, k, root)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 3), (5, 2), (7, 1), (13, 1)])
def test_enumerate_points_matches_brute_force(p, k):
    f = el.field_ext(p, k)
    for curve in all_curves(p)[::3]:
        pts = _brute_force_points(curve, k)
        assert el.enumerate_points(f, curve) == [None] + pts
        assert count_points(curve, k) == len(pts) + 1


@pytest.mark.parametrize("p,k", TABLE_FIELDS)
def test_frobenius_is_automorphism_of_order_k(p, k):
    f = FieldExt(p, k)
    frob = f.frobenius
    elems = list(range(f.order))
    assert frob == [_schoolbook_pow(p, f.modulus, a, p) for a in elems]
    assert sorted(frob) == elems
    for a in elems:
        for b in elems[::3]:
            assert frob[f.mul(a, b)] == f.mul(frob[a], frob[b])
            assert (frob[_schoolbook_add(p, k, a, b)]
                    == _schoolbook_add(p, k, frob[a], frob[b]))
        image = a
        for _ in range(k):
            image = frob[image]
        assert image == a
    assert [a for a in elems if frob[a] == a] == list(range(p))


@pytest.mark.parametrize("p,k", [(3, k) for k in range(1, 7)]
                         + [(5, k) for k in range(1, 5)])
def test_orbit_count_matches_enumeration(p, k):
    field = el.field_ext(p, k)
    for curve in all_curves(p):
        assert count_points(curve, k) == len(el.enumerate_points(field, curve))


@pytest.mark.parametrize("p,k", [(3, 1), (3, 4), (3, 6), (5, 2), (5, 4),
                                 (7, 3)])
def test_frobenius_orbits_are_the_orbits_of_e_to_p_e(p, k):
    n = p ** k - 1
    orbits = {frozenset(e * p ** j % n for j in range(k)) for e in range(n)}
    exponents, sizes = el.field_ext(p, k).frobenius_orbits
    assert list(exponents) == sorted(min(o) for o in orbits)
    assert sizes == [len(o) for o in sorted(orbits, key=min)]
    assert sum(sizes) == n
    assert set(sizes) == {d for d in range(1, k + 1) if not k % d}


@pytest.mark.parametrize("check", [
    lambda: verify_frobenius_annihilation(EllipticCurve(5, 1, 1), 2, 2.5),
    lambda: verify_frobenius_annihilation(EllipticCurve(5, 1, 1), 2, -3.0),
    lambda: verify_count_consistency(EllipticCurve(5, 1, 1), 2, a_p=-3.0),
    lambda: verify_count_consistency(EllipticCurve(5, 1, 1), 2, a_p="-3"),
], ids=["annihilation-2.5", "annihilation-float", "counts-float",
        "counts-str"])
def test_a_p_that_is_not_an_int_is_refused(check):
    with pytest.raises(CurveError, match="a_p"):
        check()


def test_count_consistency_beyond_degree_three():
    assert verify_count_consistency(EllipticCurve(3, 1, 1), 5)
    assert verify_count_consistency(EllipticCurve(3, 2, 1), 5)
    assert verify_count_consistency(EllipticCurve(5, 1, 1), 4)
    assert verify_count_consistency(EllipticCurve(5, 0, 1), 4)


def _euler_count(p, a, b):
    legendre = [0] + [1 if pow(x, (p - 1) // 2, p) == 1 else -1
                      for x in range(1, p)]
    return 1 + sum(1 + legendre[(x ** 3 + a * x + b) % p] for x in range(p))


def test_count_points_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13):
        for curve in all_curves(p):
            assert count_points(curve, 1) == _euler_count(p, curve.a, curve.b)


def _curves_listed(p):
    return [EllipticCurve(p, a, b) for a in range(p) for b in range(p)
            if (4 * a ** 3 + 27 * b ** 2) % p]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_all_curves_is_the_list_read_lazily(p):
    # at p = 3 every b is singular for a = 0, so that row is empty
    curves, listed = all_curves(p), _curves_listed(p)
    assert len(curves) == len(listed)
    assert [curves[i] for i in range(len(curves))] == listed
    assert list(curves) == listed and curves[::3] == listed[::3]
    assert [curves[-i] for i in range(1, 4)] == listed[-3:][::-1]
    for i in (len(listed), -len(listed) - 1):
        with pytest.raises(IndexError):
            curves[i]


def test_sampling_all_curves_draws_as_from_the_list():
    # above random.sample's pooling size it reads only the drawn indices
    curves, listed = all_curves(101), _curves_listed(101)
    for seed in range(5):
        assert (random.Random(seed).sample(curves, 3)
                == random.Random(seed).sample(listed, 3))


def test_frobdemo_at_p_101(capsys):
    assert main(["verify", "frobdemo", "--p", "101", "--curves", "2"]) == 0
    assert "passed: True" in capsys.readouterr().out
