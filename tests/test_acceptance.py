"""Acceptance suite: one test per release criterion.

Each test is self-contained and exact (no tolerances).  Criterion 2 is
split into its two group anchors so each reports its own pass/fail line.
"""

import random
import time
from fractions import Fraction

from heckesat import corresp, elliptic, padic, rootdata, satake
from heckesat.conventions import reflect

ALL_GROUPS = ("GL(2)", "GL(3)", "GL(4)", "GSp(4)", "GSp(6)", "GSO(8)",
              "GSpin(7)")


def test_criterion_1_vanishing_identity():
    # H(v**d e^mu) = 0 for every dominant minuscule mu of every group; < 5 s
    start = time.time()
    for name in ALL_GROUPS:
        rd = rootdata.build_group(name)
        for mu in rootdata.enumerate_dominant_minuscule(rd):
            H = satake.hecke_polynomial(rd, mu)
            assert satake.evaluate_vanishing(H).is_zero(), (name, mu)
    assert time.time() - start < 5


def test_criterion_2a_gso8_dimension_anchor():
    # GSO(8) half-spin: degree 8 and d = 6; < 1 s
    rd = rootdata.build_group("GSO(8)")
    H = satake.hecke_polynomial(rd, rootdata.named_cocharacter(rd, "half-spin"))
    assert (H.degree, H.d) == (8, 6)


def test_criterion_2b_gspin7_dimension_anchor():
    # GSpin(7) spin, the datum of the paper's Shimura 5-folds: degree 6
    # and d = 5; < 1 s.  For minuscule mu the Hecke polynomial is the
    # characteristic polynomial of r_mu on the dual group GSp(6), and its
    # weights are the Weyl orbit of mu.  The stabiliser of spin in W(B3)
    # is W(B2), so the degree is 48/8 = 6: the standard representation
    # of GSp(6).  d = <2 rho, mu> = 5, the dimension of the 5-folds.  The
    # degree-8 spin polynomial belongs to GSp(6) `siegel`, with d = 6.
    rd = rootdata.build_group("GSpin(7)")
    H = satake.hecke_polynomial(rd, rootdata.named_cocharacter(rd, "spin"))
    assert (H.degree, H.d) == (6, 5)


def test_criterion_3_satake_homomorphism():
    # 20 seeded pairs across n in {2,3}, p in {2,3}, type entries <= 2; < 60 s
    start = time.time()
    rng = random.Random(7)
    for n in (2, 3):
        for p in (2, 3):
            for _ in range(5):
                t1 = tuple(sorted((rng.randint(0, 2) for _ in range(n)),
                                  reverse=True))
                t2 = tuple(sorted((rng.randint(0, 2) for _ in range(n)),
                                  reverse=True))
                h1 = padic.DoubleCosetSum.basis(t1, n, p)
                h2 = padic.DoubleCosetSum.basis(t2, n, p)
                # satake_numeric raises if any image is not Weyl invariant
                lhs = padic.satake_numeric(padic.convolve_double(h1, h2))
                rhs = padic.reduce_mod_v2(
                    padic.satake_numeric(h1) * padic.satake_numeric(h2), p)
                assert lhs == rhs, (n, p, t1, t2)
    assert time.time() - start < 60


def test_criterion_4_convolution_constants():
    # measure 1/(p+1) and the T_p**2 structure constants; < 10 s
    start = time.time()
    for p in (2, 3, 5):
        g = padic.PCoset.from_matrix([[1, 0], [0, p]], p)
        assert padic.measure_intersection(g) == Fraction(1, p + 1)
    for p in (2, 3):
        T = padic.DoubleCosetSum.basis((1, 0), 2, p)
        TT = padic.convolve_double(T, T)
        assert TT.terms == {(2, 0): Fraction(1), (1, 1): Fraction(p + 1)}
    assert time.time() - start < 10


def test_criterion_5_cross_module_convention_lock():
    # numeric transform of K diag(1,p) K vs the symbolic degree-1
    # coefficient, up to the single documented exponent reflection; < 5 s
    rd = rootdata.build_group("GL(2)")
    H = satake.hecke_polynomial(rd, (1, 0))
    for p in (2, 3, 5):
        lhs = padic.satake_numeric(padic.DoubleCosetSum.basis((1, 0), 2, p))
        rhs = padic.reduce_mod_v2(reflect(-H.coefficients[1]), p)
        assert lhs == rhs


def test_criterion_6_congruence_relation_gl2():
    # all curves over F_3 and F_5, 20 sampled over each of F_7, F_11,
    # F_13: count consistency (k <= 3), pointwise Frobenius annihilation
    # (k = 2), and the specialized polynomial t**2 - a_p t + p; < 120 s
    start = time.time()
    rng = random.Random(2026)

    def check(curve):
        k_max = 3 if curve.p ** 3 <= elliptic.COUNT_BOUND else 2
        assert elliptic.verify_count_consistency(curve, k_max), curve
        assert elliptic.verify_frobenius_annihilation(curve, 2), curve
        ok, coeffs = elliptic.satake_link(curve)
        assert ok, (curve, coeffs)

    for p in (3, 5):
        for curve in elliptic.all_curves(p):
            check(curve)
    for p in (7, 11, 13):
        for curve in rng.sample(elliptic.all_curves(p), 20):
            check(curve)
    assert time.time() - start < 120


def test_criterion_7_correspondence_model():
    # associativity on 100 seeded triples, Frobenius action on the
    # exported E(F_25) point set, vanishing iff zero on 50 cases; < 10 s
    start = time.time()
    rng = random.Random(42)
    ps = corresp.FinitePointSet(4, (0, 1, 2, 3), 5, 1)

    def rand_corr():
        return corresp.Correspondence(ps, ps, tuple(
            tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(4)))

    for _ in range(100):
        c1, c2, c3 = rand_corr(), rand_corr(), rand_corr()
        assert corresp.compose(corresp.compose(c1, c2), c3).weights == \
            corresp.compose(c1, corresp.compose(c2, c3)).weights

    pts = elliptic.export_point_set(elliptic.EllipticCurve(5, 1, 1), 2)
    gq = corresp.frobenius_corr(pts)
    for i in range(pts.size):
        out = corresp.act(corresp.CycleZero.point_mass(pts, i), gq)
        assert out.coefficients == tuple(
            int(j == pts.frobenius[i]) for j in range(pts.size))

    for _ in range(50):
        c = rand_corr()
        assert corresp.vanishing_test(c) == all(
            x == 0 for r in c.weights for x in r)
        assert corresp.vanishing_test(c) == all(
            corresp.act(corresp.CycleZero.point_mass(ps, i), c).is_zero()
            for i in range(ps.size))
        assert corresp.vanishing_test(c - c)
    assert time.time() - start < 10


def test_criterion_8_structural_suites():
    # Weyl orders, dual involution, HNF idempotence and coset soundness
    # on 200 seeded matrices; < 30 s
    from coset_reference import coset_equal, weyl_order_formula
    from heckesat.intmat import det, hnf_padic

    start = time.time()
    for name in ALL_GROUPS:
        rd = rootdata.build_group(name)
        w = rootdata.weyl_group(rd)
        assert len(w.elements) == weyl_order_formula(rd), name
        dd = rootdata.dual(rootdata.dual(rd))
        assert (dd.roots, dd.coroots) == (rd.roots, rd.coroots), name

    rng = random.Random(77)
    done = 0
    while done < 200:
        n = rng.choice((2, 3))
        p = rng.choice((2, 3, 5))
        diag = [p ** rng.randint(0, 2) for _ in range(n)]
        m = tuple(tuple(diag[i] if i == j else rng.randint(-6, 6)
                        for j in range(n)) for i in range(n))
        d = det(m)
        if d == 0:
            continue
        ad = abs(d)
        while ad % p == 0:
            ad //= p
        if ad != 1:
            continue
        h = hnf_padic(m, p)
        assert hnf_padic(h, p) == h
        assert coset_equal(m, h, p)
        done += 1
    assert time.time() - start < 30
