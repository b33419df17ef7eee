import itertools
import re
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from heckesat import rootdata as rdm
from heckesat.cli import ALL_GROUPS
from heckesat.intmat import det
from heckesat.rootdata import (
    RootDatum,
    RootDatumError,
    apply_reflection,
    build_group,
    dominant_representative,
    dual,
    enumerate_dominant_minuscule,
    is_dominant,
    is_minuscule,
    named_cocharacter,
    orbit,
    simple_reflections,
    weyl_group,
)
from heckesat.satake import hecke_polynomial

from coset_reference import weyl_order_formula

GROUPS = ["GL(2)", "GL(3)", "GL(4)", "SL(2)", "SL(3)",
          "GSp(4)", "GSp(6)", "GSO(8)", "GSpin(7)"]

# The 26 groups whose generated root data are checked against the
# formulas of the rootdata module docstring, written out independently.
REFERENCE_GROUPS = (
    [f"GL({n})" for n in range(1, 7)] + [f"SL({n})" for n in range(2, 7)]
    + [f"GSp({2 * g})" for g in range(1, 6)]
    + [f"GSO({2 * n})" for n in range(2, 7)]
    + [f"GSpin({2 * n + 1})" for n in range(1, 6)])


@pytest.mark.parametrize("name", [name for name in REFERENCE_GROUPS
                                  if build_group(name).rank <= 6])
def test_weyl_order_matches_formula(name):
    rd = build_group(name)
    elements = weyl_group(rd).elements
    assert len(elements) == weyl_order_formula(rd)
    assert all(det(w) in (1, -1) for w in elements)


def test_weyl_orders_explicit():
    expected = {"GL(2)": 2, "GL(3)": 6, "GL(4)": 24, "GSp(4)": 8,
                "GSp(6)": 48, "GSO(8)": 192, "GSpin(7)": 48}
    for name, order in expected.items():
        assert len(weyl_group(build_group(name)).elements) == order


def test_weyl_closure_stops_at_its_bound(monkeypatch):
    # |W(GSp(6))| = 48: a bound of 48 admits the closure, 47 refuses it
    rd = build_group("GSp(6)")
    assert len(weyl_group(rd).elements) == 48
    monkeypatch.setattr(rdm, "MAX_WEYL_ELEMENTS", 48)
    assert len(weyl_group(rd).elements) == 48
    monkeypatch.setattr(rdm, "MAX_WEYL_ELEMENTS", 47)
    with pytest.raises(rdm.WeylBoundError, match="exceeds 47 elements"):
        weyl_group(rd)


def test_root_counts():
    assert len(build_group("GL(4)").roots) == 12
    assert len(build_group("GSp(4)").roots) == 8
    assert len(build_group("GSpin(7)").roots) == 18
    assert len(build_group("GSO(8)").roots) == 24


@pytest.mark.parametrize("name", GROUPS)
def test_dual_involution(name):
    rd = build_group(name)
    dd = dual(dual(rd))
    assert dd.roots == rd.roots
    assert dd.coroots == rd.coroots
    assert dd.simple_indices == rd.simple_indices
    assert dd.name == rd.name


def test_gspin_dual_is_symplectic_type():
    # the coroots of GSpin(7) include the long vectors 2f_i - f_0
    rd = build_group("GSpin(7)")
    assert (2, 0, 0, -1) in rd.coroots


def test_name_parsing_variants():
    assert build_group("gl4").name == "GL(4)"
    assert build_group("GSp(6)").name == "GSp(6)"
    assert build_group("GSpin7").name == "GSpin(7)"
    with pytest.raises(RootDatumError):
        build_group("E8")
    with pytest.raises(RootDatumError):
        build_group("GSp(5)")


def test_build_group_shares_one_validated_datum():
    # every spelling of one (family, size) returns the datum built first
    rd = build_group("gsp6")
    assert build_group("GSp(6)") is rd and build_group("GSp 6") is rd
    assert rdm.validate(rd) is rd and rd.name == "GSp(6)"
    for bad, match in (("GSp(5)", "even"), ("GL(0)", ">= 1")):
        for _ in range(2):  # a refused size is not cached
            with pytest.raises(RootDatumError, match=match):
                build_group(bad)


def test_delta_values():
    assert build_group("GL(2)").delta() == (1, -1)
    assert build_group("GL(4)").delta() == (3, 1, -1, -3)
    assert build_group("GSp(4)").delta() == (4, 2, -3)
    assert build_group("GSO(8)").delta() == (6, 4, 2, 0, -6)
    assert build_group("GSpin(7)").delta() == (5, 3, 1, 0)


@pytest.mark.parametrize("mu", [(1, 0, 0), (1,), (1.5, 0.5)])
def test_is_minuscule_rejects_cocharacter_of_wrong_shape(mu):
    with pytest.raises(RootDatumError, match="is not 2 ints"):
        is_minuscule(build_group("GL(2)"), mu)


@pytest.mark.parametrize("mu", [(1, 0, 0), (1,), (1.5, 0.5)])
def test_is_dominant_rejects_cocharacter_of_wrong_shape(mu):
    with pytest.raises(RootDatumError, match="is not 2 ints"):
        is_dominant(build_group("GL(2)"), mu)


@pytest.mark.parametrize("mu", [(1, 0, 0), (1,), (1.5, 0.5)])
def test_dominant_representative_rejects_cocharacter_of_wrong_shape(mu):
    with pytest.raises(RootDatumError, match="is not 2 ints"):
        dominant_representative(build_group("GL(2)"), mu)


def test_minuscule_and_dominant():
    rd = build_group("GL(2)")
    assert is_minuscule(rd, (1, 0))
    assert is_minuscule(rd, (1, 1))
    assert not is_minuscule(rd, (2, 0))
    assert is_dominant(rd, (1, 0))
    assert not is_dominant(rd, (0, 1))


def test_dominant_representative_is_orbit_invariant():
    rd = build_group("GSp(4)")
    mu = named_cocharacter(rd, "siegel")
    for lam in orbit(simple_reflections(rd), mu):
        assert dominant_representative(rd, lam) == mu


@pytest.mark.parametrize("name,alias,orbit_size,d", [
    ("GL(2)", "std", 2, 1),
    ("GL(4)", "std", 4, 3),
    ("GSp(4)", "siegel", 4, 3),
    ("GSp(6)", "siegel", 8, 6),
    ("GSO(8)", "half-spin", 8, 6),
    ("GSpin(7)", "spin", 6, 5),
])
def test_parabolic_data(name, alias, orbit_size, d):
    # d of the Hecke polynomial against <delta, mu> and against the count
    # of positive roots that pair to 1 with mu, each computed here
    rd = build_group(name)
    mu = named_cocharacter(rd, alias)
    unipotent = sum(1 for i in rd.positive_root_indices()
                    if rd.pairing(rd.roots[i], mu) == 1)
    assert hecke_polynomial(rd, mu).d == rd.pairing(rd.delta(), mu) \
        == unipotent == d
    assert len(orbit(simple_reflections(rd), mu)) == orbit_size


def test_central_cocharacter_pairs_zero():
    for name in REFERENCE_GROUPS:
        if not name.startswith("SL"):
            rd = build_group(name)
            z = named_cocharacter(rd, "central")
            assert any(z) and all(rd.pairing(a, z) == 0 for a in rd.roots)


@pytest.mark.parametrize("name", ["SL(2)", "SL(3)"])
def test_sl_has_no_central_cocharacter_alias(name):
    # the center of SL(n) is finite: no nonzero cocharacter pairs to 0
    # with every root
    with pytest.raises(RootDatumError, match=re.escape(
            f"no cocharacter alias 'central' for {name}")):
        named_cocharacter(build_group(name), "central")


def test_enumerate_dominant_minuscule():
    rd = build_group("GL(3)")
    assert enumerate_dominant_minuscule(rd) == [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
    rd = build_group("GSpin(7)")
    mus = enumerate_dominant_minuscule(rd)
    assert (1, 0, 0, 0) in mus


def test_json_roundtrip():
    for name in GROUPS:
        rd = build_group(name)
        assert rdm.from_json(rdm.to_json(rd)) == rd


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(("GL", "SL", "GSp", "GSO", "GSpin")),
       st.integers(1, 4), st.booleans())
def test_json_roundtrip_property(family, k, dualize):
    size = {"GL": k, "SL": k + 1, "GSp": 2 * k, "GSO": 2 * k + 2,
            "GSpin": 2 * k + 1}[family]
    rd = build_group(f"{family}({size})")
    if dualize:
        rd = dual(rd)
    text = rdm.to_json(rd)
    back = rdm.from_json(text)
    assert back == rd and rdm.to_json(back) == text


def _gsp4_dict():
    return rdm.to_dict(build_group("GSp(4)"))


def _root_index(d, root):
    return d["roots"].index(list(root))


def test_validate_rejects_root_outside_simple_span():
    d = _gsp4_dict()
    d["simple_indices"] = [_root_index(d, (1, -1, 0))]  # alpha_1 alone
    with pytest.raises(RootDatumError, match="the simple roots reach"):
        rdm.from_dict(d)


def test_validate_rejects_mixed_sign_expansion():
    # {alpha_1, alpha_1 + alpha_2} spans, but alpha_2 is their difference
    d = _gsp4_dict()
    d["simple_indices"] = [_root_index(d, (1, -1, 0)),
                           _root_index(d, (1, 1, -1))]
    with pytest.raises(RootDatumError, match="the simple roots reach"):
        rdm.from_dict(d)


def test_from_dict_refuses_a_simple_root_and_its_negative():
    # from {alpha, -alpha} the walk climbs without end: each reflects the
    # other to a root it holds already, under a new expansion
    d = rdm.to_dict(build_group("GL(2)"))
    d["simple_indices"] = [0, 1]
    with pytest.raises(RootDatumError, match="reach more than 1 positive"):
        rdm.from_dict(d)


@pytest.mark.parametrize("name", ["GL(2)", "GL(3)", "GSp(4)", "GSpin(7)"])
def test_one_simple_root_too_many_is_refused(name):
    # every ordered tuple of ss-rank + 1 distinct roots, those that hold a
    # base and one more root included; validate is what from_dict runs
    # once the dict is parsed
    rd = build_group(name)
    accepted = []
    for simple in itertools.permutations(range(len(rd.roots)),
                                         len(rd.simple_indices) + 1):
        try:
            rdm.validate(RootDatum(rd.name, rd.rank, rd.roots, rd.coroots,
                                   simple))
        except RootDatumError:
            continue
        accepted.append(simple)
    assert accepted == []


@pytest.mark.parametrize("name", ["GL(3)", "GL(4)", "GSp(4)", "GSp(6)",
                                  "GSpin(7)", "SL(3)"])
def test_accepted_bases_are_as_many_as_the_weyl_group(name):
    # W acts simply transitively on the bases (Humphreys, 10.3 Theorem (b)
    # and (e)), so |W| of the ss-rank index subsets are accepted
    rd = build_group(name)
    d = rdm.to_dict(rd)
    accepted = 0
    for simple in itertools.combinations(range(len(rd.roots)),
                                         len(rd.simple_indices)):
        try:
            rdm.from_dict(dict(d, simple_indices=list(simple)))
        except RootDatumError:
            continue
        accepted += 1
    assert accepted == weyl_order_formula(rd)


@pytest.mark.parametrize("roots, coroots, simple", [
    ([[1], [2], [-1], [-2]], [[2], [1], [-2], [-1]], [0]),
    ([[1], [2], [-1], [-2]], [[2], [1], [-2], [-1]], [1]),
    ([[1, -1], [1, -1], [-1, 1], [-1, 1]],
     [[1, -1], [1, -1], [-1, 1], [-1, 1]], [0]),
], ids=["bc1-from-short", "bc1-from-long", "repeated-pair"])
def test_from_dict_refuses_a_non_reduced_or_repeated_system(roots, coroots,
                                                           simple):
    # BC_1 (roots +-1, +-2) is the root system of no reductive group: the
    # walk from 1 never reaches 2, nor the walk from 2 reaches 1; a pair
    # given twice is not reached twice
    d = {"name": "test", "rank": len(roots[0]), "roots": roots,
         "coroots": coroots, "simple_indices": simple}
    with pytest.raises(RootDatumError, match="the simple roots reach"):
        rdm.from_dict(d)


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(8)))
def test_permuted_roots_keep_their_positive_pairs(order):
    # GSp(4) with its roots reordered, each kept with its coroot
    rd = build_group("GSp(4)")
    d = rdm.to_dict(rd)
    for key in ("roots", "coroots"):
        d[key] = [d[key][i] for i in order]
    d["simple_indices"] = [order.index(i) for i in rd.simple_indices]
    back = rdm.from_dict(d)
    pos = back.positive_root_indices()
    assert list(pos) == sorted(pos)
    assert {back.roots[i] for i in pos} == {
        rd.roots[i] for i in rd.positive_root_indices()}
    assert back.delta() == rd.delta()


def test_validate_rejects_reflection_that_does_not_permute_roots():
    # eps_1 + eps_2 - eta -> eps_1 + eps_2 + eta keeps <a, a^> = 2, but
    # s_{alpha_2}(alpha_1) = alpha_1 + alpha_2 is then no longer a root
    d = _gsp4_dict()
    d["roots"][_root_index(d, (1, 1, -1))] = [1, 1, 1]
    with pytest.raises(RootDatumError, match="does not permute roots"):
        rdm.from_dict(d)


def test_validate_rejects_reflection_that_does_not_permute_coroots():
    # (eps_1 + eps_2)^ -> (2, 2, 2) keeps <a, a^> = 2 and every root, but
    # s_{alpha_2}(alpha_1^) = alpha_1^ + 2 alpha_2^ = (1, 1, 0) is then no
    # longer a coroot
    d = _gsp4_dict()
    d["coroots"][_root_index(d, (1, 1, -1))] = [2, 2, 2]
    with pytest.raises(RootDatumError, match="does not permute coroots"):
        rdm.from_dict(d)


@pytest.mark.parametrize("edit, match", [
    (lambda d: d["roots"].__setitem__(_root_index(d, (1, -1)), [1.9, -1.2]),
     "root \\(1.9, -1.2\\) is not 2 ints"),
    (lambda d: d.update(rank="2"), "rank \\('2',\\) is not 1 ints"),
    (lambda d: d.update(simple_indices=[0.7]),
     "indices \\(0.7,\\) is not 1 ints"),
], ids=["float-root", "string-rank", "float-index"])
def test_from_dict_rejects_non_integers(edit, match):
    d = rdm.to_dict(build_group("GL(2)"))
    edit(d)
    with pytest.raises(RootDatumError, match=match):
        rdm.from_dict(d)


def _gl2_dict(drop=None, **fields):
    d = rdm.to_dict(build_group("GL(2)")) | fields
    d.pop(drop, None)
    return d


@pytest.mark.parametrize("d", [
    _gl2_dict(name=7),
    _gl2_dict(drop="name"),
    _gl2_dict(drop="roots"),
    _gl2_dict(drop="coroots"),
    _gl2_dict(drop="rank"),
    _gl2_dict(roots=5),
    _gl2_dict(coroots=None),
    _gl2_dict(simple_indices=5),
    [],
], ids=["int-name", "no-name", "no-roots", "no-coroots", "no-rank",
        "int-roots", "none-coroots", "int-simple-indices", "list"])
def test_from_dict_refuses_missing_or_mistyped_fields(d):
    with pytest.raises(RootDatumError, match="is a dict of a name string"):
        rdm.from_dict(d)


@pytest.mark.parametrize("rank", [-1, 0])
def test_from_dict_refuses_a_rank_below_one(rank):
    d = {"name": "x", "rank": rank, "roots": [], "coroots": [],
         "simple_indices": []}
    with pytest.raises(RootDatumError, match=f"rank {rank} is not positive"):
        rdm.from_dict(d)


@pytest.mark.parametrize("simple", [[5], [-1], [2], [0, -2]],
                         ids=["five", "minus-one", "one-past-end",
                              "negative-second"])
def test_from_dict_rejects_simple_index_out_of_range(simple):
    d = rdm.to_dict(build_group("GL(2)"))
    d["simple_indices"] = simple
    with pytest.raises(RootDatumError, match="not all in range\\(2\\)"):
        rdm.from_dict(d)


def test_unedited_gsp4_dict_is_accepted():
    assert rdm.from_dict(_gsp4_dict()) == build_group("GSp(4)")


@pytest.mark.parametrize("name", ALL_GROUPS + (
    "GL(5)", "GSp(8)", "GSpin(9)", "GSO(10)", "SL(2)", "SL(3)", "SL(4)",
    "GSp(2)", "GSO(4)", "GSpin(3)"))
def test_positive_roots_are_the_first_half(name):
    rd = build_group(name)
    assert rd.positive_root_indices() == tuple(range(len(rd.roots) // 2))


def test_sl_realization():
    rd = build_group("SL(2)")
    assert rd.rank == 1
    assert set(rd.roots) == {(2,), (-2,)}
    assert set(rd.coroots) == {(1,), (-1,)}


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_orbit_from_generators_matches_closure(name):
    rd = build_group(name)
    gens = simple_reflections(rd)
    elements = weyl_group(rd).elements
    for mu in enumerate_dominant_minuscule(rd):
        assert orbit(gens, mu) == {tuple(sum(map(mul, row, mu)) for row in w)
                                   for w in elements}


def _vec(rank, *terms):
    """The vector sum of c * e_i over the (i, c) in terms, in Z^rank."""
    v = [0] * rank
    for i, c in terms:
        v[i] += c
    return tuple(v)


def _reference_pairs(name):
    """All (root, coroot) pairs of a constructor group, from its formulas.

    Returns the set of pairs and the semisimple rank.
    """
    fam, size = rdm.parse_group_name(name)
    pairs = set()

    def both_signs(root, coroot):
        pairs.add((root, coroot))
        pairs.add((tuple(-x for x in root), tuple(-x for x in coroot)))

    if fam == "GL":
        n = size
        for i in range(n):
            for j in range(i + 1, n):
                v = _vec(n, (i, 1), (j, -1))
                both_signs(v, v)
        return pairs, n - 1
    if fam == "SL":
        n, rank = size, size - 1
        # ebar_n = -(1, ..., 1); coroots e_i - e_j cut to their first n-1
        bar = [_vec(rank, (i, 1)) for i in range(rank)] + [(-1,) * rank]
        for i in range(n):
            for j in range(i + 1, n):
                both_signs(tuple(x - y for x, y in zip(bar[i], bar[j])),
                           _vec(n, (i, 1), (j, -1))[:rank])
        return pairs, rank
    if fam in ("GSp", "GSO"):
        n = size // 2
        rank, eta = n + 1, n
        for i in range(n):
            for j in range(i + 1, n):
                both_signs(_vec(rank, (i, 1), (j, -1)),
                           _vec(rank, (i, 1), (j, -1)))
                both_signs(_vec(rank, (i, 1), (j, 1), (eta, -1)),
                           _vec(rank, (i, 1), (j, 1)))
            if fam == "GSp":
                both_signs(_vec(rank, (i, 2), (eta, -1)), _vec(rank, (i, 1)))
        return pairs, n
    n = (size - 1) // 2  # GSpin on (e_1..e_n, e_0), coroots on (f_1..f_n, f_0)
    rank, f0 = n + 1, n
    for i in range(n):
        for j in range(i + 1, n):
            both_signs(_vec(rank, (i, 1), (j, -1)), _vec(rank, (i, 1), (j, -1)))
            both_signs(_vec(rank, (i, 1), (j, 1)),
                       _vec(rank, (i, 1), (j, 1), (f0, -1)))
        both_signs(_vec(rank, (i, 1)), _vec(rank, (i, 2), (f0, -1)))
    return pairs, n


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_generated_root_data_match_the_documented_formulas(name):
    rd = build_group(name)
    pairs, ss_rank = _reference_pairs(name)
    assert len(rd.roots) == len(pairs)
    assert set(zip(rd.roots, rd.coroots)) == pairs
    # the simple roots are the first r, r the semisimple rank
    assert rd.simple_indices == tuple(range(ss_rank))
    half = len(rd.roots) // 2
    assert rd.positive_root_indices() == tuple(range(half))
    # by brute force, each positive root is sum_i c_i alpha_i for some c in
    # {0, 1, 2}^r, and the heights sum_i c_i do not decrease
    simple = [rd.roots[i] for i in rd.simple_indices]
    expansion = {tuple(sum(x * a[t] for x, a in zip(c, simple))
                       for t in range(rd.rank)): c
                 for c in itertools.product(range(3), repeat=ss_rank)}
    assert all(rd.roots[i] in expansion for i in range(half))
    heights = [sum(expansion[rd.roots[i]]) for i in range(half)]
    assert heights == sorted(heights)


@pytest.mark.parametrize("name", REFERENCE_GROUPS)
def test_apply_reflection_matches_the_dense_form(name):
    # x - <a, x> a^v on a box of vectors, and x itself iff <a, x> = 0
    rd = build_group(name)
    side = range(-2, 3) if rd.rank <= 4 else range(-1, 2)
    for i, s in zip(rd.simple_indices, simple_reflections(rd)):
        a, av = rd.roots[i], rd.coroots[i]
        for x in itertools.product(side, repeat=rd.rank):
            k = rd.pairing(a, x)
            y = apply_reflection(s, x)
            assert y == tuple(t - k * c for t, c in zip(x, av))
            assert (y is x) == (k == 0)


def test_simple_reflections_are_the_root_coroot_pairs():
    # the nonzero entries of a and a^v: SL(2) has the non-primitive root
    # 2 with coroot 1, and the last GSO(8) coroot has two entries
    assert simple_reflections(build_group("SL(2)")) == ((((0, 2),),
                                                         ((0, 1),)),)
    assert simple_reflections(build_group("GSO(8)"))[-1] == (
        ((2, 1), (3, 1), (4, -1)), ((2, 1), (3, 1)))


def test_gl1_has_no_roots():
    rd = build_group("GL(1)")
    assert rd.rank == 1
    assert rd.roots == rd.coroots == rd.simple_indices == ()
    assert rd.delta() == (0,)
