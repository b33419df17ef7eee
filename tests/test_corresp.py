import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from heckesat.corresp import (
    Correspondence,
    CorrespError,
    CycleZero,
    FinitePointSet,
    act,
    compose,
    corr_from_dict,
    corr_from_json,
    corr_to_json,
    frobenius_corr,
    graph_corr,
    identity_corr,
    vanishing_test,
)


def make_set(size=4, frob=None, q=5, m=1):
    return FinitePointSet(size, frob or tuple(range(size)), q, m)


def rand_corr(rng, ps):
    return Correspondence(ps, ps, tuple(
        tuple(rng.randint(-3, 3) for _ in range(ps.size))
        for _ in range(ps.size)))


def test_point_set_validation():
    with pytest.raises(CorrespError):
        FinitePointSet(3, (0, 0, 1), 5, 1)
    with pytest.raises(CorrespError):
        FinitePointSet(3, (1, 2, 0), 5, 1)  # order 3 does not divide m=1
    FinitePointSet(3, (1, 2, 0), 5, 3)


def test_point_set_load_time_is_independent_of_m():
    ps = {"size": 50, "frobenius": list(range(1, 50)) + [0], "q": 5,
          "m": 10 ** 9}  # one 50-cycle, and 50 divides 10**9
    start = time.perf_counter()
    c = corr_from_dict({"source": ps, "target": ps,
                        "weights": [[0] * 50] * 50})
    FinitePointSet(5, (1, 0, 3, 4, 2), 5, 6 * 10 ** 9)
    assert time.perf_counter() - start < 0.5
    assert c.source.m == 10 ** 9
    with pytest.raises(CorrespError):
        FinitePointSet(3, (1, 2, 0), 5, 4)
    with pytest.raises(CorrespError):  # the 3-cycle fails, the 2-cycle not
        FinitePointSet(5, (1, 0, 3, 4, 2), 5, 10 ** 9)


@pytest.mark.parametrize("mapping", [[5, -1, 2], (0, -2, 1), (0, 1),
                                     (0, 3, 1), (0, 1, 2, 0)],
                         ids=["too-big", "negative", "short", "edge", "long"])
def test_graph_corr_rejects_non_maps(mapping):
    ps = make_set(3)
    with pytest.raises(CorrespError):
        graph_corr(ps, ps, mapping)


def test_graph_corr_rows_are_unit_vectors():
    src, tgt = make_set(3), make_set(4)
    assert graph_corr(src, tgt, (3, 0, 3)).weights == (
        (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0, 1))
    assert identity_corr(tgt).weights == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4))


@pytest.mark.parametrize("index", [7, 3, -1, -3])
def test_point_mass_rejects_index_outside_the_set(index):
    ps = make_set(3)
    with pytest.raises(CorrespError, match="range"):
        CycleZero.point_mass(ps, index)
    assert CycleZero.point_mass(ps, 2).coefficients == (0, 0, 1)


@pytest.mark.parametrize("q, m", [(5, 0), (5, -1), (1, 1), (0, 1)],
                         ids=["m-zero", "m-negative", "q-one", "q-zero"])
def test_point_set_rejects_small_q_or_m(q, m):
    with pytest.raises(CorrespError):
        FinitePointSet(1, (0,), q, m)


def _corr_dict(weights=((1, 0), (0, 3)), **fields):
    ps = {"size": 2, "frobenius": [0, 1], "q": 5, "m": 1}
    return {"source": dict(ps, **fields), "target": ps,
            "weights": [list(r) for r in weights]}


@pytest.mark.parametrize("d", [
    _corr_dict(weights=[[1.9, 0], [0, 0]]),
    _corr_dict(weights=[[1, 0], [0, "3"]]),
    _corr_dict(q=5.5),
    _corr_dict(m="1"),
    _corr_dict(size=2.0),
    _corr_dict(frobenius=[0, 1.0]),
    _corr_dict(m=0),
], ids=["float-weight", "str-weight", "float-q", "str-m", "float-size",
        "float-frobenius", "m-zero"])
def test_corr_from_dict_rejects_non_int_fields(d):
    with pytest.raises(CorrespError):
        corr_from_dict(d)


@pytest.mark.parametrize("d", [
    {},
    [],
    {"target": _corr_dict()["target"], "weights": [[1, 0], [0, 3]]},
    _corr_dict() | {"weights": 5},
    _corr_dict() | {"source": 5},
    _corr_dict() | {"target": {"size": 2, "frobenius": [0, 1], "q": 5}},
], ids=["empty", "list", "no-source", "int-weights", "int-source",
        "target-without-m"])
def test_corr_from_dict_refuses_missing_or_mistyped_fields(d):
    with pytest.raises(CorrespError, match="is a dict of"):
        corr_from_dict(d)


def test_compose_identity():
    ps = make_set()
    rng = random.Random(1)
    c = rand_corr(rng, ps)
    assert compose(c, identity_corr(ps)).weights == c.weights
    assert compose(identity_corr(ps), c).weights == c.weights


def test_graph_composition_is_function_composition():
    ps = make_set(4)
    f = (1, 2, 3, 0)
    g = (2, 2, 0, 1)
    gf = tuple(g[f[i]] for i in range(4))
    assert compose(graph_corr(ps, ps, f), graph_corr(ps, ps, g)).weights == \
        graph_corr(ps, ps, gf).weights


def test_compose_associative_random():
    rng = random.Random(2)
    ps = make_set()
    for _ in range(20):
        c1, c2, c3 = (rand_corr(rng, ps) for _ in range(3))
        assert compose(compose(c1, c2), c3).weights == \
            compose(c1, compose(c2, c3)).weights


def test_compose_mismatch():
    with pytest.raises(CorrespError):
        compose(identity_corr(make_set(3)), identity_corr(make_set(4)))


def test_frobenius_corr_properties():
    ps = FinitePointSet(4, (1, 0, 3, 2), 3, 2)
    gq = frobenius_corr(ps)
    assert all(sum(r) == 1 for r in gq.weights)
    assert all(sum(col) == 1 for col in zip(*gq.weights))
    assert compose(gq, gq).weights == identity_corr(ps).weights


def test_act_point_mass_frobenius():
    ps = FinitePointSet(4, (1, 0, 3, 2), 3, 2)
    gq = frobenius_corr(ps)
    for i in range(4):
        out = act(CycleZero.point_mass(ps, i), gq)
        assert out.coefficients == tuple(
            int(j == ps.frobenius[i]) for j in range(4))


def test_act_is_right_module():
    rng = random.Random(3)
    ps = make_set()
    for _ in range(10):
        c, d = rand_corr(rng, ps), rand_corr(rng, ps)
        p = CycleZero(ps, tuple(rng.randint(-2, 2) for _ in range(4)))
        assert act(act(p, c), d).coefficients == \
            act(p, compose(c, d)).coefficients


def test_vanishing_iff_zero():
    rng = random.Random(4)
    ps = make_set()
    zero = Correspondence(ps, ps, tuple(
        tuple(0 for _ in range(4)) for _ in range(4)))
    assert vanishing_test(zero)
    assert not vanishing_test(identity_corr(ps))
    for _ in range(20):
        c = rand_corr(rng, ps)
        assert vanishing_test(c) == all(
            x == 0 for r in c.weights for x in r)
        # the definition: every point mass is annihilated
        assert vanishing_test(c) == all(
            act(CycleZero.point_mass(ps, i), c).is_zero()
            for i in range(ps.size))
        assert vanishing_test(c - c)


def test_json_roundtrip():
    ps = FinitePointSet(3, (1, 2, 0), 7, 3)
    c = Correspondence(ps, ps, ((1, 0, -2), (0, 3, 0), (5, 0, 0)))
    assert corr_from_json(corr_to_json(c)) == c


def _order(perm):
    k, out = 1, perm
    while out != tuple(range(len(perm))):
        k, out = k + 1, tuple(perm[i] for i in out)
    return k


@st.composite
def correspondences(draw):
    perms = st.integers(1, 4).flatmap(
        lambda n: st.permutations(range(n)).map(tuple))
    source, target = (
        FinitePointSet(len(p), p, draw(st.sampled_from((2, 3, 5))),
                       _order(p) * draw(st.integers(1, 2)))
        for p in (draw(perms), draw(perms)))
    weights = draw(st.lists(st.lists(st.integers(-5, 5), min_size=target.size,
                                     max_size=target.size).map(tuple),
                            min_size=source.size, max_size=source.size))
    return Correspondence(source, target, tuple(weights))


@settings(max_examples=50, deadline=None)
@given(correspondences())
def test_json_roundtrip_property(c):
    text = corr_to_json(c)
    back = corr_from_json(text)
    assert back == c and corr_to_json(back) == text


def test_compose_through_empty_point_set_is_zero():
    empty = FinitePointSet(0, (), 5, 1)
    ps, qs = make_set(3), make_set(2)
    c = Correspondence(ps, empty, ((), (), ()))
    d = Correspondence(empty, qs, ())
    out = compose(c, d)
    assert (out.source, out.target) == (ps, qs)
    assert out.weights == ((0, 0), (0, 0), (0, 0))
    assert vanishing_test(out)
    assert compose(d, Correspondence(qs, ps, ((1, 2, 3), (4, 5, 6)))).weights \
        == ()


def test_act_on_empty_source_is_target_zero_cycle():
    empty = FinitePointSet(0, (), 5, 1)
    ps = make_set(3)
    out = act(CycleZero(empty, ()), Correspondence(empty, ps, ()))
    assert out == CycleZero(ps, (0, 0, 0))
    assert act(CycleZero(ps, (1, 2, 3)),
               Correspondence(ps, empty, ((), (), ()))) == CycleZero(empty, ())


def test_act_is_explicit_sum_random():
    rng = random.Random(5)
    for _ in range(30):
        src, tgt = make_set(rng.randint(1, 6)), make_set(rng.randint(1, 6))
        c = Correspondence(src, tgt, tuple(
            tuple(rng.choice((0, 0, rng.randint(-4, 4)))
                  for _ in range(tgt.size)) for _ in range(src.size)))
        p = CycleZero(src, tuple(rng.randint(-3, 3) for _ in range(src.size)))
        assert act(p, c).coefficients == tuple(
            sum(p.coefficients[i] * c.weights[i][j] for i in range(src.size))
            for j in range(tgt.size))


def test_vanishing_sees_last_entry_of_last_row():
    ps = make_set(5)
    weights = [[0] * 5 for _ in range(5)]
    weights[-1][-1] = 1
    assert not vanishing_test(
        Correspondence(ps, ps, tuple(map(tuple, weights))))
