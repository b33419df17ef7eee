import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import heckesat
from heckesat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **kw):
    """``python -m heckesat`` on argv in a subprocess, this package first."""
    path = [str(Path(heckesat.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, "-m", "heckesat", *argv],
                          capture_output=True, text=True, env=env, **kw)


def test_hecke_poly_gl2(capsys):
    code, out, _ = run(capsys, "--format", "json",
                       "hecke-poly", "--group", "GL2", "--mu", "1,0")
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 2 and report["d"] == 1
    assert report["vanishing_at_mu"] is True


def test_hecke_poly_aliases(capsys):
    code, out, _ = run(capsys, "--format", "json",
                       "hecke-poly", "--group", "GSO8", "--mu", "half-spin")
    assert code == 0
    report = json.loads(out)
    assert (report["degree"], report["d"]) == (8, 6)
    code, out, _ = run(capsys, "--format", "json",
                       "hecke-poly", "--group", "GSp4", "--mu", "siegel")
    assert (json.loads(out)["degree"], json.loads(out)["d"]) == (4, 3)


def test_hecke_poly_usage_errors(capsys):
    code, _, err = run(capsys, "hecke-poly", "--group", "GL2", "--mu", "2,0")
    assert code == 2 and "minuscule" in err
    code, _, err = run(capsys, "hecke-poly", "--group", "E8", "--mu", "1,0")
    assert code == 2


def test_convolve(capsys):
    code, out, _ = run(capsys, "--format", "json", "convolve",
                       "--n", "2", "--p", "2", "--types", "1,0", "1,0")
    assert code == 0
    report = json.loads(out)
    assert report["product"] == {"2,0": [1, 1], "1,1": [3, 1]}


def test_convolve_unit(capsys):
    code, out, _ = run(capsys, "--format", "json", "convolve",
                       "--n", "2", "--p", "3", "--types", "2,1", "0,0")
    assert code == 0
    assert json.loads(out)["product"] == {"2,1": [1, 1]}


def test_convolve_bound_exit_code(capsys, monkeypatch):
    from heckesat import padic
    monkeypatch.setattr(padic, "ENUM_BOUND", 10)
    code, _, err = run(capsys, "convolve", "--n", "2", "--p", "2",
                       "--types", "9,0", "9,0")
    assert code == 3 and "bound" in err


def test_convolve_with_a_huge_exponent_is_quick(capsys):
    # the Smith forms take v_2 of 2**100000: log2 of it squarings, not
    # 100000 divisions of a big int
    start = time.perf_counter()
    assert run(capsys, "convolve", "--n", "2", "--p", "2", "--types",
               "100000,0", "0,0") == (0, "n: 2\np: 2\nproduct:\n"
                                      "  100000,0: [1, 1]\n"
                                      "types: [[100000, 0], [0, 0]]\n", "")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv,error", [
    (["verify", "frobdemo", "--p", "2305843009213693951"],
     "error: 2305843009213693951 exceeds the primality-test bound "
     "1000000000000\n"),
    (["convolve", "--n", "2", "--p", "2305843009213693951",
      "--types", "1,0", "0,0"],
     "error: 2305843009213693951 exceeds the primality-test bound "
     "1000000000000\n"),
    (["verify", "satake-hom", "--n", "2", "--p", "2305843009213693951",
      "--pairs", "1"],
     "error: 2305843009213693951 exceeds the primality-test bound "
     "1000000000000\n"),
    (["convolve", "--n", "2", "--p", "2", "--types",
      "99999999999999999999,0", "0,0"],
     "error: the coset count of type (99999999999999999999, 0) at p=2 has "
     "the factor p**99999999999999999998, above the bound 2**1000000\n"),
], ids=["frobdemo-2^61-1", "convolve-2^61-1", "satake-hom-2^61-1",
        "convolve-huge-type"])
def test_inputs_that_once_hung_are_refused_at_once(argv, error):
    # in a subprocess, so that a hang fails here within 10 s: trial division
    # of 2^61 - 1, or the power 2**(10**20) of a coset count
    proc = run_module(*argv, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", error)


def test_convolve_past_the_enumeration_bound_stops_at_once(capsys):
    # (2,2,1,0,0) at p = 3 has 1,274,130 cosets, past padic.ENUM_BOUND; the
    # exact count refuses it before any enumeration, within seconds
    start = time.perf_counter()
    code, out, err = run(capsys, "convolve", "--n", "5", "--p", "3",
                         "--types", "2,2,1,0,0", "2,2,1,0,0")
    assert code == 3 and out == "" and "1274130 cosets" in err
    assert time.perf_counter() - start < 10


def test_hecke_poly_term_bound_exit_code(capsys, monkeypatch):
    from heckesat import satake
    monkeypatch.setattr(satake, "TERM_BOUND", 14)  # GSp(4) siegel needs 15
    code, out, err = run(capsys, "hecke-poly", "--group", "GSp4",
                         "--mu", "siegel")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "bound" in err
    assert err.count("\n") == 1


def test_verify_suites_pass(capsys):
    for argv in (
        ["verify", "prop33", "--all-groups"],
        ["verify", "satake-hom", "--n", "2", "--p", "2",
         "--pairs", "5", "--seed", "7"],
        ["verify", "convolution", "--seed", "1"],
        ["verify", "corresp", "--seed", "2"],
        ["verify", "frobdemo", "--p", "5", "--exhaustive"],
    ):
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 0, argv
        report = json.loads(out)
        assert report["passed"] is True
        assert all(report["checks"].values())


def test_verify_seed_determinism(capsys):
    _, out1, _ = run(capsys, "--format", "json", "verify", "satake-hom",
                     "--pairs", "4", "--seed", "9")
    _, out2, _ = run(capsys, "--format", "json", "verify", "satake-hom",
                     "--pairs", "4", "--seed", "9")
    assert out1 == out2


def test_json_output_sorted(capsys):
    _, out, _ = run(capsys, "--format", "json", "hecke-poly",
                    "--group", "GL2", "--mu", "1,0")
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_bad_size_or_prime_is_usage_error(capsys):
    for argv in (
        ["convolve", "--n", "2", "--p", "4", "--types", "1,0", "1,0"],
        ["convolve", "--n", "2", "--p", "0", "--types", "1,0", "1,0"],
        ["verify", "satake-hom", "--n", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["convolve", "--n", "2", "--p", "3", "--types", "1,0,0", "1,0"],
     "type (1, 0, 0) is not 2 ints"),
    (["hecke-poly", "--group", "GL2", "--mu", "1,0,0"],
     "rank-length cocharacter (1, 0, 0) is not 2 ints"),
], ids=["types", "mu"])
def test_wrong_length_is_one_library_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_composite_prime_is_usage_error_even_with_no_pairs(capsys):
    code, out, err = run(capsys, "verify", "satake-hom", "--n", "2",
                         "--p", "4", "--pairs", "0")
    assert (code, out, err) == (2, "", "error: p=4 is not prime\n")


@pytest.mark.parametrize("group", ["SL2", "SL3"])
def test_sl_central_alias_is_usage_error(capsys, group):
    code, out, err = run(capsys, "hecke-poly", "--group", group,
                         "--mu", "central")
    assert code == 2 and out == ""
    assert err.startswith("error: no cocharacter alias 'central' for SL(")


def test_suite_with_zero_checks_fails(capsys):
    for argv in (["verify", "satake-hom", "--pairs", "0"],
                 ["verify", "frobdemo", "--p", "5", "--curves", "0"]):
        code, out, _ = run(capsys, "--format", "json", *argv)
        assert code == 1, argv
        assert json.loads(out) == {"checks": {}, "passed": False,
                                   "suite": argv[1]}


@pytest.mark.parametrize("p", ["1", "0", "-5", "2", "4", "9"])
def test_frobdemo_p_not_an_odd_prime_is_usage_error(capsys, p):
    for extra in ([], ["--exhaustive"]):
        assert run(capsys, "verify", "frobdemo", "--p", p, *extra) == (
            2, "", "error: p must be an odd prime >= 3\n"), extra


@pytest.mark.parametrize("argv", [
    ["--format", "json", "verify", "frobdemo", "--p", "5", "--exhaustive"],
    ["verify", "frobdemo", "--p", "1"],
], ids=["pass", "usage"])
def test_python_dash_m_matches_main(capsys, argv):
    proc = run_module(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


@pytest.mark.parametrize("argv", [
    ["verify", "satake-hom", "--pairs", "-3"],
    ["verify", "frobdemo", "--p", "3", "--curves", "-1"],
    ["verify", "frobdemo", "--p", "5", "--exhaustive", "--curves", "-2"],
], ids=["pairs", "curves", "curves-exhaustive"])
def test_negative_count_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {argv[-2]} must be a count >= 0, got {argv[-1]}\n"


@pytest.mark.parametrize("group", ["SL(2)", "SL(3)", "GL(1)"])
def test_prop33_fails_when_every_polynomial_has_degree_one(capsys, group):
    # t - e^mu vanishes at e^mu by construction: no evidence either way
    code, out, err = run(capsys, "--format", "json", "verify", "prop33",
                         "--group", group)
    report = json.loads(out)
    assert code == 1 and report["passed"] is False
    assert report["checks"] and all(report["checks"].values())
    assert "degree >= 2" in err


def test_prop33_passes_with_a_degree_two_polynomial(capsys):
    code, out, err = run(capsys, "--format", "json", "verify", "prop33",
                         "--group", "GL(2)")
    assert (code, json.loads(out)["passed"], err) == (0, True, "")


def test_sampled_frobdemo_draws_the_same_curves(capsys):
    # the seed's draw from the curve sequence, fixed in text and in JSON
    argv = ("verify", "frobdemo", "--p", "7", "--curves", "10", "--seed", "3")
    text = "".join(f"  y^2=x^3+{c} over F_7: True\n"
                   for c in FROBDEMO_P7_SEED3_CURVES)
    assert run(capsys, *argv) == (
        0, f"checks:\n{text}passed: True\nsuite: frobdemo\n", "")
    assert run(capsys, "--format", "json", *argv) == (
        0, FROBDEMO_P7_SEED3_JSON, "")


def test_count_bound_exit_code(capsys, monkeypatch):
    from heckesat import elliptic
    monkeypatch.setattr(elliptic, "COUNT_BOUND", 10)
    code, _, err = run(capsys, "verify", "frobdemo", "--p", "5",
                       "--curves", "1")
    assert code == 3 and "counting bound" in err


def test_frobdemo_above_the_counting_bound_exits_before_building_curves(
        capsys):
    # every check counts over F_{p^2}, so p is refused before any curve
    # is built
    start = time.perf_counter()
    assert run(capsys, "verify", "frobdemo", "--p", "10007",
               "--curves", "1") == (
        3, "", "error: p**k = 100140049 exceeds the counting bound "
               "1000000\n")
    assert time.perf_counter() - start < 1


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    from heckesat import satake

    def broken(rd, mu):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(satake, "hecke_polynomial", broken)
    code, out, err = run(capsys, "hecke-poly", "--group", "GL2", "--mu", "1,0")
    assert code == 4 and out == ""
    assert err == "internal error: ZeroDivisionError: boom\n"


def test_internal_inconsistency_is_internal_error(capsys, monkeypatch):
    from heckesat import padic
    monkeypatch.setattr(padic, "is_weyl_invariant", lambda gens, x: False)
    code, out, err = run(capsys, "verify", "convolution")
    assert code == 4 and out == ""
    assert err.startswith("internal error: RuntimeError: ")
    assert err.count("\n") == 1


GL2_TEXT = """\
coefficients:
  t^0: (v^2)*e^(1, 1)
  t^1: (-1*v)*e^(0, 1) + (-1*v)*e^(1, 0)
  t^2: (1)*e^(0, 0)
d: 1
degree: 2
group: GL(2)
mu: [1, 0]
vanishing_at_mu: True
"""
GL2_JSON = (
    '{"coefficients": [[[[1, 1], [[2, [1, 1]]]]], '
    '[[[0, 1], [[1, [-1, 1]]]], [[1, 0], [[1, [-1, 1]]]]], '
    '[[[0, 0], [[0, [1, 1]]]]]], "d": 1, "degree": 2, "group": "GL(2)", '
    '"mu": [1, 0], "vanishing_at_mu": true}\n')
GSP4_SIEGEL_JSON = (
    '{"coefficients": [[[[2, 2, 4], [[12, [1, 1]]]]], '
    '[[[1, 1, 3], [[9, [-1, 1]]]], [[1, 2, 3], [[9, [-1, 1]]]], '
    '[[2, 1, 3], [[9, [-1, 1]]]], [[2, 2, 3], [[9, [-1, 1]]]]], '
    '[[[0, 1, 2], [[6, [1, 1]]]], [[1, 0, 2], [[6, [1, 1]]]], '
    '[[1, 1, 2], [[6, [2, 1]]]], [[1, 2, 2], [[6, [1, 1]]]], '
    '[[2, 1, 2], [[6, [1, 1]]]]], '
    '[[[0, 0, 1], [[3, [-1, 1]]]], [[0, 1, 1], [[3, [-1, 1]]]], '
    '[[1, 0, 1], [[3, [-1, 1]]]], [[1, 1, 1], [[3, [-1, 1]]]]], '
    '[[[0, 0, 0], [[0, [1, 1]]]]]], "d": 3, "degree": 4, "group": "GSp(4)", '
    '"mu": [1, 1, 1], "vanishing_at_mu": true}\n')
# the two data whose coroots have two nonzero entries
GSPIN7_SPIN_JSON = (
    '{"coefficients": [[[[0, 0, 0, 3], [[30, [1, 1]]]]], [[[-1, 0, 0, 3], '
    '[[25, [-1, 1]]]], [[0, -1, 0, 3], [[25, [-1, 1]]]], [[0, 0, -1, 3], '
    '[[25, [-1, 1]]]], [[0, 0, 1, 2], [[25, [-1, 1]]]], [[0, 1, 0, 2], '
    '[[25, [-1, 1]]]], [[1, 0, 0, 2], [[25, [-1, 1]]]]], [[[-1, -1, 0, 3], '
    '[[20, [1, 1]]]], [[-1, 0, -1, 3], [[20, [1, 1]]]], [[-1, 0, 1, 2], '
    '[[20, [1, 1]]]], [[-1, 1, 0, 2], [[20, [1, 1]]]], [[0, -1, -1, 3], '
    '[[20, [1, 1]]]], [[0, -1, 1, 2], [[20, [1, 1]]]], [[0, 0, 0, 2], '
    '[[20, [3, 1]]]], [[0, 1, -1, 2], [[20, [1, 1]]]], [[0, 1, 1, 1], '
    '[[20, [1, 1]]]], [[1, -1, 0, 2], [[20, [1, 1]]]], [[1, 0, -1, 2], '
    '[[20, [1, 1]]]], [[1, 0, 1, 1], [[20, [1, 1]]]], [[1, 1, 0, 1], [[20, '
    '[1, 1]]]]], [[[-1, -1, -1, 3], [[15, [-1, 1]]]], [[-1, -1, 1, 2], '
    '[[15, [-1, 1]]]], [[-1, 0, 0, 2], [[15, [-2, 1]]]], [[-1, 1, -1, 2], '
    '[[15, [-1, 1]]]], [[-1, 1, 1, 1], [[15, [-1, 1]]]], [[0, -1, 0, 2], '
    '[[15, [-2, 1]]]], [[0, 0, -1, 2], [[15, [-2, 1]]]], [[0, 0, 1, 1], '
    '[[15, [-2, 1]]]], [[0, 1, 0, 1], [[15, [-2, 1]]]], [[1, -1, -1, 2], '
    '[[15, [-1, 1]]]], [[1, -1, 1, 1], [[15, [-1, 1]]]], [[1, 0, 0, 1], '
    '[[15, [-2, 1]]]], [[1, 1, -1, 1], [[15, [-1, 1]]]], [[1, 1, 1, 0], '
    '[[15, [-1, 1]]]]], [[[-1, -1, 0, 2], [[10, [1, 1]]]], [[-1, 0, -1, '
    '2], [[10, [1, 1]]]], [[-1, 0, 1, 1], [[10, [1, 1]]]], [[-1, 1, 0, 1], '
    '[[10, [1, 1]]]], [[0, -1, -1, 2], [[10, [1, 1]]]], [[0, -1, 1, 1], '
    '[[10, [1, 1]]]], [[0, 0, 0, 1], [[10, [3, 1]]]], [[0, 1, -1, 1], '
    '[[10, [1, 1]]]], [[0, 1, 1, 0], [[10, [1, 1]]]], [[1, -1, 0, 1], '
    '[[10, [1, 1]]]], [[1, 0, -1, 1], [[10, [1, 1]]]], [[1, 0, 1, 0], '
    '[[10, [1, 1]]]], [[1, 1, 0, 0], [[10, [1, 1]]]]], [[[-1, 0, 0, 1], '
    '[[5, [-1, 1]]]], [[0, -1, 0, 1], [[5, [-1, 1]]]], [[0, 0, -1, 1], '
    '[[5, [-1, 1]]]], [[0, 0, 1, 0], [[5, [-1, 1]]]], [[0, 1, 0, 0], [[5, '
    '[-1, 1]]]], [[1, 0, 0, 0], [[5, [-1, 1]]]]], [[[0, 0, 0, 0], [[0, [1, '
    '1]]]]]], "d": 5, "degree": 6, "group": "GSpin(7)", "mu": [1, 0, 0, '
    '0], "vanishing_at_mu": true}\n')
GSO8_HALF_SPIN_JSON = (
    '{"coefficients": [[[[4, 4, 4, 4, 8], [[48, [1, 1]]]]], [[[3, 3, 3, 3, '
    '7], [[42, [-1, 1]]]], [[3, 3, 4, 4, 7], [[42, [-1, 1]]]], [[3, 4, 3, '
    '4, 7], [[42, [-1, 1]]]], [[3, 4, 4, 3, 7], [[42, [-1, 1]]]], [[4, 3, '
    '3, 4, 7], [[42, [-1, 1]]]], [[4, 3, 4, 3, 7], [[42, [-1, 1]]]], [[4, '
    '4, 3, 3, 7], [[42, [-1, 1]]]], [[4, 4, 4, 4, 7], [[42, [-1, 1]]]]], '
    '[[[2, 2, 3, 3, 6], [[36, [1, 1]]]], [[2, 3, 2, 3, 6], [[36, [1, '
    '1]]]], [[2, 3, 3, 2, 6], [[36, [1, 1]]]], [[2, 3, 3, 4, 6], [[36, [1, '
    '1]]]], [[2, 3, 4, 3, 6], [[36, [1, 1]]]], [[2, 4, 3, 3, 6], [[36, [1, '
    '1]]]], [[3, 2, 2, 3, 6], [[36, [1, 1]]]], [[3, 2, 3, 2, 6], [[36, [1, '
    '1]]]], [[3, 2, 3, 4, 6], [[36, [1, 1]]]], [[3, 2, 4, 3, 6], [[36, [1, '
    '1]]]], [[3, 3, 2, 2, 6], [[36, [1, 1]]]], [[3, 3, 2, 4, 6], [[36, [1, '
    '1]]]], [[3, 3, 3, 3, 6], [[36, [4, 1]]]], [[3, 3, 4, 2, 6], [[36, [1, '
    '1]]]], [[3, 3, 4, 4, 6], [[36, [1, 1]]]], [[3, 4, 2, 3, 6], [[36, [1, '
    '1]]]], [[3, 4, 3, 2, 6], [[36, [1, 1]]]], [[3, 4, 3, 4, 6], [[36, [1, '
    '1]]]], [[3, 4, 4, 3, 6], [[36, [1, 1]]]], [[4, 2, 3, 3, 6], [[36, [1, '
    '1]]]], [[4, 3, 2, 3, 6], [[36, [1, 1]]]], [[4, 3, 3, 2, 6], [[36, [1, '
    '1]]]], [[4, 3, 3, 4, 6], [[36, [1, 1]]]], [[4, 3, 4, 3, 6], [[36, [1, '
    '1]]]], [[4, 4, 3, 3, 6], [[36, [1, 1]]]]], [[[1, 2, 2, 3, 5], [[30, '
    '[-1, 1]]]], [[1, 2, 3, 2, 5], [[30, [-1, 1]]]], [[1, 3, 2, 2, 5], '
    '[[30, [-1, 1]]]], [[1, 3, 3, 3, 5], [[30, [-1, 1]]]], [[2, 1, 2, 3, '
    '5], [[30, [-1, 1]]]], [[2, 1, 3, 2, 5], [[30, [-1, 1]]]], [[2, 2, 1, '
    '3, 5], [[30, [-1, 1]]]], [[2, 2, 2, 2, 5], [[30, [-3, 1]]]], [[2, 2, '
    '2, 4, 5], [[30, [-1, 1]]]], [[2, 2, 3, 1, 5], [[30, [-1, 1]]]], [[2, '
    '2, 3, 3, 5], [[30, [-3, 1]]]], [[2, 2, 4, 2, 5], [[30, [-1, 1]]]], '
    '[[2, 3, 1, 2, 5], [[30, [-1, 1]]]], [[2, 3, 2, 1, 5], [[30, [-1, '
    '1]]]], [[2, 3, 2, 3, 5], [[30, [-3, 1]]]], [[2, 3, 3, 2, 5], [[30, '
    '[-3, 1]]]], [[2, 3, 3, 4, 5], [[30, [-1, 1]]]], [[2, 3, 4, 3, 5], '
    '[[30, [-1, 1]]]], [[2, 4, 2, 2, 5], [[30, [-1, 1]]]], [[2, 4, 3, 3, '
    '5], [[30, [-1, 1]]]], [[3, 1, 2, 2, 5], [[30, [-1, 1]]]], [[3, 1, 3, '
    '3, 5], [[30, [-1, 1]]]], [[3, 2, 1, 2, 5], [[30, [-1, 1]]]], [[3, 2, '
    '2, 1, 5], [[30, [-1, 1]]]], [[3, 2, 2, 3, 5], [[30, [-3, 1]]]], [[3, '
    '2, 3, 2, 5], [[30, [-3, 1]]]], [[3, 2, 3, 4, 5], [[30, [-1, 1]]]], '
    '[[3, 2, 4, 3, 5], [[30, [-1, 1]]]], [[3, 3, 1, 3, 5], [[30, [-1, '
    '1]]]], [[3, 3, 2, 2, 5], [[30, [-3, 1]]]], [[3, 3, 2, 4, 5], [[30, '
    '[-1, 1]]]], [[3, 3, 3, 1, 5], [[30, [-1, 1]]]], [[3, 3, 3, 3, 5], '
    '[[30, [-3, 1]]]], [[3, 3, 4, 2, 5], [[30, [-1, 1]]]], [[3, 4, 2, 3, '
    '5], [[30, [-1, 1]]]], [[3, 4, 3, 2, 5], [[30, [-1, 1]]]], [[4, 2, 2, '
    '2, 5], [[30, [-1, 1]]]], [[4, 2, 3, 3, 5], [[30, [-1, 1]]]], [[4, 3, '
    '2, 3, 5], [[30, [-1, 1]]]], [[4, 3, 3, 2, 5], [[30, [-1, 1]]]]], '
    '[[[0, 2, 2, 2, 4], [[24, [1, 1]]]], [[1, 1, 1, 3, 4], [[24, [1, '
    '1]]]], [[1, 1, 2, 2, 4], [[24, [2, 1]]]], [[1, 1, 3, 1, 4], [[24, [1, '
    '1]]]], [[1, 2, 1, 2, 4], [[24, [2, 1]]]], [[1, 2, 2, 1, 4], [[24, [2, '
    '1]]]], [[1, 2, 2, 3, 4], [[24, [2, 1]]]], [[1, 2, 3, 2, 4], [[24, [2, '
    '1]]]], [[1, 3, 1, 1, 4], [[24, [1, 1]]]], [[1, 3, 2, 2, 4], [[24, [2, '
    '1]]]], [[1, 3, 3, 3, 4], [[24, [1, 1]]]], [[2, 0, 2, 2, 4], [[24, [1, '
    '1]]]], [[2, 1, 1, 2, 4], [[24, [2, 1]]]], [[2, 1, 2, 1, 4], [[24, [2, '
    '1]]]], [[2, 1, 2, 3, 4], [[24, [2, 1]]]], [[2, 1, 3, 2, 4], [[24, [2, '
    '1]]]], [[2, 2, 0, 2, 4], [[24, [1, 1]]]], [[2, 2, 1, 1, 4], [[24, [2, '
    '1]]]], [[2, 2, 1, 3, 4], [[24, [2, 1]]]], [[2, 2, 2, 0, 4], [[24, [1, '
    '1]]]], [[2, 2, 2, 2, 4], [[24, [6, 1]]]], [[2, 2, 2, 4, 4], [[24, [1, '
    '1]]]], [[2, 2, 3, 1, 4], [[24, [2, 1]]]], [[2, 2, 3, 3, 4], [[24, [2, '
    '1]]]], [[2, 2, 4, 2, 4], [[24, [1, 1]]]], [[2, 3, 1, 2, 4], [[24, [2, '
    '1]]]], [[2, 3, 2, 1, 4], [[24, [2, 1]]]], [[2, 3, 2, 3, 4], [[24, [2, '
    '1]]]], [[2, 3, 3, 2, 4], [[24, [2, 1]]]], [[2, 4, 2, 2, 4], [[24, [1, '
    '1]]]], [[3, 1, 1, 1, 4], [[24, [1, 1]]]], [[3, 1, 2, 2, 4], [[24, [2, '
    '1]]]], [[3, 1, 3, 3, 4], [[24, [1, 1]]]], [[3, 2, 1, 2, 4], [[24, [2, '
    '1]]]], [[3, 2, 2, 1, 4], [[24, [2, 1]]]], [[3, 2, 2, 3, 4], [[24, [2, '
    '1]]]], [[3, 2, 3, 2, 4], [[24, [2, 1]]]], [[3, 3, 1, 3, 4], [[24, [1, '
    '1]]]], [[3, 3, 2, 2, 4], [[24, [2, 1]]]], [[3, 3, 3, 1, 4], [[24, [1, '
    '1]]]], [[4, 2, 2, 2, 4], [[24, [1, 1]]]]], [[[0, 1, 1, 2, 3], [[18, '
    '[-1, 1]]]], [[0, 1, 2, 1, 3], [[18, [-1, 1]]]], [[0, 2, 1, 1, 3], '
    '[[18, [-1, 1]]]], [[0, 2, 2, 2, 3], [[18, [-1, 1]]]], [[1, 0, 1, 2, '
    '3], [[18, [-1, 1]]]], [[1, 0, 2, 1, 3], [[18, [-1, 1]]]], [[1, 1, 0, '
    '2, 3], [[18, [-1, 1]]]], [[1, 1, 1, 1, 3], [[18, [-3, 1]]]], [[1, 1, '
    '1, 3, 3], [[18, [-1, 1]]]], [[1, 1, 2, 0, 3], [[18, [-1, 1]]]], [[1, '
    '1, 2, 2, 3], [[18, [-3, 1]]]], [[1, 1, 3, 1, 3], [[18, [-1, 1]]]], '
    '[[1, 2, 0, 1, 3], [[18, [-1, 1]]]], [[1, 2, 1, 0, 3], [[18, [-1, '
    '1]]]], [[1, 2, 1, 2, 3], [[18, [-3, 1]]]], [[1, 2, 2, 1, 3], [[18, '
    '[-3, 1]]]], [[1, 2, 2, 3, 3], [[18, [-1, 1]]]], [[1, 2, 3, 2, 3], '
    '[[18, [-1, 1]]]], [[1, 3, 1, 1, 3], [[18, [-1, 1]]]], [[1, 3, 2, 2, '
    '3], [[18, [-1, 1]]]], [[2, 0, 1, 1, 3], [[18, [-1, 1]]]], [[2, 0, 2, '
    '2, 3], [[18, [-1, 1]]]], [[2, 1, 0, 1, 3], [[18, [-1, 1]]]], [[2, 1, '
    '1, 0, 3], [[18, [-1, 1]]]], [[2, 1, 1, 2, 3], [[18, [-3, 1]]]], [[2, '
    '1, 2, 1, 3], [[18, [-3, 1]]]], [[2, 1, 2, 3, 3], [[18, [-1, 1]]]], '
    '[[2, 1, 3, 2, 3], [[18, [-1, 1]]]], [[2, 2, 0, 2, 3], [[18, [-1, '
    '1]]]], [[2, 2, 1, 1, 3], [[18, [-3, 1]]]], [[2, 2, 1, 3, 3], [[18, '
    '[-1, 1]]]], [[2, 2, 2, 0, 3], [[18, [-1, 1]]]], [[2, 2, 2, 2, 3], '
    '[[18, [-3, 1]]]], [[2, 2, 3, 1, 3], [[18, [-1, 1]]]], [[2, 3, 1, 2, '
    '3], [[18, [-1, 1]]]], [[2, 3, 2, 1, 3], [[18, [-1, 1]]]], [[3, 1, 1, '
    '1, 3], [[18, [-1, 1]]]], [[3, 1, 2, 2, 3], [[18, [-1, 1]]]], [[3, 2, '
    '1, 2, 3], [[18, [-1, 1]]]], [[3, 2, 2, 1, 3], [[18, [-1, 1]]]]], '
    '[[[0, 0, 1, 1, 2], [[12, [1, 1]]]], [[0, 1, 0, 1, 2], [[12, [1, '
    '1]]]], [[0, 1, 1, 0, 2], [[12, [1, 1]]]], [[0, 1, 1, 2, 2], [[12, [1, '
    '1]]]], [[0, 1, 2, 1, 2], [[12, [1, 1]]]], [[0, 2, 1, 1, 2], [[12, [1, '
    '1]]]], [[1, 0, 0, 1, 2], [[12, [1, 1]]]], [[1, 0, 1, 0, 2], [[12, [1, '
    '1]]]], [[1, 0, 1, 2, 2], [[12, [1, 1]]]], [[1, 0, 2, 1, 2], [[12, [1, '
    '1]]]], [[1, 1, 0, 0, 2], [[12, [1, 1]]]], [[1, 1, 0, 2, 2], [[12, [1, '
    '1]]]], [[1, 1, 1, 1, 2], [[12, [4, 1]]]], [[1, 1, 2, 0, 2], [[12, [1, '
    '1]]]], [[1, 1, 2, 2, 2], [[12, [1, 1]]]], [[1, 2, 0, 1, 2], [[12, [1, '
    '1]]]], [[1, 2, 1, 0, 2], [[12, [1, 1]]]], [[1, 2, 1, 2, 2], [[12, [1, '
    '1]]]], [[1, 2, 2, 1, 2], [[12, [1, 1]]]], [[2, 0, 1, 1, 2], [[12, [1, '
    '1]]]], [[2, 1, 0, 1, 2], [[12, [1, 1]]]], [[2, 1, 1, 0, 2], [[12, [1, '
    '1]]]], [[2, 1, 1, 2, 2], [[12, [1, 1]]]], [[2, 1, 2, 1, 2], [[12, [1, '
    '1]]]], [[2, 2, 1, 1, 2], [[12, [1, 1]]]]], [[[0, 0, 0, 0, 1], [[6, '
    '[-1, 1]]]], [[0, 0, 1, 1, 1], [[6, [-1, 1]]]], [[0, 1, 0, 1, 1], [[6, '
    '[-1, 1]]]], [[0, 1, 1, 0, 1], [[6, [-1, 1]]]], [[1, 0, 0, 1, 1], [[6, '
    '[-1, 1]]]], [[1, 0, 1, 0, 1], [[6, [-1, 1]]]], [[1, 1, 0, 0, 1], [[6, '
    '[-1, 1]]]], [[1, 1, 1, 1, 1], [[6, [-1, 1]]]]], [[[0, 0, 0, 0, 0], '
    '[[0, [1, 1]]]]]], "d": 6, "degree": 8, "group": "GSO(8)", "mu": [1, '
    '1, 1, 1, 1], "vanishing_at_mu": true}\n')
CORRESP_SEED0_JSON = (
    '{"checks": {"composition associativity (100 triples)": true, '
    '"point mass under Frobenius graph": true, '
    '"vanishing iff zero matrix (50 cases)": true}, "passed": true, '
    '"suite": "corresp"}\n')
FROBDEMO_P5_JSON = (
    '{"checks": {"y^2=x^3+0x+1 over F_5": true, '
    '"y^2=x^3+0x+2 over F_5": true, "y^2=x^3+0x+3 over F_5": true, '
    '"y^2=x^3+0x+4 over F_5": true, "y^2=x^3+1x+0 over F_5": true, '
    '"y^2=x^3+1x+1 over F_5": true, "y^2=x^3+1x+2 over F_5": true, '
    '"y^2=x^3+1x+3 over F_5": true, "y^2=x^3+1x+4 over F_5": true, '
    '"y^2=x^3+2x+0 over F_5": true, "y^2=x^3+2x+1 over F_5": true, '
    '"y^2=x^3+2x+4 over F_5": true, "y^2=x^3+3x+0 over F_5": true, '
    '"y^2=x^3+3x+2 over F_5": true, "y^2=x^3+3x+3 over F_5": true, '
    '"y^2=x^3+4x+0 over F_5": true, "y^2=x^3+4x+1 over F_5": true, '
    '"y^2=x^3+4x+2 over F_5": true, "y^2=x^3+4x+3 over F_5": true, '
    '"y^2=x^3+4x+4 over F_5": true}, "passed": true, '
    '"suite": "frobdemo"}\n')

FROBDEMO_P7_SEED3_CURVES = ("0x+1", "0x+5", "1x+3", "2x+6", "3x+0", "4x+0",
                            "5x+2", "5x+6", "6x+1", "6x+2")
FROBDEMO_P7_SEED3_JSON = (
    '{"checks": {"y^2=x^3+0x+1 over F_7": true, '
    '"y^2=x^3+0x+5 over F_7": true, "y^2=x^3+1x+3 over F_7": true, '
    '"y^2=x^3+2x+6 over F_7": true, "y^2=x^3+3x+0 over F_7": true, '
    '"y^2=x^3+4x+0 over F_7": true, "y^2=x^3+5x+2 over F_7": true, '
    '"y^2=x^3+5x+6 over F_7": true, "y^2=x^3+6x+1 over F_7": true, '
    '"y^2=x^3+6x+2 over F_7": true}, "passed": true, '
    '"suite": "frobdemo"}\n')

PROP33_ALL_JSON = (
    '{"checks": {'
    '"GL(2) mu=(0, 0)": true, '
    '"GL(2) mu=(1, 0)": true, '
    '"GL(2) mu=(1, 1)": true, '
    '"GL(3) mu=(0, 0, 0)": true, '
    '"GL(3) mu=(1, 0, 0)": true, '
    '"GL(3) mu=(1, 1, 0)": true, '
    '"GL(3) mu=(1, 1, 1)": true, '
    '"GL(4) mu=(0, 0, 0, 0)": true, '
    '"GL(4) mu=(1, 0, 0, 0)": true, '
    '"GL(4) mu=(1, 1, 0, 0)": true, '
    '"GL(4) mu=(1, 1, 1, 0)": true, '
    '"GL(4) mu=(1, 1, 1, 1)": true, '
    '"GSO(8) mu=(0, 0, 0, 0, 0)": true, '
    '"GSO(8) mu=(1, 0, 0, 0, 0)": true, '
    '"GSO(8) mu=(1, 1, 1, 0, 1)": true, '
    '"GSO(8) mu=(1, 1, 1, 1, 1)": true, '
    '"GSp(4) mu=(0, 0, 0)": true, '
    '"GSp(4) mu=(1, 1, 1)": true, '
    '"GSp(6) mu=(0, 0, 0, 0)": true, '
    '"GSp(6) mu=(1, 1, 1, 1)": true, '
    '"GSpin(7) mu=(0, 0, 0, 0)": true, '
    '"GSpin(7) mu=(0, 0, 0, 1)": true, '
    '"GSpin(7) mu=(1, 0, 0, 0)": true, '
    '"GSpin(7) mu=(1, 0, 0, 1)": true'
    '}, "passed": true, "suite": "prop33"}\n')


def test_hecke_poly_golden_output(capsys):
    # exact coefficient output, in both formats, byte for byte
    for argv, expected in (
        (["hecke-poly", "--group", "GL2", "--mu", "std"], GL2_TEXT),
        (["hecke-poly", "--group", "GL2", "--mu", "std", "--format", "json"],
         GL2_JSON),
        (["--format", "json", "hecke-poly", "--group", "GSp4",
          "--mu", "siegel"], GSP4_SIEGEL_JSON),
        (["--format", "json", "hecke-poly", "--group", "GSpin7",
          "--mu", "spin"], GSPIN7_SPIN_JSON),
        (["--format", "json", "hecke-poly", "--group", "GSO8",
          "--mu", "half-spin"], GSO8_HALF_SPIN_JSON),
    ):
        assert run(capsys, *argv) == (0, expected, ""), argv


@pytest.mark.parametrize("group, mu, digest", [
    ("GSO(10)", "half-spin",
     "586a79fafd553eb4c06e0c51953e3426cd7aa0a5f1bc1a61259f040cb165786c"),
    ("GSp(8)", "siegel",
     "fef8ecb88d23e4b242613cbd24ade988c74c89cb1bc2b5b56ae707c2ec645ea1"),
], ids=["gso10-half-spin", "gsp8-siegel"])
def test_hecke_poly_large_golden_digest(capsys, group, mu, digest):
    # 16 orbit points each; the JSON is pinned by its sha256
    code, out, err = run(capsys, "--format", "json", "hecke-poly",
                         "--group", group, "--mu", mu)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,expected", [
    (["--n", "2", "--p", "3", "--types", "2,1", "1,1"],
     '{"n": 2, "p": 3, "product": {"3,2": [1, 1]}, '
     '"types": [[2, 1], [1, 1]]}\n'),
    (["--n", "3", "--p", "2", "--types", "2,1,0", "1,1,1"],
     '{"n": 3, "p": 2, "product": {"3,2,1": [1, 1]}, '
     '"types": [[2, 1, 0], [1, 1, 1]]}\n'),
], ids=["gl2", "gl3"])
def test_convolve_with_central_part_golden_output(capsys, argv, expected):
    # a central factor p**(c, ..., c) only shifts the type, byte for byte
    assert run(capsys, "--format", "json", "convolve", *argv) == \
        (0, expected, "")


def test_convolve_gl4_golden_output(capsys):
    # the coset counts of a GL(4) product, byte for byte
    assert run(capsys, "--format", "json", "convolve", "--n", "4", "--p", "3",
               "--types", "2,1,0,0", "2,1,0,0") == (0, (
        '{"n": 4, "p": 3, "product": {"2,2,1,1": [432, 1], '
        '"2,2,2,0": [156, 1], "3,1,1,1": [104, 1], "3,2,1,0": [20, 1], '
        '"3,3,0,0": [4, 1], "4,1,1,0": [4, 1], "4,2,0,0": [1, 1]}, '
        '"types": [[2, 1, 0, 0], [2, 1, 0, 0]]}\n'), "")


def test_verify_golden_output(capsys):
    # the correspondence and Frobenius suites, byte for byte
    for argv, expected in (
        (["--format", "json", "verify", "corresp", "--seed", "0"],
         CORRESP_SEED0_JSON),
        (["--format", "json", "verify", "frobdemo", "--p", "5",
          "--exhaustive"], FROBDEMO_P5_JSON),
    ):
        assert run(capsys, *argv) == (0, expected, ""), argv


def test_prop33_all_groups_golden_output(capsys):
    # the degree >= 2 requirement leaves the all-groups report unchanged
    assert run(capsys, "--format", "json", "verify", "prop33",
               "--all-groups") == (0, PROP33_ALL_JSON, "")
