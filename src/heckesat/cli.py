"""Command-line driver: Hecke polynomials, verification suites, convolution.

Exit codes, chosen by exception type:

* 0 -- success;
* 1 -- verification failure, including a suite that ran no checks and
  a ``prop33`` run whose polynomials all have degree 1;
* 2 -- usage error: bad group, cocharacter, type, size n, prime p,
  curve or a negative ``--pairs`` / ``--curves`` count (ValueError);
* 3 -- resource bound exceeded: coset enumeration or count, a p above
  the primality-test bound, a finite field above the counting bound, or
  a Hecke polynomial whose e_j exceed ``satake.TERM_BOUND`` terms;
* 4 -- internal error: a failed internal-consistency check (a
  RuntimeError) or any other exception, reported on one line.

All reports go to standard output as JSON (sorted keys) or readable
text; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import corresp, elliptic, padic, rootdata, satake
from .conventions import reflect
from .intmat import PrimeBoundError
from .padic import EnumerationBoundError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4

ALL_GROUPS = ("GL(2)", "GL(3)", "GL(4)", "GSp(4)", "GSp(6)", "GSO(8)",
              "GSpin(7)")


def _parse_mu(rd, raw):
    raw = raw.strip()
    if any(ch.isalpha() for ch in raw):
        return rootdata.named_cocharacter(rd, raw)
    try:
        return tuple(int(x) for x in raw.split(","))
    except ValueError:
        raise rootdata.RootDatumError(f"cannot parse cocharacter {raw!r}")


def _emit(report, fmt):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        _emit_text(report)


def _emit_text(report, indent=""):
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_text(val, indent + "  ")
        else:
            print(f"{indent}{key}: {val}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_hecke_poly(args):
    rd = rootdata.build_group(args.group)
    mu = _parse_mu(rd, args.mu)
    H = satake.hecke_polynomial(rd, mu)
    vanishes = satake.evaluate_vanishing(H).is_zero()
    report = {
        "group": rd.name,
        "mu": list(H.mu),
        "degree": H.degree,
        "d": H.d,
        "vanishing_at_mu": vanishes,
    }
    if args.format == "json":
        report["coefficients"] = satake.polynomial_to_dict(H)["coefficients"]
    else:
        report["coefficients"] = {
            f"t^{k}": repr(c) for k, c in enumerate(H.coefficients)}
    _emit(report, args.format)
    return EXIT_OK if vanishes else EXIT_VERIFY_FAIL


def cmd_convolve(args):
    n, p = args.n, args.p
    types = [tuple(int(x) for x in raw.split(",")) for raw in args.types]
    result = padic.DoubleCosetSum.basis(types[0], n, p)
    for lam in types[1:]:
        result = padic.convolve_double(
            result, padic.DoubleCosetSum.basis(lam, n, p))
    report = {
        "n": n,
        "p": p,
        "types": [list(t) for t in types],
        "product": {
            ",".join(map(str, lam)): [c.numerator, c.denominator]
            for lam, c in result.terms.items()
        },
    }
    _emit(report, args.format)
    return EXIT_OK


def _suite_prop33(args):
    """H_mu(v**d e^mu) = 0 for every dominant minuscule mu of the groups.

    A degree-1 polynomial t - e^mu vanishes at e^mu by construction, so
    the suite passes only if some checked polynomial has degree >= 2; a
    group with no noncentral minuscule cocharacter (SL(n), GL(1)) fails.
    """
    groups = ALL_GROUPS if args.all_groups or not args.group else (args.group,)
    checks = {}
    ok = True
    nontrivial = False
    for name in groups:
        rd = rootdata.build_group(name)
        for mu in rootdata.enumerate_dominant_minuscule(rd):
            H = satake.hecke_polynomial(rd, mu)
            vanished = satake.evaluate_vanishing(H).is_zero()
            checks[f"{rd.name} mu={mu}"] = vanished
            ok = ok and vanished
            nontrivial = nontrivial or H.degree >= 2
    if not nontrivial:
        print("error: prop33 checked no Hecke polynomial of degree >= 2",
              file=sys.stderr)
    return ok and nontrivial, checks


def _suite_satake_hom(args):
    rng = random.Random(args.seed)
    n, p = args.n, args.p
    padic.check_size_prime(n, p)
    checks = {}
    for i in range(args.pairs):
        t1 = tuple(sorted((rng.randint(0, 2) for _ in range(n)), reverse=True))
        t2 = tuple(sorted((rng.randint(0, 2) for _ in range(n)), reverse=True))
        h1 = padic.DoubleCosetSum.basis(t1, n, p)
        h2 = padic.DoubleCosetSum.basis(t2, n, p)
        lhs = padic.satake_numeric(padic.convolve_double(h1, h2))
        rhs = padic.reduce_mod_v2(
            padic.satake_numeric(h1) * padic.satake_numeric(h2), p)
        checks[f"pair {i}: {t1} * {t2}"] = lhs == rhs
    return all(checks.values()), checks


def _suite_convolution(args):
    from fractions import Fraction
    checks = {}
    for p in (2, 3, 5):
        g = padic.PCoset.from_matrix([[1, 0], [0, p]], p)
        checks[f"measure diag(1,{p})"] = (
            padic.measure_intersection(g) == Fraction(1, p + 1))
    for p in (2, 3):
        T = padic.DoubleCosetSum.basis((1, 0), 2, p)
        TT = padic.convolve_double(T, T)
        checks[f"T*T p={p}"] = TT.terms == {
            (2, 0): Fraction(1), (1, 1): Fraction(p + 1)}
    rng = random.Random(args.seed)
    for i in range(5):
        n, p = rng.choice([(2, 2), (2, 3), (3, 2)])
        ts = [tuple(sorted((rng.randint(0, 2) for _ in range(n)),
                           reverse=True)) for _ in range(3)]
        a, b, c = (padic.DoubleCosetSum.basis(t, n, p) for t in ts)
        checks[f"assoc {i}"] = (
            padic.convolve_double(padic.convolve_double(a, b), c)
            == padic.convolve_double(a, padic.convolve_double(b, c)))
    # cross-module convention lock
    rd = rootdata.build_group("GL(2)")
    H = satake.hecke_polynomial(rd, (1, 0))
    for p in (2, 3):
        T = padic.DoubleCosetSum.basis((1, 0), 2, p)
        lhs = padic.satake_numeric(T)
        rhs = padic.reduce_mod_v2(reflect(-H.coefficients[1]), p)
        checks[f"convention lock p={p}"] = lhs == rhs
    return all(checks.values()), checks


def _suite_corresp(args):
    rng = random.Random(args.seed)
    checks = {}
    ps = corresp.FinitePointSet(4, (0, 1, 2, 3), 5, 1)

    def rand_corr():
        return corresp.Correspondence(ps, ps, tuple(
            tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(4)))

    ok_assoc = True
    for _ in range(100):
        c1, c2, c3 = rand_corr(), rand_corr(), rand_corr()
        lhs = corresp.compose(corresp.compose(c1, c2), c3)
        rhs = corresp.compose(c1, corresp.compose(c2, c3))
        ok_assoc = ok_assoc and lhs.weights == rhs.weights
    checks["composition associativity (100 triples)"] = ok_assoc

    curve = elliptic.EllipticCurve(5, 1, 1)
    pts = elliptic.export_point_set(curve, 2)
    gq = corresp.frobenius_corr(pts)
    ok_frob = all(
        act.coefficients[pts.frobenius[i]] == 1 and sum(
            map(abs, act.coefficients)) == 1
        for i in range(pts.size)
        for act in [corresp.act(corresp.CycleZero.point_mass(pts, i), gq)]
    )
    checks["point mass under Frobenius graph"] = ok_frob

    ok_vanish = True
    for _ in range(50):
        c = rand_corr()
        is_zero = all(x == 0 for r in c.weights for x in r)
        ok_vanish = ok_vanish and corresp.vanishing_test(c) == is_zero
        ok_vanish = ok_vanish and corresp.vanishing_test(c - c)
    checks["vanishing iff zero matrix (50 cases)"] = ok_vanish
    return all(checks.values()), checks


def _suite_frobdemo(args):
    p = args.p
    curves = elliptic.all_curves(p)  # refuses p^2 above the counting bound
    if not args.exhaustive:
        curves = random.Random(args.seed).sample(
            curves, min(args.curves, len(curves)))
    k_max = 3 if p ** 3 <= elliptic.COUNT_BOUND else 2
    checks = {}
    for curve in curves:
        a_p = elliptic.frobenius_data(curve, 1).a_p  # one count for two checks
        checks[f"y^2=x^3+{curve.a}x+{curve.b} over F_{p}"] = (
            elliptic.verify_count_consistency(curve, k_max)
            and elliptic.verify_frobenius_annihilation(curve, 2, a_p)
            and elliptic.satake_link(curve, a_p)[0])
    return all(checks.values()), checks


SUITES = {
    "prop33": _suite_prop33,
    "satake-hom": _suite_satake_hom,
    "convolution": _suite_convolution,
    "corresp": _suite_corresp,
    "frobdemo": _suite_frobdemo,
}


def cmd_verify(args):
    for flag in ("pairs", "curves"):
        count = getattr(args, flag)
        if count < 0:
            raise ValueError(f"--{flag} must be a count >= 0, got {count}")
    ok, checks = SUITES[args.suite](args)
    ok = ok and bool(checks)
    report = {
        "suite": args.suite,
        "passed": ok,
        "checks": {k: bool(v) for k, v in checks.items()},
    }
    _emit(report, args.format)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="heckesat",
        description="Exact Hecke algebra / Satake transform calculus.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--format", choices=("text", "json"),
                            default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    hp = sub.add_parser("hecke-poly", parents=[fmt_parent],
                        help="compute a Hecke polynomial")
    hp.add_argument("--group", required=True,
                    help="GL2, GL(3), GSp4, GSO8, GSpin7, ...")
    hp.add_argument("--mu", required=True,
                    help="comma-separated cocharacter or an alias "
                         "(spin, half-spin, siegel, std, central)")
    hp.set_defaults(func=cmd_hecke_poly)

    ver = sub.add_parser("verify", parents=[fmt_parent],
                     help="run a verification suite")
    ver.add_argument("suite", choices=sorted(SUITES))
    ver.add_argument("--n", type=int, default=2)
    ver.add_argument("--p", type=int, default=2)
    ver.add_argument("--pairs", type=int, default=20)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--group", default=None)
    ver.add_argument("--all-groups", action="store_true")
    ver.add_argument("--exhaustive", action="store_true")
    ver.add_argument("--curves", type=int, default=20)
    ver.set_defaults(func=cmd_verify)

    conv = sub.add_parser("convolve", parents=[fmt_parent],
                      help="convolve double cosets")
    conv.add_argument("--n", type=int, required=True)
    conv.add_argument("--p", type=int, required=True)
    conv.add_argument("--types", nargs="+", required=True,
                      help="elementary-divisor types, e.g. 1,0 1,0")
    conv.set_defaults(func=cmd_convolve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationBoundError, elliptic.CountBoundError,
            satake.TermBoundError, PrimeBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
