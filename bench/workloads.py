"""The three benchmark workloads: seeded inputs, program calls, references.

``make_jobs`` turns (workload, seed) into a list of plain-data jobs;
``run_job`` feeds one job's inputs to the public functions of heckesat
and returns what the program answered; ``expected`` computes the
independent reference for a job and ``check`` compares the two.  Only
``run_job`` touches the program.
"""

from __future__ import annotations

import random
from math import comb

from hall import hall_product

WORKLOADS = ("symbolic", "hecke", "frobenius")

# The CLI's ALL_GROUPS, plus the larger groups the symbolic workload adds.
CLI_GROUPS = ("GL(2)", "GL(3)", "GL(4)", "GSp(4)", "GSp(6)", "GSO(8)",
              "GSpin(7)")
SYMBOLIC_GROUPS = CLI_GROUPS + ("GL(5)", "GSp(8)", "GSpin(9)", "GSO(10)")


# ---------------------------------------------------------------------------
# symbolic: dominant minuscule cocharacters, their orbits and closed forms
#
# Coordinates follow the bases documented in heckesat.rootdata:
# GL(n) on (x_1..x_n); GSp(2g) on (x_1..x_g, eta); GSO(2n) on
# (x_1..x_n, eta); GSpin(2n+1) on (x_1..x_n, x_0).

def _family(group):
    fam, size = group.rstrip(")").split("(")
    return fam, int(size)


def _minuscule(group):
    """Every dominant minuscule cocharacter with 0/1 coordinates."""
    fam, size = _family(group)
    if fam == "GL":
        return [(1,) * k + (0,) * (size - k) for k in range(size + 1)]
    if fam == "GSp":
        g = size // 2
        return [(0,) * (g + 1), (1,) * (g + 1)]
    if fam == "GSO":
        n = size // 2
        return [(0,) * (n + 1), (1,) + (0,) * n,
                (1,) * (n - 1) + (0, 1), (1,) * (n + 1)]
    n = (size - 1) // 2  # GSpin
    e1 = (1,) + (0,) * n
    e0 = (0,) * n + (1,)
    return [(0,) * (n + 1), e0, e1, tuple(a + b for a, b in zip(e1, e0))]


def closed_form(group, mu):
    """(degree, d) of the Hecke polynomial by the classical formulas."""
    fam, size = _family(group)
    if fam == "GL":
        k = sum(mu)
        return comb(size, k), k * (size - k)
    if fam == "GSp":
        g = size // 2
        return (1, 0) if not any(mu) else (2 ** g, g * (g + 1) // 2)
    if fam == "GSO":
        n = size // 2
        if not any(mu):
            return 1, 0
        if mu[:n] == (1,) + (0,) * (n - 1):
            return 2 * n, 2 * n - 2          # vector
        return 2 ** (n - 1), n * (n - 1) // 2  # half-spin
    n = (size - 1) // 2
    if not any(mu[:n]):
        return 1, 0                          # central
    return 2 * n, 2 * n - 1                  # spin


def _reflections(group):
    """Generators of the Weyl group acting on cocharacter coordinates."""
    fam, size = _family(group)
    gens = []
    n = size if fam == "GL" else (size - 1) // 2 if fam == "GSpin" else size // 2

    def swap(i):
        return lambda x: x[:i] + (x[i + 1], x[i]) + x[i + 2:]

    gens += [swap(i) for i in range(n - 1)]
    if fam == "GSp":
        gens.append(lambda x: x[:n - 1] + (x[n] - x[n - 1],) + x[n:])
    elif fam == "GSO":
        gens.append(lambda x: x[:n - 2] + (x[n] - x[n - 1], x[n] - x[n - 2])
                    + x[n:])
    elif fam == "GSpin":
        gens.append(lambda x: x[:n - 1] + (-x[n - 1], x[n] + x[n - 1]))
    return gens


def weyl_orbit(group, mu):
    gens = _reflections(group)
    seen = {tuple(mu)}
    frontier = [tuple(mu)]
    while frontier:
        frontier = [y for x in frontier for y in (g(x) for g in gens)
                    if y not in seen and not seen.add(y)]
    return seen


def _symbolic_jobs(rng, tiny):
    groups = ("GL(2)", "GL(3)", "GSp(4)") if tiny else SYMBOLIC_GROUPS
    jobs = []
    for group in groups:
        for mu in _minuscule(group):
            lam = rng.choice(sorted(weyl_orbit(group, mu)))
            jobs.append({"kind": "hecke_poly", "group": group,
                         "mu": list(mu), "lam": list(lam)})
    return jobs


# ---------------------------------------------------------------------------
# hecke: convolution and the numeric Satake transform on GL_n(Q_p)

def _shapes(n, top=2):
    """Types with entries <= top and last entry 0 (no central part)."""
    out = []

    def rec(prefix, bound):
        if len(prefix) == n - 1:
            out.append(tuple(prefix) + (0,))
            return
        for x in range(bound, -1, -1):
            rec(prefix + [x], x)

    rec([], top)
    return out


def _hecke_jobs(rng, tiny):
    jobs = []
    lines = ((2, 3),) if tiny else ((2, 3), (2, 5), (3, 2))
    for n, p in lines:
        shapes = _shapes(n, 1 if tiny else 2)
        for i, a in enumerate(shapes):
            for b in shapes[i:]:
                # every unordered pair of shapes; the seed picks the
                # central twist of each factor and the order of the factors
                ca, cb = rng.randint(0, 1), rng.randint(0, 1)
                a1, b1 = [x + ca for x in a], [x + cb for x in b]
                if rng.random() < 0.5:
                    a1, b1 = b1, a1
                jobs.append({"kind": "satake_hom", "n": n, "p": p,
                             "a": a1, "b": b1})
    products = ([(2, 2, (1, 0), (1, 0))] if tiny else
                [(3, 3, (2, 1, 0), (1, 0, 0)), (3, 3, (1, 1, 0), (1, 1, 0)),
                 (3, 3, (2, 0, 0), (1, 0, 0)),
                 (4, 2, (2, 1, 0, 0), (1, 0, 0, 0)),
                 (4, 2, (1, 1, 0, 0), (1, 1, 0, 0))])
    for n, p, a, b in products:
        jobs.append({"kind": "convolve", "n": n, "p": p,
                     "a": list(a), "b": list(b)})
    return jobs


# ---------------------------------------------------------------------------
# frobenius: elliptic curves y^2 = x^3 + a x + b over F_p

# (p, number of sampled curves); None samples every curve.
FROBENIUS_PRIMES = ((5, None), (7, 12), (11, 8), (13, 8))


def _curves(p):
    return [(a, b) for a in range(p) for b in range(p)
            if (4 * a ** 3 + 27 * b ** 2) % p]


def export_degree(p):
    """Extension degree of the point set whose Frobenius graph is composed.

    E(F_{p^2}) for p <= 7; above that the dense O(N^3) matrix product
    over ~p^2 points would outweigh the elliptic checks, so E(F_p).
    """
    return 2 if p <= 7 else 1


def _frobenius_jobs(rng, tiny):
    jobs = []
    primes = ((5, 2),) if tiny else FROBENIUS_PRIMES
    for p, count in primes:
        curves = _curves(p)
        if count is not None:
            curves = rng.sample(curves, count)
        jobs += [{"kind": "curve", "p": p, "a": a, "b": b} for a, b in curves]
    return jobs


def make_jobs(workload, seed, tiny=False):
    """The workload's jobs in run order; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"symbolic": _symbolic_jobs, "hecke": _hecke_jobs,
            "frobenius": _frobenius_jobs}[workload]
    jobs = make(rng, tiny)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# running a job against the program

def _product_terms(h):
    return {",".join(map(str, lam)): [c.numerator, c.denominator]
            for lam, c in sorted(h.terms.items())}


def run_job(job, hs):
    """Run one job through heckesat (passed as a module namespace)."""
    kind = job["kind"]
    if kind == "hecke_poly":
        rd = hs.rootdata.build_group(job["group"])
        H = hs.satake.hecke_polynomial(rd, tuple(job["mu"]))
        zero = hs.satake.evaluate_vanishing(H, tuple(job["lam"])).is_zero()
        return {"degree": H.degree, "d": H.d, "vanishes": zero}
    if kind in ("satake_hom", "convolve"):
        n, p = job["n"], job["p"]
        h1 = hs.padic.DoubleCosetSum.basis(tuple(job["a"]), n, p)
        h2 = hs.padic.DoubleCosetSum.basis(tuple(job["b"]), n, p)
        prod = hs.padic.convolve_double(h1, h2)
        out = {"product": _product_terms(prod)}
        if kind == "satake_hom":
            lhs = hs.padic.satake_numeric(prod)
            rhs = hs.padic.reduce_mod_v2(
                hs.padic.satake_numeric(h1) * hs.padic.satake_numeric(h2), p)
            out["homomorphism"] = lhs == rhs
        return out
    if kind == "curve":
        ell, cor = hs.elliptic, hs.corresp
        curve = ell.EllipticCurve(job["p"], job["a"], job["b"])
        counts = ell.verify_count_consistency(curve, 3)
        annihilation = ell.verify_frobenius_annihilation(curve, 2)
        link, coeffs = ell.satake_link(curve)
        pts = ell.export_point_set(curve, export_degree(curve.p))
        frob = cor.frobenius_corr(pts)
        # Frobenius has order k on E(F_{p^k}) for k in {1, 2}: F o F = id
        frob2_id = cor.vanishing_test(
            cor.compose(frob, frob) - cor.identity_corr(pts))
        return {"count_consistency": counts, "annihilation": annihilation,
                "satake_link": link, "a_p": -int(coeffs[1]),
                "points": pts.size, "frobenius_squared_identity": frob2_id}
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# references and the gate

def _legendre(x, p):
    x %= p
    return 0 if x == 0 else (1 if pow(x, (p - 1) // 2, p) == 1 else -1)


def count_f_p(p, a, b):
    """#E(F_p) by Euler's criterion, independent of the program's fields."""
    return 1 + sum(1 + _legendre(x ** 3 + a * x + b, p) for x in range(p))


def expected(job):
    """The independent reference values for a job."""
    kind = job["kind"]
    if kind == "hecke_poly":
        degree, d = closed_form(job["group"], tuple(job["mu"]))
        return {"degree": degree, "d": d, "vanishes": True}
    if kind in ("satake_hom", "convolve"):
        prod = hall_product(job["a"], job["b"], job["n"], job["p"])
        out = {"product": {",".join(map(str, nu)): [c, 1]
                           for nu, c in sorted(prod.items())}}
        if kind == "satake_hom":
            out["homomorphism"] = True
        return out
    p, a, b = job["p"], job["a"], job["b"]
    a_p = p + 1 - count_f_p(p, a, b)
    k = export_degree(p)
    s_k = a_p if k == 1 else a_p * a_p - 2 * p
    return {"count_consistency": True, "annihilation": True,
            "satake_link": True, "a_p": a_p, "points": p ** k + 1 - s_k,
            "frobenius_squared_identity": True}


def check(job, output, expect):
    """Mismatches between a job's output and its reference; empty if none."""
    if "error" in output:
        return [f"raised: {output['error']}"]
    problems = [f"{key}: got {output.get(key)!r}, expected {want!r}"
                for key, want in expect.items() if output.get(key) != want]
    if job["kind"] == "curve" and output["a_p"] ** 2 > 4 * job["p"]:
        problems.append(f"a_p = {output['a_p']} violates the Hasse bound")
    return problems


def job_label(job):
    if job["kind"] == "hecke_poly":
        return f"{job['group']} mu={tuple(job['mu'])}"
    if job["kind"] == "curve":
        return f"y^2=x^3+{job['a']}x+{job['b']} over F_{job['p']}"
    return (f"{job['kind']} GL({job['n']}) p={job['p']} "
            f"{tuple(job['a'])}*{tuple(job['b'])}")
