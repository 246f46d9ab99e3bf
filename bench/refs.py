"""Independent references for the benchmark's correctness checks.

Nothing here imports gwbounds. Each offspring law is written out again from
its definition:

* ``phi_mp``: the pgf in mpmath, used for the 50-digit root of
  ``y = 1 - phi(1 - y)`` (the eventual survival probability S_inf) and, by
  numerical differentiation, for phi'(P_inf), phi''(1) and phi'''(1).
* ``surv``: the survival-space map ``y -> 1 - phi(1 - y)`` in floats, written
  without cancellation, so iterating it from ``y = 1`` gives S^(n) to full
  relative precision even when s is tiny.

A law is given by the same float parameters the program receives, so a
reference never differs from the program's input by a rounding of 1 + s
(which alone moves S_inf by 1e-4 relative at s = 1e-12). The series
coefficients of S_inf and gamma in s are fitted to 50-digit roots at small s,
not taken from the paper's formulas.
"""

from __future__ import annotations

import json
import math
import os
import sys
from functools import lru_cache

import mpmath as mp

from laws import Law, f3, law_from_s  # noqa: F401  (re-exported)

# References that cost seconds and depend on no seed, computed by this module
# and kept in a file: `python3 bench/refs.py cache` rewrites it.
CACHE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref_cache.json")

DPS = 50

# Relative tolerance of S_inf, S^(n) and the quantities built on them. A
# cancellation-free solve reaches ~1e-15; 1e-9 leaves room for the ~1e-11 the
# P-space solve loses at moderate s and still catches the errors that the
# near-critical cancellation produces (2e-5 for Poisson at s = 1e-6).
SINF_RTOL = 1e-9


def _params_mp(fam, fpar, s):
    # Unrounded parameters of the s-family member, for the series fits.
    if fam == "poisson":
        return (1 + s,)
    if fam == "binomial":
        return (fpar, (1 + s) / fpar)
    if fam == "negbinomial":
        return (fpar, fpar / (fpar + 1 + s))
    if fam == "fl":
        pi = mp.mpf(fpar)
        return (pi, pi * (1 + s) - s)
    if fam == "gp":
        lam = mp.mpf(fpar)
        return ((1 + s) * (1 - lam), lam)
    raise ValueError(fam)


# ---------------------------------------------------------------------------
# pgfs in mpmath
# ---------------------------------------------------------------------------

def phi_mp(fam: str, par, x):
    """phi(x) at the working precision."""
    x = mp.mpf(x)
    if fam == "poisson":
        return mp.exp(-mp.mpf(par[0]) * (1 - x))
    if fam == "binomial":
        n, p = par[0], mp.mpf(par[1])
        return (1 - p * (1 - x)) ** n
    if fam == "negbinomial":
        r, p = par[0], mp.mpf(par[1])
        return (p / (1 - (1 - p) * x)) ** r
    if fam == "fl":
        pi, rho = mp.mpf(par[0]), mp.mpf(par[1])
        return (rho + x * (1 - pi - rho)) / (1 - pi * x)
    if fam == "f3":
        p0, p1, p2, p3 = (mp.mpf(v) for v in par)
        return p0 + x * (p1 + x * (p2 + x * p3))
    if fam == "gp":
        mu, lam = mp.mpf(par[0]), mp.mpf(par[1])
        if lam == 0:
            return mp.exp(-mu * (1 - x))
        t = -mp.lambertw(-x * lam * mp.exp(-lam)).real / lam
        return mp.exp(mu * (t - 1))
    raise ValueError(fam)


def _sinf_float_guess(fam: str, par) -> float:
    # Bisection on h(y) = (1 - phi(1 - y))/y - 1, which is positive near 0
    # (slope m > 1) and negative at y = 1 (h(1) = -phi(0)); dividing by y
    # removes the trivial root y = 0.
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if surv_par(fam, par, mid) / mid - 1.0 > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _solve(fam: str, par, dps: int):
    """(S_inf, P_inf, gamma) as mpf at dps digits."""
    with mp.workdps(dps):
        y0 = mp.mpf(_sinf_float_guess(fam, tuple(float(v) for v in par)))

        def h(y):
            return (1 - phi_mp(fam, par, 1 - y)) / y - 1

        y = mp.findroot(h, y0, tol=mp.mpf(10) ** (-2 * dps // 3 - 5))
        p = 1 - y
        gamma = mp.diff(lambda x: phi_mp(fam, par, x), p)
        return +y, +p, +gamma


@lru_cache(maxsize=None)
def fixed_point(law: Law):
    """(S_inf, P_inf, gamma) at DPS digits, as mpf."""
    return _solve(law.fam, law.par, DPS)


def sinf(law: Law) -> float:
    return float(fixed_point(law)[0])


@lru_cache(maxsize=None)
def growth(law: Law) -> float:
    """m - 1 of the law, without the cancellation of forming m first."""
    with mp.workdps(DPS):
        return float(mp.diff(lambda x: phi_mp(law.fam, law.par, x), 1) - 1)


@lru_cache(maxsize=None)
def moments_bc(law: Law):
    """(m, b, c) = (phi'(1), phi''(1), phi'''(1)) as floats."""
    with mp.workdps(DPS):
        return tuple(float(mp.diff(lambda x: phi_mp(law.fam, law.par, x), 1, k))
                     for k in (1, 2, 3))


@lru_cache(maxsize=None)
def series_coeffs(fam: str, fpar):
    """(theta, delta2, delta3, gamma2) of S_inf = theta s - delta2 s^2 +
    delta3 s^3 + ... and gamma = 1 - s + gamma2 s^2 - ..., fitted to
    50-digit solutions at s = k*h, k = 1..6."""
    with mp.workdps(DPS):
        h = mp.mpf("1e-5")
        pts = [k * h for k in range(1, 7)]
        srows, grows = [], []
        for sk in pts:
            y, _, g = _solve(fam, _params_mp(fam, fpar, sk), DPS)
            srows.append(y)
            grows.append(g - 1 + sk)
        a = mp.lu_solve(mp.matrix([[sk ** j for j in range(1, 7)] for sk in pts]),
                        mp.matrix(srows))
        c = mp.lu_solve(mp.matrix([[sk ** j for j in range(2, 8)] for sk in pts]),
                        mp.matrix(grows))
        return float(a[0]), float(-a[1]), float(a[2]), float(c[0])


# ---------------------------------------------------------------------------
# Survival-space maps in floats
# ---------------------------------------------------------------------------

def _gp_u(y: float, lam: float) -> float:
    # u = 1 - t(1 - y) solves u = 1 - (1 - y) exp(-lam u); Newton on the
    # convex g(u) = u + expm1(-lam u) - y exp(-lam u).
    if y >= 1.0:
        return 1.0
    u = min(y / (1.0 - lam), 1.0)
    prev = math.inf
    for _ in range(60):
        e = math.exp(-lam * u)
        du = (u + math.expm1(-lam * u) - y * e) / (1.0 - lam * (1.0 - y) * e)
        u -= du
        # After its first step Newton's steps shrink quadratically, until
        # they reach the rounding noise of g, which no further step reduces.
        if abs(du) <= 2e-16 * u or abs(du) >= prev:
            break
        prev = abs(du)
    return u


def surv_par(fam: str, par, y: float) -> float:
    """1 - phi(1 - y) without cancellation, for y in [0, 1]."""
    if fam == "poisson":
        return -math.expm1(-par[0] * y)
    if fam == "binomial":
        n, p = par
        return -math.expm1(n * math.log1p(-p * y))
    if fam == "negbinomial":
        r, p = par
        return -math.expm1(-r * math.log1p((1.0 - p) / p * y))
    if fam == "fl":
        pi, rho = par
        return y * (1.0 - rho) / (1.0 - pi + pi * y)
    if fam == "f3":
        p0, p1, p2, p3 = par
        return y * ((p1 + 2.0 * p2 + 3.0 * p3) - y * ((p2 + 3.0 * p3) - y * p3))
    if fam == "gp":
        mu, lam = par
        if lam == 0.0:
            return -math.expm1(-mu * y)
        return -math.expm1(-mu * _gp_u(y, lam))
    raise ValueError(fam)


def survival_seq(law: Law, n_max: int):
    """[S^(0), ..., S^(n_max)] by iterating the survival map from 1."""
    out = [1.0]
    y = 1.0
    for _ in range(n_max):
        y = surv_par(law.fam, law.par, y)
        out.append(y)
    return out


def t_eps_ok(law: Law, eps: float, t: int, slack: float = 0.0) -> bool:
    """T(eps) = t meets its definition S^(t) <= (1+eps) S_inf < S^(t-1).

    Where a reference S^(n) lies within 1e-12 of the target, plus an
    absolute `slack`, either side is accepted: double precision cannot
    decide that step."""
    target = (1.0 + eps) * sinf(law)
    y, prev = 1.0, None
    for _ in range(t):
        prev = y
        y = surv_par(law.fam, law.par, y)
    near = lambda v: abs(v - target) <= 1e-12 * target + slack  # noqa: E731
    return (y <= target or near(y)) and (t == 0 or prev > target or near(prev))


# ---------------------------------------------------------------------------
# Trait variance
# ---------------------------------------------------------------------------

def v1_inf(n_pop: int, s_inf: float, s_alpha: float) -> float:
    """z e^z E1(z) / (s alpha), z = N S_inf: the variance one sweeping mutant
    contributes, per alpha^2."""
    with mp.workdps(30):
        z = mp.mpf(n_pop * s_inf)
        return float(z * mp.exp(z) * mp.e1(z)) / s_alpha


def vg_tau(seq, m: float, n_pop: int, tau: float) -> float:
    """Trait variance at tau per Theta alpha^2: the integral over t < tau of
    S^([t]) w(a_[t]), [t] the nearest integer, a_n = N S^(n)/m^n and
    w(a) = a(1 + a) e^a E1(a) - a; seq holds S^(n)."""
    total = 0.0
    with mp.workdps(30):
        for n in range(math.ceil(tau + 0.5)):
            lo, hi = (0.0 if n == 0 else n - 0.5), min(n + 0.5, tau)
            if hi <= lo:
                break
            a = mp.mpf(n_pop * seq[n]) / mp.mpf(m) ** n
            total += (hi - lo) * seq[n] * float(a * (1 + a) * mp.exp(a) * mp.e1(a) - a)
    return total


# ---------------------------------------------------------------------------
# Wright-Fisher
# ---------------------------------------------------------------------------

def wf_formula(n: int, s: float) -> float:
    """(1 - e^-A)/(1 - e^-AN) with A = 2s - (2/3 + 1/(3Ns)) s^2."""
    a = 2.0 * s - (2.0 / 3.0 + 1.0 / (3.0 * n * s)) * s * s
    return -math.expm1(-a) / -math.expm1(-a * n)


@lru_cache(maxsize=None)
def wf_exact_mp(n: int, s: float, dps: int = 30) -> float:
    """Fixation probability of one mutant from the (N-1)-state absorption
    system, built and solved in mpmath."""
    with mp.workdps(dps):
        sm = mp.mpf(s)
        rows, rhs = [], []
        for i in range(1, n):
            x = mp.mpf(i) / n
            psi = x * (1 + sm) / (1 + sm * x)
            pmf = [mp.binomial(n, k) * psi ** k * (1 - psi) ** (n - k) for k in range(n + 1)]
            rows.append([(1 if i == j else 0) - pmf[j] for j in range(1, n)])
            rhs.append(pmf[n])
        return float(mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))[0])


def wf_exact_float(n: int, s: float) -> float:
    """The same absorption system as wf_exact_mp in double precision. Each
    binomial pmf entry is exp of its log, which is summed in long double
    from mpmath's log binomial coefficients and rounded once, so an entry
    near a row's mode carries a few roundings, not the ~1e-12 of an lgamma
    difference at N = 3000; numpy solves the system. It agrees with the
    mpmath solve to 4e-15 at N = 50."""
    import numpy as np

    ld = np.longdouble
    with mp.workdps(30):
        log_choose = np.array([ld(mp.nstr(mp.log(mp.binomial(n, j)), 25)) for j in range(n + 1)])
    k = np.arange(n + 1, dtype=ld)
    a = np.empty((n - 1, n - 1))
    rhs = np.empty(n - 1)
    for i in range(1, n):
        x = i / n
        psi = ld(x * (1.0 + s) / (1.0 + s * x))
        row = np.exp((log_choose + k * np.log(psi) + (n - k) * np.log1p(-psi)).astype(float))
        a[i - 1] = -row[1:n]
        a[i - 1, i - 1] += 1.0
        rhs[i - 1] = row[n]
    return float(np.linalg.solve(a, rhs)[0])


WF_MP_MAX_N = 50


@lru_cache(maxsize=None)
def wf_reference(n: int, s: float) -> float:
    """The benchmark's exact fixation probability: wf_exact_mp up to
    N = WF_MP_MAX_N, wf_exact_float above; from CACHE where the pair is
    there (a solve takes ~1 s at N = 50 and ~2 s at N = 3000)."""
    solve = wf_exact_mp if n <= WF_MP_MAX_N else wf_exact_float
    return cached("wf_exact", f"{n} {s!r}", lambda: solve(n, s))


# ---------------------------------------------------------------------------
# Bound-direction references
# ---------------------------------------------------------------------------

def fl_diff_signs(law: Law, n_max: int = 200, rtol: float = 1e-12):
    """Signs of P^(n) - P_FL^(n), n = 1..n_max, where P_FL^(n) are the
    iterates of the matching fractional-linear law (same P_inf and gamma);
    0 where the difference is within rtol of S^(n)."""
    s_inf, p_inf, gamma = (float(v) for v in fixed_point(law))
    seq = survival_seq(law, n_max)
    out = []
    for n in range(1, n_max + 1):
        d = s_inf / (1.0 - gamma ** n * p_inf) - seq[n]  # = P^(n) - P_FL^(n)
        out.append(0 if abs(d) <= rtol * seq[n] else (1 if d > 0 else -1))
    return out


@lru_cache(maxsize=None)
def f3_region(law: Law) -> str:
    """Lower (P_FL^(n) <= P^(n) for all n), Upper, Switches3i or
    Switches3iii, read off the sign of L in f = phi - phi_FL =
    (1 - x)(P_inf - x)^2 L(x) / (positive) at x = 0, P_inf and 1. L is got by
    dividing the known zeros out of f at 100 digits."""
    with mp.workdps(100):
        # p1 from the exact sum, so that phi(1) = 1 and f vanishes at 1
        # (the float p1 leaves |f(1)| ~ 1e-16, which swamps L near x = 1).
        p0, _, p2, p3 = (mp.mpf(v) for v in law.par)
        par = (p0, 1 - p0 - p2 - p3, p2, p3)
        _, p_inf, gamma = _solve(law.fam, par, 100)
        pi = (1 - gamma) / (1 - p_inf * gamma)
        rho = p_inf * pi

        def sign_l(x):
            f = phi_mp(law.fam, par, x) - (rho + x * (1 - pi - rho)) / (1 - pi * x)
            return mp.sign(f / ((1 - x) * (p_inf - x) ** 2))

        eps = mp.mpf(10) ** -30
        l0, lp, l1 = sign_l(mp.mpf(0)), sign_l(p_inf - eps), sign_l(1 - eps)
    if l0 > 0:
        return "Lower"
    if l1 < 0:
        return "Upper"
    return "Switches3i" if lp > 0 else "Switches3iii"


@lru_cache(maxsize=None)
def gp_thresholds(s: float):
    """(lambda_c2, lambda_c0, lambda_c1): where f''(P_inf), f(0) and
    f'(1) = 1 + s - 1/gamma change sign, with f = phi - phi_FL for the
    generalized Poisson law of mean 1 + s. From CACHE where s is there
    (about 1 s each)."""
    return tuple(cached("gp_thresholds", repr(s), lambda: gp_thresholds_mp(s)))


def gp_thresholds_mp(s: float):
    """gp_thresholds by bisection on 30-digit solves."""
    dps = 30
    with mp.workdps(dps):
        def parts(lam):
            par = _params_mp("gp", lam, s)
            _, p_inf, gamma = _solve("gp", par, dps)
            pi = (1 - gamma) / (1 - p_inf * gamma)
            return par, p_inf, pi, p_inf * pi

        def f0(lam):
            par, _, _, rho = parts(lam)
            return phi_mp("gp", par, 0) - rho

        def f1(lam):
            _, _, gamma = _solve("gp", _params_mp("gp", lam, s), dps)
            return 1 + s - 1 / gamma

        def f2(lam):
            par, p_inf, pi, rho = parts(lam)
            d2 = mp.diff(lambda x: phi_mp("gp", par, x), p_inf, 2)
            return d2 - 2 * pi * (1 - pi) * (1 - rho) / (1 - pi * p_inf) ** 3

        out = []
        for fn in (f2, f0, f1):
            lo, hi = mp.mpf("0.01"), mp.mpf("0.6")
            flo = fn(lo)
            for _ in range(36):
                mid = (lo + hi) / 2
                fm = fn(mid)
                if mp.sign(fm) == mp.sign(flo):
                    lo, flo = mid, fm
                else:
                    hi = mid
            out.append(float((lo + hi) / 2))
        return tuple(out)


def gp_directions(lam: float, s: float) -> set:
    """Directions accepted for GP(lam) at growth rate s (fl_bounds names);
    within 1e-9 of a threshold both neighbours are accepted."""
    if lam == 0.0:
        return {"UpperOnS"}
    c2, c0, _ = gp_thresholds(s)
    tol = 1e-9
    out = set()
    if lam < c2 + tol:
        out.add("UpperOnS")
    if lam > c0 - tol:
        out.add("LowerOnS")
    if c2 - tol <= lam <= c0 + tol:
        out.add("SwitchesAt")
    return out


@lru_cache(maxsize=None)
def _cache_table():
    try:
        with open(CACHE) as handle:
            return json.load(handle)
    except OSError:
        return {}


def cached(kind, key, compute):
    """The value of kind/key in CACHE, or compute() where it is missing."""
    table = _cache_table().get(kind, {})
    return table[key] if key in table else compute()


def write_cache():
    """Recompute every cached reference and rewrite CACHE."""
    from workloads import S_SET, WF_N, WF_S

    wf = sorted({(n, s) for n in WF_N for s in WF_S} | {(1000, 0.1)})
    table = {"wf_exact": {f"{n} {s!r}": (wf_exact_mp if n <= WF_MP_MAX_N else wf_exact_float)(n, s)
                          for n, s in wf},
             "gp_thresholds": {repr(s): list(gp_thresholds_mp(s)) for s in sorted(set(S_SET) | {0.1})}}
    with open(CACHE, "w") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["cache"]:
        sys.exit("usage: python3 bench/refs.py cache   (rewrites bench/ref_cache.json)")
    write_cache()
