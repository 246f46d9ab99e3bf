"""Fractional-linear matching, per-generation bounds, convergence times, and
the positivity of the appendix comparison coefficients."""

import importlib
import math
import os
import random
from itertools import islice

import pytest
from mpmath import mp

import gwbounds
from gwbounds import fl_bounds, pgf_core
from gwbounds.classify_f3 import SWITCHES_REGION, classify_f3
from gwbounds.classify_gp import gp_thresholds
from gwbounds.errors import ConvergenceError, DomainError
from gwbounds.fl_bounds import (
    LOWER_ON_S,
    SWITCH_N_MAX,
    T_EPS_CAP,
    SWITCHES,
    UPPER_ON_S,
    BoundDirection,
    agresti_pi_poisson,
    agresti_sn_bound,
    bin_coeff_cf,
    bound_direction,
    matching_fl,
    nb_coeff_cg,
    pollak_dbar,
    sn_fl_bound,
    sn_pollak_bound,
    sn_simple_bound,
    switch_generation,
    t_eps_app,
    t_eps_exact,
    t_eps_fl,
)
from gwbounds.pgf_core import (
    Binomial,
    FiniteThree,
    FractionalLinear,
    GeneralizedPoisson,
    Poisson,
    binomial_from_s,
    extinction_iterates,
    extinction_probability,
    fl_from_s,
    gp_from_s,
    iterate_extinction,
    moments,
    negbinomial_from_s,
    pgf_derivative,
    pgf_eval,
    poisson_from_s,
)


# ---------------------------------------------------------------------------
# Fractional-linear closed forms
# ---------------------------------------------------------------------------

def test_fl_params_properties():
    # P_inf = rho/pi and gamma = 1/m = (1 - pi)/(1 - rho).
    fl = FractionalLinear(pi=0.5, rho=0.2)
    fp = extinction_probability(fl)
    assert fp.p_inf == pytest.approx(0.4, abs=1e-14)
    assert moments(fl).m * fp.gamma == pytest.approx(1.0, abs=1e-15)
    assert fp.gamma == pytest.approx(0.5 / 0.8, rel=1e-13)


def test_fl_params_validation():
    with pytest.raises(DomainError):
        FractionalLinear(pi=0.2, rho=0.5)
    with pytest.raises(DomainError):
        FractionalLinear(pi=1.2, rho=0.5)


def composition_oracle(fl: FractionalLinear, n: int) -> float:
    """phi^(n)(0) by literal function iteration."""
    x = 0.0
    for _ in range(n):
        x = pgf_eval(fl, x)
    return x


def test_fl_iterates_match_composition_oracle():
    # For a fractional-linear law sn_fl_bound is S^(n) itself, and 1 - S^(n)
    # is rho_n of the n-fold composition (pi_n, rho_n).
    for pi, rho in ((0.5, 0.2), (0.9, 0.1), (0.3, 0.05), (0.7, 0.65)):
        fl = FractionalLinear(pi=pi, rho=rho)
        fp = extinction_probability(fl)
        for n in (1, 2, 5, 10, 20, 100, 200):
            s_n = sn_fl_bound(fl, n, fp)
            assert s_n == pytest.approx(1.0 - composition_oracle(fl, n), abs=1e-12)


def test_fl_survival_closed_form_vs_iteration():
    fl = FractionalLinear(pi=0.6, rho=0.3)
    fp = extinction_probability(fl)
    for n in range(1, 201):
        direct = 1.0 - composition_oracle(fl, n)
        gamma_n = fp.gamma**n
        closed = fp.s_inf / (1.0 - gamma_n * (1.0 - fp.s_inf))
        assert closed == pytest.approx(direct, abs=1e-12)
        assert sn_fl_bound(fl, n, fp) == pytest.approx(direct, abs=1e-12)


def test_matching_fl_reproduces_fixed_point():
    for model in (Poisson(m=1.5), binomial_from_s(5, 0.2), gp_from_s(0.3, 0.2)):
        fp = extinction_probability(model)
        fp_fl = extinction_probability(matching_fl(fp))
        assert fp_fl.p_inf == pytest.approx(fp.p_inf, rel=1e-12)
        assert fp_fl.gamma == pytest.approx(fp.gamma, rel=1e-12)


def test_matching_fl_poisson_anchor():
    fl = matching_fl(extinction_probability(Poisson(m=1.5)))
    assert fl.pi == pytest.approx(0.506, abs=1e-3)
    assert fl.rho == pytest.approx(0.211, abs=1e-3)


def test_matching_fl_critical_limit():
    # m -> 1+: (pi, rho) -> (1/3, 1/3).
    fl = matching_fl(extinction_probability(Poisson(m=1.0001)))
    assert fl.pi == pytest.approx(1.0 / 3.0, abs=1e-3)
    assert fl.rho == pytest.approx(1.0 / 3.0, abs=1e-3)


# ---------------------------------------------------------------------------
# Per-generation bounds and orderings
# ---------------------------------------------------------------------------

SENETA_GRID = ([Poisson(m=1.0 + i * 4.0 / 63) for i in range(1, 64)]
               + [binomial_from_s(n, s) for n in range(2, 21) for s in (0.1, 0.5)]
               + [negbinomial_from_s(r, s) for r in range(2, 7) for s in (0.1, 0.5)])


def test_seneta_ordering_grid():
    # For Poisson/binomial/negative-binomial, the matching FL iterates sit
    # below P^(n), so the FL survival bound lies above S^(n); the simple
    # concavity bound is weaker still; Pollak's refinement is tighter.
    for model in SENETA_GRID:
        fp = extinction_probability(model)
        x = 0.0
        for n in range(1, 40):
            x = pgf_eval(model, x)
            s_n = 1.0 - x
            fl = sn_fl_bound(model, n, fp)
            simple = sn_simple_bound(model, n, fp)
            pollak = sn_pollak_bound(model, n, fp)
            assert s_n <= fl + 1e-12, (model, n)
            assert fl <= simple + 1e-12, (model, n)
            assert s_n <= pollak + 1e-12, (model, n)
            assert pollak <= fl + 1e-12, (model, n)


def test_pgf_dominates_matching_fl_on_grid():
    # phi(x) >= phi_FL(x) on [0, 1] for the proven families (1024-point grid).
    for model in SENETA_GRID[::4]:
        fp = extinction_probability(model)
        fl_model = matching_fl(fp)
        for i in range(1024):
            x = i / 1023.0
            diff = pgf_eval(model, x) - pgf_eval(fl_model, x)
            assert diff >= -1e-12, (model, x)


def test_pollak_dbar_positive_decreasing():
    model = Poisson(m=1.2)
    fp = extinction_probability(model)
    prev = math.inf
    for n in range(1, 30):
        d = pollak_dbar(model, n, fp)
        assert 0.0 < d < prev
        prev = d


def pollak_dbar_reference(model, n, fp):
    """pollak_dbar as it was before FixedPoint carried phi''(P_inf)."""
    b2 = pgf_derivative(model, fp.p_inf, 2)
    g = fp.gamma
    return (2.0 * (1.0 - g) * fp.p_inf
            / (2.0 * (1.0 - g) + b2 * fp.p_inf * (1.0 - g ** n) / g))


@pytest.mark.parametrize("s", [1e-3, 0.01, 0.1, 0.4])
def test_pollak_reads_the_curvature_bit_for_bit(s):
    # One law of each family at mean 1 + s.
    laws = [poisson_from_s(s), binomial_from_s(5, s), negbinomial_from_s(5, s),
            fl_from_s(0.5, s), FiniteThree(p0=0.5 - s, p1=0.1 + s, p2=0.3, p3=0.1),
            gp_from_s(0.5, s)]
    for model in laws:
        fp = extinction_probability(model)
        for n in range(200):
            dbar = pollak_dbar_reference(model, n, fp)
            assert pollak_dbar(model, n, fp) == dbar, (model, n)
            assert sn_pollak_bound(model, n, fp) == fp.s_inf + dbar * fp.gamma ** n, (model, n)


# ---------------------------------------------------------------------------
# Agresti bound (Poisson)
# ---------------------------------------------------------------------------

AGRESTI_MS = (1.001, 1.02, 1.5, 3.0, 6.0, 8.0, 10.0)


def agresti_v_mp(m):
    """Agresti's auxiliary function v(x) for Poisson(m) at mpmath precision,
    v(x) = (u - 1 + gamma(1-x)) / (x(u - 1) + gamma(1-x)), u = phi(P x)/P."""
    m = mp.mpf(m)
    p = -mp.lambertw(-m * mp.exp(-m)).real / m
    gamma = m * p

    def v(x):
        x = mp.mpf(x)
        u = mp.exp(-m * (1 - p * x)) / p
        return (u - 1 + gamma * (1 - x)) / (x * (u - 1) + gamma * (1 - x))
    return v


@pytest.mark.parametrize("m", AGRESTI_MS)
def test_agresti_v_decreases(m):
    # agresti_pi_poisson takes sup v = v(0) and inf v = lim v(x), x -> 1-,
    # which holds because v decreases on [0, 1). At double precision v
    # cancels near x = 1 (it is a ratio of two O((1-x)^2) terms), so the
    # premise is checked at 50 digits, down to 1 - x = 1e-12.
    with mp.workdps(50):
        v = agresti_v_mp(m)
        xs = [mp.mpf(i) / 256 for i in range(256)]
        xs += [1 - mp.mpf(10) ** -k for k in range(3, 13)]
        vals = [v(x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:])), m


def agresti_gap_mp(m, pi, n):
    """P_inf - F^(n)(0) for Agresti's Moebius map with parameter pi, at
    mpmath precision: gamma^n / (1/P_inf + kappa (1 - gamma^n)/(1 - gamma)),
    kappa = pi / (P_inf (1 - pi))."""
    m = mp.mpf(m)
    p = -mp.lambertw(-m * mp.exp(-m)).real / m
    gamma = m * p
    kappa = pi / (p * (1 - pi))
    return gamma ** n / (1 / p + kappa * (1 - gamma ** n) / (1 - gamma))


@pytest.mark.parametrize("m", AGRESTI_MS)
def test_agresti_pi_closed_forms_match_mpmath(m):
    with mp.workdps(80):
        sup = agresti_v_mp(m)(0)
    assert agresti_pi_poisson(m) == pytest.approx(float(sup), rel=1e-12)


def test_agresti_lower_equals_pollak_for_poisson():
    # The Agresti-style construction from inf v = lim v(x), x -> 1-, is
    # Pollak's bound: built here at 80 digits, it matches sn_pollak_bound.
    for m in (1.5, 8.0):
        model = Poisson(m=m)
        fp = extinction_probability(model)
        with mp.workdps(80):
            # v(1 - h) = inf + O(h), a ratio of two O(h^2) terms: 40 digits left.
            inf = agresti_v_mp(m)(1 - mp.mpf(10) ** -20)
            s_inf = 1 - (-mp.lambertw(-m * mp.exp(-m)).real / m)
            for n in (1, 3, 7, 15):
                agresti = float(s_inf + agresti_gap_mp(m, inf, n))
                pollak = sn_pollak_bound(model, n, fp)
                assert agresti == pytest.approx(pollak, rel=1e-13)


def test_agresti_pi_direction_ordering():
    # pi = sup v lies above inf v, the parameter of the other side.
    with mp.workdps(80):
        inf = agresti_v_mp(1.5)(1 - mp.mpf(10) ** -20)
    assert 0.0 < float(inf) < agresti_pi_poisson(1.5) < 1.0


def test_agresti_directions_sandwich_survival():
    # Agresti's bound lower-bounds S^(n); Pollak's, the other side, upper-bounds it.
    # m = 8 is past where a scan of v at double precision stops decreasing.
    for m in (1.5, 8.0):
        model = Poisson(m=m)
        fp = extinction_probability(model)
        for n in (1, 5, 10):
            s_n = 1.0 - iterate_extinction(model, n)
            assert agresti_sn_bound(m, n) <= s_n + 1e-12
            assert sn_pollak_bound(model, n, fp) >= s_n - 1e-12


@pytest.mark.parametrize("n", [-3, 2.5, math.nan])
def test_agresti_sn_bound_requires_a_generation_count(n):
    # At n = -3 it returned -0.341, which is not a probability, and the three
    # (model, n, fp) bounds -0.830, 2.285 and -0.498.
    model = Poisson(m=1.5)
    fp = extinction_probability(model)
    for bound in (lambda: agresti_sn_bound(1.5, n), lambda: sn_fl_bound(model, n, fp),
                  lambda: sn_simple_bound(model, n, fp), lambda: pollak_dbar(model, n, fp),
                  lambda: sn_pollak_bound(model, n, fp)):
        with pytest.raises(DomainError, match="must be an integer"):
            bound()


# ---------------------------------------------------------------------------
# Convergence times
# ---------------------------------------------------------------------------

def test_t_eps_exact_definition():
    # T(eps) is the smallest n with S^(n) <= (1 + eps) * S_inf.
    model = Poisson(m=1.1)
    fp = extinction_probability(model)
    for eps in (0.5, 0.1, 0.01):
        t = t_eps_exact(model, eps)
        threshold = (1.0 + eps) * fp.s_inf
        assert 1.0 - iterate_extinction(model, t) <= threshold
        if t > 0:
            assert 1.0 - iterate_extinction(model, t - 1) > threshold


@pytest.mark.parametrize("s", [1e-6, 1e-8])
def test_t_eps_exact_raises_past_the_iteration_cap(s):
    # T(0.01) is about 4.6/s generations: at s = 1e-6 it lies past T_EPS_CAP.
    # At s = 1e-8 gamma rounds to 1, so no FL estimate exists either.
    # It raises on every call, also where the last reader stopped past the cap.
    model = poisson_from_s(s)
    assert (extinction_probability(model).gamma == 1.0) == (s == 1e-8)
    for before in (None, None, T_EPS_CAP + 5, None):
        if before is not None:
            iterate_extinction(model, before)
        with pytest.raises(ConvergenceError, match=rf"iteration cap \({T_EPS_CAP}\)"):
            t_eps_exact(model, 0.01)


@pytest.mark.parametrize("model", [poisson_from_s(1e-3), gp_from_s(0.5, 1e-3)], ids=repr)
def test_t_eps_exact_returns_t_at_a_cap_of_t_and_raises_below(model, monkeypatch):
    # T_EPS_CAP is read at call time: a cap of T admits T, and T - 1 does not.
    t = t_eps_exact(model, 0.01)
    for cap, fresh in ((t, True), (t, False), (t - 1, True), (t - 1, False)):
        monkeypatch.setattr(fl_bounds, "T_EPS_CAP", cap)
        if fresh:
            monkeypatch.setattr(pgf_core, "_last_orbit", [])
        if cap == t:
            assert t_eps_exact(model, 0.01) == t
        else:
            with pytest.raises(ConvergenceError, match=rf"iteration cap \({cap}\)"):
                t_eps_exact(model, 0.01)


def t_eps_walk(model, eps):
    """T(eps) by a scan of the orbit from P^(0), or None past T_EPS_CAP: the
    reference for the resumed t_eps_exact."""
    target = (1.0 + eps) * extinction_probability(model).s_inf
    iterates = enumerate(islice(model.orbit(), T_EPS_CAP + 1))
    return next((n for n, x in iterates if 1.0 - x <= target), None)


def t_eps_or_none(model, eps):
    try:
        return t_eps_exact(model, eps)
    except ConvergenceError:
        return None


def gp_t_40_digits(model, target):
    """The least n <= T_EPS_CAP with S^(n) <= target on the exact orbit of a
    GP law, or None: GeneralizedPoisson.generations_to's count at 40 digits,
    psi(v) = (-log(1 - v) - lam v)/mu stepped from u_t = -log(1 - target)/mu
    until it reaches 1, about 7 us a step.

    A count past the cap is certified without the steps where it can be. psi
    is convex and increasing and fixes u_inf, so with a <= u_inf (psi(a) <=
    a) an iterate below a stays below it, and for v in [a, c] psi(v) - a <=
    rho (v - a), rho = (psi(c) - psi(a))/(c - a): where max(1, rho)^(cap - 1)
    (u_t - a) <= c - a, every psi^k(u_t), k < cap, lies below c < 1."""
    with mp.workdps(40):
        one, lam, mu = mp.mpf(1), mp.mpf(model.lam), mp.mpf(model.mu)
        target = mp.mpf(target)
        if target >= one:
            return 0

        def psi(v):
            return (-mp.log(one - v) - lam * v) / mu

        v = -mp.log(one - target) / mu
        # u_inf is the root of -log(1 - a) = (lam + mu) a in (0, 1), by Newton.
        a = -mp.log(one - extinction_probability(model).s_inf) / mu
        for _ in range(8):
            a -= (-mp.log(one - a) - (lam + mu) * a) / (1 / (one - a) - lam - mu)
        a *= 1 - mp.mpf(10) ** -30
        assert psi(a) <= a
        c = v
        while v > a:
            c = a + 2 * (c - a)
            if not c < one:
                break
            rho = max((psi(c) - psi(a)) / (c - a), one)
            if rho ** (T_EPS_CAP - 1) * (v - a) <= c - a:
                return None
        for n in range(1, T_EPS_CAP + 1):
            if v >= one:
                return n
            if v <= a:
                return None
            v = psi(v)
        return None


def assert_t_eps_is_the_40_digit_count(model, eps, t):
    """t, None past the cap, is the 40-digit count of t_eps_exact's float
    target, or either side where shifting the target by B relative changes
    that count.

    B = (1 + lam)/(1 - lam) 2^-53/(1 - gamma), the error of the float count
    in the target. A psi step forms -log1p(-v) ~ v and lam v, each within an
    ulp, and their difference ~(1 - lam) v: a relative error d of about
    (1 + lam)/(1 - lam) ulp. Carried back to u_t through (psi^k)'(u_t) ~
    (v_k - u_inf)/(u_t - u_inf), the error d v_k of step k is a shift of
    u_t by about d (u_inf gamma^k + u_t - u_inf), as v_k - u_inf ~ (u_t -
    u_inf) gamma^-k. These add to about d u_t/(1 - gamma): u_t - u_inf is
    an eps-fraction of u_t, and T ~ log(1/eps)/(1 - gamma)."""
    fp = extinction_probability(model)
    target = (1.0 + eps) * fp.s_inf
    count = gp_t_40_digits(model, target)
    if t == count:
        return
    b = (1.0 + model.lam) / (1.0 - model.lam) * 2.0 ** -53 / (1.0 - fp.gamma)
    with mp.workdps(40):
        lo, hi = (gp_t_40_digits(model, mp.mpf(target) * (1 + side * mp.mpf(b)))
                  for side in (1, -1))
    past = [T_EPS_CAP + 1 if n is None else n for n in (lo, t, hi)]
    assert past[0] <= past[1] <= past[2], (t, count, lo, hi, b)


def resume_laws(s):
    """One law of each family with mean 1 + s, GP at lam = 0 and 0.5."""
    return (poisson_from_s(s), binomial_from_s(5, s), negbinomial_from_s(3, s),
            fl_from_s(0.4, s), gp_from_s(0.0, s), gp_from_s(0.5, s),
            FiniteThree(p0=0.4 - s, p1=0.3 + s, p2=0.2, p3=0.1))


# One F3 law with mean 1.001 in each classify_f3 region (LowerBoundOnP, case
# 1; UpperBoundOnP, case 5; Switches, case 3i), and GP at lam = 0.99, where
# t_eps_fl falls up to 3232 generations short of T (s = 1e-4, eps = 1e-4).
T_RESUME_CASES = [m for s in (1e-6, 1e-2, 0.3) for m in resume_laws(s)] + [
    FiniteThree(p0=0.569, p1=0.111, p2=0.07, p3=0.25),
    FiniteThree(p0=0.069, p1=0.871, p2=0.05, p3=0.01),
    FiniteThree(p0=0.259, p1=0.581, p2=0.06, p3=0.1),
    gp_from_s(0.99, 1e-2), gp_from_s(0.99, 1e-4)]


@pytest.mark.parametrize("model", T_RESUME_CASES, ids=repr)
def test_t_eps_exact_resumed_is_the_walk_from_0(model, monkeypatch):
    # After iterate_extinction below, at and above T, and after another law,
    # T is t_eps_exact's with the slot cleared, and that is the scan's from
    # P^(0), or for a GP law, counted back in u, the 40-digit count (either
    # side of a near-tie, assert_t_eps_is_the_40_digit_count). Past the cap,
    # T_EPS_CAP stands for T.
    other = Poisson(m=1.5)
    for eps in (0.5, 0.01, 1e-4, 1e-6, 1e-9):
        monkeypatch.setattr(pgf_core, "_last_orbit", [])
        want = t_eps_or_none(model, eps)
        if isinstance(model, GeneralizedPoisson):
            assert_t_eps_is_the_40_digit_count(model, eps, want)
        else:
            assert want == t_eps_walk(model, eps)
        t = T_EPS_CAP if want is None else want
        for before in ((model, 0), (model, t // 2), (model, max(t - 1, 0)), (model, t),
                       (model, t + 1), (model, t + 100), (other, t)):
            iterate_extinction(*before)
            assert t_eps_or_none(model, eps) == want, before
            assert t_eps_or_none(model, eps) == want, before


# (law, eps): T = 459 and 4621 within the cap; past it, and with gamma = 1.
ESTIMATE_CASES = [(poisson_from_s(1e-2), 0.01), (gp_from_s(0.5, 1e-3), 0.01),
                  (FiniteThree(p0=0.259, p1=0.581, p2=0.06, p3=0.1), 1e-6),
                  (poisson_from_s(1e-6), 0.01), (poisson_from_s(1e-8), 0.01)]


@pytest.mark.parametrize("estimate", ["10T", "T/10", "inf", "nan", "DomainError"])
def test_t_eps_exact_is_the_walk_from_0_whatever_its_estimate(estimate, monkeypatch):
    # t_eps_exact steps untested to just short of t_eps_fl's estimate. One
    # past T sends it back to P^(0); one short of T, or none, leaves more
    # generations to test. T and ConvergenceError stay the scan's, on a fresh
    # orbit and on a resumed one. Only the estimate past T walks a new orbit.
    walks = []
    monkeypatch.setattr(fl_bounds, "extinction_iterates",
                        lambda model: walks.append(model) or model.orbit())
    for model, eps in ESTIMATE_CASES:
        want = t_eps_walk(model, eps)
        t = T_EPS_CAP if want is None else want

        def t_eps_fl(fp, eps):
            if estimate == "DomainError":
                raise DomainError("no estimate")
            return {"10T": 10.0 * t, "T/10": t / 10, "inf": math.inf, "nan": math.nan}[estimate]

        monkeypatch.setattr(fl_bounds, "t_eps_fl", t_eps_fl)
        monkeypatch.setattr(pgf_core, "_last_orbit", [])
        assert t_eps_or_none(model, eps) == want
        for before in (0, t // 2, t - 1, t + 1):
            iterate_extinction(model, before)
            assert t_eps_or_none(model, eps) == want, before
    # A GP law's T is counted back from the target and reads no estimate.
    fell_back = [m for m, eps in ESTIMATE_CASES[:3] if not isinstance(m, GeneralizedPoisson)
                 for _ in range(5)]
    assert walks == (fell_back if estimate == "10T" else [])


def test_t_eps_exact_past_its_estimate_tests_from_where_it_resumed(monkeypatch):
    # At eps = 1e-9 the target lies within the rounding of the orbit's limit,
    # and ceil(t_eps_fl) = 69080 overshoots T = 67243. The fresh orbit then
    # steps untested to where the call started, P^(0) or P^(5000), and its
    # test loop counts from the next generation.
    model, eps = poisson_from_s(3e-4), 1e-9
    assert t_eps_fl(extinction_probability(model), eps) > 69_079
    starts = []
    monkeypatch.setattr(fl_bounds, "enumerate",
                        lambda it, start: starts.append(start) or enumerate(it, start),
                        raising=False)
    monkeypatch.setattr(pgf_core, "_last_orbit", [])
    assert t_eps_exact(model, eps) == 67_243
    iterate_extinction(model, 5000)
    assert t_eps_exact(model, eps) == 67_243
    assert starts == [1, 5001]
    assert t_eps_walk(model, eps) == 67_243


@pytest.mark.parametrize("family, law_at, ts", [
    (Poisson, poisson_from_s, (46148, 4612)),
    (GeneralizedPoisson, lambda s: gp_from_s(0.5, s), (46158, 4621)),
], ids=["poisson", "gp-0.5"])
def test_the_near_critical_report_walks_the_orbit_once(family, law_at, ts, monkeypatch):
    # The benchmark's near_critical operation: P^(n) at n = 1, 10, ..., 10^4,
    # then T(0.01). Walked from P^(0) by each reader, it took T + 11117
    # iterates at s = 1e-4 (T = 46148 for Poisson). A GP law's T is counted
    # back from the target, so its orbit steps the 10^4 generations of P^(n)
    # alone; any forward walk to T would add to them.
    # The wrapper forwards send, as an orbit() override must, and counts the
    # generations stepped.
    class Counting(family):
        stepped = [0]

        def orbit(self):
            inner = family.orbit(self)
            k = yield next(inner)
            while True:
                k = k or 1
                Counting.stepped[0] += k
                k = yield inner.send(k)

    monkeypatch.setattr(pgf_core, "_last_orbit", [])
    for s, t, most in ((1e-4, ts[0], ts[0] + 1), (1e-3, ts[1], 10_001 + ts[1] + 1)):
        Counting.stepped[0] = 0
        law = law_at(s)
        model = Counting(*(getattr(law, name) for name in law._fields))
        values = [iterate_extinction(model, n) for n in (1, 10, 100, 1000, 10_000)]
        assert t_eps_exact(model, 0.01) == t
        if family is GeneralizedPoisson:
            assert Counting.stepped[0] == 10_000
        else:
            assert Counting.stepped[0] <= most
        assert values == [next(islice(law.orbit(), n, None)) for n in (1, 10, 100, 1000, 10_000)]
        assert t_eps_walk(law, 0.01) == t


@pytest.mark.parametrize("s", [1e-8, 1e-10, 1e-12])
def test_t_eps_estimates_raise_where_gamma_rounds_to_1(s):
    # Both raised ZeroDivisionError from log(T) / -log(gamma).
    fp = extinction_probability(poisson_from_s(s))
    assert fp.gamma == 1.0
    for estimate in (t_eps_fl, t_eps_app):
        with pytest.raises(DomainError, match="T\\(eps\\) needs gamma < 1, got gamma=1.0"):
            estimate(fp, 0.01)
    # Where (1 + 1/eps) P_inf <= 1, T = 0 whatever gamma is.
    assert t_eps_fl(fp, 1e30) == 0.0


@pytest.mark.parametrize("eps", [1e-320, 5e-324, 5e-309])
def test_t_eps_estimates_raise_where_1_over_eps_overflows(eps):
    # t_eps_fl returned inf, and t_eps_app raised OverflowError from ceil(inf).
    fp = extinction_probability(Poisson(m=1.5))
    for estimate in (t_eps_fl, t_eps_app):
        with pytest.raises(DomainError, match=rf"1/eps overflows, got eps={eps!r}"):
            estimate(fp, eps)
    assert t_eps_fl(fp, 1e-308) == math.log(1e308 * fp.p_inf) / -math.log(fp.gamma)


def test_t_eps_fl_bounds_exact_for_proven_families():
    # For families where the FL bound is an upper bound on S^(n), the FL
    # crossing time bounds the true time from above.
    for model in (Poisson(m=1.2), binomial_from_s(5, 0.15), negbinomial_from_s(3, 0.25)):
        fp = extinction_probability(model)
        for eps in (0.1, 0.01):
            assert t_eps_exact(model, eps) <= math.ceil(t_eps_fl(fp, eps))
            assert t_eps_app(fp, eps) == math.ceil(t_eps_fl(fp, eps))


def test_t_eps_large_eps_clamps_to_zero():
    fp = extinction_probability(Poisson(m=2.5))
    # (1 + 1/eps) * P_inf <= 1 -> zero generations needed.
    eps = 1.0 / (1.0 / fp.p_inf - 1.0) + 1.0
    assert t_eps_app(fp, eps) == 0


# ---------------------------------------------------------------------------
# Direction classification and sign scans
# ---------------------------------------------------------------------------

def test_bound_direction_proven_families():
    for model in (Poisson(m=1.4), binomial_from_s(6, 0.3),
                  negbinomial_from_s(4, 0.3), fl_from_s(0.4, 0.3)):
        d = bound_direction(model)
        assert d.kind == UPPER_ON_S
        assert not d.conjectured


def test_bound_direction_geometric_law():
    # NB r = 1 is geometric, so its own matching FL law: phi - phi_FL is
    # rounding noise of either sign, and the direction is the proven one.
    d = bound_direction(negbinomial_from_s(1, 1e-3))
    assert d == BoundDirection(UPPER_ON_S)


def test_bound_direction_gp_switch():
    d = bound_direction(gp_from_s(0.276, 0.1))
    assert d.kind == SWITCHES
    assert d.switch_n in (3, 4)
    assert d.conjectured


def test_switch_generation_gp():
    # Fig. 4 family: lambda = 0.276, s = 0.1, sign change between n=3 and 4.
    model = gp_from_s(0.276, 0.1)
    fp = extinction_probability(model)
    n_star = switch_generation(model, fp.p_inf, fp.gamma)
    assert n_star in (3, 4)


def switch_generation_full_scan(model):
    """switch_generation as it was before it stopped early: every generation
    up to SWITCH_N_MAX."""
    fp = extinction_probability(model)
    prev_sign = 0
    iterates = islice(extinction_iterates(model), 1, SWITCH_N_MAX + 1)
    for n, x in enumerate(iterates, start=1):
        gn = fp.gamma ** n
        diff = x - (fp.p_inf * (1.0 - gn) / (1.0 - gn * fp.p_inf))
        if abs(diff) <= 1e-15:
            continue
        sign = 1 if diff > 0.0 else -1
        if prev_sign and sign != prev_sign:
            return n
        prev_sign = sign
    return None


def test_switch_generation_stops_early_with_the_full_scan_result():
    # 1000 admissible F3 laws, uniform on the region, and the GP grid.
    rng = random.Random(23)
    laws = []
    while len(laws) < 1000:
        p0, p2, p3 = rng.random(), rng.random(), rng.random()
        if p0 + p2 + p3 <= 1.0 and p0 > 1e-6 and p0 < p2 + 2.0 * p3:
            laws.append(FiniteThree(p0=p0, p1=1.0 - p0 - p2 - p3, p2=p2, p3=p3))
    laws += [gp_from_s(k / 20, s) for k in range(1, 20)
             for s in (1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5)]
    switched = 0
    for model in laws:
        expected = switch_generation_full_scan(model)
        fp = extinction_probability(model)
        assert switch_generation(model, fp.p_inf, fp.gamma) == expected, model
        switched += expected is not None
    assert switched > 20


def test_bound_direction_takes_no_root_solve(monkeypatch):
    # switch_n scans against the fixed point the direction was read from: a
    # GP law's survival-space _fixed_point, an F3 law's closed forms. So with
    # the P-space root solve raising, and no FixedPoint kept, bound_direction
    # still answers on Switches-zone GP laws near criticality, where that
    # solve raises or loses digits, and on F3 Switches laws, as the full scan.
    def no_root_solve(model):
        raise AssertionError(f"root solve of {model!r}")

    monkeypatch.setattr(pgf_core, "_root_solve_p_inf", no_root_solve)
    laws = []
    for s in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
        th = gp_thresholds(s)
        laws += [gp_from_s(th.lambda_c2 + k / 8 * (th.lambda_c0 - th.lambda_c2), s)
                 for k in range(1, 8)]
    rng = random.Random(29)
    f3_laws = []
    while len(f3_laws) < 40:
        p0, p2, p3 = rng.random(), rng.random(), rng.random()
        if p0 + p2 + p3 <= 1.0 and p0 > 1e-6 and p0 < p2 + 2.0 * p3:
            model = FiniteThree(p0=p0, p1=1.0 - p0 - p2 - p3, p2=p2, p3=p3)
            if classify_f3(model).region == SWITCHES_REGION:
                f3_laws.append(model)
    laws += f3_laws
    switched = 0
    for model in laws:
        monkeypatch.setattr(pgf_core, "_last_solved", (None, None))
        d = bound_direction(model)
        assert d.kind == SWITCHES, model
        if isinstance(model, FiniteThree):
            assert d.switch_n == switch_generation_full_scan(model), model
        switched += d.switch_n is not None
    assert switched > 20


# ---------------------------------------------------------------------------
# Appendix comparison coefficients
# ---------------------------------------------------------------------------

def test_binomial_cf_nonnegative():
    # c_f(n, j, k) = C(n, j+2)(k+1) - n*C(k+1, j+2) >= 0 for 0 <= j, k <= n-2.
    for n in range(2, 31):
        for j in range(0, n - 1):
            for k in range(0, n - 1):
                assert bin_coeff_cf(n, j, k) >= 0, (n, j, k)


def test_binomial_cf_matches_formula():
    assert bin_coeff_cf(5, 0, 0) == math.comb(5, 2) * 1 - 5 * math.comb(1, 2)
    assert bin_coeff_cf(5, 1, 2) == math.comb(5, 3) * 3 - 5 * math.comb(3, 3)


@pytest.mark.parametrize("coeff, message", [
    (lambda: bin_coeff_cf(2.5, 0, 0), "n must be an integer >= 2, got 2.5"),
    (lambda: bin_coeff_cf(5, 1.5, 0), "j must be an integer >= 0, got 1.5"),
    (lambda: bin_coeff_cf(5, 0, math.nan), "k must be an integer >= 0, got nan"),
    (lambda: bin_coeff_cf(5, 4, 0), "n must be an integer >= 6, got 5"),
    (lambda: nb_coeff_cg(3, 1.5, 0.5), "j must be an integer >= 0, got 1.5"),
    (lambda: nb_coeff_cg(2.5, 0, 0.5), "r must be an integer >= 1, got 2.5"),
    (lambda: nb_coeff_cg(3, 3, 0.5), "r must be an integer >= 4, got 3"),
], ids=["cf_n", "cf_j", "cf_k", "cf_range", "cg_j", "cg_r", "cg_range"])
def test_appendix_coefficients_require_integer_indices(coeff, message):
    # Non-integer indices returned a number (nb_coeff_cg(3, 1.5, 0.5) = 4.5)
    # or raised an untyped TypeError from math.comb or range.
    with pytest.raises(DomainError) as info:
        coeff()
    assert str(info.value) == message


def test_negbinomial_cg_positive():
    for r in range(2, 11):
        for j in range(0, r):
            for zeta in (0.05, 0.3, 0.6, 0.9, 0.99):
                assert nb_coeff_cg(r, j, zeta) > 0, (r, j, zeta)


# ---------------------------------------------------------------------------
# The frames the benchmark matches its faults by
# ---------------------------------------------------------------------------

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# The Poisson operations of the near_critical grid that fault (c) makes
# raise, by -log10(s): gamma rounds to 1 and pollak_dbar divides by 0. At
# k = 5, 6, 7 and 9 they return values off by more than the check allows.
POISSON_ZERO_DIVISION = (8, 10, 11, 12)


@pytest.mark.parametrize("fid", ["a", "b", "c"])
def test_near_critical_faults_raise_in_the_frames_the_benchmark_matches(fid, monkeypatch):
    # bench/checks.py matches a raised fault by its type, message and the
    # innermost program frame (_root_solve_p_inf for a, pgf_eval under it
    # for b, pollak_dbar for c). Run each such operation as the benchmark
    # does, record its failure as bench/worker.py does, and match it with
    # the benchmark's own table, so a change that moves the raise fails here.
    monkeypatch.syspath_prepend(BENCH)
    checks, worker, workloads = (importlib.import_module(name)
                                 for name in ("checks", "worker", "workloads"))
    wl = workloads.NearCritical(1)
    ops = [law for law in wl.grid if wl.expected_fault(law) == fid]
    if fid == "c":
        ops = [law for law in ops if law.fam == "poisson"
               and round(-math.log10(law.s)) in POISSON_ZERO_DIVISION]
    for law in ops:
        try:
            wl.run(gwbounds, law)
        except Exception as exc:
            err = worker.failure(exc)
        else:
            pytest.fail(f"{law} did not raise")
        assert checks.FAULTS[fid][1](law, None, err, []), (law, err)
