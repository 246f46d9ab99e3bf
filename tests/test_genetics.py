"""Population-genetics layer: mutant-frequency density, per-locus variance,
trait variance through time, and Wright-Fisher fixation probabilities."""

import functools
import math
import tracemalloc
import types

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lu_factor, lu_solve
from scipy.special import exp1 as scipy_exp1
from scipy.stats import binom

from gwbounds import genetics
from gwbounds.errors import DomainError
from gwbounds.genetics import (
    WF_EXACT_MAX_N,
    TraitModel,
    WFModel,
    mutant_density,
    v1_inf,
    vg_inf,
    vg_tau,
    wf_fixation_a,
    wf_fixation_diffusion,
    wf_fixation_exact,
    within_variance,
)
from gwbounds.pgf_core import (
    FiniteThree,
    Poisson,
    binomial_from_s,
    extinction_iterates,
    fl_from_s,
    gp_from_s,
    iterate_extinction,
    moments,
    negbinomial_from_s,
    poisson_from_s,
)


# ---------------------------------------------------------------------------
# Mutant-frequency density and per-locus variance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.1, 1.0, 5.0, 50.0])
def test_mutant_density_normalizes_to_one(a):
    # Substituting u = x/(1-x) turns the integral into int_0^inf a*e^(-a*u) du.
    val, err = quad(lambda x: mutant_density(a, x), 0.0, 1.0, limit=200)
    assert val == pytest.approx(1.0, abs=max(1e-8, 10 * err))


@pytest.mark.parametrize("a", [0.05, 0.5, 2.0, 20.0])
def test_within_variance_matches_quadrature(a):
    val, err = quad(lambda x: x * (1.0 - x) * mutant_density(a, x), 0.0, 1.0,
                    limit=200)
    assert within_variance(a) == pytest.approx(val, abs=max(1e-10, 10 * err))


def test_within_variance_bounded_by_quarter():
    # x(1-x) <= 1/4 and the density integrates to 1.
    for a in (1e-3, 0.1, 1.0, 10.0, 1e3):
        assert 0.0 < within_variance(a) < 0.25


def test_within_variance_vanishing_limits():
    assert within_variance(1e-8) < 1e-6
    assert within_variance(1e6) < 2e-6


def within_variance_mp(a):
    """a(1+a)e^a E1(a) - a at 60 digits; the cancellation costs about
    2*log10(a) of them."""
    with mpmath.workdps(60):
        a = mpmath.mpf(a)
        return a * (1 + a) * mpmath.exp(a) * mpmath.e1(a) - a


@pytest.mark.parametrize("a", [1e-3, 0.5, 0.999, 1.0, 1.5, 10.0, 1e3, 1e4, 1e6, 1e8])
def test_within_variance_against_mpmath(a):
    assert within_variance(a) == pytest.approx(float(within_variance_mp(a)), rel=1e-13)


def test_density_domain_errors():
    with pytest.raises(DomainError):
        mutant_density(0.0, 0.5)
    with pytest.raises(DomainError):
        mutant_density(1.0, 1.0)
    with pytest.raises(DomainError):
        within_variance(-1.0)
    with pytest.raises(DomainError, match="a must be finite and > 0, got inf"):
        mutant_density(math.inf, 0.5)  # it returned nan
    with pytest.raises(DomainError, match="a must be finite and > 0, got inf"):
        within_variance(math.inf)


# ---------------------------------------------------------------------------
# Trait variance through time
# ---------------------------------------------------------------------------

def vg_tau_oracle(tm, model, tau, dt=1e-3):
    """Riemann-sum oracle: integrate S^([t]) * w(a_[t]) with the nearest
    integer map evaluated pointwise."""
    mom = moments(model)
    n_max = int(tau) + 1
    s_by_n = [1.0 - iterate_extinction(model, n) for n in range(n_max + 1)]
    total = 0.0
    t = 0.5 * dt
    while t < tau:
        n = int(t + 0.5)
        s_n = s_by_n[n]
        a_n = tm.pop_size * s_n / mom.m ** n
        total += dt * s_n * within_variance(a_n)
        t += dt
    return tm.theta_mut * tm.alpha ** 2 * total


def test_vg_tau_matches_riemann_oracle():
    tm = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=1000)
    model = poisson_from_s(0.1)
    for tau in (0.4, 1.0, 3.7, 10.0):
        assert vg_tau(tm, model, tau) == pytest.approx(
            vg_tau_oracle(tm, model, tau), rel=1e-3)


def vg_tau_mp(tm, model, tau):
    """vg_tau's cell sum for a Poisson model, with P^(n), m^n and the
    per-locus variance at 60 digits."""
    with mpmath.workdps(60):
        m = mpmath.mpf(model.m)
        total, x = mpmath.mpf(0), mpmath.mpf(0)
        for n in range(math.ceil(tau + 0.5)):
            lo = 0.0 if n == 0 else n - 0.5
            s_n = 1 - x
            total += (min(n + 0.5, tau) - lo) * s_n * within_variance_mp(tm.pop_size * s_n / m ** n)
            x = mpmath.exp(-m * (1 - x))
        return tm.theta_mut * tm.alpha ** 2 * total


@pytest.mark.parametrize("tau", [0.4, 10.0, 60.0])
def test_vg_tau_large_population_against_mpmath(tau):
    # N = 1e6 puts a_n near 1e6 in the first cells, where the per-locus
    # variance is about 1/a_n and a(1+a)e^a E1(a) - a cancels.
    tm = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=1_000_000)
    model = poisson_from_s(0.1)
    assert vg_tau(tm, model, tau) == pytest.approx(float(vg_tau_mp(tm, model, tau)), rel=1e-12)


def vg_tau_with_moments(tm, model, tau):
    """vg_tau's cell sum as it was, with m read from moments(model)."""
    mom = moments(model)
    total = 0.0
    for n, x in zip(range(math.ceil(tau + 0.5)), extinction_iterates(model)):
        lo = 0.0 if n == 0 else n - 0.5
        s_n = 1.0 - x
        try:
            a_n = tm.pop_size * s_n / mom.m ** n
        except OverflowError:
            break
        if a_n == 0.0:
            break
        total += (min(n + 0.5, tau) - lo) * s_n * within_variance(a_n)
    return tm.theta_mut * tm.alpha ** 2 * total


@pytest.mark.parametrize("model", [
    poisson_from_s(0.1), binomial_from_s(5, 0.02), negbinomial_from_s(3, 0.3),
    fl_from_s(0.4, 0.1), gp_from_s(0.5, 0.1), FiniteThree(p0=0.2, p1=0.5, p2=0.2, p3=0.1),
    Poisson(m=700.0),
], ids=repr)
@pytest.mark.parametrize("pop_size, tau", [(1000, 10.0), (1_000_000, 60.0), (2, 300.0)])
def test_vg_tau_reads_m_as_moments_does_bit_for_bit(model, pop_size, tau):
    # m = phi'(1) is moments(model).m, so the sum is the same to the bit,
    # also where it stops because m^n overflows (Poisson m = 700, tau = 300).
    tm = TraitModel(theta_mut=1.0, alpha=0.5, s_sel=0.1, pop_size=pop_size)
    assert vg_tau(tm, model, tau) == vg_tau_with_moments(tm, model, tau)


def test_vg_tau_anchor():
    tm = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=1000)
    assert vg_tau(tm, poisson_from_s(0.1), 10.0) == pytest.approx(0.0163582, abs=1e-6)


def test_vg_tau_monotone_in_tau():
    tm = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=1000)
    model = poisson_from_s(0.1)
    prev = 0.0
    for tau in (1.0, 2.0, 5.0, 10.0, 20.0):
        cur = vg_tau(tm, model, tau)
        assert cur > prev
        prev = cur


def test_vg_tau_scales_with_theta_and_alpha():
    base = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=1000)
    double_theta = TraitModel(theta_mut=2.0, alpha=1.0, s_sel=0.1, pop_size=1000)
    model = poisson_from_s(0.1)
    assert vg_tau(double_theta, model, 5.0) == pytest.approx(
        2.0 * vg_tau(base, model, 5.0), rel=1e-12)


def test_vg_tau_stops_where_m_to_the_n_overflows():
    # 1.5^n overflows from n = 1751; the cells beyond it add less than 1e-300.
    # The value is vg_tau_mp's 60-digit sum, rounded.
    tm = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=1000)
    model = poisson_from_s(0.5)
    assert vg_tau(tm, model, 1000.0) == 1.4353425801290212
    for tau in (1750.0, 1751.0, 2000.0, 1e6):
        assert vg_tau(tm, model, tau) == vg_tau(tm, model, 1000.0)


def test_vg_tau_domain():
    tm = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=1000)
    with pytest.raises(DomainError):
        vg_tau(tm, poisson_from_s(0.1), 0.0)


# ---------------------------------------------------------------------------
# Asymptotic variance and response
# ---------------------------------------------------------------------------

def test_v1_inf_against_scipy():
    for n_pop, s_inf, sa in ((1000, 0.1813, 0.1), (100, 0.4, 0.2)):
        z = n_pop * s_inf
        expected = z * math.exp(z) * float(scipy_exp1(z)) / sa
        tm = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=sa, pop_size=n_pop)
        assert v1_inf(tm, s_inf) == pytest.approx(expected, rel=1e-10)


def test_vg_inf_poisson_anchors():
    tm = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=1000)
    v = vg_inf(tm, poisson_from_s(0.1))
    assert v.v1_inf == pytest.approx(9.94386, abs=1e-5)
    assert v.leading == pytest.approx(1.75145, abs=1e-5)
    assert v.simple == pytest.approx(2.0 * (1.0 - (8.0 / 3.0) * 0.1), rel=1e-12)
    assert v.delta_mean == pytest.approx(0.146667, abs=1e-6)


def test_vg_inf_response_is_s_times_variance():
    tm = TraitModel(theta_mut=0.5, alpha=2.0, s_sel=0.05, pop_size=500)
    v = vg_inf(tm, poisson_from_s(0.1))
    assert v.delta_mean == pytest.approx(tm.s_sel * v.simple, rel=1e-12)


def test_vg_inf_no_series_family_gives_nan():
    # vg_inf tells a family without an s-family by its class: it neither
    # calls the mu_table that raises nor formats the law's repr for it.
    class Unprintable(FiniteThree):
        def __repr__(self):
            raise AssertionError("repr formatted")

    tm = TraitModel(theta_mut=1.0, alpha=1.0, s_sel=0.1, pop_size=1000)
    model = FiniteThree(p0=0.1, p1=0.5, p2=0.2, p3=0.2)
    v = vg_inf(tm, model)
    assert v.v1_inf > 0.0 and v.leading > 0.0
    assert math.isnan(v.simple) and math.isnan(v.delta_mean)
    with pytest.raises(DomainError, match="no mu table"):
        model.mu_table()
    twin = vg_inf(tm, Unprintable(*model._values()))
    assert (twin.v1_inf, twin.leading) == (v.v1_inf, v.leading)
    assert math.isnan(twin.simple) and math.isnan(twin.delta_mean)


def test_trait_model_validation():
    with pytest.raises(DomainError):
        TraitModel(theta_mut=-1.0, alpha=1.0, s_sel=0.1, pop_size=100)
    with pytest.raises(DomainError):
        TraitModel(theta_mut=1.0, alpha=0.0, s_sel=0.1, pop_size=100)
    TraitModel(theta_mut=1.0, alpha=2.0, s_sel=0.05, pop_size=100)


# ---------------------------------------------------------------------------
# Wright-Fisher fixation probabilities
# ---------------------------------------------------------------------------

def test_diffusion_anchors():
    # (1 - e^(-2s))/(1 - e^(-2sN)) at N = Ne = 1000.
    for s, target in ((0.2, 0.3297), (0.1, 0.1813), (0.02, 0.0392)):
        wf = WFModel(pop_size=1000, s_sel=s, effective_size=1000.0)
        assert wf_fixation_diffusion(wf) == pytest.approx(target, abs=1e-4)


def test_diffusion_small_s_approaches_neutral():
    wf = WFModel(pop_size=1000, s_sel=1e-9, effective_size=1000.0)
    assert wf_fixation_diffusion(wf) == pytest.approx(1.0 / 1000.0, rel=1e-5)


def test_diffusion_effective_size_reduces_fixation():
    full = WFModel(pop_size=1000, s_sel=0.1, effective_size=1000.0)
    reduced = WFModel(pop_size=1000, s_sel=0.1, effective_size=500.0)
    assert wf_fixation_diffusion(reduced) < wf_fixation_diffusion(full)


def mp_binom_row(n, psi):
    """P(Binomial(n, psi) = k), k = 0..n, in 30-digit mpmath; a float psi is
    taken exactly."""
    with mpmath.workdps(30):
        p = mpmath.mpf(psi)
        return [mpmath.binomial(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)]


def window_states(start, rows):
    """States start[i] + j of each window entry rows[i, j]."""
    return start[:, None] + np.arange(rows.shape[1])


@pytest.mark.parametrize("n", [2, 3, 60])
def test_binom_rows_against_mpmath(n):
    psi = np.array([1e-12, 1e-3, 1.0 / (n + 1), 0.5 - 1e-9, 0.5, 0.5 + 1e-9,
                    0.75, 1.0 - 1e-3, 1.0 - 1e-12])
    start, rows = genetics.binom.pmf(n, psi)
    assert rows.shape[0] == len(psi)
    for row, states, p in zip(rows, window_states(start, rows), psi):
        want = mp_binom_row(n, p)
        for got, k in zip(row, states):
            if not 0 <= k <= n:
                assert got == 0.0
            elif want[k] > 1e-300:
                assert got == pytest.approx(float(want[k]), rel=1e-13)
        outside = sum(w for k, w in enumerate(want) if k not in states)
        assert outside <= genetics.WINDOW_TAIL
        assert abs(math.fsum(row) - 1.0) <= 4 * np.finfo(float).eps


def test_binom_rows_against_scipy():
    n, s = 1000, 0.1
    x = np.arange(1, n) / n
    psi = np.concatenate([x * (1.0 + s) / (1.0 + s * x), [1e-9, 1.0 - 1e-9]])
    start, rows = genetics.binom.pmf(n, psi)
    want = binom.pmf(window_states(start, rows), n, psi[:, None])
    big = want > 1e-250
    assert np.max(np.abs(rows[big] / want[big] - 1.0)) < 1e-12
    assert np.all(rows[want == 0.0] == 0.0)


@pytest.mark.parametrize("n", [100, 1000, 5000])
def test_binom_window_drops_at_most_the_tail(n):
    # The mass of Binomial(n, psi) below and above each row's window.
    psi = np.concatenate([[1e-3, 1.0 / n, 0.5 / n], np.linspace(0.01, 0.99, 99),
                          [1.0 - 1e-3]])
    start, rows = genetics.binom.pmf(n, psi)
    outside = (binom.cdf(start - 1, n, psi)
               + binom.sf(start + rows.shape[1] - 1, n, psi))
    assert np.max(outside) <= genetics.WINDOW_TAIL


def test_wf_exact_against_mpmath_solve():
    # The absorption system built and solved in 30-digit mpmath, psi exact.
    n, s = 40, 0.1
    with mpmath.workdps(30):
        sm = mpmath.mpf(s)
        a, b = [], []
        for i in range(1, n):
            x = mpmath.mpf(i) / n
            psi = x * (1 + sm) / (1 + sm * x)
            row = mp_binom_row(n, psi)
            a.append([(1 if i == j else 0) - row[j] for j in range(1, n)])
            b.append(row[n])
        want = float(mpmath.lu_solve(mpmath.matrix(a), mpmath.matrix(b))[0])
    wf = WFModel(pop_size=n, s_sel=s, effective_size=float(n))
    assert wf_fixation_exact(wf) == pytest.approx(want, rel=1e-13)


@functools.lru_cache(maxsize=None)
def log_choose(n):
    """log C(n, k), k = 0..n, from 30-digit mpmath, in long double."""
    with mpmath.workdps(30):
        return np.array([np.longdouble(mpmath.nstr(mpmath.log(mpmath.binomial(n, k)), 25))
                         for k in range(n + 1)])


def full_rows(n, s):
    """P[i, k], the interior states i = 1..N-1 by every state k = 0..N, with no
    window. Each entry is exp of its log, summed and exponentiated in long
    double and rounded once; rows from scipy's binom.pmf would move q by up
    to 4e-13 relative at s = 1e-3."""
    x = np.arange(1, n) / n
    psi = (x * (1.0 + s) / (1.0 + s * x)).astype(np.longdouble)[:, None]
    k = np.arange(n + 1, dtype=np.longdouble)
    return np.exp(log_choose(n) + k * np.log(psi) + (n - k) * np.log1p(-psi)).astype(float)


def wf_exact_dense(n, s):
    """The full (N-1)-state absorption system solved densely."""
    p = full_rows(n, s)
    return float(np.linalg.solve(np.eye(n - 1) - p[:, 1:n], p[:, n])[0])


@pytest.mark.parametrize("s", [1e-3, 0.1, 0.5, 5.0])
@pytest.mark.parametrize("n", [2, 3, 10, 71, 500, 2000])
def test_wf_exact_against_dense_solve(n, s):
    # One block at N <= 10 and at N = 71, s = 5; two at N = 71 otherwise and
    # 2 to 9 at N = 500 and 2000.
    wf = WFModel(pop_size=n, s_sel=s, effective_size=float(n))
    assert wf_fixation_exact(wf) == pytest.approx(wf_exact_dense(n, s), rel=1e-13)


def test_window_tail_meets_the_error_budget():
    # Each row drops at most WINDOW_TAIL and is renormalised: 2 WINDOW_TAIL in
    # l1, times an expected absorption time of at most 2N, over q >= 1/N.
    assert 4 * WF_EXACT_MAX_N ** 2 * genetics.WINDOW_TAIL <= 2.0 ** -56


@pytest.mark.parametrize("s", [1e-9, 1e-3, 0.1])
@pytest.mark.parametrize("n", [50, 500, 2000])
def test_expected_absorption_time_is_at_most_2n(n, s):
    # E_i[T] solves (I - P) T = 1 over the interior states; the largest is
    # about 2 ln 2 N = 1.39N near neutrality, where the window budget takes 2N.
    p = full_rows(n, s)
    absorption = np.linalg.solve(np.eye(n - 1) - p[:, 1:n], np.ones(n - 1))
    assert absorption.max() <= 2 * n


def test_wf_exact_n2_closed_form():
    # N = 2: from one mutant, psi = (1+s)/(2+s) and
    # q = psi^2 / (1 - 2*psi*(1-psi)).
    for s in (0.05, 0.2, 0.5):
        psi = (1.0 + s) / (2.0 + s)
        closed = psi ** 2 / (1.0 - 2.0 * psi * (1.0 - psi))
        wf = WFModel(pop_size=2, s_sel=s, effective_size=2.0)
        assert wf_fixation_exact(wf) == pytest.approx(closed, rel=1e-12)


def test_wf_exact_against_forward_chain():
    # Independent oracle: push the full state distribution forward until the
    # transient mass is gone; the mass at N is the fixation probability.
    n, s = 50, 0.1
    i = np.arange(0, n + 1)
    x = i / n
    psi = x * (1.0 + s) / (1.0 + s * x)
    transition = binom.pmf(np.arange(0, n + 1)[None, :], n, psi[:, None])
    dist = np.zeros(n + 1)
    dist[1] = 1.0
    for _ in range(20_000):
        dist = dist @ transition
    assert dist[1:n].sum() < 1e-12
    wf = WFModel(pop_size=n, s_sel=s, effective_size=float(n))
    assert wf_fixation_exact(wf) == pytest.approx(float(dist[n]), abs=1e-10)


def test_wf_exact_anchor():
    wf = WFModel(pop_size=1000, s_sel=0.1, effective_size=1000.0)
    assert wf_fixation_exact(wf) == pytest.approx(0.1761, abs=1e-4)


def test_wf_exact_below_diffusion():
    for n, s in ((100, 0.1), (500, 0.05), (1000, 0.1)):
        wf = WFModel(pop_size=n, s_sel=s, effective_size=float(n))
        assert wf_fixation_exact(wf) < wf_fixation_diffusion(wf)


def test_wf_exact_size_cap():
    with pytest.raises(DomainError):
        wf_fixation_exact(WFModel(pop_size=WF_EXACT_MAX_N + 1, s_sel=0.1,
                                  effective_size=float(WF_EXACT_MAX_N + 1)))


def test_wf_exact_rejects_a_sampling_probability_that_rounds_to_one():
    # psi = x(1+s)/(1+sx) at x = 99/100 rounds to 1 at s = 1e15, and the
    # rows divide by 1 - psi: a nan, not a number, would come out.
    with pytest.raises(DomainError, match=r"s_sel = 1000000000000000\.0 is too large"):
        wf_fixation_exact(WFModel(100, 1e15, 100.0))
    assert wf_fixation_exact(WFModel(100, 1e14, 100.0)) == pytest.approx(1.0, abs=1e-12)


def wf_exact_refined(n, s):
    """The system that wf_fixation_exact solves, I - P from the same binom.pmf
    rows and rounded as it rounds them, built densely and solved by LU, then
    refined three times with residuals in long double: the float system's own
    solution, to about an ulp."""
    x = np.arange(1, n) / n
    psi = x * (1.0 + s) / (1.0 + s * x)
    start, rows = genetics.binom.pmf(n, psi)
    states = start[:, None] + np.arange(rows.shape[1])
    line, state = np.nonzero((states > 0) & (states < n))
    a = np.eye(n - 1)
    a[line, states[line, state] - 1] -= rows[line, state]
    rhs = np.where(states == n, rows, 0.0).sum(axis=1)  # P[:, N]
    lu = lu_factor(a)
    q = lu_solve(lu, rhs)
    for _ in range(3):
        q_ld = q.astype(np.longdouble)
        residual = [rhs[i:i + 256] - a[i:i + 256].astype(np.longdouble) @ q_ld
                    for i in range(0, n - 1, 256)]
        q = q + lu_solve(lu, np.concatenate(residual).astype(float))
    return float(q[0])


# The bench's N x s grid; one panel at N = 50 and 65, a last panel of one
# state at N = 66 and 1026 (N - 1 = 1 mod 64), and a move of the live rows
# down the buffer at every N >= 500. At N = 2000, s = 1e-9 the former block
# solve is 4e-14 off.
REFINED_CASES = [(n, s) for n in (50, 500, 1000, 1500, 2000) for s in (0.01, 0.02, 0.05, 0.1)]
REFINED_CASES += [(65, 0.1), (66, 0.1), (1026, 0.05), (2000, 1e-9)]


@pytest.mark.parametrize("n, s", REFINED_CASES)
def test_wf_exact_against_the_refined_solve(n, s):
    wf = WFModel(pop_size=n, s_sel=s, effective_size=float(n))
    assert wf_fixation_exact(wf) == pytest.approx(wf_exact_refined(n, s), rel=2e-14)


def panel_layout(n, s):
    """(b, panel sizes from the last state up) of the solve at (n, s)."""
    x = np.arange(1, n) / n
    start, t = genetics.binom.window(n, x * (1.0 + s) / (1.0 + s * x))
    offset = start - np.arange(1, n)
    k = genetics._PANEL
    return (int(max(-offset.min(), offset.max() + 2 * t)),
            [min(k, p1) for p1 in range(n - 1, 0, -k)])


def test_refined_cases_cover_one_panel_a_one_state_panel_and_a_buffer_move():
    layouts = {case: panel_layout(*case) for case in REFINED_CASES}
    assert layouts[(50, 0.1)][1] == [49] and layouts[(65, 0.1)][1] == [64]
    assert layouts[(66, 0.1)][1] == [64, 1] and layouts[(1026, 0.05)][1][-1] == 1
    # the buffer holds b + 3 panels of rows; more unknowns move the live rows
    b, panels = layouts[(500, 0.1)]
    assert sum(panels) > b + 3 * genetics._PANEL


# The references for wf_fixation_exact and binom.pmf: binom.pmf must match
# its reference bit for bit, with the pmf's ratios gathered through N x t
# integer index arrays. The former solve eliminated blocks of b states, with
# every window entry scattered into its block's strip through a fancy index,
# states outside 1 .. N-1 masked to 0; the panel solve eliminates in another
# order, so it matches within rounding, and raises the same errors.

def former_binom_pmf(n, psi):
    t = min(math.ceil(math.sqrt(n / 2 * math.log(2 / genetics.WINDOW_TAIL))) + 1, n)
    mode = np.minimum(np.floor((n + 1) * psi).astype(np.intp), n)
    k = np.arange(n)
    pad = np.zeros(t)
    up = np.concatenate([(n - k) / (k + 1.0), pad])
    down = np.concatenate([pad, (k + 1.0) / (n - k)])
    steps = np.arange(t)
    rows = np.empty((len(psi), 2 * t + 1))
    rows[:, t] = 1.0
    np.cumprod(up[mode[:, None] + steps] * (psi / (1.0 - psi))[:, None],
               axis=1, out=rows[:, t + 1:])
    np.cumprod(down[mode[:, None] + (t - 1) - steps] * ((1.0 - psi) / psi)[:, None],
               axis=1, out=rows[:, t - 1::-1])
    rows /= rows.sum(axis=1, keepdims=True)
    return mode - t, rows


def former_blocks(n, s):
    """(start, rows, b) of the solve at (n, s), or the error it raises before
    any block."""
    if n > WF_EXACT_MAX_N:
        raise DomainError(
            f"pop_size must be <= {WF_EXACT_MAX_N} for the exact solve, got {n!r}")
    x = np.arange(1, n) / n
    psi = x * (1.0 + s) / (1.0 + s * x)
    if not psi.max() < 1.0:
        raise DomainError(f"s_sel = {s!r} is too large for the exact solve at "
                          f"pop_size = {n!r}: a sampling probability psi rounds to 1")
    start, rows = former_binom_pmf(n, psi)
    offset = start - np.arange(1, n)
    return start, rows, int(max(-offset.min(), offset.max() + rows.shape[1] - 1))


def former_wf_fixation_exact(wf):
    n = wf.pop_size
    start, rows, b = former_blocks(n, wf.s_sel)
    cols = np.arange(rows.shape[1])
    below = None
    for r0 in reversed(range(0, n - 1, b)):
        size = min(b, n - 1 - r0)
        lines = np.arange(size)
        states = start[r0:r0 + size, None] + cols
        window = rows[r0:r0 + size]
        strip = np.zeros((size, size + 2 * b))
        strip[lines[:, None], states - (r0 + 1 - b)] = np.where(
            (states > 0) & (states < n), -window, 0.0)
        strip[lines, lines + b] += 1.0
        diag = strip[:, b:b + size]
        rhs = np.where(states == n, window, 0.0).sum(axis=1)
        if below is not None:
            update = strip[:, b + size:b + size + len(below)] @ below
            diag -= update[:, :-1]
            rhs -= update[:, -1]
        if r0 == 0:
            return float(np.linalg.solve(diag, rhs)[0])
        below = np.linalg.solve(diag, np.column_stack([strip[:, :b], rhs]))


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)


# One block at N = 2, 3 and at s = 10, 1e6 on N = 100, with windows past N;
# a last block of one state at N = 132, s = 0.01; 2 to 12 blocks at N = 50
# to 5000; at s = 1e14 psi rounds to 1 from N = 500 on. Then the rest of the
# bench's grid, N in {50, 500, 1000, 1500, 2000} x s in {0.01, 0.02, 0.05,
# 0.1}, and CI's `gwb genetics --N 5000 --s 0.01` solve.
FORMER_CASES = [(2, 0.1), (3, 0.1), (132, 0.01), (100, 1e-9), (1000, 1e-9),
                (100, 10.0), (1000, 5.0), (100, 1e6), (1000, 1e6), (100, 1e14),
                (1000, 1e14), (500, 0.01), (500, 0.1), (2000, 0.01), (2000, 0.1),
                (WF_EXACT_MAX_N + 1, 0.1)]
FORMER_CASES += [(n, s) for n in (50, 500, 1000, 1500, 2000)
                 for s in (0.01, 0.02, 0.05, 0.1) if (n, s) not in FORMER_CASES]
FORMER_CASES += [(WF_EXACT_MAX_N, 0.01)]


@pytest.mark.parametrize("n, s", FORMER_CASES)
def test_wf_exact_agrees_with_the_former_block_solve(n, s):
    wf = WFModel(pop_size=n, s_sel=s, effective_size=float(n))
    got, want = outcome(wf_fixation_exact, wf), outcome(former_wf_fixation_exact, wf)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=2e-14)


def test_former_cases_cover_one_block_and_a_one_state_last_block():
    def block_sizes(n, s):
        b = former_blocks(n, s)[2]
        return [min(b, n - 1 - r0) for r0 in range(0, n - 1, b)]
    assert block_sizes(2, 0.1) == [1] and block_sizes(3, 0.1) == [2]
    assert len(block_sizes(100, 10.0)) == len(block_sizes(100, 1e6)) == 1
    sizes = block_sizes(132, 0.01)
    assert len(sizes) >= 2 and sizes[-1] == 1


@pytest.mark.parametrize("n", [2, 3, 60, 1000, 5000])
def test_binom_rows_are_the_index_gathers_bit_for_bit(n):
    psi = np.concatenate([[1e-12, 1e-3, 0.5, 1.0 - 1e-3, 1.0 - 1e-12],
                          np.random.default_rng(n).random(200)])
    start, rows = genetics.binom.pmf(n, psi)
    want_start, want_rows = former_binom_pmf(n, psi)
    assert np.array_equal(start, want_start)
    assert rows.tobytes() == want_rows.tobytes()


@pytest.mark.parametrize("n, s", [(2000, 0.1), (5000, 0.01)])
def test_wf_exact_peak_allocation_stays_near_one_block(monkeypatch, n, s):
    # Rows enter at most one panel of states at a time, into one buffer of
    # (b + 3k)(2b + 3k + 1) numbers that every panel reuses, so the traced
    # peak stays near b(3b + 1) numbers whatever N is: about 1.9 and 1.65
    # times their bytes now, 2.2 to 2.4 with the former blocks of b states,
    # 6.3 and 11 when the rows of all N - 1 states were built at once.
    wf = WFModel(pop_size=n, s_sel=s, effective_size=float(n))
    wf_fixation_exact(wf)  # numpy loaded outside the trace
    x = np.arange(1, n) / n
    start, t = genetics.binom.window(n, x * (1.0 + s) / (1.0 + s * x))
    offset = start - np.arange(1, n)
    b = int(max(-offset.min(), offset.max() + 2 * t))
    row_counts = []
    pmf = genetics.binom.pmf
    monkeypatch.setattr(genetics, "binom", types.SimpleNamespace(
        window=genetics.binom.window,
        pmf=lambda n, psi: row_counts.append(len(psi)) or pmf(n, psi)))
    tracemalloc.start()
    try:
        wf_fixation_exact(wf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(row_counts) <= b and sum(row_counts) == n - 1
    assert peak <= 3 * b * (3 * b + 1) * 8


def test_wf_fixation_a_anchors():
    assert wf_fixation_a(WFModel(1000, 0.1, 1000.0)) == pytest.approx(0.1758, abs=1e-4)
    assert wf_fixation_a(WFModel(100, 0.1, 100.0)) == pytest.approx(0.1755, abs=1e-4)


def test_wf_fixation_a_default_tracks_exact():
    # The refined exponential form sits within 3e-3 relative of the exact
    # value, much closer than the diffusion approximation.
    for n, s in ((100, 0.1), (1000, 0.1), (1000, 0.05)):
        wf = WFModel(pop_size=n, s_sel=s, effective_size=float(n))
        exact = wf_fixation_exact(wf)
        refined = wf_fixation_a(wf)
        diffusion = wf_fixation_diffusion(wf)
        assert abs(refined - exact) < abs(diffusion - exact)
        assert refined == pytest.approx(exact, rel=3e-3)


def test_wf_fixation_a_reduces_to_diffusion():
    # It is the diffusion approximation with effective_size = pop_size at
    # 2 s_sel = A = 2s + a2 s^2, a2 = -2/3 - 1/(3Ns).
    n, s = 200, 0.1
    a_val = 2.0 * s + (-2.0 / 3.0 - 1.0 / (3.0 * n * s)) * s * s
    wf = WFModel(pop_size=n, s_sel=a_val / 2.0, effective_size=float(n))
    assert wf_fixation_a(WFModel(n, s, float(n))) == \
        pytest.approx(wf_fixation_diffusion(wf), rel=1e-13)


def test_wf_fixation_a_domain():
    # s_sel > 0 and N >= 2 are WFModel's; A = 2s - (2/3 + 1/(3Ns))s^2 > 0,
    # that is s < 3 - 1/(2N), is the form's own. Past it the form reads 5.8e-4
    # at N = 1000, s = 3, where the exact solve gives 0.980, and overflows.
    with pytest.raises(DomainError, match="s_sel must be > 0"):
        wf_fixation_a(WFModel(1000, 0.0, 1000.0))
    with pytest.raises(DomainError, match="pop_size must be an integer >= 2"):
        wf_fixation_a(WFModel(1, 0.1, 1.0))
    assert wf_fixation_a(WFModel(1000, 2.9994, 1000.0)) > 0.0
    for n, s in ((1000, 2.9996), (1000, 3.0), (1000, 5.0), (2, 2.75), (2, 1e300)):
        with pytest.raises(DomainError) as info:
            wf_fixation_a(WFModel(n, s, float(n)))
        assert str(info.value) == ("wf_fixation_a requires A = 2s - (2/3 + 1/(3Ns))s^2 > 0, "
                                   f"that is s_sel < 3 - 1/(2N), got s_sel = {s!r} "
                                   f"at pop_size = {n!r}")
