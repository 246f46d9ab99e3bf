"""Eventual-survival bounds and small-s series: exact rational coefficient
values, factorial-moment oracles for the mixed-derivative tables, convergence
order of the truncated series, and bound orderings."""

import math
from fractions import Fraction

import pytest

from gwbounds.errors import ApplicabilityError, DomainError
from gwbounds.pgf_core import (
    FiniteThree,
    binomial_from_s,
    extinction_probability,
    fl_from_s,
    gp_from_s,
    moments,
    negbinomial_from_s,
    poisson_from_s,
)
from gwbounds.sinf_estimates import (
    MuDerivatives,
    dn_upper,
    gamma_series_eval,
    pn_ratio_series,
    quine_bounds,
    sinf_bounds_all,
    sinf_series,
    t_ser,
    t_simple,
)


# ---------------------------------------------------------------------------
# Factorial-moment oracle for the mu tables
# ---------------------------------------------------------------------------
#
# mu_kl is the l-th s-derivative at s = 0 of the k-th factorial moment
# E[X(X-1)...(X-k+1)] of the family member with mean 1 + s.  The oracle
# computes the factorial moments from the pmf directly (including slightly
# subcritical s < 0, where the model classes do not apply) and differentiates
# numerically in s.

def pmf_poisson(s, k):
    m = 1.0 + s
    return math.exp(k * math.log(m) - m - math.lgamma(k + 1))


def pmf_binomial(n):
    def pmf(s, k):
        p = (1.0 + s) / n
        if k > n:
            return 0.0
        return math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
    return pmf


def pmf_negbinomial(r):
    def pmf(s, k):
        p = r / (r + 1.0 + s)
        return math.comb(r + k - 1, k) * p ** r * (1.0 - p) ** k
    return pmf


def pmf_gp(lam):
    def pmf(s, k):
        mu = (1.0 + s) * (1.0 - lam)
        return math.exp(math.log(mu) + (k - 1) * math.log(mu + k * lam)
                        - mu - k * lam - math.lgamma(k + 1))
    return pmf


def pmf_fl(pi):
    def pmf(s, k):
        rho = pi * (1.0 + s) - s
        if k == 0:
            return rho
        return (1.0 - rho) * (1.0 - pi) * pi ** (k - 1)
    return pmf


def factorial_moment(pmf, s, order, kmax=400):
    total = 0.0
    for k in range(order, kmax):
        w = 1.0
        for i in range(order):
            w *= k - i
        total += w * pmf(s, k)
    return total


def mu_oracle(pmf, kmax=400):
    """(mu20, mu21, mu22, mu30, mu31, mu40) by five-point stencils in s."""
    h = 0.01

    def fm(order):
        return [factorial_moment(pmf, i * h, order, kmax) for i in (-2, -1, 0, 1, 2)]

    def at0(vals):
        return vals[2]

    def d1(vals):
        return (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)

    def d2(vals):
        return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)

    f2, f3, f4 = fm(2), fm(3), fm(4)
    return (at0(f2), d1(f2), d2(f2), at0(f3), d1(f3), at0(f4))


ORACLE_CASES = [
    (poisson_from_s(0.1).mu_table(), pmf_poisson),
    (binomial_from_s(5, 0.1).mu_table(), pmf_binomial(5)),
    (binomial_from_s(12, 0.1).mu_table(), pmf_binomial(12)),
    (negbinomial_from_s(2, 0.1).mu_table(), pmf_negbinomial(2)),
    (negbinomial_from_s(5, 0.1).mu_table(), pmf_negbinomial(5)),
    (gp_from_s(0.0, 0.1).mu_table(), pmf_gp(0.0)),
    (gp_from_s(0.3, 0.1).mu_table(), pmf_gp(0.3)),
    (gp_from_s(0.6, 0.1).mu_table(), pmf_gp(0.6)),
    (fl_from_s(0.4, 0.1).mu_table(), pmf_fl(0.4)),
    (fl_from_s(0.7, 0.1).mu_table(), pmf_fl(0.7)),
]


@pytest.mark.parametrize("table,pmf", ORACLE_CASES,
                         ids=[f"case{i}" for i in range(len(ORACLE_CASES))])
def test_mu_tables_against_factorial_moment_oracle(table, pmf):
    m20, m21, m22, m30, m31, m40 = mu_oracle(pmf, kmax=2000)
    assert table.mu20 == pytest.approx(m20, rel=1e-6, abs=1e-6)
    assert table.mu21 == pytest.approx(m21, rel=1e-5, abs=1e-5)
    assert table.mu22 == pytest.approx(m22, rel=1e-3, abs=1e-3)
    assert table.mu30 == pytest.approx(m30, rel=1e-6, abs=1e-6)
    assert table.mu31 == pytest.approx(m31, rel=1e-4, abs=1e-4)
    assert table.mu40 == pytest.approx(m40, rel=1e-6, abs=1e-6)


def test_mu_dispatch_matches_family_tables():
    # The table belongs to the s-family: every member gives the same one.
    for make in (poisson_from_s, lambda s: binomial_from_s(7, s),
                 lambda s: negbinomial_from_s(3, s), lambda s: gp_from_s(0.4, s),
                 lambda s: fl_from_s(0.5, s)):
        assert make(0.2).mu_table() == make(0.05).mu_table()


def test_mu_table_validation():
    with pytest.raises(DomainError):
        MuDerivatives(mu20=0.0, mu21=1, mu22=1, mu30=1, mu31=1, mu40=1)
    with pytest.raises(DomainError):
        binomial_from_s(1, 0.1).mu_table()
    with pytest.raises(DomainError):
        gp_from_s(1.0, 0.1).mu_table()
    with pytest.raises(DomainError, match="no mu table"):
        FiniteThree(p0=0.2, p1=0.5, p2=0.2, p3=0.1).mu_table()


# ---------------------------------------------------------------------------
# Exact rational series coefficients
# ---------------------------------------------------------------------------

def test_poisson_coefficients_rational():
    c = sinf_series(poisson_from_s(0.1).mu_table())
    assert c.theta == pytest.approx(2.0, abs=1e-15)
    assert c.delta2 == pytest.approx(8.0 / 3.0, abs=1e-14)
    assert c.delta3 == pytest.approx(28.0 / 9.0, abs=1e-14)
    assert c.gamma2 == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert c.gamma3 == pytest.approx(4.0 / 9.0, abs=1e-13)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 40])
def test_binomial_coefficients_rational(n):
    c = sinf_series(binomial_from_s(n, 0.1).mu_table())
    assert c.theta == pytest.approx(2.0 * n / (n - 1), rel=1e-14)
    d2 = Fraction(4 * n * (2 * n - 1), 3 * (n - 1) ** 2)
    assert c.delta2 == pytest.approx(float(d2), rel=1e-12)
    assert c.gamma2 == pytest.approx(2.0 * (n - 2) / (3.0 * (n - 1)), rel=1e-13, abs=1e-13)
    assert c.gamma3 == pytest.approx(4.0 * (n - 2) ** 2 / (9.0 * (n - 1) ** 2),
                                     rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("r", [1, 2, 5, 10])
def test_negbinomial_coefficients_rational(r):
    c = sinf_series(negbinomial_from_s(r, 0.1).mu_table())
    assert c.theta == pytest.approx(2.0 * r / (r + 1), rel=1e-14)
    assert c.gamma2 == pytest.approx(2.0 * (r + 2) / (3.0 * (r + 1)), rel=1e-13)
    assert c.gamma3 == pytest.approx(4.0 * (r + 2) ** 2 / (9.0 * (r + 1) ** 2), rel=1e-12)
    # delta3 for r = 5 pinned from exact rational arithmetic:
    # delta3 = 2r(14r^2 + 17r + 5)/(9(r+1)^3).
    d3 = Fraction(2 * r * (14 * r * r + 17 * r + 5), 9 * (r + 1) ** 3)
    assert c.delta3 == pytest.approx(float(d3), rel=1e-12)


@pytest.mark.parametrize("lam", [0.0, 0.2, 0.5, 0.9])
def test_gp_coefficients(lam):
    c = sinf_series(gp_from_s(lam, 0.1).mu_table())
    u = 1.0 - lam
    assert c.theta == pytest.approx(2.0 * u * u, rel=1e-14)
    assert c.gamma2 == pytest.approx(2.0 * (1.0 + 2.0 * lam) / 3.0, rel=1e-13)
    assert c.gamma3 == pytest.approx(4.0 * (1.0 + 7.0 * lam + lam * lam) / 9.0,
                                     rel=1e-12)
    # Published closed polynomials in lambda (delta3 exercises mu31).
    assert c.delta2 == pytest.approx(
        (2.0 / 3.0) * u * u * (4.0 - 10.0 * lam + 3.0 * lam * lam), rel=1e-12, abs=1e-13)
    assert c.delta3 == pytest.approx(
        (4.0 / 9.0) * u ** 3 * (7.0 - 31.0 * lam + 21.0 * lam ** 2 - 3.0 * lam ** 3),
        rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("pi", [0.2, 0.5, 0.8])
def test_fl_series_is_exact(pi):
    # The fractional-linear family has S_inf = s(1-pi)/pi exactly and
    # gamma = 1/(1+s), so delta2 = delta3 = 0 and gamma2 = gamma3 = 1.
    model = fl_from_s(pi, 0.1)
    c = sinf_series(model.mu_table())
    assert c.theta == pytest.approx((1.0 - pi) / pi, rel=1e-14)
    assert c.delta2 == pytest.approx(0.0, abs=1e-13)
    assert c.delta3 == pytest.approx(0.0, abs=1e-12)
    assert c.gamma2 == pytest.approx(1.0, rel=1e-14)
    assert c.gamma3 == pytest.approx(1.0, rel=1e-12)
    for s in (0.05, 0.2):
        if pi * (1.0 + s) > s:
            fp = extinction_probability(fl_from_s(pi, s))
            assert sinf_bounds_all(model, s).series3 == pytest.approx(fp.s_inf, rel=1e-12)


def test_universal_linear_gamma_coefficient():
    # gamma = 1 - s + O(s^2) for every family.
    for model in (poisson_from_s(0.1), binomial_from_s(6, 0.1), negbinomial_from_s(3, 0.1),
                  gp_from_s(0.4, 0.1), fl_from_s(0.5, 0.1)):
        # The O(s^2) terms are below 1e-11 at s = 1e-6.
        assert gamma_series_eval(model, 1e-6) == pytest.approx(1.0 - 1e-6, abs=1e-11)


# ---------------------------------------------------------------------------
# Convergence order of the truncated series
# ---------------------------------------------------------------------------

MODEL_FROM_S = [
    ("poisson", poisson_from_s),
    ("binomial6", lambda s: binomial_from_s(6, s)),
    ("negbinomial3", lambda s: negbinomial_from_s(3, s)),
    ("gp0.3", lambda s: gp_from_s(0.3, s)),
]


@pytest.mark.parametrize("name,ctor", MODEL_FROM_S, ids=[n for n, _ in MODEL_FROM_S])
def test_sinf_series_fourth_order(name, ctor):
    # |S_inf - series3| = O(s^4): halving s cuts the error by ~16.
    errors = []
    for s in (0.2, 0.1, 0.05, 0.025):
        model = ctor(s)
        exact = extinction_probability(model).s_inf
        errors.append(abs(exact - sinf_bounds_all(model, s).series3))
    for e_big, e_small in zip(errors, errors[1:]):
        assert e_small <= e_big / 8.0, errors


@pytest.mark.parametrize("name,ctor", MODEL_FROM_S, ids=[n for n, _ in MODEL_FROM_S])
def test_gamma_series_fourth_order(name, ctor):
    errors = []
    for s in (0.2, 0.1, 0.05, 0.025):
        model = ctor(s)
        exact = extinction_probability(model).gamma
        errors.append(abs(exact - gamma_series_eval(model, s)))
    for e_big, e_small in zip(errors, errors[1:]):
        assert e_small <= e_big / 8.0, errors


def series3_of(model, s):
    """The third-order series value theta*s - delta2*s^2 + delta3*s^3."""
    c = sinf_series(model.mu_table())
    return c.theta * s - c.delta2 * s ** 2 + c.delta3 * s ** 3


def test_series_eval_orders():
    model = poisson_from_s(0.1)
    s = 0.1
    c = sinf_series(model.mu_table())
    # The first- and second-order truncations of the Poisson series.
    assert c.theta * s == pytest.approx(2.0 * s)
    assert c.theta * s - c.delta2 * s * s == pytest.approx(2.0 * s - (8.0 / 3.0) * s * s)
    assert sinf_bounds_all(model, s).series3 == c.theta * s - c.delta2 * s ** 2 + c.delta3 * s ** 3


# ---------------------------------------------------------------------------
# Classical bounds
# ---------------------------------------------------------------------------

BOUND_MODELS = ([poisson_from_s(s) for s in (0.05, 0.1, 0.2, 0.3)]
                + [binomial_from_s(n, 0.2) for n in (3, 5, 10)]
                + [negbinomial_from_s(r, 0.2) for r in (2, 5)]
                + [gp_from_s(lam, 0.2) for lam in (0.0, 0.1, 0.2)])


def test_bound_ordering_grid():
    # beta <= quine_lower <= S_inf <= dn_upper and S_inf <= quine_upper.
    for model in BOUND_MODELS:
        exact = extinction_probability(model).s_inf
        beta = sinf_bounds_all(model, moments(model).m - 1.0).beta
        ql, qu = quine_bounds(model)
        dn = dn_upper(model)
        assert beta <= ql + 1e-13, model
        assert ql <= exact + 1e-12, model
        assert exact <= qu + 1e-12, model
        assert exact <= dn + 1e-12, model


def test_beta_poisson_closed_form():
    # beta = 2s/(1+s)^2 for the Poisson family.
    for s in (0.05, 0.2, 0.5):
        assert sinf_bounds_all(poisson_from_s(s), s).beta == pytest.approx(
            2.0 * s / (1.0 + s) ** 2, rel=1e-13)


def test_quine_not_applicable_for_overdispersed_gp():
    with pytest.raises(ApplicabilityError):
        quine_bounds(gp_from_s(0.9, 0.2))


def test_dn_not_applicable_for_overdispersed_gp():
    with pytest.raises(ApplicabilityError) as exc:
        dn_upper(gp_from_s(0.9, 0.2))
    err = exc.value
    assert "8c(m-1) < 3b^2" in str(err)


def test_applicability_error_carries_sides():
    with pytest.raises(ApplicabilityError) as exc:
        dn_upper(gp_from_s(0.9, 0.2))
    assert exc.value.lhs > exc.value.rhs


def test_dn_upper_tighter_than_quine_upper_when_both_exist():
    for model in BOUND_MODELS:
        _, qu = quine_bounds(model)
        assert dn_upper(model) <= qu + 1e-12, model


# ---------------------------------------------------------------------------
# sinf_bounds_all
# ---------------------------------------------------------------------------

def test_sinf_bounds_all_consistent_with_ops():
    model = poisson_from_s(0.2)
    sb = sinf_bounds_all(model, 0.2)
    ql, qu = quine_bounds(model)
    mom = moments(model)
    assert sb.beta == pytest.approx(2.0 * (mom.m - 1.0) / mom.b, rel=1e-14)
    assert sb.quine_lower == pytest.approx(ql, rel=1e-14)
    assert sb.quine_upper == pytest.approx(qu, rel=1e-14)
    assert sb.dn_upper == pytest.approx(dn_upper(model), rel=1e-14)
    assert sb.series3 == pytest.approx(series3_of(model, 0.2), rel=1e-14)
    assert sb.haldane == pytest.approx(2.0 * 0.2, rel=1e-14)
    assert sb.exact == pytest.approx(extinction_probability(model).s_inf, rel=1e-14)


def test_sinf_bounds_all_evaluates_quine_outside_hypothesis():
    # For strongly overdispersed GP the strict quine_bounds op raises, but the
    # formulas remain real-valued and are reported.
    sb = sinf_bounds_all(gp_from_s(0.9, 0.2), 0.2)
    assert sb.quine_lower == pytest.approx(0.00346, abs=5e-5)
    assert sb.dn_upper is None
    assert sb.exact == pytest.approx(0.00466, abs=5e-5)


@pytest.mark.parametrize("s", [0.05, 0.1, 0.3])
def test_sinf_bounds_all_binomial_n2_reports_dn_not_applicable(s):
    # phi'''(1) = 0 for n = 2: the Daley-Narayan bound has no value, but
    # every other entry does. beta is exact here: S_inf = (2p - 1)/p^2.
    model = binomial_from_s(2, s)
    for bound in (quine_bounds, dn_upper):
        with pytest.raises(ApplicabilityError) as exc:
            bound(model)
        assert (exc.value.condition, exc.value.lhs, exc.value.rhs) == ("phi'''(1) > 0", 0.0, 0.0)
    sb = sinf_bounds_all(model, s)
    assert sb.dn_upper is None
    assert sb.beta == pytest.approx(sb.exact, rel=1e-12)
    assert sb.quine_lower == sb.quine_upper == sb.beta
    assert sb.haldane == pytest.approx(4.0 * s, rel=1e-14)  # theta = 2n/(n-1)
    assert sb.series3 == pytest.approx(series3_of(model, s), rel=1e-15)


def test_sinf_bounds_all_fl_anchor():
    sb = sinf_bounds_all(fl_from_s(0.2, 0.2), 0.2)
    assert sb.exact == pytest.approx(0.8, rel=1e-12)
    assert sb.haldane == pytest.approx(0.8, rel=1e-12)
    assert sb.quine_lower == pytest.approx(0.7018, abs=1e-4)


# ---------------------------------------------------------------------------
# Series-based convergence-time and iterate approximations
# ---------------------------------------------------------------------------

def test_t_ser_tracks_exact_time():
    from gwbounds.fl_bounds import t_eps_exact
    for s in (0.05, 0.1):
        model = poisson_from_s(s)
        for eps in (0.1, 0.01):
            exact = t_eps_exact(model, eps)
            approx = t_ser(model, s, eps)
            assert abs(approx - exact) <= 2, (s, eps, exact, approx)


def test_t_simple_leading_order():
    assert t_simple(0.1, 0.01) == math.ceil(math.log(101.0) / 0.1)
    assert t_simple(0.3, 0.01) == 16
    with pytest.raises(DomainError):
        t_simple(0.0, 0.1)
    with pytest.raises(DomainError):  # it returned 0
        t_simple(math.inf, 0.1)


def test_t_ser_domain():
    with pytest.raises(DomainError):
        t_ser(poisson_from_s(0.1), -0.1, 0.01)
    with pytest.raises(DomainError):
        t_ser(poisson_from_s(0.1), 0.1, 0.0)
    with pytest.raises(DomainError):  # it returned -1
        t_ser(poisson_from_s(0.1), math.inf, 0.01)


@pytest.mark.parametrize("eps", [1e-320, 5e-324, 5e-309])
def test_series_times_raise_where_1_over_eps_overflows(eps):
    # Both raised OverflowError from ceil(inf).
    for call in (lambda: t_ser(poisson_from_s(0.5), 0.5, eps), lambda: t_simple(0.5, eps)):
        with pytest.raises(DomainError, match=rf"1/eps overflows, got eps={eps!r}"):
            call()
    assert t_simple(0.5, 1e-308) == math.ceil(math.log1p(1e308) / 0.5)


def test_t_ser_is_zero_where_the_series_value_is_not_positive():
    # Both returned -1: (1/s - 1/2 + gamma2) ln(1 + 1/eps) - theta < 0 at large s.
    from gwbounds.fl_bounds import t_eps_exact
    assert t_ser(poisson_from_s(3.0), 3.0, 0.5) == 0 == t_eps_exact(poisson_from_s(3.0), 0.5)
    assert t_ser(poisson_from_s(0.1), 1e308, 0.01) == 0


@pytest.mark.parametrize("s", [0.0, math.nan, math.inf])
def test_functions_of_s_require_a_finite_positive_s(s):
    # They returned numbers: at s = 0 gamma 1 and S_inf series 0, at nan
    # nan, at inf nan or inf.
    model = poisson_from_s(0.1)
    for call in (lambda: gamma_series_eval(model, s), lambda: pn_ratio_series(model, s, 5),
                 lambda: sinf_bounds_all(model, s)):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == f"s must be finite and > 0, got {s!r}"


def test_pn_ratio_series_small_sn():
    # Large-n approximation of P^(n)/P_inf: the error shrinks with n while
    # s*n stays small (at s = 0.01 it falls from ~0.03 at n=1 to ~1e-4 at 50).
    from gwbounds.pgf_core import iterate_extinction
    s = 0.01
    model = poisson_from_s(s)
    fp = extinction_probability(model)
    prev_err = math.inf
    for n in (1, 2, 5, 10, 20, 50):
        exact = iterate_extinction(model, n) / fp.p_inf
        err = abs(pn_ratio_series(model, s, n) - exact)
        assert err < prev_err
        prev_err = err
    assert err < 5e-4


def test_pn_ratio_series_limits():
    # n = 0 gives 0; large n approaches 1 at leading order.
    model = poisson_from_s(0.1)
    assert pn_ratio_series(model, 0.01, 0) == pytest.approx(0.0, abs=1e-15)
    assert pn_ratio_series(model, 1e-12, 10_000) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("n", [-1, 2.5, math.nan])
def test_pn_ratio_series_requires_a_generation_count(n):
    with pytest.raises(DomainError, match="must be an integer"):
        pn_ratio_series(poisson_from_s(0.1), 0.01, n)
