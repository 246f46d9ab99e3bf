"""Bounds and small-s series expansions for the eventual survival probability
S_inf of a slightly supercritical process with mean m = 1 + s: the simple
moment bound beta, Quine's two-sided bounds, the Daley-Narayan upper bound,
the generalized Haldane approximation theta*s, and the expansions of S_inf and
of the convergence rate gamma up to third order in s.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .errors import (ApplicabilityError, DomainError, require_count, require_invertible,
                     require_positive)
from .pgf_core import (
    Moments,
    MuDerivatives,
    OffspringModel,
    Record,
    extinction_probability,
    moments,
    pgf_derivative,
)


class SinfBounds(Record):
    """All bounds/approximations of S_inf for one model at its current s."""
    beta: float
    quine_lower: Optional[float]
    quine_upper: Optional[float]
    dn_upper: Optional[float]
    series3: Optional[float]
    haldane: Optional[float]
    exact: float


class SeriesCoeffs(Record):
    theta: float
    delta2: float
    delta3: float
    gamma2: float
    gamma3: float


def sinf_series(mu: MuDerivatives) -> SeriesCoeffs:
    """Coefficients of S_inf = theta*s - delta2*s^2 + delta3*s^3 + O(s^4) and
    gamma = 1 - s + gamma2*s^2 - gamma3*s^3 + O(s^4)."""
    m2, m21, m22, m3, m31, m4 = (mu.mu20, mu.mu21, mu.mu22, mu.mu30, mu.mu31, mu.mu40)
    theta = 2.0 / m2
    delta2 = (6.0 * m2 * m21 - 4.0 * m3) / (3.0 * m2 ** 3)
    delta3 = (18.0 * m2 ** 2 * m21 ** 2 - 9.0 * m2 ** 3 * m22 + 16.0 * m3 ** 2
              - 36.0 * m2 * m21 * m3 + 12.0 * m2 ** 2 * m31 - 6.0 * m2 * m4) / (9.0 * m2 ** 5)
    gamma2 = 2.0 * m3 / (3.0 * m2 ** 2)
    # gamma3 from composing gamma(s) = phi^(1,0)(1 - S(s); s) with the S_inf
    # series; the closed combination below reproduces the per-family values.
    gamma3 = (theta * m22 / 2.0 - delta2 * m21 + delta3 * m2
              - theta ** 2 * m31 / 2.0 + theta * delta2 * m3 + theta ** 3 * m4 / 6.0)
    return SeriesCoeffs(theta=theta, delta2=delta2, delta3=delta3,
                        gamma2=gamma2, gamma3=gamma3)


# The series functions below take a model of the s-family whose coefficients
# they use; a model without a mu table raises DomainError.

def gamma_series_eval(model: OffspringModel, s: float) -> float:
    """Third-order series value of gamma: 1 - s + gamma2*s^2 - gamma3*s^3."""
    require_positive("s", s)
    c = sinf_series(model.mu_table())
    return 1.0 - s + c.gamma2 * s ** 2 - c.gamma3 * s ** 3


# ---------------------------------------------------------------------------
# Classical bounds on S_inf
# ---------------------------------------------------------------------------

def _beta(mom: Moments) -> float:
    """beta = 2(m-1)/phi''(1), a simple lower bound for small s."""
    # phi''(1) > 0 for every admissible law (F3: p0 + p1 < 1).
    return 2.0 * (mom.m - 1.0) / mom.b


def quine_bounds(model: OffspringModel) -> Tuple[float, float]:
    """Quine's two-sided bounds (lower, upper) on S_inf; requires
    phi'''(1) > 0 and 2*beta < min(1, 3b/(2c))."""
    mom = moments(model)
    if not mom.c > 0.0:
        raise ApplicabilityError("phi'''(1) > 0", mom.c, 0.0)
    beta = _beta(mom)
    limit = min(1.0, 3.0 * mom.b / (2.0 * mom.c))
    if not 2.0 * beta < limit:
        raise ApplicabilityError("2*beta < min(1, 3b/(2c))", 2.0 * beta, limit)
    return _quine_pair(model, mom, beta)


def _quine_pair(model: OffspringModel, mom: Moments, beta: float):
    """Quine's (lower, upper) expressions, upper None where it is not real."""
    lower = beta + beta ** 2 * pgf_derivative(model, 1.0 - 2.0 * beta, 3) / (3.0 * mom.b)
    radicand = 1.0 - 4.0 * mom.c * beta / (3.0 * mom.b)
    if not radicand > 0.0:
        return lower, None
    return lower, beta + beta ** 2 * (mom.c / (3.0 * mom.b)) * radicand ** -1.5


def dn_upper(model: OffspringModel) -> float:
    """The Daley-Narayan upper bound on S_inf; requires phi'''(1) > 0 and
    8c(m-1) < 3b^2."""
    return _dn_upper(moments(model))


def _dn_upper(mom: Moments) -> float:
    b, c, m = mom.b, mom.c, mom.m
    if not c > 0.0:
        raise ApplicabilityError("phi'''(1) > 0", c, 0.0)
    if not 8.0 * c * (m - 1.0) < 3.0 * b * b:
        raise ApplicabilityError("8c(m-1) < 3b^2", 8.0 * c * (m - 1.0), 3.0 * b * b)
    return (3.0 * b - 3.0 * math.sqrt(b * b - (8.0 / 3.0) * c * (m - 1.0))) / (2.0 * c)


# ---------------------------------------------------------------------------
# Series-based approximations for convergence times and P^(n)
# ---------------------------------------------------------------------------

def t_ser(model: OffspringModel, s: float, eps: float) -> int:
    """Series approximation of the convergence time:
    ceil((1/s - 1/2 + gamma2) * ln(1 + 1/eps) - theta), and T(eps) = 0
    wherever that series value is <= 0 (large s), as t_eps_fl clamps."""
    require_positive("s", s)
    require_invertible("eps", eps)
    c = sinf_series(model.mu_table())
    return max(0, math.ceil((1.0 / s - 0.5 + c.gamma2) * math.log1p(1.0 / eps) - c.theta))


def t_simple(s: float, eps: float) -> int:
    """Leading-order approximation ceil(ln(1 + 1/eps)/s)."""
    require_positive("s", s)
    require_invertible("eps", eps)
    return math.ceil(math.log1p(1.0 / eps) / s)


def pn_ratio_series(model: OffspringModel, s: float, n: int) -> float:
    """First-order approximation of P^(n)/P_inf, accurate when s*n < 1:
    1 - theta/(n + theta) + n*(theta*(n+1) + 2*delta2 - 2*theta*gamma2)
    / (2*(n + theta)^2) * s."""
    require_positive("s", s)
    require_count("n", n)
    c = sinf_series(model.mu_table())
    th = c.theta
    lead = 1.0 - th / (n + th)
    corr = n * (th * (n + 1.0) + 2.0 * c.delta2 - 2.0 * th * c.gamma2) \
        / (2.0 * (n + th) ** 2)
    return lead + corr * s


def sinf_bounds_all(model: OffspringModel, s: float) -> SinfBounds:
    """Every bound/approximation of S_inf for one model whose mean is 1 + s.

    quine_lower and quine_upper are evaluated whenever the expressions are
    real-valued (the guaranteed-bound condition of quine_bounds may fail);
    dn_upper is None when phi'''(1) <= 0 or its applicability condition
    fails; series3 and haldane are None when the model has no s-family
    (three-offspring models), as they need its mu table."""
    require_positive("s", s)
    mom = moments(model)
    try:
        coeffs = sinf_series(model.mu_table())
    except DomainError:
        series3 = haldane = None
    else:
        series3 = coeffs.theta * s - coeffs.delta2 * s ** 2 + coeffs.delta3 * s ** 3
        haldane = coeffs.theta * s
    beta = _beta(mom)
    ql, qu = _quine_pair(model, mom, beta)
    try:
        dn = _dn_upper(mom)
    except ApplicabilityError:
        dn = None
    return SinfBounds(
        beta=beta,
        quine_lower=ql,
        quine_upper=qu,
        dn_upper=dn,
        series3=series3,
        haldane=haldane,
        exact=extinction_probability(model).s_inf,
    )
