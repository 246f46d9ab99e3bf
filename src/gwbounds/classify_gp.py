"""The lambdas at which f(0), f'(1) and f''(P_inf) change sign for the
generalized Poisson family at mean 1+s (f = phi - phi_FL, phi_FL the matching
fractional-linear pgf), for the `gwb classify gp` report. The sign rule that
decides a GP law's direction from its own f is in fl_bounds.bound_direction."""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError
from .pgf_core import Record


class GPThresholds(Record):
    s: float
    lambda_c0: float        # f(0) changes sign (exact, by bisection)
    lambda_c1: float        # f'(1) = 1 + s - 1/gamma changes sign (exact)
    lambda_c2: float        # f''(P_inf) changes sign (exact, by bisection)
    lambda_c0_approx: float  # 0.25915 + 0.1997*s
    lambda_c1_approx: float  # (1 + 3*s/4)/4
    lambda_c2_approx: float  # 1/4 + 0.202*s


# Below this |x|, e2 sums its Taylor series, to x^11/11!: the first term left
# out is under 2^-53 of the sum. Above it expm1(x) - x loses at most a factor
# 2/|x| = 20 of its relative precision.
_E2_SERIES = 0.1
_E2_COEFFS = tuple(1.0 / math.factorial(k) for k in range(11, 1, -1))


def _e2(x: float) -> float:
    """expm1(x) - x, without the cancellation at small |x|."""
    if abs(x) < _E2_SERIES:
        acc = 0.0
        for c in _E2_COEFFS:
            acc = acc * x + c
        return acc * x * x
    return math.expm1(x) - x


def _fixed_point(lam: float, s: float) -> tuple:
    """(mu, P_inf, S_inf, 1 - gamma, t, 1 - lam*t) of the GP law of mean 1 + s,
    mu = (1 + s)(1 - lam), in survival space, where nothing cancels.

    This is a second method for the GP fixed point, beside
    extinction_probability's root solve of phi(x) = x through Lambert W; it
    moves behind GeneralizedPoisson.closed_s_inf when every family's fixed
    point is solved in survival space (ROADMAP item 2b). At P_inf, t = t(P_inf)
    solves t = exp(-a(1 - t)) with a = mu + lam, a - 1 = s(1 - lam): u = 1 - t
    is the Poisson(a) survival root, the positive root of the convex
    F(u) = e2(-au) - (a - 1)u. Newton starts from Haldane's 2(a - 1)/a^2, left
    of the root as F''' < 0; its first step lands right of it, and from there
    the steps fall, so it stops at the first step that does not. Then
    P_inf = exp(-mu u), S_inf = -expm1(-mu u), gamma = phi'(P_inf) =
    mu t/(1 - lam t) and 1 - gamma = (au - (a - 1))/(1 - lam + lam u)."""
    am1 = s * (1.0 - lam)
    a = 1.0 + am1

    def newton(u):
        x = -a * u
        return u - (_e2(x) - am1 * u) / (-a * math.expm1(x) - am1)

    u = newton(2.0 * am1 / (a * a))
    while (v := newton(u)) < u:
        u = v
    mu = (1.0 + s) * (1.0 - lam)
    d = (1.0 - lam) + lam * u
    return mu, math.exp(-mu * u), -math.expm1(-mu * u), (a * u - am1) / d, 1.0 - u, d


# The three functionals in complement forms, from the matching FL law's
# pi = g/E and rho = P_inf pi, with g = 1 - gamma and E = 1 - P_inf gamma =
# S_inf + P_inf g: 1 - pi = gamma S_inf/E and 1 - rho = S_inf/E, so
# phi_FL''(P_inf) = 2 pi (1 - pi)(1 - rho)/(1 - pi P_inf)^3 = 2 gamma g/S_inf,
# and phi_FL'(1) = 1/gamma.

def _f_at_0(lam: float, s: float) -> float:
    """f(0) = phi(0) - phi_FL(0) = exp(-mu) - rho."""
    mu, p, s_inf, g, _, _ = _fixed_point(lam, s)
    return math.exp(-mu) - p * g / (s_inf + p * g)


def _fprime_at_1(lam: float, s: float) -> float:
    """f'(1) = 1 + s - 1/gamma = s - g/gamma."""
    _, _, _, g, _, _ = _fixed_point(lam, s)
    return s - g / (1.0 - g)


def _f2_at_p_inf(lam: float, s: float) -> float:
    """f''(P_inf) = phi''(P_inf) - 2 gamma g/S_inf, where, with D = 1 - lam t,
    phi''(P_inf) = mu t^2 (mu D + lam (1 + D))/(P_inf D^3) (t' = t/(x D) and
    t'' = lam t^2 (1 + D)/(x^2 D^3) at x = P_inf)."""
    mu, p, s_inf, g, t, d = _fixed_point(lam, s)
    return (mu * t * t * (mu * d + lam * (1.0 + d)) / (p * d * d * d)
            - 2.0 * (1.0 - g) * g / s_inf)


# The lambda bracket of every threshold's bisection, and the width it stops at.
BISECT_LO, BISECT_HI, BISECT_TOL = 1e-6, 0.6, 1e-10
# The least s taken. f'(1) and f''(P_inf) change sign at O(s^2) and O(s) out
# of terms of size s and 1, so rounding moves lambda_c1 and lambda_c2 by a few
# 2^-53/s: 3.3e-8 and 1.9e-8 at s = 1e-8, 1.6e-6 at 1e-10.
MIN_S = 1e-8


def _bisect_root(functional, s: float) -> float:
    lo, hi = BISECT_LO, BISECT_HI
    flo, fhi = functional(lo, s), functional(hi, s)
    if flo * fhi > 0.0:
        raise ConvergenceError(f"no sign change in [{lo}, {hi}] for s={s!r}")
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if flo * functional(mid, s) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def gp_thresholds(s: float) -> GPThresholds:
    """Critical lambdas by bisection, and their small-s approximations."""
    if not MIN_S <= s <= 0.5:
        raise DomainError(f"require {MIN_S} <= s <= 0.5, got {s!r}")
    return GPThresholds(
        s=s,
        lambda_c0=_bisect_root(_f_at_0, s),
        lambda_c1=_bisect_root(_fprime_at_1, s),
        lambda_c2=_bisect_root(_f2_at_p_inf, s),
        lambda_c0_approx=0.25915 + 0.1997 * s,
        lambda_c1_approx=0.25 * (1.0 + 0.75 * s),
        lambda_c2_approx=0.25 + 0.202 * s,
    )
