"""Bound-direction classification for the generalized Poisson family with
mean 1+s: critical values of the dispersion parameter lambda at which f(0),
f'(1), and f''(P_inf) change sign, where f = phi - phi_FL and phi_FL is the
matching fractional-linear pgf.  The resulting three-way classification is
conjectural in the switch region and is flagged as such.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConvergenceError, DomainError
from .fl_bounds import (
    LOWER_ON_S,
    SWITCHES,
    UPPER_ON_S,
    BoundDirection,
    matching_fl,
    switch_generation,
)
from .pgf_core import extinction_probability, gp_from_s, pgf_derivative, pgf_eval


@dataclass(frozen=True)
class GPThresholds:
    s: float
    lambda_c0: float        # f(0) changes sign (exact, by bisection)
    lambda_c1: float        # f'(1) = 1 + s - 1/gamma changes sign (exact)
    lambda_c2: float        # f''(P_inf) changes sign (exact, by bisection)
    lambda_c0_approx: float  # 0.25915 + 0.1997*s
    lambda_c1_approx: float  # (1 + 3*s/4)/4
    lambda_c2_approx: float  # 1/4 + 0.202*s


def _f0(s: float, lam: float) -> float:
    model = gp_from_s(lam, s)
    fl = matching_fl(extinction_probability(model))
    return pgf_eval(model, 0.0) - pgf_eval(fl, 0.0)


def _fprime1(s: float, lam: float) -> float:
    fp = extinction_probability(gp_from_s(lam, s))
    return 1.0 + s - 1.0 / fp.gamma


def _f2_pinf(s: float, lam: float) -> float:
    # f''(P_inf) = phi''(P_inf) - phi_FL''(P_inf), both in closed form.
    model = gp_from_s(lam, s)
    fp = extinction_probability(model)
    return pgf_derivative(model, fp.p_inf, 2) - pgf_derivative(matching_fl(fp), fp.p_inf, 2)


# The top of the s range. A law's s is read back as mu/(1 - lam) - 1 (by
# bound_direction), and mu = (1 + s)(1 - lam) and the quotient each round
# once, so gp_from_s(lam, 0.5) gives back up to 0.5 + 2^-52, two ulp above.
S_TOP = 0.5 + 2.0 ** -52

# The lambda bracket of every threshold's bisection, and the width it stops at.
BISECT_LO, BISECT_HI = 1e-6, 0.6
BISECT_TOL = 1e-10


def _bisect_root(fn, s: float) -> float:
    lo, hi = BISECT_LO, BISECT_HI
    flo, fhi = fn(s, lo), fn(s, hi)
    if flo * fhi > 0.0:
        raise ConvergenceError(f"no sign change in [{lo}, {hi}] for s={s!r}")
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if flo * fn(s, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def gp_thresholds(s: float) -> GPThresholds:
    """Exact critical lambdas (by bisection) together with the small-s
    approximations.  Valid for 0 < s <= 0.5, up to S_TOP."""
    if not 0.0 < s <= S_TOP:
        raise DomainError(f"require 0 < s <= 0.5, got {s!r}")
    return GPThresholds(
        s=s,
        lambda_c0=_bisect_root(_f0, s),
        lambda_c1=_bisect_root(_fprime1, s),
        lambda_c2=_bisect_root(_f2_pinf, s),
        lambda_c0_approx=0.25915 + 0.1997 * s,
        lambda_c1_approx=0.25 * (1.0 + 0.75 * s),
        lambda_c2_approx=0.25 + 0.202 * s,
    )


def classify_gp(s: float, lam: float) -> BoundDirection:
    """Direction of the fractional-linear survival bound for the generalized
    Poisson family: upper bound on S^(n) for lam < lam_c2, lower bound for
    lam > lam_c0, and a single switch (upper for small n, lower for large n)
    in between.  The classification is conjectural and flagged accordingly,
    except lam = 0 (Poisson), which is proven."""
    if not 0.0 <= lam < 1.0:
        raise DomainError(f"require 0 <= lam < 1, got {lam!r}")
    if lam == 0.0:
        return BoundDirection(UPPER_ON_S, conjectured=False)
    th = gp_thresholds(s)
    if lam < th.lambda_c2:
        return BoundDirection(UPPER_ON_S, conjectured=True)
    if lam > th.lambda_c0:
        return BoundDirection(LOWER_ON_S, conjectured=True)
    n_star = switch_generation(gp_from_s(lam, s))
    return BoundDirection(SWITCHES, switch_n=n_star, conjectured=True)

