"""Bound-direction classification for the generalized Poisson family from the
signs of f = phi - phi_FL on the law itself (phi_FL: the matching fractional-
linear pgf), conjectural except at lambda = 0, and the lambdas at which f(0),
f'(1) and f''(P_inf) change sign at mean 1+s."""

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
from .pgf_core import (
    GeneralizedPoisson,
    extinction_probability,
    gp_from_s,
    pgf_derivative,
    pgf_eval,
)


@dataclass(frozen=True)
class GPThresholds:
    s: float
    lambda_c0: float        # f(0) changes sign (exact, by bisection)
    lambda_c1: float        # f'(1) = 1 + s - 1/gamma changes sign (exact)
    lambda_c2: float        # f''(P_inf) changes sign (exact, by bisection)
    lambda_c0_approx: float  # 0.25915 + 0.1997*s
    lambda_c1_approx: float  # (1 + 3*s/4)/4
    lambda_c2_approx: float  # 1/4 + 0.202*s


# The functionals of f, each of a law, its fixed point and its matching FL law.

def _f0(model, fp, fl) -> float:
    return pgf_eval(model, 0.0) - pgf_eval(fl, 0.0)


def _fprime1(model, fp, fl) -> float:
    return pgf_derivative(model, 1.0, 1) - 1.0 / fp.gamma  # phi_FL'(1) = 1/gamma


def _f2_pinf(model, fp, fl) -> float:
    return pgf_derivative(model, fp.p_inf, 2) - pgf_derivative(fl, fp.p_inf, 2)


# The lambda bracket of every threshold's bisection, and the width it stops at.
BISECT_LO, BISECT_HI, BISECT_TOL = 1e-6, 0.6, 1e-10


def _bisect_root(functional, s: float) -> float:
    def fn(lam):
        model = gp_from_s(lam, s)
        fp = extinction_probability(model)
        return functional(model, fp, matching_fl(fp))

    lo, hi = BISECT_LO, BISECT_HI
    flo, fhi = fn(lo), fn(hi)
    if flo * fhi > 0.0:
        raise ConvergenceError(f"no sign change in [{lo}, {hi}] for s={s!r}")
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def gp_thresholds(s: float) -> GPThresholds:
    """Critical lambdas by bisection, and their small-s approximations."""
    if not 0.0 < s <= 0.5:
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


def classify_gp(model: GeneralizedPoisson) -> BoundDirection:
    """Direction of the fractional-linear survival bound for a generalized
    Poisson law: UpperOnS where f''(P_inf) > 0, else LowerOnS where f(0) < 0,
    else SwitchesAt. Conjectured, except at lam = 0 (Poisson), which is proven."""
    if model.lam == 0.0:
        return BoundDirection(UPPER_ON_S, conjectured=False)
    # s <= 0.5, by the float expression gp_from_s(lam, 0.5) evaluates.
    if not model.mu <= 1.5 * (1.0 - model.lam):
        raise DomainError(f"require s <= 0.5, i.e. mu <= 1.5 (1 - lam), got {model!r}")
    fp = extinction_probability(model)
    fl = matching_fl(fp)
    if _f2_pinf(model, fp, fl) > 0.0:
        return BoundDirection(UPPER_ON_S, conjectured=True)
    if _f0(model, fp, fl) < 0.0:
        return BoundDirection(LOWER_ON_S, conjectured=True)
    return BoundDirection(SWITCHES, switch_n=switch_generation(model), conjectured=True)
