"""The lambdas at which f(0), f'(1) and f''(P_inf) change sign for the
generalized Poisson family at mean 1+s (f = phi - phi_FL, phi_FL the matching
fractional-linear pgf), for the `gwb classify gp` report, by bisection on the
survival-space functionals of fl_bounds whose signs decide bound_direction."""

from __future__ import annotations

from .errors import ConvergenceError, DomainError
from .fl_bounds import MIN_S, _f2_at_p_inf, _f_at_0, _fixed_point, _fprime_at_1
from .pgf_core import Record


class GPThresholds(Record):
    s: float
    lambda_c0: float        # f(0) changes sign (exact, by bisection)
    lambda_c1: float        # f'(1) = 1 + s - 1/gamma changes sign (exact)
    lambda_c2: float        # f''(P_inf) changes sign (exact, by bisection)
    lambda_c0_approx: float  # 0.25915 + 0.1997*s
    lambda_c1_approx: float  # (1 + 3*s/4)/4
    lambda_c2_approx: float  # 1/4 + 0.202*s


# The lambda bracket of every threshold's bisection, and the width it stops at.
BISECT_LO, BISECT_HI, BISECT_TOL = 1e-6, 0.6, 1e-10


def _bisect_root(functional, s: float) -> float:
    lo, hi = BISECT_LO, BISECT_HI
    flo, fhi = functional(_fixed_point(lo, s)), functional(_fixed_point(hi, s))
    if flo * fhi > 0.0:
        raise ConvergenceError(f"no sign change in [{lo}, {hi}] for s={s!r}")
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if flo * functional(_fixed_point(mid, s)) <= 0.0:
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
