"""Complete bound-direction classification for offspring distributions
supported on {0,1,2,3}: thresholds in p0 separating the parameter region where
the matching fractional-linear iterates bound the extinction probability from
below for all n, from above for all n, or switch sides once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import DomainError
from .fl_bounds import (
    LOWER_ON_S,
    SWITCHES,
    UPPER_ON_S,
    BoundDirection,
    switch_generation,
)
from .pgf_core import FiniteThree, f3_p_inf

LOWER_BOUND_ON_P = "LowerBoundOnP"    # FL iterates <= P^(n): upper bound on survival
UPPER_BOUND_ON_P = "UpperBoundOnP"    # FL iterates >= P^(n): lower bound on survival
SWITCHES_REGION = "Switches"          # above for small n, below for large n


@dataclass(frozen=True)
class F3Thresholds:
    p0_plus: float     # sign change of f''(P_inf)
    p0_r: float        # solution of p0 = rho (sign of f(0))
    p0_gamma: float    # solution of gamma*m = 1 (sign of f'(1))
    p0_plus_admissible: bool   # p0_plus > 0, i.e. p2 < sqrt(p3) - p3
    p0_r_admissible: bool      # p0_r in (0, p2+2*p3)
    p0_gamma_admissible: bool  # p0_gamma in (0, p2+2*p3)


@dataclass(frozen=True)
class F3Class:
    region: str                       # one of the three region constants
    case_label: str                   # "1", "2", "3i", "3ii", "3iii", "4", "5"
    thresholds: F3Thresholds
    sign_profile: Tuple[int, int, int]  # sign of f at x = 0, P_inf/2, (P_inf+1)/2


def _p0_r_gamma(p2, p3, sqrt=math.sqrt):
    """(p0_r, p0_gamma) for floats, or elementwise for numpy arrays with
    sqrt=np.sqrt."""
    q = p2 + p3
    p0_r = 0.5 - (q / (8.0 * p3)) * (q + sqrt(8.0 * p3 + q * q))
    t = p2 + 3.0 * p3
    p0_gamma = 0.5 - (1.0 / (8.0 * p3)) * (
        2.0 * q * q + t * sqrt(8.0 * p3 + t * t) - t * t)
    return p0_r, p0_gamma


def thresholds_f3(p2: float, p3: float) -> F3Thresholds:
    if not (p2 >= 0.0 and p3 > 0.0 and p2 + p3 < 1.0):
        raise DomainError(f"require p2 >= 0, p3 > 0, p2 + p3 < 1, got ({p2}, {p3})")
    q = p2 + p3
    p0_plus = (p3 - q * q) / (4.0 * p3)
    p0_r, p0_gamma = _p0_r_gamma(p2, p3)
    return F3Thresholds(
        p0_plus=p0_plus,
        p0_r=p0_r,
        p0_gamma=p0_gamma,
        p0_plus_admissible=p2 < math.sqrt(p3) - p3,
        p0_r_admissible=0.0 < p0_r < p2 + 2.0 * p3,
        p0_gamma_admissible=0.0 < p0_gamma < p2 + 2.0 * p3,
    )


def f3_f_value(p0: float, p2: float, p3: float, x: float) -> float:
    """f(x) = phi(x) - phi_FL(x) in factorized form, robust at the double
    root x = P_inf:

        f(x) = (1-x)(P_inf-x)^2 * (-p3 + c*(p2+p3+p3*P_inf+p3*x)) / (1 + c*(P_inf-x)),

    with c = p2 + p3 + 2*p3*P_inf.
    """
    p_inf = f3_p_inf(p0, p2, p3)
    c = p2 + p3 + 2.0 * p3 * p_inf
    num = -p3 + c * (p2 + p3 + p3 * p_inf + p3 * x)
    return (1.0 - x) * (p_inf - x) ** 2 * num / (1.0 + c * (p_inf - x))


# |f| below which a probe of sign_profile reads no sign.
SIGN_TOL = 1e-14


def _sign(v: float) -> int:
    if v > SIGN_TOL:
        return 1
    if v < -SIGN_TOL:
        return -1
    return 0


def classify_f3(model: FiniteThree) -> F3Class:
    """Region and case label of an F3 law with p3 > 0.

    Boundary ties: p0 == p0_r belongs to LowerBoundOnP (the bound still holds
    with equality at x = 0); p0 == p0_gamma belongs to UpperBoundOnP.
    """
    p0, p2, p3 = model.p0, model.p2, model.p3
    th = thresholds_f3(p2, p3)
    if p0 > th.p0_r:
        region, label = LOWER_BOUND_ON_P, "1"
    elif p0 == th.p0_r:
        region, label = LOWER_BOUND_ON_P, "2"
    elif p0 > th.p0_gamma:
        region = SWITCHES_REGION
        if p0 > th.p0_plus:
            label = "3i"
        elif p0 == th.p0_plus:
            label = "3ii"
        else:
            label = "3iii"
    elif p0 == th.p0_gamma:
        region, label = UPPER_BOUND_ON_P, "4"
    else:
        region, label = UPPER_BOUND_ON_P, "5"
    p_inf = f3_p_inf(p0, p2, p3)
    probes = (0.0, p_inf / 2.0, (p_inf + 1.0) / 2.0)
    return F3Class(
        region=region,
        case_label=label,
        thresholds=th,
        sign_profile=tuple(_sign(f3_f_value(p0, p2, p3, x)) for x in probes),
    )


def f3_bound_direction(model: FiniteThree) -> BoundDirection:
    """bound_direction for an F3 law: the direction its region gives. A law
    with p3 = 0 is always in LowerBoundOnP:
    f(x) = (1-x)(p0 - p2*x)^2 / (1 + p0 - p2*x) >= 0.

    In the Switches region switch_n is the first generation at which the FL
    iterates fall below P^(n), or None where they never do within
    SWITCH_N_MAX generations (most of case 3iii and some of 3i)."""
    region = LOWER_BOUND_ON_P if model.p3 == 0.0 else classify_f3(model).region
    if region == LOWER_BOUND_ON_P:
        return BoundDirection(UPPER_ON_S)
    if region == UPPER_BOUND_ON_P:
        return BoundDirection(LOWER_ON_S)
    return BoundDirection(SWITCHES, switch_n=switch_generation(model))


def f3_region_volumes(n_samples: int = 1_000_000, seed: int = 0) -> Tuple[float, float, float]:
    """Monte-Carlo fractions of the admissible region occupied by the three
    classes, in the order (LowerBoundOnP, Switches, UpperBoundOnP).

    Reference values at large n_samples: approximately (0.866, 0.102, 0.032).
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples!r}")
    import numpy as np  # here only: numpy takes ~0.15 s to import

    rng = np.random.default_rng(seed)
    p0 = rng.random(n_samples)
    p2 = rng.random(n_samples)
    p3 = rng.random(n_samples)
    in_region = (p0 > 0) & (p3 > 0) & (p0 + p2 + p3 <= 1.0) & (p0 < p2 + 2.0 * p3)
    p0, p2, p3 = p0[in_region], p2[in_region], p3[in_region]
    p0_r, p0_gamma = _p0_r_gamma(p2, p3, np.sqrt)
    total = p0.size
    if total == 0:
        raise DomainError("no samples fell in the admissible region")
    lower = np.count_nonzero(p0 >= p0_r)
    upper = np.count_nonzero(p0 <= p0_gamma)
    return (lower / total, (total - lower - upper) / total, upper / total)
