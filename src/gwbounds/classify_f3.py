"""Complete bound-direction classification for offspring distributions
supported on {0,1,2,3}: thresholds in p0 separating the parameter region where
the matching fractional-linear iterates bound the extinction probability from
below for all n, from above for all n, or switch sides once.
fl_bounds.bound_direction maps each region to a direction.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .errors import DomainError
from .pgf_core import FiniteThree, Record, f3_p_inf

LOWER_BOUND_ON_P = "LowerBoundOnP"    # FL iterates <= P^(n): upper bound on survival
UPPER_BOUND_ON_P = "UpperBoundOnP"    # FL iterates >= P^(n): lower bound on survival
SWITCHES_REGION = "Switches"          # above for small n, below for large n


class F3Thresholds(Record):
    p0_plus: float     # sign change of f''(P_inf)
    p0_r: float        # solution of p0 = rho (sign of f(0))
    p0_gamma: float    # solution of gamma*m = 1 (sign of f'(1))
    p0_plus_admissible: bool   # p0_plus > 0, i.e. p2 < sqrt(p3) - p3
    p0_r_admissible: bool      # p0_r in (0, p2+2*p3)
    p0_gamma_admissible: bool  # p0_gamma in (0, p2+2*p3)


class F3Class(Record):
    region: str                       # one of the three region constants
    case_label: str                   # "1", "2", "3i", "3ii", "3iii", "4", "5"
    thresholds: Optional[F3Thresholds]  # None where p3 = 0
    sign_profile: Tuple[int, int, int]  # sign of f at x = 0, P_inf/2, (P_inf+1)/2


def _p0_r_gamma(p2, p3):
    q = p2 + p3
    p0_r = 0.5 - (q / (8.0 * p3)) * (q + math.sqrt(8.0 * p3 + q * q))
    t = p2 + 3.0 * p3
    p0_gamma = 0.5 - (1.0 / (8.0 * p3)) * (
        2.0 * q * q + t * math.sqrt(8.0 * p3 + t * t) - t * t)
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
    """Region and case label of an F3 law.

    Boundary ties: p0 == p0_r belongs to LowerBoundOnP (the bound still holds
    with equality at x = 0); p0 == p0_gamma belongs to UpperBoundOnP.

    A law with p3 = 0 has no thresholds: as p3 -> 0+ they all go to -inf, so
    it is in case 1 of LowerBoundOnP, as f(x) = (1-x)(p0 - p2*x)^2 / (1 + p0 - p2*x)
    >= 0 shows directly.
    """
    p0, p2, p3 = model.p0, model.p2, model.p3
    th = thresholds_f3(p2, p3) if p3 > 0.0 else None
    if th is None or p0 > th.p0_r:
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


def _gauss_legendre(n: int):
    """(node, weight) pairs of the n-point Gauss-Legendre rule on [-1, 1]."""
    rule = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(6):  # Newton's method on the Legendre recurrence
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            x -= p / dp
        rule.append((x, 2.0 / ((1.0 - x * x) * dp * dp)))
    return rule


def f3_region_volumes() -> Tuple[float, float, float]:
    """Exact shares of the admissible region (0 < p0 < p2 + 2*p3, p3 > 0,
    p0 + p2 + p3 <= 1; volume 5/36) in (LowerBoundOnP, Switches, UpperBoundOnP).
    With p3 = v^2 and p2 + p3 = u*v, p0 < top = min(1 - u*v, u*v + v^2), p0_r
    depends on u alone and is <= 0 for u >= 1, and a threshold's volume is the
    integral of 2v^2 * clamp(threshold, 0, top) over 0 < v < u < 1."""
    rule = _gauss_legendre(8)  # within 1e-15 of 24 nodes

    def gauss(f, a, b):
        h, c = (b - a) / 2.0, (b + a) / 2.0
        return h * sum(w * f(c + h * x) for x, w in rule)

    # Below v, clamp = top = u*v + v^2, and u*v^4/2 + 2v^5/5 integrates it.
    def not_lower(u):  # p0_r stays below 1 - u*v and meets u*v + v^2 at v
        r = _p0_r_gamma(0.0, u * u)[0]
        v = min((math.sqrt(u * u + 4.0 * r) - u) / 2.0, u)
        return u * v ** 4 / 2.0 + 0.4 * v ** 5 + 2.0 * r * (u ** 3 - v ** 3) / 3.0

    def upper(u):  # p0_gamma >= u*v + v^2 for v < a, and 0 < p0_gamma < top for a < v < b
        a, b = min((1.0 - u) / 2.0, u), min((1.0 - u * u) / u, u)
        return u * a ** 4 / 2.0 + 0.4 * a ** 5 + gauss(
            lambda v: 2.0 * v * v * _p0_r_gamma(u * v - v * v, v * v)[1], a, b)

    cuts = (0.0, 1.0 / 3.0, math.sqrt(1.0 / 6.0), math.sqrt(0.5), 1.0)  # a, v or b reach u
    out, up = (sum(gauss(f, lo, hi) for lo, hi in zip(cuts, cuts[1:])) for f in (not_lower, upper))
    total = 5.0 / 36.0
    return ((total - out) / total, (out - up) / total, up / total)
