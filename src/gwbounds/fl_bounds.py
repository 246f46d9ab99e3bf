"""Fractional-linear closed forms and the per-generation survival bounds built
from them: the matching fractional-linear construction, the geometric-rate
bound, the simple concavity bound, Pollak's bound, Agresti's bound for the
Poisson family, convergence times T(eps), and bound-direction classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConvergenceError, DomainError, InconsistencyError
from .pgf_core import (
    FixedPoint,
    FractionalLinear,
    OffspringModel,
    Poisson,
    extinction_probability,
    iterate_extinction,
    max_iterations,
    pgf_derivative,
    pgf_eval,
)

UPPER_ON_S = "UpperOnS"
LOWER_ON_S = "LowerOnS"
SWITCHES = "SwitchesAt"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class BoundDirection:
    kind: str                      # one of UPPER_ON_S, LOWER_ON_S, SWITCHES, UNDETERMINED
    switch_n: Optional[int] = None  # first generation on the asymptotic side, if kind == SWITCHES
    conjectured: bool = False       # True when the classification rests on a conjecture


@dataclass(frozen=True)
class BoundReport:
    n: int
    exact: float
    fl_bound: float
    simple_bound: float
    pollak_bound: float
    agresti_bound: Optional[float] = None


# ---------------------------------------------------------------------------
# Fractional-linear closed forms
# ---------------------------------------------------------------------------

def fl_iterate_params(fl: FractionalLinear, n: int) -> FractionalLinear:
    """Parameters (pi_n, rho_n) of the n-fold composition of the pgf."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    mn = fl.m ** (-n)
    denom = fl.pi - fl.rho * mn
    return FractionalLinear(pi=fl.pi * (1.0 - mn) / denom, rho=fl.rho * (1.0 - mn) / denom)


def fl_survival_by_n(fl: FractionalLinear, n: int) -> float:
    """S^(n) = S_inf / (1 - m^(-n) (1 - S_inf)) in closed form."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n!r}")
    s_inf = 1.0 - fl.p_inf
    return s_inf / (1.0 - fl.m ** (-n) * (1.0 - s_inf))


def matching_fl(fp: FixedPoint) -> FractionalLinear:
    """The unique fractional-linear pgf with the same fixed point and rate:
    pi = (1 - gamma)/(1 - P_inf*gamma), rho = P_inf*pi."""
    if not 0.0 < fp.p_inf < 1.0 or not 0.0 < fp.gamma < 1.0:
        raise DomainError(f"matching_fl requires P_inf, gamma in (0,1), got {fp!r}")
    pi = (1.0 - fp.gamma) / (1.0 - fp.p_inf * fp.gamma)
    return FractionalLinear(pi=pi, rho=fp.p_inf * pi)


# ---------------------------------------------------------------------------
# Per-generation bounds on S^(n)
# ---------------------------------------------------------------------------

def sn_fl_bound(model: OffspringModel, n: int, fp: Optional[FixedPoint] = None) -> float:
    """S_inf / (1 - gamma^n (1 - S_inf)); an upper bound on S^(n) when the
    matching fractional-linear pgf lies below phi on [0, P_inf]."""
    if fp is None:
        fp = extinction_probability(model)
    return fp.s_inf / (1.0 - fp.gamma ** n * (1.0 - fp.s_inf))


def sn_simple_bound(model: OffspringModel, n: int, fp: Optional[FixedPoint] = None) -> float:
    """Concavity bound S_inf + P_inf*gamma^n; looser than sn_fl_bound."""
    if fp is None:
        fp = extinction_probability(model)
    return fp.s_inf + fp.p_inf * fp.gamma ** n


def pollak_dbar(model: OffspringModel, n: int, fp: Optional[FixedPoint] = None) -> float:
    """Pollak's upper bound dbar^(n) for (P_inf - P^(n))/gamma^n."""
    if fp is None:
        fp = extinction_probability(model)
    b2 = pgf_derivative(model, fp.p_inf, 2)
    g = fp.gamma
    return (2.0 * (1.0 - g) * fp.p_inf
            / (2.0 * (1.0 - g) + b2 * fp.p_inf * (1.0 - g ** n) / g))


def sn_pollak_bound(model: OffspringModel, n: int, fp: Optional[FixedPoint] = None) -> float:
    """S_inf + dbar^(n) * gamma^n; upper bound on S^(n) for Poisson and for
    negative binomial with m > 1."""
    if fp is None:
        fp = extinction_probability(model)
    return fp.s_inf + pollak_dbar(model, n, fp) * fp.gamma ** n


def bound_report(model: OffspringModel, n: int) -> BoundReport:
    fp = extinction_probability(model)
    agresti = None
    if isinstance(model, Poisson):
        agresti = agresti_sn_bound(model.m, n, "lower")
    return BoundReport(
        n=n,
        exact=1.0 - iterate_extinction(model, n),
        fl_bound=sn_fl_bound(model, n, fp),
        simple_bound=sn_simple_bound(model, n, fp),
        pollak_bound=sn_pollak_bound(model, n, fp),
        agresti_bound=agresti,
    )


# ---------------------------------------------------------------------------
# Agresti's bound for the Poisson family
# ---------------------------------------------------------------------------

def _agresti_v(x: float, m: float, fp: FixedPoint) -> float:
    model = Poisson(m=m)
    u = pgf_eval(model, fp.p_inf * x) / fp.p_inf
    num = u - 1.0 + fp.gamma * (1.0 - x)
    den = x * u - x + fp.gamma * (1.0 - x)
    return num / den


def agresti_pi_poisson(m: float, direction: str) -> float:
    """pi = sup v (direction 'upper') or inf v (direction 'lower') of the
    auxiliary function v(x, m) over [0, 1)."""
    if direction not in ("upper", "lower"):
        raise DomainError(f"direction must be 'upper' or 'lower', got {direction!r}")
    if not m > 1.0:
        raise DomainError(f"m must be > 1, got {m!r}")
    fp = extinction_probability(Poisson(m=m))
    n_grid = 4096
    xs = [i / n_grid for i in range(n_grid)]  # [0, 1), endpoint excluded
    vals = [_agresti_v(x, m, fp) for x in xs]
    # v is strictly monotone decreasing for the Poisson family; flag anything else.
    for a, b in zip(vals, vals[1:]):
        if b > a + 1e-10:
            raise ConvergenceError("v(x, m) is not monotone decreasing; refusing to guess")
    if direction == "upper":
        return vals[0]
    # The infimum sits at x -> 1-: refine by golden-section on the last bracket.
    lo, hi = xs[-2], 1.0 - 1e-13
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = _agresti_v(c, m, fp), _agresti_v(d, m, fp)
    while b - a > 1e-12:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _agresti_v(c, m, fp)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _agresti_v(d, m, fp)
    return min(fc, fd, _agresti_v(hi, m, fp))


def agresti_sn_bound(m: float, n: int, direction: str) -> float:
    """S-bound at generation n from the Agresti fractional-linear bounding
    function with parameters (pi, rho = pi*P_inf).  The 'lower' direction
    (lower bound on P^(n)) yields an upper bound on S^(n)."""
    fp = extinction_probability(Poisson(m=m))
    pi = agresti_pi_poisson(m, direction)
    # The bounding function is not a pgf: it fixes P_inf with multiplier gamma
    # but does not fix 1.  As a Moebius map with curvature kappa it is
    #   F(x) = P_inf + gamma*(x - P_inf) / (1 - kappa*(x - P_inf)),
    # kappa = pi / (P_inf*(1 - pi)), and its n-fold iterate at 0 satisfies
    #   P_inf - F^(n)(0) = gamma^n / (1/P_inf + kappa*(1 - gamma^n)/(1 - gamma)).
    kappa = pi / (fp.p_inf * (1.0 - pi))
    g = fp.gamma
    gn = g ** n
    gap = gn / (1.0 / fp.p_inf + kappa * (1.0 - gn) / (1.0 - g))
    return fp.s_inf + gap


# ---------------------------------------------------------------------------
# Convergence times
# ---------------------------------------------------------------------------

def t_eps_exact(model: OffspringModel, eps: float) -> int:
    """Smallest n with S^(n) <= (1 + eps) * S_inf, by iteration."""
    if not eps > 0.0:
        raise DomainError(f"eps must be > 0, got {eps!r}")
    fp = extinction_probability(model)
    target = (1.0 + eps) * fp.s_inf
    x = 0.0
    cap = max_iterations()
    for n in range(cap + 1):
        if 1.0 - x <= target:
            return n
        x = pgf_eval(model, x)
    raise ConvergenceError(f"t_eps_exact exceeded the iteration cap ({cap})")


def t_eps_fl(fp: FixedPoint, eps: float) -> float:
    """Real-valued T solving S^(T) = (1+eps) S_inf for the matching
    fractional-linear model; clamped to 0 when no positive solution exists."""
    if not eps > 0.0:
        raise DomainError(f"eps must be > 0, got {eps!r}")
    arg = (1.0 + 1.0 / eps) * fp.p_inf
    if arg <= 1.0:
        return 0.0
    return math.log(arg) / (-math.log(fp.gamma))


def t_eps_app(model_or_fp, eps: float) -> int:
    """ceil of t_eps_fl: the integer bound/approximation for T(eps)."""
    fp = model_or_fp if isinstance(model_or_fp, FixedPoint) else extinction_probability(model_or_fp)
    return math.ceil(t_eps_fl(fp, eps))


# ---------------------------------------------------------------------------
# Bound-direction classification
# ---------------------------------------------------------------------------

def sign_scan(model: OffspringModel, fp: Optional[FixedPoint] = None,
              points: int = 2048, tol: float = 1e-12):
    """Signs of f(x) = phi(x) - phi_FL(x) on a grid over [0, P_inf].

    Returns (has_positive, has_negative) ignoring values within tol of 0.
    """
    if fp is None:
        fp = extinction_probability(model)
    fl = matching_fl(fp)
    has_pos = has_neg = False
    for i in range(points + 1):
        x = fp.p_inf * i / points
        f = pgf_eval(model, x) - pgf_eval(fl, x)
        if f > tol:
            has_pos = True
        elif f < -tol:
            has_neg = True
    return has_pos, has_neg


def switch_generation(model: OffspringModel, n_max: int = 2000) -> Optional[int]:
    """First generation at which P^(n) - P^(n)_FL changes sign, or None."""
    fp = extinction_probability(model)
    x = 0.0
    prev_sign = 0
    for n in range(1, n_max + 1):
        x = pgf_eval(model, x)
        diff = x - (fp.p_inf * (1.0 - fp.gamma ** n) / (1.0 - fp.gamma ** n * fp.p_inf))
        if abs(diff) <= 1e-15:
            continue
        sign = 1 if diff > 0.0 else -1
        if prev_sign and sign != prev_sign:
            return n
        prev_sign = sign
    return None


def _check_consistency(kind: str, model: OffspringModel, fp: FixedPoint) -> None:
    has_pos, has_neg = sign_scan(model, fp)
    if kind == UPPER_ON_S and has_neg:
        raise InconsistencyError(f"scan found phi < phi_FL on [0,P_inf] for {model!r} classified {kind}")
    if kind == LOWER_ON_S and has_pos:
        raise InconsistencyError(f"scan found phi > phi_FL on [0,P_inf] for {model!r} classified {kind}")
    if kind == SWITCHES and not (has_pos and has_neg):
        raise InconsistencyError(f"scan found single-signed f for {model!r} classified {kind}")


def bound_direction(model: OffspringModel) -> BoundDirection:
    """Whether sn_fl_bound is an upper bound on S^(n) for all n, a lower bound,
    or switches sides at some generation. Families without a proof for every
    member are classified by their own classifier (classify_f3, classify_gp)."""
    fp = extinction_probability(model)
    if not model.fl_upper_proven:
        return model.fl_direction(fp)
    _check_consistency(UPPER_ON_S, model, fp)
    return BoundDirection(UPPER_ON_S)


# ---------------------------------------------------------------------------
# Appendix coefficients
# ---------------------------------------------------------------------------

def bin_coeff_cf(n: int, j: int, k: int) -> float:
    """c_f(n, j, k) = C(n, j+2)(k+1) - n*C(k+1, j+2), nonnegative on its range."""
    if not (0 <= j <= n - 2 and 0 <= k <= n - 2):
        raise DomainError(f"require 0 <= j,k <= n-2, got n={n}, j={j}, k={k}")
    return math.comb(n, j + 2) * (k + 1) - n * math.comb(k + 1, j + 2)


def nb_coeff_cg(r: int, j: int, zeta: float) -> float:
    """c_g(r, j, zeta), positive for 0 <= j <= r-1 and zeta in (0,1)."""
    if not (0 <= j <= r - 1):
        raise DomainError(f"require 0 <= j <= r-1, got r={r}, j={j}")
    if not 0.0 < zeta < 1.0:
        raise DomainError(f"require zeta in (0,1), got {zeta!r}")
    total = sum(zeta ** k * (k + 1) * (2 * r * (1 + j) - (2 + j) * k - 2)
                for k in range(r - 1))
    total += zeta ** (r - 1) / (1.0 - zeta) * r * (r + 1) * j
    return total / (2.0 * (j + 2))
