"""Fractional-linear closed forms and the per-generation survival bounds built
from them: the matching fractional-linear construction, the geometric-rate
bound, the simple concavity bound, Pollak's bound, Agresti's bound for the
Poisson family, convergence times T(eps), and bound-direction classification,
a GP law's from the survival-space f = phi - phi_FL that classify_gp bisects on.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Optional

from .classify_f3 import LOWER_BOUND_ON_P, UPPER_BOUND_ON_P, classify_f3
from .errors import (ConvergenceError, DomainError, require_count, require_invertible,
                     require_positive)
from .pgf_core import (
    FiniteThree,
    FixedPoint,
    FractionalLinear,
    GeneralizedPoisson,
    OffspringModel,
    Poisson,
    Record,
    _leave_orbit,
    _take_orbit,
    extinction_iterates,
    extinction_probability,
    pgf_eval,
)

UPPER_ON_S = "UpperOnS"
LOWER_ON_S = "LowerOnS"
SWITCHES = "SwitchesAt"

# Generations t_eps_exact iterates before it gives up.
T_EPS_CAP = 100_000
# Generations switch_generation looks through.
SWITCH_N_MAX = 2000


class BoundDirection(Record):
    kind: str                      # one of UPPER_ON_S, LOWER_ON_S, SWITCHES
    switch_n: Optional[int] = None  # first generation on the asymptotic side, if kind == SWITCHES
    conjectured: bool = False       # True when the classification rests on a conjecture


# ---------------------------------------------------------------------------
# Fractional-linear closed forms
# ---------------------------------------------------------------------------

def matching_fl(fp: FixedPoint) -> FractionalLinear:
    """The unique fractional-linear pgf with the same fixed point and rate:
    pi = (1 - gamma)/(1 - P_inf*gamma), rho = P_inf*pi."""
    if not 0.0 < fp.p_inf < 1.0 or not 0.0 < fp.gamma < 1.0:
        raise DomainError(f"matching_fl requires P_inf, gamma in (0,1), got {fp!r}")
    pi = (1.0 - fp.gamma) / (1.0 - fp.p_inf * fp.gamma)
    return FractionalLinear(pi=pi, rho=fp.p_inf * pi)


# e2 sums its Taylor series, to x^11/11!, below |x| = 0.1: the first term left
# out is under 2^-53 of the sum. Above it expm1(x) - x loses at most a factor
# 2/|x| = 20 of its relative precision.
_E2_COEFFS = tuple(1.0 / math.factorial(k) for k in range(11, 1, -1))


def _e2(x: float) -> float:
    """expm1(x) - x, without the cancellation at small |x|."""
    if abs(x) < 0.1:
        acc = 0.0
        for c in _E2_COEFFS:
            acc = acc * x + c
        return acc * x * x
    return math.expm1(x) - x


def _fixed_point(lam: float, s: float) -> tuple:
    """(lam, s, mu, P_inf, S_inf, 1 - gamma, t, 1 - lam t) of the GP law of
    mean 1 + s, mu = (1 + s)(1 - lam), in survival space, where nothing
    cancels: what bound_direction and gp_thresholds read, where the other
    readers take extinction_probability's root solve (see GeneralizedPoisson).
    At P_inf, t = t(P_inf) solves t = exp(-a(1 - t)), a = mu + lam, so with
    a - 1 = s(1 - lam), u = 1 - t is the Poisson(a) survival root, the
    positive root of the convex F(u) = e2(-au) - (a - 1)u. Newton starts from
    Haldane's 2(a - 1)/a^2, left of the root as F''' < 0; its first step lands
    right of it, and the steps fall from there, so it stops at the first that
    does not. Then P_inf = exp(-mu u), S_inf = -expm1(-mu u), gamma =
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
    return (lam, s, mu, math.exp(-mu * u), -math.expm1(-mu * u), (a * u - am1) / d,
            1.0 - u, d)


# The three functionals of a _fixed_point in complement forms, from the
# matching FL law's pi = g/E and rho = P_inf pi, with g = 1 - gamma and
# E = 1 - P_inf gamma = S_inf + P_inf g: 1 - pi = gamma S_inf/E and
# 1 - rho = S_inf/E, so phi_FL''(P_inf) = 2 pi (1 - pi)(1 - rho)/(1 - pi P_inf)^3
# = 2 gamma g/S_inf, and phi_FL'(1) = 1/gamma.

def _f_at_0(fix: tuple) -> float:
    """f(0) = phi(0) - phi_FL(0) = exp(-mu) - rho."""
    _, _, mu, p, s_inf, g, _, _ = fix
    return math.exp(-mu) - p * g / (s_inf + p * g)


def _fprime_at_1(fix: tuple) -> float:
    """f'(1) = 1 + s - 1/gamma = s - g/gamma."""
    _, s, _, _, _, g, _, _ = fix
    return s - g / (1.0 - g)


def _f2_at_p_inf(fix: tuple) -> float:
    """f''(P_inf) = phi''(P_inf) - 2 gamma g/S_inf, where, with D = 1 - lam t,
    phi''(P_inf) = mu t^2 (mu D + lam (1 + D))/(P_inf D^3) (t' = t/(x D) and
    t'' = lam t^2 (1 + D)/(x^2 D^3) at x = P_inf)."""
    lam, _, mu, p, s_inf, g, t, d = fix
    return (mu * t * t * (mu * d + lam * (1.0 + d)) / (p * d * d * d)
            - 2.0 * (1.0 - g) * g / s_inf)


# The least s of a GP direction or threshold: f'(1) and f''(P_inf) change sign
# at O(s^2) and O(s) out of terms of size s and 1, so rounding moves lambda_c1
# and lambda_c2 by a few 2^-53/s (3.3e-8 and 1.9e-8 at 1e-8, 1.6e-6 at 1e-10).
MIN_S = 1e-8


# ---------------------------------------------------------------------------
# Per-generation bounds on S^(n)
# ---------------------------------------------------------------------------

def sn_fl_bound(model: OffspringModel, n: int, fp: FixedPoint) -> float:
    """S_inf / (1 - gamma^n (1 - S_inf)); an upper bound on S^(n) when the
    matching fractional-linear pgf lies below phi on [0, P_inf]."""
    require_count("n", n)
    return fp.s_inf / (1.0 - fp.gamma ** n * (1.0 - fp.s_inf))


def sn_simple_bound(model: OffspringModel, n: int, fp: FixedPoint) -> float:
    """Concavity bound S_inf + P_inf*gamma^n; looser than sn_fl_bound."""
    require_count("n", n)
    return fp.s_inf + fp.p_inf * fp.gamma ** n


def pollak_dbar(model: OffspringModel, n: int, fp: FixedPoint) -> float:
    """Pollak's upper bound dbar^(n) for (P_inf - P^(n))/gamma^n. fp must be
    extinction_probability(model): the bound reads phi''(P_inf) from
    fp.curvature, and model stays in the signature for the API."""
    require_count("n", n)
    g = fp.gamma
    return (2.0 * (1.0 - g) * fp.p_inf
            / (2.0 * (1.0 - g) + fp.curvature * fp.p_inf * (1.0 - g ** n) / g))


def sn_pollak_bound(model: OffspringModel, n: int, fp: FixedPoint) -> float:
    """S_inf + dbar^(n) * gamma^n; upper bound on S^(n) for Poisson and for
    negative binomial with m > 1."""
    return fp.s_inf + pollak_dbar(model, n, fp) * fp.gamma ** n


# ---------------------------------------------------------------------------
# Agresti's bound for the Poisson family
# ---------------------------------------------------------------------------

def agresti_pi_poisson(m: float) -> float:
    """pi = sup v = v(0) over [0, 1) of Agresti's auxiliary function

        v(x) = (u - 1 + gamma(1-x)) / (x(u - 1) + gamma(1-x)),  u = phi(P_inf x)/P_inf,

    which decreases on [0, 1). Its infimum, the limit at x -> 1-, gives the
    other side, which is Pollak's bound (sn_pollak_bound)."""
    model = Poisson(m=m)
    fp = extinction_probability(model)
    return (pgf_eval(model, 0.0) / fp.p_inf - 1.0 + fp.gamma) / fp.gamma


def agresti_sn_bound(m: float, n: int) -> float:
    """Lower bound on S^(n) from the Agresti fractional-linear bounding
    function with parameters (pi, rho = pi*P_inf), pi = agresti_pi_poisson(m),
    whose iterates bound P^(n) from above."""
    require_count("n", n)
    fp = extinction_probability(Poisson(m=m))
    pi = agresti_pi_poisson(m)
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
    """Smallest n with S^(n) <= (1 + eps) * S_inf, by iteration.

    It resumes the last law's orbit, as iterate_extinction does, where the
    last reader of an equal law stopped short of the target, and leaves it at
    T. It steps untested to just short of ceil(t_eps_fl), which tracks T or
    falls short of it, and tests each generation from there. An orbit never
    falls, so no earlier iterate meets the target where the landing one does
    not; where it does, the estimate overshot, and a fresh orbit steps
    untested to the generation the call started from and is tested from
    there. Without a finite estimate nothing is skipped. A GP law's T is
    counted back from the target (GeneralizedPoisson.generations_to, one
    log1p a generation), as S^(n) <= target iff psi^(n-1)(u_t) >= 1: the
    exact count, but where shifting the target by B = (1 + lam)/(1 - lam)
    2^-53/(1 - gamma) relative changes it. It reads no orbit nor t_eps_fl."""
    require_positive("eps", eps)
    fp = extinction_probability(model)
    target = (1.0 + eps) * fp.s_inf
    if isinstance(model, GeneralizedPoisson):
        t = model.generations_to(target, T_EPS_CAP)
        if t is None:
            raise ConvergenceError(f"t_eps_exact exceeded the iteration cap ({T_EPS_CAP})")
        return t
    n, x, orbit = _take_orbit(model, lambda n, x: 1.0 - x > target)
    try:
        estimate = t_eps_fl(fp, eps)
    except DomainError:
        estimate = math.nan
    gap = min(math.ceil(estimate), T_EPS_CAP) - n if estimate < math.inf else 0
    skip = gap - max(8, gap >> 6)
    if skip > 0:
        landed = orbit.send(skip)
        if 1.0 - landed > target:
            n, x = n + skip, landed
        else:
            orbit = extinction_iterates(model)
            x = next(orbit)
            if n:
                x = orbit.send(n)
    if 1.0 - x > target:
        for n, x in enumerate(islice(orbit, max(T_EPS_CAP - n, 0)), n + 1):
            if 1.0 - x <= target:
                break
    _leave_orbit(model, n, x, orbit)
    if 1.0 - x > target:
        raise ConvergenceError(f"t_eps_exact exceeded the iteration cap ({T_EPS_CAP})")
    return n


def t_eps_fl(fp: FixedPoint, eps: float) -> float:
    """Real-valued T solving S^(T) = (1+eps) S_inf for the matching
    fractional-linear model; clamped to 0 when no positive solution exists.
    DomainError where 1/eps overflows, or where gamma rounds to 1 and T > 0."""
    require_invertible("eps", eps)
    arg = (1.0 + 1.0 / eps) * fp.p_inf
    if arg <= 1.0:
        return 0.0
    if not fp.gamma < 1.0:
        raise DomainError(f"T(eps) needs gamma < 1, got gamma={fp.gamma!r}")
    return math.log(arg) / (-math.log(fp.gamma))


def t_eps_app(fp: FixedPoint, eps: float) -> int:
    """ceil of t_eps_fl: the integer bound/approximation for T(eps)."""
    return math.ceil(t_eps_fl(fp, eps))


# ---------------------------------------------------------------------------
# Bound-direction classification
# ---------------------------------------------------------------------------

def switch_generation(model: OffspringModel, p_inf: float, gamma: float) -> Optional[int]:
    """First generation n <= SWITCH_N_MAX at which P^(n) - P^(n)_FL changes
    sign, or None, for the FL law of the caller's fixed point p_inf and rate gamma.

    The scan ends early, with None, once nothing can change: after generation
    n's sign is taken, where P^(n) = P^(n-1) (so every later iterate repeats
    it, as a stepped orbit repeats an iterate that does not rise) and
    1 - gamma^n rounds to 1.0 (then so does 1 - gamma^n P_inf, as
    P_inf <= 1, and P^(n)_FL reads P_inf from then on), every later
    generation has generation n's diff. An FL orbit can repeat an iterate
    and rise again, but bound_direction never scans an FL law."""
    prev_sign, prev_x = 0, 0.0
    iterates = islice(extinction_iterates(model), 1, SWITCH_N_MAX + 1)
    for n, x in enumerate(iterates, start=1):
        gn = gamma ** n
        diff = x - (p_inf * (1.0 - gn) / (1.0 - gn * p_inf))
        if abs(diff) > 1e-15:
            sign = 1 if diff > 0.0 else -1
            if prev_sign and sign != prev_sign:
                return n
            prev_sign = sign
        if x == prev_x and 1.0 - gn == 1.0:
            return None
        prev_x = x
    return None


def bound_direction(model: OffspringModel) -> BoundDirection:
    """Whether sn_fl_bound is an upper bound on S^(n) for all n, a lower bound,
    or switches sides at some generation.

    It is proven an upper bound for every Poisson, binomial, negative binomial
    and fractional-linear law, so no fixed point is solved for. An F3 law takes
    the direction of its classify_f3 region; in the Switches region switch_n is
    switch_generation's scan against its closed-form P_inf and gamma (None in
    most of case 3iii and some of 3i). A generalized Poisson law, MIN_S <= s
    <= 0.5 (else DomainError), is decided by the signs of its own f at its
    survival-space _fixed_point, the functionals that gp_thresholds bisects
    on: UpperOnS where f''(P_inf) > 0, else LowerOnS where f(0) < 0, else
    SwitchesAt, whose switch_n scans against that same P_inf and gamma, so no
    family takes a root solve. Its kind lies in gp_thresholds(s)'s zone for its
    lam, but within a few 2^-53/s of lambda_c2. The rule is conjectured, except
    at lam = 0 (Poisson), which is proven UpperOnS at any mean."""
    if isinstance(model, FiniteThree):
        region = classify_f3(model).region
        if region == LOWER_BOUND_ON_P:
            return BoundDirection(UPPER_ON_S)
        if region == UPPER_BOUND_ON_P:
            return BoundDirection(LOWER_ON_S)
        fp = extinction_probability(model)
        return BoundDirection(SWITCHES, switch_n=switch_generation(model, fp.p_inf, fp.gamma))
    if not isinstance(model, GeneralizedPoisson) or model.lam == 0.0:
        return BoundDirection(UPPER_ON_S)
    # s <= 0.5, by the float expression gp_from_s(lam, 0.5) evaluates.
    if not model.mu <= 1.5 * (1.0 - model.lam):
        raise DomainError(f"require s <= 0.5, i.e. mu <= 1.5 (1 - lam), got {model!r}")
    # s >= MIN_S, by the float expression gp_from_s(lam, MIN_S) evaluates.
    if not model.mu >= (1.0 + MIN_S) * (1.0 - model.lam):
        raise DomainError(f"require s >= {MIN_S}: below it rounding sets f''(P_inf)'s sign, "
                          f"got {model!r}")
    fix = _fixed_point(model.lam, math.fsum((model.mu, model.lam, -1.0)) / (1.0 - model.lam))
    if _f2_at_p_inf(fix) > 0.0:
        return BoundDirection(UPPER_ON_S, conjectured=True)
    if _f_at_0(fix) < 0.0:
        return BoundDirection(LOWER_ON_S, conjectured=True)
    switch_n = switch_generation(model, fix[3], 1.0 - fix[5])
    return BoundDirection(SWITCHES, switch_n=switch_n, conjectured=True)


# ---------------------------------------------------------------------------
# Appendix coefficients
# ---------------------------------------------------------------------------

def bin_coeff_cf(n: int, j: int, k: int) -> float:
    """c_f(n, j, k) = C(n, j+2)(k+1) - n*C(k+1, j+2), nonnegative on its range
    0 <= j, k <= n - 2."""
    require_count("j", j)
    require_count("k", k)
    require_count("n", n, max(j, k) + 2)
    return math.comb(n, j + 2) * (k + 1) - n * math.comb(k + 1, j + 2)


def nb_coeff_cg(r: int, j: int, zeta: float) -> float:
    """c_g(r, j, zeta), positive for 0 <= j <= r-1 and zeta in (0,1)."""
    require_count("j", j)
    require_count("r", r, j + 1)
    if not 0.0 < zeta < 1.0:
        raise DomainError(f"require zeta in (0,1), got {zeta!r}")
    total = sum(zeta ** k * (k + 1) * (2 * r * (1 + j) - (2 + j) * k - 2)
                for k in range(r - 1))
    total += zeta ** (r - 1) / (1.0 - zeta) * r * (r + 1) * j
    return total / (2.0 * (j + 2))
