"""Population-genetics applications: the approximate density of a spreading
mutant's frequency, the per-locus variance it contributes, the asymptotic
genetic variance and response of a trait under recurrent mutation, and
fixation probabilities in the Wright-Fisher model (exact, diffusion, and
refined exponential approximations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import DomainError
from .pgf_core import (
    OffspringModel,
    extinction_probability,
    moments,
    pgf_eval,
)
from .sinf_estimates import mu_derivatives, sinf_series
from .specfun import exp_e1


# numpy and scipy.stats take ~1 s to import and serve only wf_fixation_exact,
# so genetics.np and genetics.binom load on first access (PEP 562). They are
# then ordinary module attributes, which a caller may replace.
def __getattr__(name):
    if name == "np":
        import numpy as value
    elif name == "binom":
        from scipy.stats import binom as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def _lazy(name):
    """The module attribute genetics.<name>, loading it on first use."""
    return globals()[name] if name in globals() else __getattr__(name)


@dataclass(frozen=True)
class TraitModel:
    """Trait under exponential directional selection: mutations arrive at rate
    theta_mut per generation in the whole population, each adding effect
    alpha > 0 to the trait; a mutant's fitness is m = exp(s_sel*alpha)."""
    theta_mut: float
    alpha: float
    s_sel: float
    pop_size: int

    def __post_init__(self):
        if self.theta_mut < 0.0:
            raise DomainError(f"theta_mut must be >= 0, got {self.theta_mut!r}")
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha!r}")
        if not self.s_sel > 0.0:
            raise DomainError(f"s_sel must be > 0, got {self.s_sel!r}")
        if self.pop_size < 2:
            raise DomainError(f"pop_size must be >= 2, got {self.pop_size!r}")

    @property
    def fitness(self) -> float:
        return math.exp(self.s_sel * self.alpha)


@dataclass(frozen=True)
class WFModel:
    """Haploid Wright-Fisher population of size pop_size with selection
    coefficient s_sel and variance-effective size effective_size."""
    pop_size: int
    s_sel: float
    effective_size: float

    def __post_init__(self):
        if self.pop_size < 2:
            raise DomainError(f"pop_size must be >= 2, got {self.pop_size!r}")
        if not self.s_sel > 0.0:
            raise DomainError(f"s_sel must be > 0, got {self.s_sel!r}")
        if not self.effective_size > 0.0:
            raise DomainError(f"effective_size must be > 0, got {self.effective_size!r}")


@dataclass(frozen=True)
class VGInf:
    """Asymptotic per-generation variance and response of the trait."""
    v1_inf: float          # variance contributed by one sweeping mutant / alpha^2
    leading: float         # Theta * S_inf * alpha^2 * V1_inf
    simple: float          # Theta * alpha^2 * theta * (1 - delta2*s*alpha)
    delta_mean: float      # per-generation response Theta*theta*s*alpha^2*(1 - delta2*s*alpha)


def mutant_density(a: float, x: float) -> float:
    """Density g_a(x) = a/(1-x)^2 * exp(-a*x/(1-x)) of the mutant frequency,
    conditioned on presence; x in [0, 1)."""
    if not a > 0.0:
        raise DomainError(f"a must be > 0, got {a!r}")
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x must be in [0, 1), got {x!r}")
    return a / (1.0 - x) ** 2 * math.exp(-a * x / (1.0 - x))


def within_variance(a: float) -> float:
    """Integral of x(1-x)*g_a(x) over [0, 1]:  a(1+a)e^a E1(a) - a."""
    if not a > 0.0:
        raise DomainError(f"a must be > 0, got {a!r}")
    return a * (1.0 + a) * exp_e1(a) - a


def vg_tau(tm: TraitModel, model: OffspringModel, tau: float) -> float:
    """Genetic variance of the trait at time tau:
    Theta*alpha^2 * integral_0^tau S^([t]) * w(a_[t]) dt, where [t] is the
    nearest integer, a_n = N*S^(n)/m^n, and w is the per-locus variance.
    The integrand is constant on the cells [0, 1/2), [1/2, 3/2), ... of the
    nearest-integer map."""
    if not tau > 0.0:
        raise DomainError(f"tau must be > 0, got {tau!r}")
    mom = moments(model)
    n_cells = math.ceil(tau + 0.5)
    total = 0.0
    x = 0.0  # P^(0)
    for n in range(n_cells):
        lo = 0.0 if n == 0 else n - 0.5
        hi = min(n + 0.5, tau)
        if hi <= lo:
            break
        s_n = 1.0 - x
        a_n = tm.pop_size * s_n / mom.m ** n
        total += (hi - lo) * s_n * within_variance(a_n)
        x = pgf_eval(model, x)
    return tm.theta_mut * tm.alpha ** 2 * total


def v1_inf(n_pop: int, s_alpha: float, s_inf: float) -> float:
    """Total variance (per alpha^2) contributed by a single mutant sweeping to
    fixation: N*S_inf*e^(N*S_inf)*E1(N*S_inf) / (s*alpha)."""
    if not (n_pop >= 2 and 0.0 < s_inf < 1.0 and s_alpha > 0.0):
        raise DomainError(
            f"require n_pop >= 2, s_inf in (0,1), s_alpha > 0, got ({n_pop}, {s_inf}, {s_alpha})")
    z = n_pop * s_inf
    return z * exp_e1(z) / s_alpha


def vg_inf(tm: TraitModel, model: OffspringModel) -> VGInf:
    """Asymptotic (tau -> infinity) genetic variance and response.

    leading is Theta*S_inf*alpha^2*V1_inf.  simple and delta_mean come from
    the series shortcut S_inf*V1_inf ~ theta*(1 - delta2*s*alpha); they are
    NaN for models without a series family (e.g. three-offspring models)."""
    fp = extinction_probability(model)
    sa = tm.s_sel * tm.alpha
    v1 = v1_inf(tm.pop_size, sa, fp.s_inf)
    lead = tm.theta_mut * fp.s_inf * tm.alpha ** 2 * v1
    simple = float("nan")
    delta_mean = float("nan")
    try:
        coeffs = sinf_series(mu_derivatives(model))
    except DomainError:
        coeffs = None
    if coeffs is not None:
        factor = coeffs.theta * (1.0 - coeffs.delta2 * sa)
        simple = tm.theta_mut * tm.alpha ** 2 * factor
        delta_mean = tm.theta_mut * coeffs.theta * tm.s_sel * tm.alpha ** 2 \
            * (1.0 - coeffs.delta2 * sa)
    return VGInf(v1_inf=v1, leading=lead, simple=simple, delta_mean=delta_mean)


# ---------------------------------------------------------------------------
# Wright-Fisher fixation probabilities
# ---------------------------------------------------------------------------

def wf_fixation_diffusion(wf: WFModel) -> float:
    """Diffusion approximation (1 - exp(-2sNe/N)) / (1 - exp(-2sNe)) for the
    fixation probability of a single mutant."""
    s, n, ne = wf.s_sel, wf.pop_size, wf.effective_size
    return -math.expm1(-2.0 * s * ne / n) / -math.expm1(-2.0 * s * ne)


def wf_fixation_a(n_pop: int, s: float, a1: float = 2.0,
                  a2: Optional[float] = None) -> float:
    """Exponential-form approximation (1 - exp(-A))/(1 - exp(-A*N)) with
    A = a1*s + a2*s^2.  The default a2 = -2/3 - 1/(3*N*s) matches the exact
    series 2s - (8/3 + 1/(3Ns))s^2 + ... for large N*s; the first term it
    misses, (4/9)s^3, leaves a relative error of about (2/9)s^2 (the
    approximation is low).  a1 = 2, a2 = 0 recovers the diffusion
    approximation with effective_size = pop_size."""
    if not s > 0.0:
        raise DomainError(f"s must be > 0, got {s!r}")
    if n_pop < 2:
        raise DomainError(f"n_pop must be >= 2, got {n_pop!r}")
    if a2 is None:
        a2 = -2.0 / 3.0 - 1.0 / (3.0 * n_pop * s)
    a_val = a1 * s + a2 * s * s
    if a_val == 0.0:
        raise DomainError("A(s) must be nonzero")
    return -math.expm1(-a_val) / -math.expm1(-a_val * n_pop)


def wf_fixation_exact(wf: WFModel) -> float:
    """Exact fixation probability of a single mutant in the haploid
    Wright-Fisher model with selection: state i has sampling probability
    psi = x(1+s)/(1+s*x), x = i/N, and the next generation is
    Binomial(N, psi).  Solves the (N-1)-dimensional absorption system."""
    n, s = wf.pop_size, wf.s_sel
    if n > 5000:
        raise DomainError(f"pop_size must be <= 5000 for the dense solve, got {n!r}")
    np, binom = _lazy("np"), _lazy("binom")
    i = np.arange(1, n)               # interior states
    x = i / n
    psi = x * (1.0 + s) / (1.0 + s * x)
    k = np.arange(0, n + 1)
    # transition[i, k] = P(Binomial(n, psi_i) = k)
    transition = binom.pmf(k[None, :], n, psi[:, None])
    p_int = transition[:, 1:n]
    b = transition[:, n]
    q = np.linalg.solve(np.eye(n - 1) - p_int, b)
    return float(q[0])


def scaling_report(n_pop: int, s: float, c_const: float = 1.0) -> float:
    """Implied exponent K of the scaling regime N*s^K = C^K, as a diagnostic:
    K = ln(N) / (ln(C) - ln(s))."""
    if not (n_pop >= 2 and 0.0 < s < 1.0 and c_const > 0.0):
        raise DomainError(f"require n_pop >= 2, 0 < s < 1, C > 0, got ({n_pop}, {s}, {c_const})")
    denom = math.log(c_const) - math.log(s)
    if denom <= 0.0:
        raise DomainError("scaling exponent undefined: require C > s")
    return math.log(n_pop) / denom
