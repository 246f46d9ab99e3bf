"""Population-genetics applications: the approximate density of a spreading
mutant's frequency, the per-locus variance it contributes, the asymptotic
genetic variance and response of a trait under recurrent mutation, and
fixation probabilities in the Wright-Fisher model (exact, diffusion, and
refined exponential approximations).
"""

from __future__ import annotations

import math

from .errors import DomainError, require_count, require_positive
from .pgf_core import (
    OffspringModel,
    Record,
    extinction_iterates,
    extinction_probability,
    moments,
)
from .sinf_estimates import sinf_series
from .specfun import e1_cf_tail, exp_e1


# numpy takes ~0.15 s to import and serves only wf_fixation_exact, so
# genetics.np loads on first access (PEP 562). It is then an ordinary module
# attribute, which a caller may replace.
def __getattr__(name):
    if name != "np":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy
    globals()[name] = numpy
    return numpy


def _numpy():
    """The module attribute genetics.np, loading it on first use."""
    return globals()["np"] if "np" in globals() else __getattr__("np")


class TraitModel(Record):
    """Trait under exponential directional selection: mutations arrive at rate
    theta_mut per generation in the whole population, each adding effect
    alpha > 0 to the trait; a mutant's fitness is m = exp(s_sel*alpha)."""
    theta_mut: float
    alpha: float
    s_sel: float
    pop_size: int

    def _validate(self):
        if self.theta_mut < 0.0:
            raise DomainError(f"theta_mut must be >= 0, got {self.theta_mut!r}")
        if not self.alpha > 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha!r}")
        if not self.s_sel > 0.0:
            raise DomainError(f"s_sel must be > 0, got {self.s_sel!r}")
        require_count("pop_size", self.pop_size, 2)
        self._require_finite()


class WFModel(Record):
    """Haploid Wright-Fisher population of size pop_size with selection
    coefficient s_sel and variance-effective size effective_size."""
    pop_size: int
    s_sel: float
    effective_size: float

    def _validate(self):
        require_count("pop_size", self.pop_size, 2)
        if not self.s_sel > 0.0:
            raise DomainError(f"s_sel must be > 0, got {self.s_sel!r}")
        if not self.effective_size > 0.0:
            raise DomainError(f"effective_size must be > 0, got {self.effective_size!r}")
        self._require_finite()


class VGInf(Record):
    """Asymptotic per-generation variance and response of the trait."""
    v1_inf: float          # variance contributed by one sweeping mutant / alpha^2
    leading: float         # Theta * S_inf * alpha^2 * V1_inf
    simple: float          # Theta * alpha^2 * theta * (1 - delta2*s*alpha)
    delta_mean: float      # per-generation response Theta*theta*s*alpha^2*(1 - delta2*s*alpha)


def mutant_density(a: float, x: float) -> float:
    """Density g_a(x) = a/(1-x)^2 * exp(-a*x/(1-x)) of the mutant frequency,
    conditioned on presence; x in [0, 1)."""
    require_positive("a", a)
    if not 0.0 <= x < 1.0:
        raise DomainError(f"x must be in [0, 1), got {x!r}")
    return a / (1.0 - x) ** 2 * math.exp(-a * x / (1.0 - x))


def within_variance(a: float) -> float:
    """Integral of x(1-x)*g_a(x) over [0, 1]:  a(1+a)e^a E1(a) - a.

    For a >= 1, e^a E1(a) = 1/(a+1-T) with T the continued-fraction tail,
    and the difference is a*T/(a+1-T) with nothing cancelled; the form above
    loses all of w ~ 1/a to rounding by a ~ 1e8."""
    require_positive("a", a)
    if a < 1.0:
        return a * (1.0 + a) * exp_e1(a) - a
    t = e1_cf_tail(a)
    return a * t / (a + 1.0 - t)


def vg_tau(tm: TraitModel, model: OffspringModel, tau: float) -> float:
    """Genetic variance of the trait at time tau:
    Theta*alpha^2 * integral_0^tau S^([t]) * w(a_[t]) dt, where [t] is the
    nearest integer, a_n = N*S^(n)/m^n, and w is the per-locus variance.
    The integrand is constant on the cells [0, 1/2), [1/2, 3/2), ... of the
    nearest-integer map. The sum stops where m^n overflows or a_n underflows
    to 0: the cells beyond add less than 1e-300."""
    require_positive("tau", tau)
    mom = moments(model)
    n_cells = math.ceil(tau + 0.5)
    total = 0.0
    for n, x in zip(range(n_cells), extinction_iterates(model)):
        lo = 0.0 if n == 0 else n - 0.5
        hi = min(n + 0.5, tau)
        s_n = 1.0 - x
        try:
            a_n = tm.pop_size * s_n / mom.m ** n
        except OverflowError:
            break
        if a_n == 0.0:
            break
        total += (hi - lo) * s_n * within_variance(a_n)
    return tm.theta_mut * tm.alpha ** 2 * total


def v1_inf(tm: TraitModel, s_inf: float) -> float:
    """Total variance (per alpha^2) contributed by a single mutant sweeping to
    fixation: N*S_inf*e^(N*S_inf)*E1(N*S_inf) / (s*alpha)."""
    z = tm.pop_size * s_inf
    return z * exp_e1(z) / (tm.s_sel * tm.alpha)


def vg_inf(tm: TraitModel, model: OffspringModel) -> VGInf:
    """Asymptotic (tau -> infinity) genetic variance and response.

    leading is Theta*S_inf*alpha^2*V1_inf.  simple and delta_mean come from
    the series shortcut S_inf*V1_inf ~ theta*(1 - delta2*s*alpha); they are
    NaN for models without a series family (e.g. three-offspring models)."""
    fp = extinction_probability(model)
    sa = tm.s_sel * tm.alpha
    v1 = v1_inf(tm, fp.s_inf)
    lead = tm.theta_mut * fp.s_inf * tm.alpha ** 2 * v1
    try:
        coeffs = sinf_series(model.mu_table())
    except DomainError:
        simple = delta_mean = float("nan")
    else:
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


def wf_fixation_a(wf: WFModel) -> float:
    """Exponential-form approximation (1 - exp(-A))/(1 - exp(-A*N)) with
    A = 2s + a2*s^2, a2 = -2/3 - 1/(3*N*s), which matches the exact series
    2s - (8/3 + 1/(3Ns))s^2 + ... for large N*s; the first term it misses,
    (4/9)s^3, leaves a relative error of about (2/9)s^2 (the approximation
    is low) for small s only. Against wf_fixation_exact at N = 1000 it is
    -0.19% at s = 0.1, but -3% at s = 0.5, -7.6% at s = 1 and -22% at s = 2,
    where (2/9)s^2 would say 6%, 22% and 89%.  With a2 = 0 it would be the
    diffusion approximation with effective_size = pop_size (not read here).
    It requires A > 0."""
    n, s = wf.pop_size, wf.s_sel
    a2 = -2.0 / 3.0 - 1.0 / (3.0 * n * s)
    a_val = 2.0 * s + a2 * s * s
    if not a_val > 0.0:
        raise DomainError(f"wf_fixation_a requires A = 2s - (2/3 + 1/(3Ns))s^2 > 0, that is "
                          f"s_sel < 3 - 1/(2N), got s_sel = {s!r} at pop_size = {n!r}")
    return -math.expm1(-a_val) / -math.expm1(-a_val * n)


# Largest population the exact absorption solve accepts. The banded solve
# holds O(N b) numbers and takes O(N b^2) time for a half-bandwidth b of
# about t + sN/4 (t as in binom.pmf): b is about 430 at N = 5000, s = 0.01.
WF_EXACT_MAX_N = 5000

# Largest mass a transition row may drop outside its window (binom.pmf).
WINDOW_TAIL = 1e-30


class binom:
    """Binomial pmf rows for the Wright-Fisher transition matrix. A module
    attribute, which wf_fixation_exact reads at call time, so a caller may
    replace it (a timing proxy, say)."""

    @staticmethod
    def pmf(n, psi):
        """(start, rows) with rows[i, j] = P(Binomial(n, psi[i]) = start[i] + j),
        j = 0..2t, for 0 < psi[i] < 1: each row on the window of t states
        either side of its mode min(floor((n+1)psi), n), with
        t = ceil(sqrt(n/2 ln(2/WINDOW_TAIL))) + 1 but at most n, and 0 at
        states below 0 or above n. By Hoeffding's inequality a row has at
        most WINDOW_TAIL of its mass outside the window.

        A row starts at 1 at its mode and multiplies outward by
        pmf(k+1)/pmf(k) = (n-k)/(k+1) * psi/(1-psi), a factor at most 1 above
        the mode, or by its inverse, at most 1 below it; so nothing
        overflows. The row is then divided by the window's sum. An entry
        carries a few roundings per step from the mode: entries above 1e-300
        of six rows with psi from 1e-3 to 1 - 1e-3 were within 3e-14
        relative of a 30-digit mpmath pmf at n = 1000 and 6e-14 at n = 5000,
        and each row sums to 1 within a few ulp."""
        np = _numpy()
        t = min(math.ceil(math.sqrt(n / 2 * math.log(2 / WINDOW_TAIL))) + 1, n)
        mode = np.minimum(np.floor((n + 1) * psi).astype(np.intp), n)
        k = np.arange(n)
        pad = np.zeros(t)
        # pmf(k+1)/pmf(k) per unit odds at k, 0 from k = n on
        up = np.concatenate([(n - k) / (k + 1.0), pad])
        # pmf(k)/pmf(k+1) per unit inverse odds at k + t, 0 below k = 0
        down = np.concatenate([pad, (k + 1.0) / (n - k)])
        steps = np.arange(t)
        rows = np.empty((len(psi), 2 * t + 1))
        rows[:, t] = 1.0
        np.cumprod(up[mode[:, None] + steps] * (psi / (1.0 - psi))[:, None],
                   axis=1, out=rows[:, t + 1:])
        np.cumprod(down[mode[:, None] + (t - 1) - steps] * ((1.0 - psi) / psi)[:, None],
                   axis=1, out=rows[:, t - 1::-1])
        rows /= rows.sum(axis=1, keepdims=True)
        return mode - t, rows


def wf_fixation_exact(wf: WFModel) -> float:
    """Exact fixation probability of a single mutant in the haploid
    Wright-Fisher model with selection: state i has sampling probability
    psi = x(1+s)/(1+s*x), x = i/N, and the next generation is
    Binomial(N, psi).  Solves the (N-1)-dimensional absorption system
    (I - P) q = P[:, N] over the interior states, for N up to
    WF_EXACT_MAX_N and psi < 1 in floating point (s_sel*N below about 1e16).

    binom.pmf builds each row of P on a window around its mode, dropping at
    most WINDOW_TAIL of its mass; that moves q by at most WINDOW_TAIL times
    the expected absorption time (about 2N at most). I - P is then banded
    with half-bandwidth b, and in blocks of b states it is block-tridiagonal.
    Elimination runs from the last block up, so q[0] comes from the first
    block's solve, with no back-substitution: O(N b^2) time, O(N b) memory.
    I - P is a nonsingular M-matrix and so is each Schur complement, so no
    pivoting across blocks is needed. Where one block holds every state
    (small N, large s) this is a dense solve."""
    n, s = wf.pop_size, wf.s_sel
    if n > WF_EXACT_MAX_N:
        raise DomainError(
            f"pop_size must be <= {WF_EXACT_MAX_N} for the exact solve, got {n!r}")
    np = _numpy()
    x = np.arange(1, n) / n           # interior states
    psi = x * (1.0 + s) / (1.0 + s * x)
    if not psi.max() < 1.0:  # binom.pmf divides by 1 - psi
        raise DomainError(f"s_sel = {s!r} is too large for the exact solve at "
                          f"pop_size = {n!r}: a sampling probability psi rounds to 1")
    start, rows = binom.pmf(n, psi)
    width = rows.shape[1]
    offset = start - np.arange(1, n)  # first window state less the row's state
    b = int(max(-offset.min(), offset.max() + width - 1))
    cols = np.arange(width)
    below = None  # the block below's Schur complement solved against [L | rhs]
    for r0 in reversed(range(0, n - 1, b)):
        size = min(b, n - 1 - r0)
        lines = np.arange(size)
        states = start[r0:r0 + size, None] + cols
        window = rows[r0:r0 + size]
        # Rows r0+1 .. r0+size of I - P over the states r0+1-b .. r0+size+b:
        # the block before (L), this block and the block after.
        strip = np.zeros((size, size + 2 * b))
        strip[lines[:, None], states - (r0 + 1 - b)] = np.where(
            (states > 0) & (states < n), -window, 0.0)
        strip[lines, lines + b] += 1.0
        diag = strip[:, b:b + size]
        rhs = np.where(states == n, window, 0.0).sum(axis=1)
        if below is not None:
            update = strip[:, b + size:b + size + len(below)] @ below
            diag -= update[:, :-1]
            rhs -= update[:, -1]
        if r0 == 0:
            return float(np.linalg.solve(diag, rhs)[0])
        below = np.linalg.solve(diag, np.column_stack([strip[:, :b], rhs]))
