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
    pgf_derivative,
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
    m = pgf_derivative(model, 1.0, 1)  # moments(model).m, without b and c
    n_cells = math.ceil(tau + 0.5)
    total = 0.0
    for n, x in zip(range(n_cells), extinction_iterates(model)):
        lo = 0.0 if n == 0 else n - 0.5
        hi = min(n + 0.5, tau)
        s_n = 1.0 - x
        try:
            a_n = tm.pop_size * s_n / m ** n
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


# Largest population the exact absorption solve accepts. The panel solve
# takes about 2 N b^2 flops and O(b^2) working memory (a buffer of about
# (b + 3k)(2b + 3k) numbers, k = _PANEL) plus a few length-N vectors, for a
# half-bandwidth b of about t + sN/4 (t as in binom.window): b is about 430
# at N = 5000, s = 0.01, where the solve takes about 0.11 s and a traced
# peak of 7.3 MB.
WF_EXACT_MAX_N = 5000

# Unknowns per elimination panel of wf_fixation_exact; 48 to 96 timed about
# the same.
_PANEL = 64

# Largest mass a transition row may drop outside its window (binom.pmf).
WINDOW_TAIL = 1e-30


class binom:
    """Binomial pmf rows for the Wright-Fisher transition matrix. A module
    attribute, which wf_fixation_exact reads at call time, so a caller may
    replace it (a timing proxy, say)."""

    @staticmethod
    def window(n, psi):
        """(start, t): each row of binom.pmf(n, psi) covers states start[i] ..
        start[i] + 2t, the t states either side of its mode
        min(floor((n+1)psi[i]), n), with t = ceil(sqrt(n/2 ln(2/WINDOW_TAIL)))
        + 1 but at most n. By Hoeffding's inequality Binomial(n, psi[i]) has at
        most WINDOW_TAIL of its mass outside that window. Builds no rows."""
        np = _numpy()
        t = min(math.ceil(math.sqrt(n / 2 * math.log(2 / WINDOW_TAIL))) + 1, n)
        mode = np.minimum(np.floor((n + 1) * psi).astype(np.intp), n)
        return mode - t, t

    @staticmethod
    def pmf(n, psi):
        """(start, rows) with rows[i, j] = P(Binomial(n, psi[i]) = start[i] + j),
        j = 0..2t, for 0 < psi[i] < 1, on the windows of binom.window(n, psi),
        and 0 at states below 0 or above n. A row drops at most WINDOW_TAIL
        of its mass, and is computed from its own psi alone, so the rows of a
        slice of psi are that slice of the rows, bit for bit.

        A row starts at 1 at its mode and multiplies outward, above it by
        pmf(k+1)/pmf(k) = (n-k)/(k+1) * psi/(1-psi) and below it by the
        inverse, each factor at most 1, so nothing overflows; both sides read
        t ratios of one (n-k)/(k+1) table, as rows of a sliding_window_view,
        which the next call at the same n reuses. The row is then divided by
        the window's sum. An entry carries a few roundings per step from the
        mode: entries above 1e-300 of six rows with psi from 1e-3 to
        1 - 1e-3 were within 3e-14 relative of a 30-digit mpmath pmf at
        n = 1000 and 6e-14 at n = 5000, and each row sums to 1 within a few
        ulp."""
        global _last_steps
        np = _numpy()
        start, t = binom.window(n, psi)
        mode = start + t
        last_n, steps = _last_steps
        if last_n != n:
            k = np.arange(n)
            # pmf(k+1)/pmf(k) per unit odds at k, 0 from k = n on; at n - k it
            # is pmf(k-1)/pmf(k) per unit inverse odds, 0 from k = 0 down
            ratios = np.concatenate([(n - k) / (k + 1.0), np.zeros(t)])
            steps = np.lib.stride_tricks.sliding_window_view(ratios, t)
            _last_steps = (n, steps)
        rows = np.empty((len(psi), 2 * t + 1))
        rows[:, t] = 1.0
        for side, first, odds in ((rows[:, t + 1:], mode, psi / (1.0 - psi)),
                                  (rows[:, t - 1::-1], n - mode, (1.0 - psi) / psi)):
            window = steps[first]  # each row's t ratios outward from its mode
            window *= odds[:, None]
            np.cumprod(window, axis=1, out=side)
            del window  # one len(psi) x t temporary at a time
        rows /= rows.sum(axis=1, keepdims=True)
        return start, rows


# The last n that binom.pmf built rows for and its read-only ratio windows,
# read and replaced as one pair: a solve calls pmf once per panel, all at one
# n, and rebuilding the table and its view took about 30 us a call.
_last_steps: tuple = (None, None)


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
    with half-bandwidth b, which binom.window gives before any row is built.
    Elimination runs from the last state up in panels of k = _PANEL
    unknowns: with D the panel's k x k diagonal block, only the b rows above
    it change, by the Schur update U D^-1 [L | rhs] (U their part in the
    panel's columns, L the panel rows' part in the b columns to its left),
    about 2 N b^2 flops in all. The panel holding state 1 is solved for
    q[0], with no back-substitution. Rows enter k at a time, built just
    before the first panel that updates them, into a window over the b + k
    live unknowns that moves up a buffer of b + 3k rows and is copied back
    down at its top: O(b^2) working memory plus a few length-N vectors.
    I - P is a nonsingular M-matrix and so is each Schur complement, so no
    pivoting across panels is needed. Where one panel holds every state
    (N - 1 <= _PANEL) this is a dense solve."""
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
    start, t = binom.window(n, psi)
    width = 2 * t + 1
    offset = start - np.arange(1, n)  # first window state less the row's state
    b = int(max(-offset.min(), offset.max() + width - 1))
    col = n - start  # each row's window column of state N, >= width if outside
    m, k = n - 1, _PANEL  # unknown u is q at state u + 1
    # Buffer row i holds unknown base + i and column j unknown base + j - b,
    # so row i's band starts at column i, and a row is 0 left of it whoever
    # holds it; a view with row stride w + 1 (it fits for h >= b) lays each
    # run of rows with one offset in one copy.
    h = max(b, min(m, b + 3 * k))
    w = h + b
    buf = np.empty(h * (w + 1))
    a, rhs = buf[:h * w].reshape(h, w), np.empty(h)
    base, top = m - h, m  # rows top .. m-1 have entered
    for p1 in range(m, 0, -k):  # the panel is unknowns p0 .. p1-1
        p0 = max(p1 - k, 0)
        lo = max(p0 - b, 0)  # its Schur update reaches rows lo .. p0-1
        while top > lo:  # enter rows e .. top-1
            e = max(top - k, lo)
            if e < base:  # no room above: move rows top .. p1-1 to the bottom
                d, r, live = h - (p1 - base), top - base, p1 - top
                for i in reversed(range(0, live, d)):  # each slice below its source
                    j = min(i + d, live)
                    a[r + d + i:r + d + j, r + d:r + d + live + b] = a[r + i:r + j, r:r + live + b]
                rhs[r + d:h] = rhs[r:r + live]
                base -= d
            rows = binom.pmf(n, psi[e:top])[1]  # these states' rows of P only
            c = col[e:top]
            i0, i1 = e - base, top - base
            rhs[i0:i1] = np.where(c < width, rows[np.arange(top - e), np.minimum(c, width - 1)], 0.0)
            # A band running past its row's end (states >= N) spills into the
            # next row, left of any column a panel reads, or the buffer's tail.
            a[i0:i1] = 0.0
            band = buf[i0 * (w + 1):i1 * (w + 1)].reshape(top - e, w + 1)
            runs = [0, *(np.flatnonzero(np.diff(offset[e:top])) + 1).tolist(), top - e]
            for i, j in zip(runs, runs[1:]):
                o = int(offset[e + i]) + b
                np.negative(rows[i:j], out=band[i:j, o:o + width])
            del rows
            band[:, b] += 1.0
            top = e
        il, i0, i1 = lo - base, p0 - base, p1 - base  # rows, and columns less b
        diag = a[i0:i1, i0 + b:i1 + b]
        if p0 == 0:
            return float(np.linalg.solve(diag, rhs[i0:i1])[0])
        y = a[il:i0, i0 + b:i1 + b] @ np.linalg.inv(diag)  # U D^-1
        a[il:i0, il + b:i0 + b] -= y @ a[i0:i1, il + b:i0 + b]
        rhs[il:i0] -= y @ rhs[i0:i1]
