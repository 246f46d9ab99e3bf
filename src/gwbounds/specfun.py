"""Scalar special functions: principal-branch Lambert W and the product
exp(x)*E1(x) with the exponential integral E1, finite for large arguments.

All functions are pure and accept/return Python floats.
"""

from __future__ import annotations

import math
from math import exp, inf, sqrt

from .errors import ConvergenceError, DomainError, require_positive

_INV_E = math.exp(-1.0)
_EULER_GAMMA = 0.5772156649015328606
_LENTZ_A = tuple(-float(n * n) for n in range(2, 200))  # e1_cf_tail's a_n = -n^2

# lambert_w0 accepts z down to the branch point -1/e less a slack of 1e-15,
# and up to _W0_SERIES_TOP it is the branch series alone.
_W0_LOWEST, _W0_SERIES_TOP = -_INV_E - 1e-15, -_INV_E + 1e-6


def _branch_series(z: float) -> float:
    # Series in p = sqrt(2(e z + 1)) about the branch point z = -1/e, where
    # W(-1/e) = -1 and Halley's iteration degenerates.
    p = sqrt(max(2.0 * (math.e * z + 1.0), 0.0))
    return (-1.0
            + p
            - p * p / 3.0
            + 11.0 / 72.0 * p ** 3
            - 43.0 / 540.0 * p ** 4
            + 769.0 / 17280.0 * p ** 5)


def lambert_w0(z: float) -> float:
    """Principal branch W(z) of w*exp(w) = z for z >= -1/e."""
    if not _W0_LOWEST <= z < inf:
        raise DomainError(f"lambert_w0 requires a finite z >= -1/e, got {z!r}")
    if z == 0.0:
        return 0.0
    if z <= _W0_SERIES_TOP:
        # Close to the branch point the truncated series is accurate to
        # ~1e-17 while Halley's denominator degenerates; use the series alone.
        return max(_branch_series(z), -1.0)

    # Piecewise initial guess.
    if z < 0.0:
        w = _branch_series(z)
    elif z <= math.e:
        w = z / (1.0 + z)
    else:
        lz = math.log(z)
        w = lz - math.log(lz)

    prev_dw = inf
    for _ in range(100):
        ew = exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        dw = f / denom
        w -= dw
        dw = abs(dw)
        # Converged, or stalled at the rounding floor of w*e^w - z.
        if dw <= 1e-14 * (2.0 + abs(w)) or (dw < 1e-10 and dw >= 0.5 * prev_dw):
            return w
        prev_dw = dw
    raise ConvergenceError(f"lambert_w0 did not converge for z={z!r}")


def _e1_series(x: float) -> float:
    # E1(x) = -gamma - ln x + sum_{k>=1} (-1)^{k+1} x^k / (k * k!), for small x.
    total = -_EULER_GAMMA - math.log(x)
    term = 1.0
    for k in range(1, 60):
        term *= -x / k
        add = -term / k
        total += add
        if abs(add) <= 1e-17 * max(1.0, abs(total)):
            break
    return total


def e1_cf_tail(x: float) -> float:
    """The tail T = 1/(x+3- 4/(x+5- 9/(x+7- ...))) of the continued fraction

        exp(x)*E1(x) = 1/(x+1-T),

    for x >= 1, by the modified Lentz algorithm. T is about 1/(x+3), so
    neither exp_e1 nor the per-locus variance built from it cancels."""
    if not 1.0 <= x < math.inf:
        raise DomainError(f"e1_cf_tail requires a finite x >= 1, got {x!r}")
    # No guard against a zero b + a*d or c: for x >= 1 both are ratios of positive
    # convergent denominators or numerators, above b/2 (tests/test_specfun.py).
    tiny = 1e-300
    b = x + 3.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for a in _LENTZ_A:
        b += 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        h *= delta
        if -1e-15 <= delta - 1.0 <= 1e-15:
            return h
    raise ConvergenceError(f"E1 continued fraction did not converge for x={x!r}")


def exp_e1(x: float) -> float:
    """The fused product exp(x)*E1(x), finite for arbitrarily large x, with
    E1(x) = integral_x^inf exp(-t)/t dt.

    exp(x) alone overflows near x ~ 709 while the product is O(1/x); the
    continued-fraction route never forms exp(x) for large x.
    """
    require_positive("x", x)
    if x < 1.0:
        return math.exp(x) * _e1_series(x)
    return 1.0 / (x + 1.0 - e1_cf_tail(x))
