"""Generalized-Poisson bound-direction thresholds in the dispersion parameter,
and the three-way classification that bound_direction makes by the sign rule."""

import functools
import json
import math
import os

import mpmath
import pytest

from gwbounds.classify_gp import gp_thresholds
from gwbounds.errors import DomainError
from gwbounds.fl_bounds import (
    LOWER_ON_S,
    MIN_S,
    SWITCHES,
    UPPER_ON_S,
    _e2,
    _fixed_point,
    bound_direction,
    matching_fl,
    sn_fl_bound,
)
from gwbounds.pgf_core import (
    GeneralizedPoisson,
    extinction_probability,
    gp_from_s,
    moments,
    pgf_eval,
)


BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


# ---------------------------------------------------------------------------
# Threshold anchors (independent bisection targets pinned from high-accuracy
# evaluation)
# ---------------------------------------------------------------------------

def test_thresholds_s_01():
    th = gp_thresholds(0.1)
    assert th.lambda_c0 == pytest.approx(0.27857, abs=2e-5)
    assert th.lambda_c1 == pytest.approx(0.26820, abs=2e-5)
    assert th.lambda_c2 == pytest.approx(0.26967, abs=2e-5)
    assert th.lambda_c1 < th.lambda_c2 < th.lambda_c0


def test_thresholds_s_03():
    th = gp_thresholds(0.3)
    assert th.lambda_c0 == pytest.approx(0.31433, abs=2e-4)
    assert th.lambda_c1 == pytest.approx(0.30160, abs=2e-4)
    assert th.lambda_c2 == pytest.approx(0.30596, abs=2e-4)
    assert th.lambda_c1 < th.lambda_c2 < th.lambda_c0


def test_threshold_defining_properties():
    # Each critical lambda is a genuine sign-change point of its functional.
    for s in (0.1, 0.3):
        th = gp_thresholds(s)
        eps = 1e-4

        def f0(lam):
            model = gp_from_s(lam, s)
            fp = extinction_probability(model)
            fl = matching_fl(fp)
            return pgf_eval(model, 0.0) - pgf_eval(fl, 0.0)

        assert f0(th.lambda_c0 - eps) * f0(th.lambda_c0 + eps) < 0.0
        assert abs(f0(th.lambda_c0)) < 1e-8

        # lambda_c1: m * gamma - 1 changes sign.
        def mg(lam):
            fp = extinction_probability(gp_from_s(lam, s))
            return (1.0 + s) * fp.gamma - 1.0

        assert mg(th.lambda_c1 - eps) < 0.0 < mg(th.lambda_c1 + eps)


def _dps(s: float) -> int:
    """Working digits for a reference at mean 1 + s: P_inf's root solve
    loses about log10(1/s) digits to the slope 1 - phi'(P_inf) ~ s, and f'(1)
    and f''(P_inf) change sign at O(s^2) and O(s) out of terms of size s
    and 1."""
    return 40 + 3 * round(-math.log10(s))


def _gp_fixed_point_mp(lam, s, mu=None):
    """(phi, P_inf, gamma) of the GP law of mean 1 + s, or of the given mu, at
    the working precision, in P space: phi through mpmath's Lambert W, P_inf
    by a bracketed root solve of phi(x) = x polished by the secant method,
    and gamma = phi'(P_inf) by numerical differentiation."""
    mp = mpmath.mp
    if mu is None:
        mu = (1 + s) * (1 - lam)

    def phi(x):
        if x == 0:
            return mp.exp(-mu)
        t = -mp.lambertw(-x * lam * mp.exp(-lam)).real / lam
        return mp.exp(mu * (t - 1))

    def g(x):
        return phi(x) - x

    p = mp.findroot(g, (mp.mpf(0), 1 - s / 10), solver="illinois", verify=False, maxsteps=400)
    p = mp.findroot(g, p)
    return phi, p, mp.diff(phi, p)


@functools.lru_cache(maxsize=None)
def _thresholds_mp(s: float) -> tuple:
    """(lambda_c0, lambda_c1, lambda_c2): the roots in [0.2, 0.4] of f(0),
    f'(1) = 1 + s - 1/gamma and f''(P_inf) = phi''(P_inf) - 2 pi (1-pi)(1-rho)/
    (1 - pi P_inf)^3, the matching FL law's pi = (1-gamma)/(1 - P_inf gamma)
    and rho = P_inf pi, at _dps(s) digits."""
    mp = mpmath.mp
    with mpmath.workdps(_dps(s)):
        s = mp.mpf(s)

        def f0(lam):
            phi, p, gamma = _gp_fixed_point_mp(lam, s)
            pi = (1 - gamma) / (1 - p * gamma)
            return phi(0) - p * pi

        def f1(lam):
            _, _, gamma = _gp_fixed_point_mp(lam, s)
            return 1 + s - 1 / gamma

        def f2(lam):
            phi, p, gamma = _gp_fixed_point_mp(lam, s)
            pi = (1 - gamma) / (1 - p * gamma)
            rho = p * pi
            return mp.diff(phi, p, 2) - 2 * pi * (1 - pi) * (1 - rho) / (1 - pi * p) ** 3

        return tuple(float(mp.findroot(f, (mp.mpf("0.2"), mp.mpf("0.4")), solver="anderson"))
                     for f in (f0, f1, f2))


# The absolute bound on each threshold by s. f'(1) and f''(P_inf) change
# sign at O(s^2) and O(s) out of terms of size s and 1, so rounding of
# relative size eps moves lambda_c1 and lambda_c2 by a few eps/s (at s = 1e-6
# they read 2.0e-10 and 3.2e-10 off, at 1e-8 3.3e-8 and 1.9e-8).
THRESHOLD_TOL = {0.3: 1e-10, 0.1: 1e-10, 0.01: 1e-10, 1e-3: 1e-10, 1e-4: 1e-10,
                 1e-6: 1e-9, 1e-8: 1e-7}


# The name is kept for stable ids; it checks all three thresholds.
@pytest.mark.parametrize("s", [0.01, 0.1, 0.3, 1e-3, 1e-4, 1e-6, 1e-8])
def test_lambda_c2_matches_mpmath_reference(s):
    th = gp_thresholds(s)
    got = (th.lambda_c0, th.lambda_c1, th.lambda_c2)
    assert got == pytest.approx(_thresholds_mp(s), rel=0.0, abs=THRESHOLD_TOL[s])


def test_thresholds_match_the_bench_30_digit_references():
    # bench/refs.py: 36 bisection steps on [0.01, 0.6] of 30-digit solves,
    # (lambda_c2, lambda_c0, lambda_c1) by repr(s), s = 1e-3 ... 0.4.
    with open(os.path.join(BENCH, "ref_cache.json")) as fh:
        refs = json.load(fh)["gp_thresholds"]
    assert len(refs) == 8
    for key, (c2, c0, c1) in refs.items():
        th = gp_thresholds(float(key))
        assert (th.lambda_c0, th.lambda_c1, th.lambda_c2) == pytest.approx(
            (c0, c1, c2), rel=0.0, abs=1e-10), key


@pytest.mark.parametrize("s", [0.3, 1e-2, 1e-4, 1e-8, 1e-12])
def test_survival_space_fixed_point_against_mpmath(s):
    # P_inf, S_inf, 1 - gamma and phi''(P_inf) of the bisection's closed
    # forms, against the P-space root solve at _dps(s) digits: within 1.6e-15
    # relative (1 - gamma at s = 0.1, where e2 is expm1(x) - x), and
    # 5e-16 for S_inf and P_inf.
    for lam in (1e-6, 0.2, 0.5, 0.9, 0.99):
        _, _, mu, p_inf, s_inf, g, t, d = _fixed_point(lam, s)
        curvature = mu * t * t * (mu * d + lam * (1.0 + d)) / (p_inf * d ** 3)
        with mpmath.workdps(_dps(s)):
            phi, p, gamma = _gp_fixed_point_mp(mpmath.mpf(lam), mpmath.mpf(s))
            want = (p, 1 - p, 1 - gamma, mpmath.diff(phi, p, 2))
            got = (p_inf, s_inf, g, curvature)
            errors = [float(abs(x / y - 1)) for x, y in zip(got, want)]
        assert max(errors) <= 3e-15, (lam, errors)


def test_e2_is_expm1_minus_x_without_cancellation():
    with mpmath.workdps(40):
        for x in (-0.9, -0.5, -0.1000001, -0.0999999, -1e-3, -1e-8, -1e-20, 1e-5, 0.05):
            want = mpmath.expm1(x) - x
            assert abs(_e2(x) / want - 1) <= (4.5e-15 if abs(x) >= 0.1 else 4e-16), x


def test_small_s_approximations():
    # The linear-in-s approximations track the exact thresholds for s <= 0.3.
    for s in (0.05, 0.1, 0.2, 0.3):
        th = gp_thresholds(s)
        assert th.lambda_c0 == pytest.approx(th.lambda_c0_approx, abs=0.01)
        assert th.lambda_c1 == pytest.approx(th.lambda_c1_approx, abs=0.01)
        assert th.lambda_c2 == pytest.approx(th.lambda_c2_approx, abs=0.01)


def test_thresholds_domain():
    with pytest.raises(DomainError):
        gp_thresholds(0.0)
    with pytest.raises(DomainError):
        gp_thresholds(9.99e-9)  # below MIN_S, rounding sets the thresholds
    with pytest.raises(DomainError):
        gp_thresholds(0.7)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_poisson_limit_proven():
    d = bound_direction(gp_from_s(0.0, 0.1))
    assert d.kind == UPPER_ON_S
    assert not d.conjectured


def test_classify_three_zones():
    th = gp_thresholds(0.1)
    assert bound_direction(gp_from_s(0.1, 0.1)).kind == UPPER_ON_S
    assert bound_direction(gp_from_s(0.1, 0.1)).conjectured
    mid = 0.5 * (th.lambda_c2 + th.lambda_c0)
    d = bound_direction(gp_from_s(mid, 0.1))
    assert d.kind == SWITCHES
    assert d.conjectured
    assert d.switch_n is not None and d.switch_n >= 1
    assert bound_direction(gp_from_s(0.5, 0.1)).kind == LOWER_ON_S


def test_classify_switch_anchor():
    # lambda = 0.276, s = 0.1: switch between generations 3 and 4.
    d = bound_direction(gp_from_s(0.276, 0.1))
    assert d.kind == SWITCHES
    assert d.switch_n in (3, 4)


@pytest.mark.parametrize("s", [1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.2, 0.3, 0.4, 0.5])
def test_sign_rule_agrees_with_the_thresholds(s):
    # Oracle: the zone of lam against gp_thresholds(s), on lam = 0.005..0.995.
    # bound_direction decides each law from its own f''(P_inf) and f(0).
    th = gp_thresholds(s)
    for i in range(1, 200):
        lam = i / 200.0
        if lam < th.lambda_c2:
            zone = UPPER_ON_S
        elif lam > th.lambda_c0:
            zone = LOWER_ON_S
        else:
            zone = SWITCHES
        assert bound_direction(gp_from_s(lam, s)).kind == zone, lam


# Within this many 2^-53/s of lambda_c2, rounding, not the law, sets the sign
# of f''(P_inf) (MIN_S): bound_direction's side of the mpmath lambda_c2 was
# seen to flip up to 3.25 of them away at s = 1e-4 ... 1e-8.
ROUNDING_MARGIN = 8.0


@pytest.mark.parametrize("s", [1e-4, 1e-5, 1e-6, 1e-8])
def test_sign_rule_agrees_with_the_mpmath_zones_near_criticality(s):
    # lam = 0.2499 ... 0.2501 in steps of 1e-5, and lam_c +- 1e-3 ... 1e-9
    # about the mpmath lambda_c2 and lambda_c0, outside the rounding margin.
    c0, _, c2 = _thresholds_mp(s)
    margin = ROUNDING_MARGIN * 2.0 ** -53 / s
    offsets = [k * 10.0 ** -e for e in range(3, 10) for k in (-3, -1, 1, 3)]
    grid = [0.2499 + i * 1e-5 for i in range(21)] + [c + d for c in (c2, c0) for d in offsets]
    zones = set()
    for lam in grid:
        if abs(lam - c2) <= margin or abs(lam - c0) <= margin:
            continue
        zone = UPPER_ON_S if lam < c2 else LOWER_ON_S if lam > c0 else SWITCHES
        zones.add(zone)
        assert bound_direction(gp_from_s(lam, s)).kind == zone, lam
    assert zones == {UPPER_ON_S, SWITCHES, LOWER_ON_S}


def test_switch_n_near_criticality_against_a_60_digit_p_space_scan():
    # At s = 1e-8, where the P-space root solve raises on most Switches-zone
    # laws, switch_n scans against the survival-space fixed point. The
    # reference iterates the Lambert-W pgf at 60 digits from P^(0) = 0 and
    # takes the FL law of a 60-digit P-space root: P^(n) - P_FL^(n) must
    # first leave the sign of n = 1 at switch_n, wherever switch_n <= 20.
    s = 1e-8
    checked = []
    for lam in [0.2501 + 5e-4 * k for k in range(19)] + [0.259]:
        model = gp_from_s(lam, s)
        d = bound_direction(model)
        assert d.kind == SWITCHES, lam
        if d.switch_n is None or d.switch_n > 20:
            continue
        with mpmath.workdps(60):
            phi, p, gamma = _gp_fixed_point_mp(mpmath.mpf(lam), mpmath.mpf(s),
                                               mpmath.mpf(model.mu))
            x, signs = mpmath.mpf(0), []
            for n in range(1, d.switch_n + 1):
                x = phi(x)
                diff = x - p * (1 - gamma ** n) / (1 - gamma ** n * p)
                signs.append(mpmath.sign(diff))
        assert signs[:-1] == [signs[0]] * (d.switch_n - 1) and signs[-1] == -signs[0], lam
        checked.append(lam)
    assert 0.259 in checked


def test_classify_takes_the_thresholds_least_s():
    # s >= MIN_S is read off the law's own parameters, as gp_from_s(lam,
    # MIN_S) evaluates them; below it the rule would read rounding.
    assert bound_direction(gp_from_s(0.2, MIN_S)).kind == UPPER_ON_S
    assert bound_direction(gp_from_s(0.3, MIN_S)).kind == LOWER_ON_S
    for model in (gp_from_s(0.3, 1e-9), gp_from_s(0.2, 9.99e-9),
                  GeneralizedPoisson(mu=(1.0 + MIN_S) * 0.7 * (1.0 - 2.0 ** -53), lam=0.3)):
        with pytest.raises(DomainError, match="rounding"):
            bound_direction(model)


def test_tiny_lambda_is_upper():
    for lam in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
        d = bound_direction(gp_from_s(lam, 0.1))
        assert d.kind == UPPER_ON_S and d.conjectured, lam


def test_poisson_is_proven_upper_at_any_mean():
    # lam = 0 is decided before the s <= 0.5 check, so s = 1 is accepted.
    d = bound_direction(GeneralizedPoisson(mu=2.0, lam=0.0))
    assert d.kind == UPPER_ON_S
    assert not d.conjectured


def test_classify_s_domain():
    # s <= 0.5 is read off the law's own parameters: mu <= 1.5 (1 - lam).
    assert bound_direction(gp_from_s(0.3, 0.5)).kind == UPPER_ON_S
    with pytest.raises(DomainError):
        bound_direction(GeneralizedPoisson(mu=1.5 * 0.7 * (1.0 + 2.0 ** -52), lam=0.3))
    with pytest.raises(DomainError):
        bound_direction(gp_from_s(0.3, 0.7))


def test_classify_domain():
    with pytest.raises(DomainError):
        bound_direction(gp_from_s(1.0, 0.1))
    with pytest.raises(DomainError):
        bound_direction(gp_from_s(-0.2, 0.1))


# ---------------------------------------------------------------------------
# Direction claims verified against exact iterates
# ---------------------------------------------------------------------------

def test_upper_zone_bound_holds_on_iterates():
    for lam in (0.05, 0.15, 0.25):
        model = gp_from_s(lam, 0.1)
        assert bound_direction(model).kind == UPPER_ON_S
        fp = extinction_probability(model)
        x = 0.0
        for n in range(1, 100):
            x = pgf_eval(model, x)
            assert 1.0 - x <= sn_fl_bound(model, n, fp) + 1e-13, (lam, n)


def test_lower_zone_bound_holds_on_iterates():
    for lam in (0.4, 0.6, 0.9):
        model = gp_from_s(lam, 0.1)
        assert bound_direction(model).kind == LOWER_ON_S
        fp = extinction_probability(model)
        x = 0.0
        for n in range(1, 100):
            x = pgf_eval(model, x)
            assert 1.0 - x >= sn_fl_bound(model, n, fp) - 1e-13, (lam, n)


def test_switch_zone_bound_changes_side_once():
    model = gp_from_s(0.276, 0.1)
    d = bound_direction(model)
    fp = extinction_probability(model)
    x = 0.0
    sides = []
    for n in range(1, 200):
        x = pgf_eval(model, x)
        diff = (1.0 - x) - sn_fl_bound(model, n, fp)
        if abs(diff) > 1e-14:
            sides.append(1 if diff > 0 else -1)
    # Exactly one sign change: upper bound (diff < 0) for small n, then
    # lower bound (diff > 0) for large n.
    changes = sum(1 for a, b in zip(sides, sides[1:]) if a != b)
    assert changes == 1
    assert sides[0] == -1 and sides[-1] == 1
    first_pos = next(i + 1 for i, v in enumerate(sides) if v == 1)
    assert first_pos == d.switch_n


def test_mg_product_exceeds_one_beyond_c1():
    # Above lambda_c1 the mean-rate product m*gamma exceeds 1, unlike the
    # proven families.
    fp = extinction_probability(gp_from_s(0.3, 0.1))
    m = moments(gp_from_s(0.3, 0.1)).m
    assert m * fp.gamma > 1.0

