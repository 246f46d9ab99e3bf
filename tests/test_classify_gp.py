"""Generalized-Poisson bound-direction thresholds in the dispersion parameter,
and the three-way classification that bound_direction makes by the sign rule."""

import mpmath
import pytest

from gwbounds.classify_gp import gp_thresholds
from gwbounds.errors import DomainError
from gwbounds.fl_bounds import (
    LOWER_ON_S,
    SWITCHES,
    UPPER_ON_S,
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


def _lambda_c2_mp(s: float) -> float:
    """Where f''(P_inf) changes sign, by bisection in lambda on 30-digit
    solves: the GP pgf through mpmath's Lambert W, its derivatives by
    numerical differentiation, P_inf by a bracketed root solve, and the
    matching FL law's phi'' = 2 pi (1-pi)(1-rho)/(1 - pi x)^3."""
    mp = mpmath.mp
    with mpmath.workdps(30):
        s = mp.mpf(s)

        def f2(lam):
            mu = (1 + s) * (1 - lam)

            def phi(x):
                if x == 0:
                    return mp.exp(-mu)
                t = -mp.lambertw(-x * lam * mp.exp(-lam)).real / lam
                return mp.exp(mu * (t - 1))

            p = mp.findroot(lambda x: phi(x) - x, (mp.mpf(0), 1 - s / 10),
                            solver="anderson")
            gamma = mp.diff(phi, p)
            pi = (1 - gamma) / (1 - p * gamma)
            rho = p * pi
            return mp.diff(phi, p, 2) - 2 * pi * (1 - pi) * (1 - rho) / (1 - pi * p) ** 3

        lo, hi = mp.mpf("0.2"), mp.mpf("0.4")
        flo = f2(lo)
        for _ in range(40):
            mid = (lo + hi) / 2
            fmid = f2(mid)
            if mp.sign(fmid) == mp.sign(flo):
                lo, flo = mid, fmid
            else:
                hi = mid
        return float((lo + hi) / 2)


@pytest.mark.parametrize("s", [0.01, 0.1, 0.3])
def test_lambda_c2_matches_mpmath_reference(s):
    assert gp_thresholds(s).lambda_c2 == pytest.approx(_lambda_c2_mp(s), abs=1e-8)


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

