"""Special-function tests against independent oracles: a bisection solver for
the Lambert W equation and scipy's exponential integral."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import exp1 as scipy_exp1
from scipy.special import lambertw as scipy_lambertw

from gwbounds.errors import DomainError
from gwbounds.specfun import e1_cf_tail, exp_e1, exp_integral_e1, lambert_w0


def w0_bisection_oracle(x: float) -> float:
    """Solve w*e^w = x for the principal branch by bisection."""
    lo, hi = -1.0, max(1.0, math.log(max(x, 1.0)) + 1.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@given(st.floats(min_value=-1.0 / math.e + 1e-12, max_value=50.0))
@settings(max_examples=300, deadline=None)
def test_lambert_w0_against_bisection(x):
    w = lambert_w0(x)
    assert abs(w - w0_bisection_oracle(x)) <= 1e-10 * max(1.0, abs(w)) + 1e-12


@given(st.floats(min_value=-1.0 / math.e + 1e-12, max_value=50.0))
@settings(max_examples=300, deadline=None)
def test_lambert_w0_roundtrip(x):
    w = lambert_w0(x)
    assert abs(w * math.exp(w) - x) <= 1e-13 * max(1.0, abs(x))


def test_lambert_w0_branch_point():
    assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)


@given(st.floats(min_value=-math.exp(-1.0001), max_value=-1e-8))
@settings(max_examples=200, deadline=None)
def test_lambert_w0_matches_scipy_on_negative_axis(x):
    # The survival computations only ever evaluate W on [-1/e, 0).
    ours = lambert_w0(x)
    ref = float(scipy_lambertw(x, 0).real)
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9)


@given(st.floats(min_value=1e-6, max_value=500.0))
@settings(max_examples=300, deadline=None)
def test_e1_against_scipy(x):
    assert exp_integral_e1(x) == pytest.approx(float(scipy_exp1(x)), rel=1e-12, abs=1e-300)


@given(st.floats(min_value=1e-6, max_value=700.0))
@settings(max_examples=300, deadline=None)
def test_exp_e1_sandwich(x):
    # x/(x+1) < x e^x E1(x) < 1 for x > 0.
    v = x * exp_e1(x)
    assert x / (x + 1.0) < v < 1.0


@given(st.floats(min_value=1e-6, max_value=500.0))
@settings(max_examples=200, deadline=None)
def test_exp_e1_consistent_with_e1(x):
    assert exp_e1(x) == pytest.approx(math.exp(x) * exp_integral_e1(x), rel=1e-11)


@pytest.mark.parametrize("fn, x", [
    (lambert_w0, math.nan), (lambert_w0, math.inf), (lambert_w0, -math.inf),
    (lambert_w0, -0.5),
    (exp_e1, math.nan), (exp_e1, math.inf), (exp_e1, 0.0),
    (exp_integral_e1, math.nan), (exp_integral_e1, math.inf), (exp_integral_e1, -1.0),
    (e1_cf_tail, math.nan), (e1_cf_tail, math.inf), (e1_cf_tail, 0.5),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_arguments_outside_the_domain_raise_domain_error(fn, x):
    # Non-finite arguments too: they used to run the iterations to their cap
    # and raise ConvergenceError.
    with pytest.raises(DomainError):
        fn(x)
