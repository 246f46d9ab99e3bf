"""Acceptance criteria: one test per criterion, each emitting a single
PASS/FAIL line on the real stdout (bypassing capture) before asserting.

Six cells of the published reference tables behind criteria 1, 2 and 3 are
not what the formulas they tabulate give.  Those cells are kept as asserted
errata: each erratum holds the published value, an independent reference
(50-digit mpmath, exact rational arithmetic or the generalized-Poisson closed
form, computed here rather than copied from the program) and how that
reference was derived.  The program must match the reference and must not
give the published value; the PASS line reports how many errata a criterion
holds.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import pytest

from gwbounds.classify_f3 import f3_f_value, f3_p_inf, f3_region_volumes
from gwbounds.classify_gp import gp_thresholds
from gwbounds.errors import ApplicabilityError
from gwbounds.fl_bounds import (
    bin_coeff_cf,
    fl_survival_by_n,
    matching_fl,
    nb_coeff_cg,
    sn_fl_bound,
    sn_pollak_bound,
    sn_simple_bound,
    t_eps_app,
    t_eps_exact,
)
from gwbounds.genetics import (
    WFModel,
    mutant_density,
    wf_fixation_diffusion,
    wf_fixation_exact,
    within_variance,
)
from gwbounds.pgf_core import (
    FractionalLinear,
    Poisson,
    binomial_from_s,
    extinction_probability,
    gp_from_s,
    iterate_extinction,
    negbinomial_from_s,
    pgf_eval,
    poisson_from_s,
    fl_from_s,
)
from gwbounds.sinf_estimates import (
    beta_bound,
    dn_upper,
    sinf_bounds_all,
    sinf_series_eval,
    t_ser,
)


_CAPMAN = None


@pytest.fixture(autouse=True)
def _capture_manager(request):
    # pytest captures at the file-descriptor level, so even sys.__stdout__ is
    # swallowed for passing tests; suspend capture to emit the report lines.
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(criterion: int, failures, description: str, errata: int = 0):
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE CRITERION {criterion}: {status} - {description}"
    if failures:
        line += f" ({len(failures)} mismatch(es))"
    if errata:
        noun = "erratum" if errata == 1 else "errata"
        line += f" ({errata} published {noun} checked against an independent" \
                " reference)"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
    else:
        sys.stdout.write(line + "\n")
    if failures:
        pytest.fail("; ".join(failures))


def close(value, target, tol):
    return abs(value - target) <= tol


@dataclass(frozen=True)
class Erratum:
    """A published cell that the formula it tabulates does not give."""
    published: float
    reference: Callable[[], float]  # independent value of the formula
    derivation: str


def check_erratum(label, got, target, tol, erratum, ref_tol, failures):
    """Check one erratum cell: the table still holds the published value, the
    program agrees with the independent reference to ref_tol, and the program
    does not reproduce the published value to the published tolerance."""
    if erratum.published != target:
        failures.append(f"{label}: erratum lists {erratum.published}, "
                        f"table prints {target}")
    ref = erratum.reference()
    if not close(got, ref, ref_tol):
        failures.append(f"{label}: got {got}, independent reference {ref} "
                        f"({erratum.derivation})")
    if close(got, target, tol):
        failures.append(f"{label}: got {got}, which reproduces the published "
                        f"erratum {target}+-{tol}")


# ---------------------------------------------------------------------------
# 1. Relative errors of the three survival bounds for the Poisson family
# ---------------------------------------------------------------------------

TABLE1 = {
    # m -> method -> [(target, tol) for n in 1, 5, 10, 20, 50, 100]
    1.5: {
        "simple": [(0.0863, 1e-4), (0.0295, 1e-4), (0.00307, 1e-5),
                   (2.8e-5, 1e-6), (2.2e-11, 1e-12), (0.0, 1e-13)],
        "fl": [(0.0153, 1e-4), (0.0035, 1e-4), (0.00034, 1e-5),
               (3.1e-6, 1e-7), (2.5e-12, 1e-13), (0.0, 1e-13)],
        "pollak": [(0.0062, 1e-4), (0.0010, 1e-4), (0.00009, 1e-5),
                   (8.3e-7, 1e-8), (6.4e-13, 1e-14), (0.0, 1e-13)],
    },
    1.1: {
        "simple": [(0.3832, 1e-4), (0.9869, 1e-4), (0.94154, 1e-5),
                   (0.47327, 1e-5), (0.02823, 1e-5), (2.1e-4, 1e-5)],
        "fl": [(0.0420, 1e-4), (0.0372, 1e-4), (0.02084, 1e-5),
               (0.00705, 1e-5), (0.00035, 1e-5), (2.5e-6, 1e-7)],
        "pollak": [(0.0342, 1e-4), (0.0262, 1e-4), (0.01321, 1e-5),
                   (0.00404, 1e-5), (0.00019, 1e-5), (1.4e-6, 1e-7)],
    },
    1.02: {
        "simple": [(0.5343, 1e-4), (2.2140, 1e-4), (3.7106, 1e-4),
                   (5.405, 1e-3), (5.589, 1e-3), (2.802, 1e-3)],
        "fl": [(0.0518, 1e-4), (0.0587, 1e-4), (0.04439, 1e-5),
               (0.02777, 1e-5), (0.01050, 1e-5), (0.00316, 1e-5)],
        "pollak": [(0.0497, 1e-4), (0.0546, 1e-4), (0.03994, 1e-5),
                   (0.02386, 1e-5), (0.00827, 1e-5), (0.00233, 1e-5)],
    },
}

NS = (1, 5, 10, 20, 50, 100)


def pollak_relative_error_mp(m: str, n: int) -> float:
    """(bound - S^(n))/S^(n) for Pollak's bound on Poisson(m), at 50 digits.

    For Poisson, P_inf = -W0(-m e^-m)/m, gamma = m P_inf and phi''(P_inf) =
    m^2 P_inf, so Pollak's bound reads
    S_inf + P_inf/(1 + gamma(1 - gamma^n)/(2(1 - gamma))) * gamma^n;
    S^(n) = 1 - P^(n) comes from iterating P^(k) = exp(m(P^(k-1) - 1))."""
    with mpmath.workdps(50):
        m = mpmath.mpf(m)
        p_inf = -mpmath.lambertw(-m * mpmath.exp(-m)).real / m
        gamma = m * p_inf
        bound = (1 - p_inf) + p_inf * gamma ** n / (
            1 + gamma * (1 - gamma ** n) / (2 * (1 - gamma)))
        x = mpmath.mpf(0)
        for _ in range(n):
            x = mpmath.exp(m * (x - 1))
        return float((bound - (1 - x)) / (1 - x))


ERRATA_1 = {
    # (m, method, n) -> erratum
    (1.02, "pollak", 5): Erratum(
        published=0.0546,
        reference=lambda: pollak_relative_error_mp("1.02", 5),
        derivation="Pollak's bound and S^(5) for Poisson(1.02) at 50 digits,"
                   " 0.054457638; the other five m=1.02 Pollak cells match the"
                   " same formula to every printed digit"),
}


def test_criterion_1_poisson_relative_errors():
    failures = []
    checked = 0
    for m, methods in TABLE1.items():
        model = Poisson(m=m)
        fp = extinction_probability(model)
        exact = {n: 1.0 - iterate_extinction(model, n) for n in NS}
        bound_fn = {
            "simple": lambda n: sn_simple_bound(model, n, fp),
            "fl": lambda n: sn_fl_bound(model, n, fp),
            "pollak": lambda n: sn_pollak_bound(model, n, fp),
        }
        for method, cells in methods.items():
            for n, (target, tol) in zip(NS, cells):
                rel = (bound_fn[method](n) - exact[n]) / exact[n]
                label = f"m={m} {method} n={n}"
                erratum = ERRATA_1.get((m, method, n))
                if erratum is not None:
                    checked += 1
                    check_erratum(label, rel, target, tol, erratum, 1e-9,
                                  failures)
                elif not close(rel, target, tol):
                    failures.append(
                        f"{label}: got {rel:.6g}, want {target}+-{tol}")
    if checked != len(ERRATA_1):
        failures.append(f"{len(ERRATA_1) - checked} erratum cell(s) not in table")
    report(1, failures, "Poisson bound relative errors, 54 cells", checked)


# ---------------------------------------------------------------------------
# 2. Eventual-survival bounds across seven families at s = 0.2
# ---------------------------------------------------------------------------

TABLE2_MODELS = [
    ("bin_n5", lambda: binomial_from_s(5, 0.2)),
    ("nb_r5", lambda: negbinomial_from_s(5, 0.2)),
    ("gp_0.0", lambda: gp_from_s(0.0, 0.2)),
    ("gp_0.2", lambda: gp_from_s(0.2, 0.2)),
    ("gp_0.5", lambda: gp_from_s(0.5, 0.2)),
    ("gp_0.9", lambda: gp_from_s(0.9, 0.2)),
    ("fl_0.2", lambda: fl_from_s(0.2, 0.2)),
]

TABLE2 = {
    "beta": [(0.3472, 1e-4), (0.2315, 1e-4), (0.2778, 1e-4), (0.1891, 1e-4),
             (0.0794, 1e-4), (0.00333, 1e-5), (0.6667, 1e-4)],
    "quine_lower": [(0.3673, 1e-4), (0.2444, 1e-4), (0.2936, 1e-4),
                    (0.1993, 1e-4), (0.0832, 1e-4), (0.00346, 1e-5),
                    (0.7018, 1e-4)],
    "exact": [(0.3804, 1e-4), (0.2668, 1e-4), (0.3137, 1e-4), (0.2228, 1e-4),
              (0.1003, 1e-4), (0.00466, 1e-5), (0.8000, 1e-4)],
    "series3": [(0.3875, 1e-4), (0.2670, 1e-4), (0.3182, 1e-4),
                (0.2228, 1e-4), (0.1001, 1e-4), (0.00466, 1e-5),
                (0.8000, 1e-4)],
    "dn_upper": [(0.3823, 1e-4), (0.2733, 1e-4), (0.3183, 1e-4),
                 (0.2317, 1e-4), (0.1158, 1e-4), (None, None),
                 (0.8453, 1e-4)],
    "haldane": [(0.5000, 1e-4), (0.3333, 1e-4), (0.4000, 1e-4),
                (0.2560, 1e-4), (0.1000, 1e-4), (0.00400, 1e-5),
                (0.8000, 1e-4)],
}


def nb_sinf_series_exact(r: int, s: Fraction) -> Fraction:
    """Order-3 truncation in s of the survival root y(s) of
    1 - y = phi(1 - y) for the negative binomial with mean 1 + s, where
    phi(1 - y) = (1 + (1 + s) y / r)^-r, in exact rational arithmetic.

    With y = s z, expanding (1 + u)^-r in u = (1 + s) s z / r and dividing by
    s^2 z leaves the fixed-point form
    z = (1 + sum_{k>=3} a_k (1+s)^k s^(k-2) z^(k-1)) / (c (1+s)^2),
    a_k = (-1)^(k+1) r(r+1)...(r+k-1) / (k! r^k), c = (r+1)/(2r).
    Each pass fixes one more coefficient of z as a power series in s."""
    size = 3  # coefficients of z up to s^2, so of y up to s^3

    def mul(a, b):
        return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(size)]

    def power(a, k):
        out = [Fraction(1)] + [Fraction(0)] * (size - 1)
        for _ in range(k):
            out = mul(out, a)
        return out

    one_plus_s = ([Fraction(1), Fraction(1)] + [Fraction(0)] * size)[:size]
    inv_lead = [Fraction(2 * r, r + 1) * (-1) ** j * (j + 1) for j in range(size)]
    z = [Fraction(0)] * size
    for _ in range(size):
        acc = [Fraction(1)] + [Fraction(0)] * (size - 1)
        for k in range(3, size + 2):
            a_k = Fraction((-1) ** (k + 1) * math.prod(range(r, r + k)),
                           math.factorial(k) * r ** k)
            term = mul(power(one_plus_s, k), power(z, k - 1))
            for j in range(k - 2, size):
                acc[j] += a_k * term[j - (k - 2)]
        z = mul(acc, inv_lead)
    return sum(c * s ** (j + 1) for j, c in enumerate(z))


ERRATA_2 = {
    # (model name, quantity) -> erratum
    ("nb_r5", "series3"): Erratum(
        published=0.2670,
        reference=lambda: float(nb_sinf_series_exact(5, Fraction(1, 5))),
        derivation="exact order-3 series 5/3 s - 55/27 s^2 + 550/243 s^3 of the"
                   " negative-binomial r=5 survival root, 328/1215 at s=0.2"),
}


def test_criterion_2_sinf_bounds_table():
    failures = []
    checked = 0
    for col, (name, ctor) in enumerate(TABLE2_MODELS):
        model = ctor()
        sb = sinf_bounds_all(model, 0.2)
        got = {
            "beta": sb.beta,
            "quine_lower": sb.quine_lower,
            "exact": sb.exact,
            "series3": sb.series3,
            "dn_upper": sb.dn_upper,
            "haldane": sb.haldane,
        }
        for quantity, cells in TABLE2.items():
            target, tol = cells[col]
            value = got[quantity]
            if target is None:
                if value is not None:
                    failures.append(f"{name} {quantity}: expected inapplicable")
                continue
            erratum = ERRATA_2.get((name, quantity))
            if erratum is not None:
                checked += 1
                check_erratum(f"{name} {quantity}", value, target, tol,
                              erratum, 1e-12, failures)
            elif value is None or not close(value, target, tol):
                failures.append(
                    f"{name} {quantity}: got {value}, want {target}+-{tol}")
    # The inapplicable cell must surface as an applicability error from the
    # strict operation.
    try:
        dn_upper(gp_from_s(0.9, 0.2))
        failures.append("dn_upper(gp lambda=0.9) did not raise")
    except ApplicabilityError:
        pass
    if checked != len(ERRATA_2):
        failures.append(f"{len(ERRATA_2) - checked} erratum cell(s) not in table")
    report(2, failures, "S_inf bounds across 7 families at s=0.2, 42 cells",
           checked)


# ---------------------------------------------------------------------------
# 3. Convergence times
# ---------------------------------------------------------------------------

TABLE3_BLOCKS = [
    # (s, eps, columns, (t_exact row, t_app row, t_ser row))
    (0.01, 0.01, (458, 461, 459, 461, 463, 467, 474),
     (460, 462, 461, 462, 463, 465, 468),
     (460, 462, 461, 462, 463, 465, 468),
     (0.0, 0.1, 0.259, 0.5, 0.9)),
    (0.1, 0.1, (21, 23, 22, 23, 25, 27, 31),
     (22, 23, 23, 24, 25, 26, 28),
     (22, 23, 23, 24, 25, 26, 28),
     (0.0, 0.1, 0.276, 0.5, 0.9)),
    (0.1, 0.01, (43, 46, 45, 46, 48, 51, 56),
     (44, 46, 45, 46, 48, 50, 53),
     (44, 46, 45, 46, 48, 50, 53),
     (0.0, 0.1, 0.276, 0.5, 0.9)),
    (0.1, 1e-4, (89, 93, 91, 93, 96, 100, 108),
     (90, 93, 92, 94, 96, 99, 105),
     (90, 93, 92, 94, 96, 100, 105),
     (0.0, 0.1, 0.276, 0.5, 0.9)),
    (0.3, 0.01, (13, 15, 14, 16, 17, 19, 24),
     (13, 15, 15, 16, 17, 19, 22),
     (13, 15, 15, 16, 17, 18, 20),
     (0.0, 0.2, 0.312, 0.5, 0.9)),
]


def gp_t_ser_mp(lam: str, s: str, eps: str) -> int:
    """ceil((1/s - 1/2 + gamma2) ln(1 + 1/eps) - theta) for the generalized
    Poisson family, at 50 digits, from its closed-form moments at mean 1:
    phi''(1) = variance = 1/(1-lam)^2 and phi'''(1) = third central moment
    = (1+2 lam)/(1-lam)^4, so theta = 2/phi''(1) = 2(1-lam)^2 and
    gamma2 = 2 phi'''(1)/(3 phi''(1)^2) = 2(1+2 lam)/3."""
    with mpmath.workdps(50):
        lam, s, eps = mpmath.mpf(lam), mpmath.mpf(s), mpmath.mpf(eps)
        theta = 2 * (1 - lam) ** 2
        gamma2 = 2 * (1 + 2 * lam) / 3
        return int(mpmath.ceil((1 / s - mpmath.mpf(1) / 2 + gamma2)
                               * mpmath.log(1 + 1 / eps) - theta))


ERRATA_3 = {
    # (s, eps, model name) -> erratum on the t_ser row
    (0.3, 0.01, f"gp_{lam}"): Erratum(
        published=published,
        reference=lambda lam=lam: gp_t_ser_mp(str(lam), "0.3", "0.01"),
        derivation="ceil((1/s - 1/2 + gamma2) ln(1 + 1/eps) - theta), the"
                   " first-order expansion of ln(1 + 1/eps)/(-ln gamma) - theta"
                   " that gives the other 31 t_ser cells, with the GP"
                   " closed-form theta and gamma2 at 50 digits")
    for lam, published in ((0.2, 16), (0.312, 17), (0.5, 18), (0.9, 20))
}


def test_criterion_3_convergence_times():
    failures = []
    checked = 0
    for s, eps, exact_row, app_row, ser_row, lams in TABLE3_BLOCKS:
        names = ["bin_n5", "nb_r5"] + [f"gp_{lam}" for lam in lams]
        models = ([binomial_from_s(5, s), negbinomial_from_s(5, s)]
                  + [gp_from_s(lam, s) for lam in lams])
        for name, model, te, ta, ts_want in zip(
                names, models, exact_row, app_row, ser_row):
            got_te = t_eps_exact(model, eps)
            got_ta = t_eps_app(extinction_probability(model), eps)
            got_ts = t_ser(model, s, eps)
            label = f"s={s} eps={eps} {name}"
            if got_te != te:
                failures.append(f"{label} t_exact: got {got_te}, want {te}")
            if got_ta != ta:
                failures.append(f"{label} t_app: got {got_ta}, want {ta}")
            erratum = ERRATA_3.get((s, eps, name))
            if erratum is not None:
                checked += 1
                check_erratum(f"{label} t_ser", got_ts, ts_want, 0, erratum, 0,
                              failures)
            elif got_ts != ts_want:
                failures.append(f"{label} t_ser: got {got_ts}, want {ts_want}")
    if checked != len(ERRATA_3):
        failures.append(f"{len(ERRATA_3) - checked} erratum cell(s) not in table")
    report(3, failures, "convergence-time integers, 105 cells", checked)


# ---------------------------------------------------------------------------
# 4. Fixation probabilities and survival anchors
# ---------------------------------------------------------------------------

def test_criterion_4_fixation_values():
    failures = []
    wf = WFModel(pop_size=1000, s_sel=0.1, effective_size=1000.0)
    v = wf_fixation_exact(wf)
    if not close(v, 0.1761, 1e-4):
        failures.append(f"wf exact: got {v:.6f}, want 0.1761")
    for s, target in ((0.2, 0.3297), (0.1, 0.1813), (0.02, 0.0392)):
        d = wf_fixation_diffusion(WFModel(pop_size=1000, s_sel=s,
                                          effective_size=1000.0))
        if not close(d, target, 1e-4):
            failures.append(f"diffusion s={s}: got {d:.6f}, want {target}")
    s_poi = extinction_probability(poisson_from_s(0.1)).s_inf
    if not close(s_poi, 0.1761, 1e-4):
        failures.append(f"S_inf Poisson: got {s_poi:.6f}, want 0.1761")
    s_bin = extinction_probability(binomial_from_s(1000, 0.1)).s_inf
    if not close(s_bin, 0.1763, 1e-4):
        failures.append(f"S_inf binomial n=1000: got {s_bin:.6f}, want 0.1763")
    report(4, failures, "fixation and survival anchors")


# ---------------------------------------------------------------------------
# 5. Matching fractional-linear and three-offspring anchors
# ---------------------------------------------------------------------------

def test_criterion_5_fl_and_f3_anchors():
    failures = []
    fl = matching_fl(extinction_probability(Poisson(m=1.5)))
    if not close(fl.pi, 0.506, 1e-3):
        failures.append(f"pi: got {fl.pi:.5f}, want 0.506")
    if not close(fl.rho, 0.211, 1e-3):
        failures.append(f"rho: got {fl.rho:.5f}, want 0.211")
    p_inf = f3_p_inf(0.12, 0.12, 0.06)
    if not close(p_inf, 0.56155, 1e-5):
        failures.append(f"family P_inf: got {p_inf:.6f}, want 0.56155")
    panels = [(0.142, 0.00081), (2.0 / 17.0, -0.00222), (0.11, -0.002959),
              (-0.5 + 5.0 * math.sqrt(17.0) / 34.0, -0.003273),
              (0.10, -0.00376)]
    for p2, target in panels:
        f0 = f3_f_value(p2, p2, p2 / 2.0, 0.0)
        if not close(f0, target, 1e-5):
            failures.append(f"f(0) at p2={p2:.6f}: got {f0:.6f}, want {target}")
    report(5, failures, "matching-FL and three-offspring anchors")


# ---------------------------------------------------------------------------
# 6. Generalized-Poisson thresholds
# ---------------------------------------------------------------------------

def test_criterion_6_gp_thresholds():
    failures = []
    th = gp_thresholds(0.3)
    for name, got, want in (("lambda_c1", th.lambda_c1, 0.30160),
                            ("lambda_c2", th.lambda_c2, 0.30596),
                            ("lambda_c0", th.lambda_c0, 0.31433)):
        if not close(got, want, 2e-4):
            failures.append(f"s=0.3 {name}: got {got:.6f}, want {want}")
    th1 = gp_thresholds(0.1)
    if not close(th1.lambda_c0, 0.27857, 2e-4):
        failures.append(f"s=0.1 lambda_c0: got {th1.lambda_c0:.6f}, want 0.27857")
    report(6, failures, "dispersion thresholds")


# ---------------------------------------------------------------------------
# 7. Region volumes
# ---------------------------------------------------------------------------

def test_criterion_7_region_volumes():
    failures = []
    lower, switches, upper = f3_region_volumes()
    for name, got, want in (("lower", lower, 0.866), ("switches", switches, 0.102),
                            ("upper", upper, 0.032)):
        if not close(got, want, 0.005):
            failures.append(f"{name}: got {got:.4f}, want {want}+-0.005")
    report(7, failures, "exact region volumes")


# ---------------------------------------------------------------------------
# 8. Property suites
# ---------------------------------------------------------------------------

def test_criterion_8_property_suites():
    failures = []

    # Ordering of survival bounds on a Poisson/binomial/neg-binomial grid.
    grid = ([Poisson(m=1.0 + i * 0.25) for i in range(1, 9)]
            + [binomial_from_s(n, 0.3) for n in (2, 5, 10)]
            + [negbinomial_from_s(r, 0.3) for r in (1, 3, 6)])
    for model in grid:
        fp = extinction_probability(model)
        x = 0.0
        for n in range(1, 25):
            x = pgf_eval(model, x)
            s_n = 1.0 - x
            if not (s_n <= sn_pollak_bound(model, n, fp) + 1e-12
                    <= sn_fl_bound(model, n, fp) + 2e-12
                    <= sn_simple_bound(model, n, fp) + 3e-12):
                failures.append(f"bound ordering violated for {model!r} n={n}")
                break

    # Fixed-point residuals.
    for model in grid + [gp_from_s(lam, 0.2) for lam in (0.0, 0.4, 0.9)]:
        fp = extinction_probability(model)
        if abs(pgf_eval(model, fp.p_inf) - fp.p_inf) > 1e-13:
            failures.append(f"fixed-point residual > 1e-13 for {model!r}")

    # Poisson inequalities 2 - m < gamma < 1/m, 2/m - 1 < P_inf < 1/m^2.
    for i in range(60):
        m = 1.01 + i * 0.05
        fp = extinction_probability(Poisson(m=m))
        if not (2.0 - m < fp.gamma < 1.0 / m
                and 2.0 / m - 1.0 < fp.p_inf < 1.0 / m ** 2):
            failures.append(f"Poisson inequality violated at m={m}")

    # Comparison-coefficient positivity.
    for n in range(2, 31):
        for j in range(0, n - 1):
            for k in range(0, n - 1):
                if bin_coeff_cf(n, j, k) < 0:
                    failures.append(f"c_f({n},{j},{k}) < 0")
    for r in range(2, 11):
        for j in range(0, r):
            for zeta in (0.1, 0.5, 0.9):
                if not nb_coeff_cg(r, j, zeta) > 0:
                    failures.append(f"c_g({r},{j},{zeta}) <= 0")

    # Series convergence order (error ratio ~16 when s halves).
    for ctor in (poisson_from_s, lambda s: gp_from_s(0.3, s)):
        errs = [abs(extinction_probability(ctor(s)).s_inf
                    - sinf_series_eval(ctor(s), s))
                for s in (0.2, 0.1, 0.05)]
        if not (errs[1] <= errs[0] / 8.0 and errs[2] <= errs[1] / 8.0):
            failures.append(f"series error ratios too large: {errs}")

    # Density normalization and within-variance quadrature equivalence.
    from scipy.integrate import quad
    for a in (0.5, 5.0):
        norm, _ = quad(lambda x: mutant_density(a, x), 0.0, 1.0, limit=200)
        if abs(norm - 1.0) > 1e-8:
            failures.append(f"g_a normalization off at a={a}: {norm}")
        w, _ = quad(lambda x: x * (1.0 - x) * mutant_density(a, x), 0.0, 1.0,
                    limit=200)
        if abs(within_variance(a) - w) > 1e-9:
            failures.append(f"within-variance mismatch at a={a}")

    # Fractional-linear closed form vs literal iteration.
    fl = FractionalLinear(pi=0.6, rho=0.3)
    x = 0.0
    for n in range(1, 101):
        x = pgf_eval(fl, x)
        if abs(fl_survival_by_n(fl, n) - (1.0 - x)) > 1e-12:
            failures.append(f"FL closed form deviates at n={n}")
            break

    report(8, failures, "property suites (orderings, residuals, positivity)")
