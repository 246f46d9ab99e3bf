"""Classification of three-child offspring distributions: thresholds, region
assignment versus a direct sign scan of phi - phi_FL against the matching
fractional-linear law, bound_direction versus its definition on 50-digit
iterates, the factored f, and the region volumes against a scipy quadrature."""

import json
import math
import random

import mpmath
import pytest
from scipy.integrate import quad

from gwbounds.cli import main
from gwbounds.classify_f3 import (
    LOWER_BOUND_ON_P,
    SWITCHES_REGION,
    UPPER_BOUND_ON_P,
    classify_f3,
    f3_f_value,
    f3_p_inf,
    f3_region_volumes,
    thresholds_f3,
)
from gwbounds.errors import DomainError
from gwbounds.fl_bounds import (
    LOWER_ON_S,
    SWITCHES,
    UPPER_ON_S,
    BoundDirection,
    bound_direction,
    matching_fl,
)
from gwbounds.pgf_core import FiniteThree, extinction_probability, pgf_eval


def f3_model(p0, p2, p3):
    return FiniteThree(p0=p0, p1=1.0 - p0 - p2 - p3, p2=p2, p3=p3)


def matching_fl_of(model):
    return matching_fl(extinction_probability(model))


def classify(p0, p2, p3):
    return classify_f3(f3_model(p0, p2, p3))


def sample_region(rng, n):
    """Uniform samples from the admissible supercritical region."""
    out = []
    while len(out) < n:
        p0, p2, p3 = rng.random(), rng.random(), rng.random()
        if p0 + p2 + p3 <= 1.0 and p3 > 1e-6 and p0 > 1e-6 and p0 < p2 + 2.0 * p3:
            out.append((p0, p2, p3))
    return out


# ---------------------------------------------------------------------------
# The factored f against the generic machinery
# ---------------------------------------------------------------------------

def test_f_value_matches_direct_difference():
    rng = random.Random(2)
    for p0, p2, p3 in sample_region(rng, 50):
        model = f3_model(p0, p2, p3)
        fl_model = matching_fl_of(model)
        for i in range(21):
            x = i / 20.0
            direct = pgf_eval(model, x) - pgf_eval(fl_model, x)
            assert f3_f_value(p0, p2, p3, x) == pytest.approx(direct, abs=1e-12)


def test_f_has_double_root_at_p_inf():
    for p0, p2, p3 in ((0.1, 0.2, 0.2), (0.3, 0.1, 0.3), (0.05, 0.4, 0.1)):
        p_inf = f3_p_inf(p0, p2, p3)
        assert f3_f_value(p0, p2, p3, p_inf) == pytest.approx(0.0, abs=1e-15)
        h = 1e-5
        # Quadratic contact: f(P_inf + h) = O(h^2).
        assert abs(f3_f_value(p0, p2, p3, p_inf + h)) < 10.0 * h * h
    # f(1) = 0 always.
    assert f3_f_value(0.1, 0.2, 0.2, 1.0) == 0.0


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

def test_thresholds_are_sign_change_points():
    # p0_r is where f(0) = 0; p0_gamma is where m*gamma = 1 (f'(1) = 0);
    # p0_plus is where the factored numerator vanishes at x = P_inf.
    for p2, p3 in ((0.1, 0.05), (0.2, 0.1), (0.05, 0.3), (0.3, 0.2)):
        th = thresholds_f3(p2, p3)
        if th.p0_r_admissible:
            assert f3_f_value(th.p0_r, p2, p3, 0.0) == pytest.approx(0.0, abs=1e-14)
            eps = 1e-6
            assert f3_f_value(th.p0_r + eps, p2, p3, 0.0) > 0.0
            assert f3_f_value(th.p0_r - eps, p2, p3, 0.0) < 0.0
        if th.p0_gamma_admissible:
            from gwbounds.pgf_core import moments
            model = f3_model(th.p0_gamma, p2, p3)
            fp = extinction_probability(model)
            m = moments(model).m
            assert m * fp.gamma == pytest.approx(1.0, abs=1e-10)
        if th.p0_plus_admissible and 0.0 < th.p0_plus < p2 + 2.0 * p3:
            p_inf = f3_p_inf(th.p0_plus, p2, p3)
            c = p2 + p3 + 2.0 * p3 * p_inf
            num_at_pinf = -p3 + c * (p2 + p3 + p3 * p_inf + p3 * p_inf)
            assert num_at_pinf == pytest.approx(0.0, abs=1e-13)


def test_threshold_ordering_when_all_admissible():
    rng = random.Random(3)
    checked = 0
    for p0, p2, p3 in sample_region(rng, 500):
        th = thresholds_f3(p2, p3)
        if th.p0_r_admissible and th.p0_gamma_admissible and th.p0_plus_admissible:
            assert th.p0_gamma < th.p0_r + 1e-15, (p2, p3)
            if 0.0 < th.p0_plus < p2 + 2.0 * p3:
                assert th.p0_gamma <= th.p0_plus + 1e-12 <= th.p0_r + 2e-12, (p2, p3)
                checked += 1
    assert checked > 20


def test_thresholds_domain_error():
    with pytest.raises(DomainError):
        thresholds_f3(0.5, 0.0)
    with pytest.raises(DomainError):
        thresholds_f3(0.8, 0.3)


# ---------------------------------------------------------------------------
# Classification versus direct sign scan
# ---------------------------------------------------------------------------

def scan_signs(p0, p2, p3, points=400):
    """Independent oracle: signs of phi - phi_FL on [0, 1) via direct pgf
    evaluation, excluding the double root at P_inf."""
    model = f3_model(p0, p2, p3)
    fl_model = matching_fl_of(model)
    p_inf = extinction_probability(model).p_inf
    has_pos = has_neg = False
    # Separate grids on [0, P_inf) and (P_inf, 1), each excluding a margin
    # proportional to its own length around the double root at P_inf.
    xs = [p_inf * i / points for i in range(points) if i < 0.95 * points]
    xs += [p_inf + (1.0 - p_inf) * i / points
           for i in range(points) if 0.05 * points < i < 0.999 * points]
    for x in xs:
        d = pgf_eval(model, x) - pgf_eval(fl_model, x)
        if d > 1e-13:
            has_pos = True
        elif d < -1e-13:
            has_neg = True
    return has_pos, has_neg


def test_classification_agrees_with_sign_scan():
    rng = random.Random(4)
    n_by_region = {LOWER_BOUND_ON_P: 0, SWITCHES_REGION: 0, UPPER_BOUND_ON_P: 0}
    for p0, p2, p3 in sample_region(rng, 1500):
        th = thresholds_f3(p2, p3)
        # Skip samples too close to a region boundary for a robust scan.
        if min(abs(p0 - th.p0_r), abs(p0 - th.p0_gamma)) < 1e-3:
            continue
        cls = classify(p0, p2, p3)
        has_pos, has_neg = scan_signs(p0, p2, p3)
        if cls.region == LOWER_BOUND_ON_P:
            assert not has_neg, (p0, p2, p3)
        elif cls.region == UPPER_BOUND_ON_P:
            assert not has_pos, (p0, p2, p3)
        else:
            assert has_pos and has_neg, (p0, p2, p3)
        n_by_region[cls.region] += 1
    # All three regions must actually be exercised.
    assert all(v > 10 for v in n_by_region.values()), n_by_region


# ---------------------------------------------------------------------------
# bound_direction versus its definition
# ---------------------------------------------------------------------------

def fl_gap_signs(p0, p2, p3):
    """Signs of d_n = P^(n) - P_FL^(n), n = 1, 2, ..., from 50-digit iterates
    of phi and the closed form P_FL^(n) = P_inf(1 - g^n)/(1 - g^n P_inf) of
    the matching FL law, until gamma^n < 1e-40; 0 where |d_n| <= 1e-46."""
    with mpmath.workdps(50):
        p0, p2, p3 = (mpmath.mpf(v) for v in (p0, p2, p3))
        p1 = 1 - p0 - p2 - p3
        q = p2 + p3
        p_inf = 2 * p0 / (q + mpmath.sqrt(4 * p0 * p3 + q * q))  # p0/p2 at p3 = 0
        gamma = p1 + 2 * p2 * p_inf + 3 * p3 * p_inf ** 2
        x, gn, signs = mpmath.mpf(0), mpmath.mpf(1), []
        while gn >= mpmath.mpf(10) ** -40:
            x = p0 + x * (p1 + x * (p2 + x * p3))
            gn *= gamma
            d = x - p_inf * (1 - gn) / (1 - gn * p_inf)
            signs.append(0 if abs(d) <= mpmath.mpf(10) ** -46 else int(mpmath.sign(d)))
    return signs


def first_sign_change(signs):
    """The first n (from 1) at which the nonzero signs change, or None."""
    prev = 0
    for n, sign in enumerate(signs, start=1):
        if sign:
            if prev and sign != prev:
                return n
            prev = sign
    return None


def assert_direction_matches_definition(law):
    """Upper bound on S^(n): d_n >= 0 for all n; lower bound: d_n <= 0;
    switch: d_n < 0 first, then > 0 from switch_n on, or < 0 throughout
    with switch_n None."""
    direction = bound_direction(f3_model(*law))
    gaps = fl_gap_signs(*law)
    if direction.kind == UPPER_ON_S:
        assert -1 not in gaps, law
    elif direction.kind == LOWER_ON_S:
        assert 1 not in gaps, law
    else:
        assert direction.kind == SWITCHES
        change = first_sign_change(gaps)
        assert direction.switch_n == change, law
        assert [v for v in gaps if v][0] == -1, law
        if change is not None:
            assert 1 in gaps[change - 1:] and -1 not in gaps[change - 1:], law


def test_bound_direction_matches_definition_stratified():
    # Random admissible laws, kept until each of Lower, Upper, case 3i and
    # case 3iii has 10; the Upper region is ~3% of the volume.
    rng = random.Random(5)
    want = 10
    strata = {LOWER_BOUND_ON_P: [], UPPER_BOUND_ON_P: [], "3i": [], "3iii": []}
    while min(len(v) for v in strata.values()) < want:
        (law,) = sample_region(rng, 1)
        cls = classify(*law)
        key = cls.case_label if cls.region == SWITCHES_REGION else cls.region
        if len(strata.get(key, ())) < want:
            strata[key].append(law)
    switched = 0
    for laws in strata.values():
        for law in laws:
            assert_direction_matches_definition(law)
            switched += bound_direction(f3_model(*law)).switch_n is not None
    # Some Switches laws do change sign, so switch_n is checked against a
    # number as well as against None.
    assert switched > 0


def test_case_3iii_law_that_never_switches():
    # classify_f3 puts this law in case 3iii, but the FL iterates stay above
    # P^(n) for every n: SwitchesAt with no switch generation.
    law = (0.10773068507771688, 0.04575173428481927, 0.29573793718503216)
    assert classify(*law).case_label == "3iii"
    assert bound_direction(f3_model(*law)) == BoundDirection(SWITCHES, switch_n=None)
    assert set(fl_gap_signs(*law)) == {-1}


@pytest.mark.parametrize("law,label", [
    ((0.10773068507771688, 0.04575173428481927, 0.29573793718503216), "3iii"),
    ((0.24770606978956944, 0.06531690533727197, 0.10988186875141037), "3i"),
    ((0.10, 0.10, 0.05), "5"),
])
def test_classify_f3_cli_switch_n_is_the_first_sign_change(law, label, capsys):
    # gwb classify f3 reports switch_n in the Switches region only: the first
    # generation at which d_n changes sign on 50-digit iterates, or null.
    p0, p2, p3 = (repr(v) for v in law)
    assert main(["classify", "f3", "--p0", p0, "--p2", p2, "--p3", p3]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case_label"] == label
    if report["region"] == SWITCHES_REGION:
        assert report["switch_n"] == first_sign_change(fl_gap_signs(*law))
    else:
        assert "switch_n" not in report


def test_iterate_ordering_follows_region():
    # In LowerBoundOnP, the FL iterates sit below P^(n) for every n; in
    # UpperBoundOnP, above.
    from gwbounds.fl_bounds import sn_fl_bound
    for (p0, p2, p3), region in (((0.15, 0.15, 0.075), LOWER_BOUND_ON_P),
                                 ((0.10, 0.10, 0.05), UPPER_BOUND_ON_P)):
        assert classify(p0, p2, p3).region == region
        model = f3_model(p0, p2, p3)
        fl = matching_fl_of(model)
        fp_fl = extinction_probability(fl)
        x = 0.0
        for n in range(1, 60):
            x = pgf_eval(model, x)
            p_fl = 1.0 - sn_fl_bound(fl, n, fp_fl)
            if region == LOWER_BOUND_ON_P:
                assert p_fl <= x + 1e-13, n
            else:
                assert p_fl >= x - 1e-13, n


def test_boundary_case_labels():
    p2, p3 = 0.12, 0.06
    th = thresholds_f3(p2, p3)
    assert classify(th.p0_r, p2, p3).case_label == "2"
    assert classify(th.p0_gamma, p2, p3).case_label == "4"
    assert classify(th.p0_plus, p2, p3).case_label == "3ii"
    assert classify(0.5 * (th.p0_plus + th.p0_r), p2, p3).case_label == "3i"
    assert classify(0.5 * (th.p0_gamma + th.p0_plus), p2, p3).case_label == "3iii"
    assert classify(th.p0_r + 0.01, p2, p3).case_label == "1"
    assert classify(th.p0_gamma - 0.01, p2, p3).case_label == "5"


def test_classify_domain_errors():
    # classify_f3 takes a FiniteThree, whose constructor rejects these laws.
    with pytest.raises(DomainError):
        classify(0.5, 0.1, 0.1)  # subcritical: p0 >= p2 + 2*p3
    with pytest.raises(DomainError):
        classify(0.4, 0.4, 0.4)  # masses exceed 1


# ---------------------------------------------------------------------------
# The one-parameter family p0 = p2, p3 = p2/2
# ---------------------------------------------------------------------------

FAMILY_P2 = {
    "C": 0.142,
    "D": 2.0 / 17.0,
    "E": 0.11,
    "F": -0.5 + 5.0 * math.sqrt(17.0) / 34.0,
    "G": 0.10,
}


def test_family_extinction_probability_constant():
    # P_inf = (sqrt(17) - 3)/2 for every member of the family.
    target = 0.5 * (math.sqrt(17.0) - 3.0)
    for p2 in FAMILY_P2.values():
        assert f3_p_inf(p2, p2, p2 / 2.0) == pytest.approx(target, abs=1e-12)
    assert target == pytest.approx(0.561553, abs=1e-6)


def test_family_f_at_zero_anchors():
    expected = {
        "C": 0.0008193,
        "D": -0.0022235,
        "E": -0.0029591,
        "F": -0.0032727,
        "G": -0.0037556,
    }
    for key, p2 in FAMILY_P2.items():
        f0 = f3_f_value(p2, p2, p2 / 2.0, 0.0)
        assert f0 == pytest.approx(expected[key], abs=1e-6), key


def test_family_boundary_parameters():
    # p0 = p0_r at p2 = (1 - 3/sqrt(17))/2; p0 = p0_plus at p2 = 2/17;
    # p0 = p0_gamma at p2 = -1/2 + 5*sqrt(17)/34.
    p2 = 0.5 * (1.0 - 3.0 / math.sqrt(17.0))
    assert thresholds_f3(p2, p2 / 2.0).p0_r == pytest.approx(p2, abs=1e-13)
    p2 = 2.0 / 17.0
    assert thresholds_f3(p2, p2 / 2.0).p0_plus == pytest.approx(p2, abs=1e-13)
    p2 = FAMILY_P2["F"]
    assert thresholds_f3(p2, p2 / 2.0).p0_gamma == pytest.approx(p2, abs=1e-12)


def test_family_regions():
    assert classify(0.15, 0.15, 0.075).region == LOWER_BOUND_ON_P
    assert classify(0.142, 0.142, 0.071).region == LOWER_BOUND_ON_P
    assert classify(0.11, 0.11, 0.055).region == SWITCHES_REGION
    assert classify(0.10, 0.10, 0.05).region == UPPER_BOUND_ON_P


# ---------------------------------------------------------------------------
# Degenerate case p3 = 0
# ---------------------------------------------------------------------------

P3ZERO_LAWS = ((0.1, 0.3), (0.05, 0.5), (0.2, 0.25))


def test_p3zero_always_lower_region():
    # f = phi - phi_FL >= 0 when p3 = 0, so the FL bound is an upper bound on
    # S^(n) for every n, as 50-digit iterates confirm.
    for p0, p2 in P3ZERO_LAWS:
        direction = bound_direction(f3_model(p0, p2, 0.0))
        assert direction.kind == UPPER_ON_S
        assert direction.switch_n is None
        assert_direction_matches_definition((p0, p2, 0.0))


def test_p3zero_f_nonnegative_against_matching_fl():
    for p0, p2 in P3ZERO_LAWS:
        model = f3_model(p0, p2, 0.0)
        fl_model = matching_fl_of(model)
        for i in range(101):
            x = i / 100.0
            direct = pgf_eval(model, x) - pgf_eval(fl_model, x)
            assert direct >= -1e-14, (p0, p2, x)
            factored = (1.0 - x) * (p0 - p2 * x) ** 2 / (1.0 + p0 - p2 * x)
            assert direct == pytest.approx(factored, abs=1e-14), (p0, p2, x)


def test_p3zero_is_case_1_without_thresholds():
    # The thresholds need p3 > 0; as p3 -> 0+ they all go to -inf, so a law
    # with p3 = 0 is in case 1.
    with pytest.raises(DomainError):
        thresholds_f3(0.3, 0.0)
    for p0, p2 in P3ZERO_LAWS:
        cls = classify(p0, p2, 0.0)
        assert (cls.region, cls.case_label, cls.thresholds) == (LOWER_BOUND_ON_P, "1", None)
        assert cls.sign_profile == (1, 1, 1)


@pytest.mark.parametrize("p0, p2", P3ZERO_LAWS)
def test_p3zero_classify_cli(p0, p2, capsys):
    # gwb classify f3 reports case 1 with null thresholds.
    assert main(["classify", "f3", "--p0", repr(p0), "--p2", repr(p2), "--p3", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["region"], report["case_label"]) == (LOWER_BOUND_ON_P, "1")
    assert report["thresholds"] is None and "switch_n" not in report
    assert report["p_inf"] == extinction_probability(f3_model(p0, p2, 0.0)).p_inf


# ---------------------------------------------------------------------------
# Sign profile and volumes
# ---------------------------------------------------------------------------

def test_sign_values_default_probes():
    # sign_profile is the sign of f at 0, P_inf/2 and (P_inf+1)/2; here it
    # is checked against the direct difference phi - phi_FL.
    for p0, p2, p3 in ((0.1, 0.2, 0.2), (0.15, 0.15, 0.075), (0.10, 0.10, 0.05)):
        model = f3_model(p0, p2, p3)
        fl_model = matching_fl_of(model)
        p_inf = extinction_probability(model).p_inf
        probes = (0.0, p_inf / 2.0, (p_inf + 1.0) / 2.0)
        direct = [pgf_eval(model, x) - pgf_eval(fl_model, x) for x in probes]
        assert all(abs(d) > 1e-10 for d in direct)
        assert classify(p0, p2, p3).sign_profile == tuple(1 if d > 0 else -1 for d in direct)


def quad_region_volumes():
    """(LowerBoundOnP, Switches, UpperBoundOnP) shares by nested scipy quad in
    (p2, p3): p0 is integrated exactly, as the length of its interval below
    min(1 - p2 - p3, p2 + 2*p3), whose branches meet at p2 = (1 - 3*p3)/2.
    p0_r > 0 only where p2 < sqrt(p3) - p3."""
    def p0_r(p2, p3):
        q = p2 + p3
        return 0.5 - q * (q + math.sqrt(8.0 * p3 + q * q)) / (8.0 * p3)

    def p0_gamma(p2, p3):
        q, t = p2 + p3, p2 + 3.0 * p3
        return 0.5 - (2.0 * q * q + t * math.sqrt(8.0 * p3 + t * t) - t * t) / (8.0 * p3)

    def volume(threshold):
        """Volume of {0 < p0 < threshold} in the admissible region, or of the
        whole region when threshold is None."""
        def area(p3):
            def length(p2):
                top = min(1.0 - p2 - p3, p2 + 2.0 * p3)
                return top if threshold is None else min(max(threshold(p2, p3), 0.0), top)
            kinks = [k for k in ((1.0 - 3.0 * p3) / 2.0, math.sqrt(p3) - p3) if 0.0 < k < 1.0 - p3]
            return quad(length, 0.0, 1.0 - p3, points=kinks or None,
                        epsabs=1e-11, epsrel=1e-10, limit=200)[0]
        return quad(area, 0.0, 1.0, epsabs=1e-11, epsrel=1e-10, limit=200)[0]

    total, not_lower, upper = volume(None), volume(p0_r), volume(p0_gamma)
    assert total == pytest.approx(5.0 / 36.0, abs=1e-12)
    return ((total - not_lower) / total, (not_lower - upper) / total, upper / total)


def test_region_volumes():
    # The oracle's own error is about 3e-10, at a kink of min(p0_r, top)
    # that it does not split at.
    volumes = f3_region_volumes()
    assert sum(volumes) == pytest.approx(1.0, abs=1e-15)
    for got, want in zip(volumes, quad_region_volumes()):
        assert got == pytest.approx(want, abs=1e-9)


def test_region_volumes_match_pointwise_classifier():
    # f3_region_volumes integrates the regions as p0 >= p0_r and
    # p0 <= p0_gamma; classify_f3 must draw them the same way.
    rng = random.Random(5)
    for p0, p2, p3 in sample_region(rng, 300):
        th = thresholds_f3(p2, p3)
        if min(abs(p0 - th.p0_r), abs(p0 - th.p0_gamma)) < 1e-9:
            continue
        region = classify(p0, p2, p3).region
        if p0 >= th.p0_r:
            assert region == LOWER_BOUND_ON_P
        elif p0 <= th.p0_gamma:
            assert region == UPPER_BOUND_ON_P
        else:
            assert region == SWITCHES_REGION
