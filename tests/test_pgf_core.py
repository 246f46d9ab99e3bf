"""Core pgf machinery: fixed points, derivatives, moments, iteration."""

import csv
import math
import os
import pickle
import random
import sys
import threading
import types
from itertools import islice

import mpmath
import pytest

import gwbounds
from gwbounds import pgf_core
from gwbounds.errors import ConvergenceError, DomainError
from gwbounds.pgf_core import (
    Binomial,
    FiniteThree,
    FractionalLinear,
    GeneralizedPoisson,
    NegBinomial,
    Poisson,
    binomial_from_s,
    extinction_iterates,
    extinction_probability,
    fl_from_s,
    gp_from_s,
    iterate_extinction,
    moments,
    negbinomial_from_s,
    pgf_derivative,
    pgf_eval,
    poisson_from_s,
    survival_curve,
)


def model_grid():
    """A broad supercritical grid over all six families (> 200 models)."""
    models = []
    for i in range(80):
        models.append(Poisson(m=1.01 + i * (4.0 - 1.01) / 79))
    for n in range(2, 21):
        for s in (0.05, 0.2, 0.5, 0.8):
            models.append(binomial_from_s(n, s))
    for r in range(1, 7):
        for s in (0.05, 0.3, 0.8):
            models.append(negbinomial_from_s(r, s))
    for lam in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
        for s in (0.05, 0.3, 0.8):
            models.append(gp_from_s(lam, s))
    for pi in (0.1, 0.3, 0.6, 0.9):
        for s in (0.05, 0.3):
            if pi * (1.0 + s) > s:  # rho stays positive
                models.append(fl_from_s(pi, s))
    for p0, p2, p3 in ((0.1, 0.2, 0.2), (0.05, 0.1, 0.3), (0.2, 0.3, 0.2),
                      (0.1, 0.05, 0.4), (0.3, 0.35, 0.3)):
        models.append(FiniteThree(p0=p0, p1=1 - p0 - p2 - p3, p2=p2, p3=p3))
    return models


MODELS = model_grid()


def test_grid_size():
    assert len(MODELS) > 200


def test_fixed_point_residuals():
    for model in MODELS:
        fp = extinction_probability(model)
        assert 0.0 < fp.p_inf < 1.0
        residual = pgf_eval(model, fp.p_inf) - fp.p_inf
        assert abs(residual) <= 1e-13, (model, residual)
        assert fp.s_inf == pytest.approx(1.0 - fp.p_inf)
        assert 0.0 < fp.gamma < 1.0


# One law of each family.
FAMILY_LAWS = [Poisson(m=1.5), Binomial(n=5, p=0.3), NegBinomial(r=5, p=0.3),
               FractionalLinear(pi=0.5, rho=0.2), FiniteThree(p0=0.2, p1=0.5, p2=0.2, p3=0.1),
               GeneralizedPoisson(mu=1.2, lam=0.2)]


@pytest.mark.parametrize("model", FAMILY_LAWS, ids=lambda m: type(m).__name__)
def test_equal_laws_share_one_fixed_point(model):
    twin = pickle.loads(pickle.dumps(model))
    assert twin == model and twin is not model
    assert extinction_probability(twin) is extinction_probability(model)


def test_alternating_laws_each_get_their_own_fixed_point():
    a, b = gp_from_s(0.3, 0.1), gp_from_s(0.3, 0.2)
    fp_a, fp_b = extinction_probability(a), extinction_probability(b)
    assert fp_a.p_inf == pgf_core._root_solve_p_inf(a)
    assert fp_b.p_inf == pgf_core._root_solve_p_inf(b)
    assert fp_a != fp_b
    for _ in range(3):
        assert extinction_probability(a) == fp_a
        assert extinction_probability(b) == fp_b


def test_a_failed_solve_keeps_nothing_and_raises_again():
    # Binomial n = 5 at s = 1e-9: the bracket top 1 - 1e-9 lies beyond P_inf.
    good, bad = Poisson(m=1.5), binomial_from_s(5, 1e-9)
    fp = extinction_probability(good)
    for _ in range(3):
        with pytest.raises(ConvergenceError, match="not bracketed") as info:
            extinction_probability(bad)
        assert info.traceback[-1].name == "_root_solve_p_inf"
    assert extinction_probability(good) is fp


def test_a_report_solves_each_law_once(monkeypatch):
    # The per-law report of the benchmark's sweep workload, on three laws
    # whose P_inf takes a root solve.
    solved = []
    root_solve = pgf_core._root_solve_p_inf

    def counted(model):
        solved.append(model)
        return root_solve(model)

    monkeypatch.setattr(pgf_core, "_root_solve_p_inf", counted)
    monkeypatch.setattr(pgf_core, "_last_solved", (None, None))
    laws = [(binomial_from_s(7, 0.1), 0.1), (negbinomial_from_s(3, 0.03), 0.03),
            (gp_from_s(0.3, 0.2), 0.2)]
    for model, s in laws:
        fp = gwbounds.extinction_probability(model)
        gwbounds.survival_curve(model, 50)
        for n in range(51):
            gwbounds.sn_fl_bound(model, n, fp)
            gwbounds.sn_simple_bound(model, n, fp)
            gwbounds.sn_pollak_bound(model, n, fp)
        gwbounds.sinf_bounds_all(model, s)
        gwbounds.t_eps_exact(model, 0.01)
        gwbounds.t_eps_app(fp, 0.01)
        gwbounds.t_ser(model, s, 0.01)
        gwbounds.bound_direction(model)
        tm = gwbounds.TraitModel(theta_mut=1.0, alpha=1.0, s_sel=math.log1p(s), pop_size=1000)
        gwbounds.vg_inf(tm, model)
        gwbounds.vg_tau(tm, model, 10.0)
    assert solved == [model for model, _ in laws]


def test_curvature_is_phi2_at_p_inf():
    for model in MODELS:
        fp = extinction_probability(model)
        assert fp.curvature == pgf_derivative(model, fp.p_inf, 2), model


def test_iteration_approaches_fixed_point_geometrically():
    # 0 <= P_inf - P^(n) <= P_inf * gamma^n (concavity bound).
    for model in MODELS:
        fp = extinction_probability(model)
        p_n = iterate_extinction(model, 400)
        gap = fp.p_inf - p_n
        assert -1e-12 <= gap <= fp.p_inf * fp.gamma**400 + 1e-12, model


def test_extinction_iterates_monotone():
    # Strictly increasing until the iterates hit float convergence.
    for model in MODELS[::7]:
        prev = 0.0
        for n in range(1, 30):
            cur = iterate_extinction(model, n)
            assert cur >= prev
            if n <= 5:
                assert cur > prev
            prev = cur


def test_survival_curve_matches_iteration():
    model = Poisson(m=1.3)
    curve = survival_curve(model, 20)
    assert len(curve) == 21
    assert curve[0] == 1.0
    for n in range(21):
        assert curve[n] == pytest.approx(1.0 - iterate_extinction(model, n), abs=1e-15)
    assert all(curve[i + 1] < curve[i] for i in range(20))


def ulps_apart(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def test_extinction_iterates_is_the_iteration_of_the_pgf():
    # P^(0) = 0 and P^(n+1) = phi(P^(n)): bit for bit where the iterator
    # steps with the pgf itself, within 8 ulp for GP, whose orbit steps in
    # survival space.
    for model in MODELS[::11]:
        iterates = list(islice(extinction_iterates(model), 40))
        assert iterates[0] == 0.0
        for prev, cur in zip(iterates, iterates[1:]):
            if isinstance(model, GeneralizedPoisson):
                assert ulps_apart(cur, pgf_eval(model, prev)) <= 8.0, model
            else:
                assert cur == pgf_eval(model, prev)
        assert iterates[-1] == iterate_extinction(model, 39)


def laws_at(s):
    """One law of each of the six families with mean 1 + s, GP at lam = 0."""
    return (poisson_from_s(s), binomial_from_s(5, s), negbinomial_from_s(3, s),
            fl_from_s(0.4, s), gp_from_s(0.0, s),
            FiniteThree(p0=0.4 - s, p1=0.3 + s, p2=0.2, p3=0.1))


def pgf_eval_loop(model, n):
    """P^(0), ..., P^(n - 1) by the plain loop through pgf_eval, which checks
    each argument."""
    x, loop = 0.0, []
    for _ in range(n):
        loop.append(x)
        x = pgf_eval(model, x)
    return loop


ITERATE_CASES = [(s, m) for s in (0.3, 1e-2, 1e-6, 1e-12) for m in laws_at(s)]
GP_ORBIT_CASES = [gp_from_s(0.5, 0.3), gp_from_s(0.5, 1e-2), gp_from_s(0.9, 1e-8)]


@pytest.mark.parametrize("s, model", ITERATE_CASES, ids=[repr(m) for _, m in ITERATE_CASES])
def test_extinction_iterates_matches_the_pgf_eval_loop_bit_for_bit(s, model):
    # 10^4 generations. At s = 0.3 the iterates reach a float fixed point
    # within them, so the iterator's repeat branch is checked too. GP (here
    # at lam = 0, the Poisson pgf) steps in survival space, so its reference
    # is the orbit at 40 digits: every P^(n) within 2 ulp of it (1.64 at
    # worst, at s = 1e-2), and no further from it than the loop (49.6 ulp).
    loop = pgf_eval_loop(model, 10_000)
    iterates = list(islice(extinction_iterates(model), 10_000))
    if isinstance(model, GeneralizedPoisson):
        ref = mp_gp_iterates(model, 9_999)
        assert all(abs(x - r) <= 2.0 * math.ulp(x) for x, r in zip(iterates, ref))
        assert max_rel_err(iterates[1:], ref[1:]) <= max_rel_err(loop[1:], ref[1:])
    else:
        assert iterates == loop
    if s == 0.3:
        assert any(a == b for a, b in zip(iterates, iterates[1:]))


# Each family's pgf written out as a plain method: the reference for the pgf
# compiled from its phi.
FORMER_PGF = {
    Poisson: lambda d, x: math.exp(-d.m * (1.0 - x)),
    Binomial: lambda d, x: (1.0 - d.p + d.p * x) ** d.n,
    NegBinomial: lambda d, x: d.p ** d.r / (1.0 - (1.0 - d.p) * x) ** d.r,
    FractionalLinear: lambda d, x: (d.rho + x * (1.0 - d.pi - d.rho)) / (1.0 - x * d.pi),
    FiniteThree: lambda d, x: d.p0 + d.p1 * x + d.p2 * x * x + d.p3 * x ** 3,
}


@pytest.mark.parametrize("family", FORMER_PGF, ids=lambda cls: cls.__name__)
def test_compiled_pgf_is_the_former_closed_form_bit_for_bit(family):
    # Every law of the family in the grid and at s = 0.3, 1e-6, 1e-12, on
    # 1001 grid points of [0, 1], their neighbours one ulp up, and the first
    # 50 iterates of its orbit.
    laws = [m for s in (0.3, 1e-6, 1e-12) for m in laws_at(s)] + MODELS
    former = FORMER_PGF[family]
    for model in (m for m in laws if type(m) is family):
        grid = [i / 1000 for i in range(1001)]
        grid += [math.nextafter(x, 1.0) for x in grid]
        grid += list(islice(extinction_iterates(model), 50))
        assert [model.pgf(x) for x in grid] == [former(model, x) for x in grid], model


def test_gp_orbit_raises_convergence_error_at_its_newton_cap(monkeypatch):
    # The first solve, for u_1, starts from u_0 = 1 (the history starts flat)
    # and takes more than one Newton step, so with one step allowed phi(0),
    # formed from u_0 without a solve, is the last value yielded.
    model = gp_from_s(0.5, 1e-6)
    assert list(islice(extinction_iterates(model), 5))[1] == pgf_eval(model, 0.0)
    monkeypatch.setattr(pgf_core, "_GP_NEWTON_CAP", 1)
    seen = []
    with pytest.raises(ConvergenceError, match="did not converge"):
        for x in islice(extinction_iterates(model), 10):
            seen.append(x)
    assert seen == [0.0, pgf_eval(model, 0.0)]


GP_GRID = [gp_from_s(lam, s)
           for lam in (1e-12, 1e-6, 0.01, 0.2, 0.5, 0.9, 0.99, 0.999, 1.0 - 1e-6)
           for s in (1e-12, 1e-8, 1e-4, 1e-2, 0.3, 1.0, 5.0)]


def walk(orbit, n):
    """The first n values of orbit, and the error it raised before them, as
    (type, message), or None."""
    seen = []
    try:
        for x in islice(orbit, n):
            seen.append(x)
    except (ConvergenceError, DomainError) as exc:
        return seen, (type(exc), str(exc))
    return seen, None


@pytest.mark.parametrize("cap", (None, 1, 2, 3))
def test_gp_orbit_walks_the_grid_within_its_newton_cap(cap, monkeypatch):
    # 10^5 generations of each of the 63 laws in the grid. With the cap as it
    # is, each walk stays nondecreasing in [0, 1] and raises nothing. At 1, 2
    # and 3 Newton steps a generation, more of the orbits stop, each with
    # ConvergenceError. The first solve takes the most steps: one at
    # lam = 1e-12, where G is all but linear, 2-4 at lam = 0.01 ... 0.5 and up
    # to 14 at lam = 1 - 1e-6. One step a generation walks the seven laws at
    # lam = 1e-12 and the one at lam = 1e-6, s = 5.
    if cap is not None:
        monkeypatch.setattr(pgf_core, "_GP_NEWTON_CAP", cap)
    raised = []
    for model in GP_GRID:
        seen, error = walk(extinction_iterates(model), 100_000)
        if error is not None:
            raised.append(error[0])
        else:
            assert len(seen) == 100_000
            assert seen[0] == 0.0 and seen[-1] <= 1.0, model
            assert all(a <= b for a, b in zip(seen, seen[1:])), model
    assert raised == [ConvergenceError] * {None: 0, 1: 55, 2: 48, 3: 35}[cap]


GP_GRID_CORNERS = [gp_from_s(lam, s) for lam in (1e-6, 0.5, 1.0 - 1e-6) for s in (1e-8, 1e-2, 5.0)]


@pytest.mark.parametrize("model", GP_GRID_CORNERS, ids=repr)
def test_gp_orbit_on_the_grid_is_within_6e_16_of_mpmath(model):
    # P^(1..200) against the orbit at 40 digits: at most 5.0e-16 relative
    # (at s = 5, where mu*u amplifies the error of u). The Newton loop in P
    # space was up to 2.9e-15 off here (lam = 1 - 1e-6, s = 1e-8).
    iterates = list(islice(extinction_iterates(model), 201))
    assert max_rel_err(iterates[1:], mp_gp_iterates(model, 200)[1:]) <= 6e-16


ORBIT_CALL_CASES = [*laws_at(1e-6), *laws_at(0.3), gp_from_s(0.5, 1e-6)]


@pytest.mark.parametrize("model", ORBIT_CALL_CASES, ids=repr)
def test_orbit_calls_no_python_function_a_generation(model):
    # Under sys.setprofile, a Python frame that starts or resumes is a "call"
    # event (a C function such as math.exp is a "c_call"). In 1000
    # generations stepped one at a time, then 1000 skipped by send, only the
    # orbit generator itself may be one. At s = 0.3 the orbit reaches its
    # float fixed point, so its repeat branch runs too.
    orbit, frames = extinction_iterates(model), set()

    def profile(frame, event, arg):
        if event == "call":
            frames.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for _ in islice(orbit, 1000):
            pass
        orbit.send(1000)
    finally:
        sys.setprofile(None)
    assert frames == {type(model).orbit.__code__}


@pytest.mark.parametrize("model", GP_ORBIT_CASES, ids=repr)
def test_gp_orbit_steps_are_within_8_ulp_of_pgf_eval(model):
    # 5000 generations; each iterate against the Lambert W pgf of the one before.
    iterates = list(islice(extinction_iterates(model), 5000))
    assert iterates[0] == 0.0
    for prev, cur in zip(iterates, iterates[1:]):
        assert ulps_apart(cur, pgf_eval(model, prev)) <= 8.0, (prev, cur)


def mp_gp_pgf(model):
    """phi of the GP law with the model's float parameters, at mpmath's
    working precision: t = -W(-x lam e^-lam)/lam (t = x at lam = 0),
    phi = exp(mu (t - 1))."""
    lam, mu = mpmath.mpf(model.lam), mpmath.mpf(model.mu)
    if not lam:
        return lambda x: mpmath.exp(mu * (x - 1))
    z = -lam * mpmath.exp(-lam)
    return lambda x: mpmath.exp(mu * (-mpmath.lambertw(z * x).real / lam - 1))


def mp_gp_iterates(model, n):
    """P^(0), ..., P^(n) of the GP law, iterated at 40 digits."""
    with mpmath.workdps(40):
        phi = mp_gp_pgf(model)
        out = [mpmath.mpf(0)]
        for _ in range(n):
            out.append(phi(out[-1]))
        return out


def mp_gp_orbit(model, n):
    """S^(0), ..., S^(n) of the GP law, iterated at 40 digits."""
    with mpmath.workdps(40):
        return [1 - x for x in mp_gp_iterates(model, n)]


def max_rel_err(values, ref):
    return max(float(abs(v - r) / r) for v, r in zip(values, ref))


@pytest.mark.parametrize("s", (1e-6, 0.1, 5.0))
@pytest.mark.parametrize("lam", (1e-6, 0.2, 0.5, 0.9, 0.99))
def test_gp_orbit_at_least_as_close_to_mpmath_as_the_lambert_loop(lam, s):
    # The largest relative error of S^(0..200) against the orbit at 40 digits.
    model, n = gp_from_s(lam, s), 200
    ref = mp_gp_orbit(model, n)
    orbit = [1.0 - x for x in islice(extinction_iterates(model), n + 1)]
    lambert = [1.0 - x for x in pgf_eval_loop(model, n + 1)]
    assert max_rel_err(orbit, ref) <= max_rel_err(lambert, ref)


@pytest.mark.parametrize("lam", (0.2, 0.5, 0.9))
@pytest.mark.parametrize("s, n", ((1e-6, 300), (1e-4, 2000), (1e-2, 300)),
                         ids=("1e-06", "0.0001", "0.01"))
def test_gp_orbit_iterates_within_1_3e_16_of_mpmath(s, n, lam):
    # P^(1..n) against the orbit at 40 digits. At worst 1.29e-16 relative,
    # at P^(3) for lam = 0.2, s = 1e-6 (0.82 ulp: the rounding of exp on top
    # of a 0.9-ulp error in u_2), and at most 9.2e-17 elsewhere. At s = 1e-4
    # the walk runs to n = 2000: from n = 269, 352 and 420 (lam = 0.2, 0.5,
    # 0.9) on every generation stops after one Newton step, where a stop at
    # |step| <= 1e-9 v took two up to n ~ 1800. The Newton loop in P space
    # was up to 1.1e-15 off here.
    model = gp_from_s(lam, s)
    iterates = list(islice(extinction_iterates(model), n + 1))
    assert max_rel_err(iterates[1:], mp_gp_iterates(model, n)[1:]) <= 1.3e-16


def test_survival_gp_golden_is_within_3e_15_of_mpmath():
    # Every S^(n) cell of `gwb survival --dist gp --s 0.05 --lambda 0.5
    # --nmax 200 --digits 17` against the orbit at 40 digits. The file the
    # Lambert W loop wrote was 3.6e-14 off at worst, the one of the Newton
    # loop in P space 1.5e-14; this one is 2.5e-15.
    golden = os.path.join(os.path.dirname(__file__), "golden", "survival_gp.csv")
    with open(golden, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ref = mp_gp_orbit(gp_from_s(0.5, 0.05), 200)
    assert [int(row["n"]) for row in rows] == list(range(201))
    for row, want in zip(rows, ref):
        assert abs(float(row["s_n"]) - want) <= 3e-15 * want, row


class Stray(pgf_core._Family):
    """phi(0) = 0.5, phi(x) = x + 1/8 for 0 < x < top and phi(x) = after from
    top on: not a law, but a family whose orbit climbs 0, 0.5, ..., top and
    then leaves [0, 1], turns NaN or repeats top (after = top), at generation
    2 + 8(top - 0.5)."""
    after: float
    top: float = 0.5
    _phi = "0.5 if x == 0.0 else x + 0.125 if x < top else after"

    def _validate(self):
        pass


@pytest.mark.parametrize("bad", (1.5, math.nan))
def test_extinction_iterates_never_yields_a_value_outside_the_unit_interval(bad):
    seen = []
    with pytest.raises(DomainError, match="outside"):
        for x in islice(extinction_iterates(Stray(after=bad)), 10):
            seen.append(x)
    assert seen == [0.0, 0.5]


def unchecked_gp(mu, lam):
    """A GeneralizedPoisson built without its domain check."""
    model = object.__new__(GeneralizedPoisson)
    object.__setattr__(model, "mu", mu)
    object.__setattr__(model, "lam", lam)
    return model


@pytest.mark.parametrize("mu, lam, yielded", [(-1.0, 0.5, [0.0]),
                                              (0.5, math.nan, [0.0, math.exp(-0.5)])],
                         ids=("mu<0", "lam-nan"))
def test_gp_orbit_guards_the_unit_interval_as_the_compiled_orbits_do(mu, lam, yielded):
    # GP writes its orbit itself. Neither is a law: at mu < 0, phi(0) =
    # exp(-mu) = e lies above 1; at lam = NaN, phi(0) = exp(-mu) is formed
    # without a solve and the first solve turns the state NaN.
    seen = []
    with pytest.raises(DomainError, match="outside"):
        for x in islice(extinction_iterates(unchecked_gp(mu, lam)), 10):
            seen.append(x)
    assert seen == yielded


def outcome(step):
    """step()'s value, or the DomainError it raised as (type, message)."""
    try:
        return step()
    except DomainError as exc:
        return DomainError, str(exc)


# The Stray laws leave [0, 1] or repeat at generations 2 ... 5, so at each of
# the four places of a template orbit's first block of a send from generation
# 0 or 1.
SEND_CASES = [*laws_at(1e-6), *laws_at(0.3), gp_from_s(0.5, 1e-6), gp_from_s(0.9, 1e-6),
              unchecked_gp(-1.0, 0.5), Stray(after=math.nan, top=0.625),
              *(Stray(after=after, top=top) for top in (0.5, 0.625, 0.75, 0.875)
                for after in (1.5, top))]


@pytest.mark.parametrize("model", SEND_CASES, ids=repr)
def test_orbit_send_k_lands_where_k_steps_do(model):
    # orbit.send(k) from generation n returns P^(n+k) with the bits of the
    # walk, or raises the walk's DomainError where the walk does: from n = 0
    # and 1 (where the walk gets there), and along a chain of sends. A
    # template orbit steps k - 1 generations in blocks of four, so k = 4, 5,
    # 8 and 9 end at a block's edge. At s = 0.3 the skips of 1000 cross the
    # repeat branch. The GP law at mu < 0 leaves [0, 1] at P^(1) = e.
    def walked(n):
        return outcome(lambda: next(islice(extinction_iterates(model), n, None)))

    for start in (0, 1):
        if isinstance(walked(start), tuple):
            continue
        for k in (1, 2, 4, 5, 7, 8, 9, 1000):
            orbit = extinction_iterates(model)
            for _ in range(start + 1):
                next(orbit)
            assert outcome(lambda: orbit.send(k)) == walked(start + k), (start, k)
    orbit, n = extinction_iterates(model), 0
    next(orbit)
    for k in (2, 1, 7, 4, 9, 1000, 1, 5, 8, 1000, 7):
        n += k
        got = outcome(lambda: orbit.send(k))
        assert got == walked(n), (n, k)
        if isinstance(got, tuple):
            break


# Laws whose phi, at the rounding floor, lies one ulp below its argument: the
# orbit would step down at generation n and repeat the lower value. GP steps
# in survival space, where u never rises; its orbit tops out at n = 154.
STEP_DOWN_CASES = [
    (FractionalLinear(pi=0.9790882908033464, rho=0.9780166490876349), 466, 0.9989054697866748),
    (GeneralizedPoisson(mu=0.19500000000000003, lam=0.85), 154, 0.9835865322423037),
]


@pytest.mark.parametrize("model, n, top", STEP_DOWN_CASES, ids=("fl", "gp"))
def test_orbit_never_falls_and_repeats_the_higher_iterate(model, n, top):
    # The orbit's resume (iterate_extinction, t_eps_exact) rests on this.
    iterates = list(islice(extinction_iterates(model), 100_000))
    assert all(a <= b for a, b in zip(iterates, iterates[1:]))
    assert iterates[n - 1] == top
    assert set(iterates[n - 1:]) == {top}


def resume_laws(s):
    """laws_at(s) and a GP law with lam > 0, whose orbit carries the last
    three survival-space states from one generation to the next."""
    return (*laws_at(s), gp_from_s(0.5, s))


RESUME_CASES = [m for s in (1e-6, 1e-2, 0.3) for m in resume_laws(s)]


@pytest.mark.parametrize("model", RESUME_CASES, ids=repr)
def test_iterate_extinction_resumed_is_the_walk_from_0_bit_for_bit(model, monkeypatch):
    # Ascending n (the benchmark's scan), descending, repeated, an equal law
    # given as another object, and two laws interleaved: every P^(n) against
    # the fresh orbit's.
    monkeypatch.setattr(pgf_core, "_last_orbit", [])
    ref = list(islice(model.orbit(), 10_001))
    other = Poisson(m=1.5)
    other_ref = list(islice(other.orbit(), 10_001))
    twin = pickle.loads(pickle.dumps(model))
    assert twin == model and twin is not model
    ascending = (0, 1, 10, 100, 1000, 10_000)
    patterns = [
        [(model, n) for n in ascending],
        [(model, n) for n in reversed(ascending)],
        [(model, n) for n in (7, 7, 3, 3, 500, 500, 0, 0)],
        [(model, 40), (twin, 60), (model, 60), (twin, 20), (model, 2000)],
        [(m, n) for n in ascending for m in (model, other)],
        [(m, n) for n in (5, 9000, 9001, 30) for m in (other, model, model)],
    ]
    for calls in patterns:
        for law, n in calls:
            want = ref[n] if law == model else other_ref[n]
            assert iterate_extinction(law, n) == want, (law, n)


def test_iterate_extinction_raises_on_every_call_when_the_orbit_leaves_the_interval():
    # The entry left at generation 1 steps into phi = 1.5; the orbit that
    # raised is not kept, so the next call walks afresh and raises again.
    stray = Stray(after=1.5)
    assert iterate_extinction(stray, 1) == 0.5
    for _ in range(2):
        with pytest.raises(DomainError, match="outside"):
            iterate_extinction(stray, 5)
    law = poisson_from_s(0.1)
    assert iterate_extinction(law, 50) == next(islice(law.orbit(), 50, None))


def test_threads_never_share_an_orbit(monkeypatch):
    # Two threads, each 2000 calls on one law, then 2000 alternating between
    # two, at random n with a short switch interval: each value is the fresh
    # orbit's, no generator is stepped by two threads at once (ValueError:
    # generator already executing), and the slot holds at most one entry.
    monkeypatch.setattr(pgf_core, "_last_orbit", [])
    laws = (gp_from_s(0.5, 1e-3), poisson_from_s(1e-3))
    refs = {law: list(islice(law.orbit(), 801)) for law in laws}
    errors, slot_sizes = [], set()

    def worker(seed):
        rng = random.Random(seed)
        try:
            for i in range(4000):
                law = laws[0] if i < 2000 else laws[i % 2]
                n = rng.randrange(801)
                assert iterate_extinction(law, n) == refs[law][n], (law, n)
                slot_sizes.add(len(pgf_core._last_orbit))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert slot_sizes <= {0, 1}


@pytest.mark.parametrize("lam", (0.2, 0.5, 0.9))
@pytest.mark.parametrize("x", (1e-160, -1e-160, 1e-200, -1e-200, 5e-324))
def test_gp_derivatives_at_tiny_x_are_the_x0_limits(lam, x):
    # Within 1e-150 of 0 the limits at x = 0 are exact in floating point;
    # the general formulas divide by x*x, which is subnormal or 0 there.
    model = gp_from_s(lam, 0.2)
    for order in (1, 2, 3):
        assert pgf_derivative(model, x, order) == pgf_derivative(model, 0.0, order)


@pytest.mark.parametrize("lam", (0.2, 0.5, 0.9))
@pytest.mark.parametrize("x", (0.5, 1e-4, 1e-8, 1e-12, 1e-20))
def test_gp_third_derivative_against_mpmath(lam, x):
    # phi''' against a 60-digit numerical derivative of the Lambert W pgf.
    # Written with 2t'/t - 2/x, which cancels, t''' was 2e4 off relatively
    # at lam = 0.9, x = 1e-20.
    model = gp_from_s(lam, 0.1)
    with mpmath.workdps(60):
        ref = mpmath.diff(mp_gp_pgf(model), mpmath.mpf(x), 3)
        err = abs((pgf_derivative(model, x, 3) - ref) / ref)
    assert err <= 1e-14


def central_diff(model, x, order):
    f = lambda u: pgf_eval(model, u)
    if order == 1:
        h = 1e-5
        return (f(x + h) - f(x - h)) / (2 * h)
    if order == 2:
        h = 1e-4
        return (f(x + h) - 2 * f(x) + f(x - h)) / h**2
    h = 1e-3
    return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h**3)


def test_derivatives_against_central_differences():
    for model in MODELS[::5]:
        for x in (0.2, 0.5, 0.8):
            for order in (1, 2, 3):
                exact = pgf_derivative(model, x, order)
                approx = central_diff(model, x, order)
                assert exact == pytest.approx(approx, rel=2e-3, abs=2e-3), (model, x, order)


def test_moments_closed_forms():
    mom = moments(Poisson(m=1.7))
    assert mom.m == pytest.approx(1.7)
    assert mom.var == pytest.approx(1.7)
    assert mom.b == pytest.approx(1.7**2)
    assert mom.c == pytest.approx(1.7**3)
    n, p = 6, 0.25
    mom = moments(Binomial(n=n, p=p))
    assert mom.m == pytest.approx(n * p)
    assert mom.var == pytest.approx(n * p * (1 - p))
    r, pr = 3, 0.5
    mom = moments(NegBinomial(r=r, p=pr))
    assert mom.m == pytest.approx(r * (1 - pr) / pr)
    assert mom.var == pytest.approx(r * (1 - pr) / pr**2)


def test_lemma_inequalities_poisson():
    # For Poisson with 1 < m <= 5: 2 - m < gamma < 1/m and
    # 2/m - 1 < P_inf < 1/m^2, and m*gamma < 1.
    for i in range(200):
        m = 1.001 + i * (5.0 - 1.001) / 199
        fp = extinction_probability(Poisson(m=m))
        assert 2.0 - m < fp.gamma < 1.0 / m
        assert 2.0 / m - 1.0 < fp.p_inf < 1.0 / m**2
        assert m * fp.gamma < 1.0


def test_m_gamma_product_below_one_for_proven_families():
    # m*gamma < 1 holds for the families whose pgf dominates the matching
    # fractional-linear pgf; it can fail for GP at large lambda.
    for model in MODELS:
        if isinstance(model, (Poisson, Binomial, NegBinomial, FractionalLinear)):
            fp = extinction_probability(model)
            m = moments(model).m
            assert m * fp.gamma < 1.0 + 1e-12, model


def test_binomial_gamma_closed_form():
    # gamma = n*p*P_inf / (1 - p + p*xi) with xi = P_inf^(1/n), via the chain
    # phi'(P_inf) = n*p*(1 - p + p*P_inf^... ) -- cross-check against the
    # direct derivative.
    for n in range(2, 21):
        model = binomial_from_s(n, 0.4)
        fp = extinction_probability(model)
        xi = fp.p_inf ** (1.0 / n)
        direct = pgf_derivative(model, fp.p_inf, 1)
        closed = n * model.p * xi ** (n - 1)
        assert direct == pytest.approx(closed, rel=1e-12)


def test_negbinomial_gamma_closed_form():
    for r in range(1, 7):
        model = negbinomial_from_s(r, 0.4)
        fp = extinction_probability(model)
        zeta = fp.p_inf ** (1.0 / r)
        q = 1.0 - model.p
        # P_inf = p^r/(1-q*P_inf)^r gives 1 - q*P_inf = p/zeta, hence
        # phi'(P_inf) = (r*q/p) * zeta^(r+1).
        direct = pgf_derivative(model, fp.p_inf, 1)
        closed = (r * q / model.p) * zeta ** (r + 1)
        assert direct == pytest.approx(closed, rel=1e-10)


def test_gp_reduces_to_poisson_at_lambda_zero():
    s = 0.2
    gp = gp_from_s(0.0, s)
    poi = poisson_from_s(s)
    for x in (0.0, 0.3, 0.7, 1.0):
        assert pgf_eval(gp, x) == pytest.approx(pgf_eval(poi, x), rel=1e-14)
        for order in (1, 2, 3):
            assert pgf_derivative(gp, x, order) == pytest.approx(
                pgf_derivative(poi, x, order), rel=1e-14)


def test_gp_near_poisson_for_tiny_lambda():
    s = 0.2
    gp = gp_from_s(1e-9, s)
    poi = poisson_from_s(s)
    for x in (0.1, 0.5, 0.9):
        assert pgf_eval(gp, x) == pytest.approx(pgf_eval(poi, x), rel=1e-7)


def test_gp_pgf_matches_series_sum():
    # phi(x) = sum_k p_k x^k with p_k = mu(mu + k*lam)^(k-1) e^(-mu-k*lam)/k!,
    # so phi^(k)(0) = k! p_k.
    model = GeneralizedPoisson(mu=0.6, lam=0.5)

    def log_p(k):
        return (math.log(model.mu) + (k - 1) * math.log(model.mu + k * model.lam)
                - model.mu - k * model.lam - math.lgamma(k + 1))

    for x in (0.0, 0.3, 0.8, 1.0):
        total = sum(math.exp(log_p(k)) * x**k for k in range(400))
        assert pgf_eval(model, x) == pytest.approx(total, rel=1e-10)
    for k in (1, 2, 3):
        assert pgf_derivative(model, 0.0, k) == pytest.approx(
            math.factorial(k) * math.exp(log_p(k)), rel=1e-14), k


def test_gp_mean_closed_form():
    for lam in (0.1, 0.4, 0.8):
        model = gp_from_s(lam, 0.3)
        assert moments(model).m == pytest.approx(1.3, rel=1e-12)


def test_fl_extinction_closed_form():
    model = FractionalLinear(pi=0.5, rho=0.2)
    fp = extinction_probability(model)
    assert fp.p_inf == pytest.approx(0.4)
    m = moments(model).m
    assert fp.gamma == pytest.approx(1.0 / m, rel=1e-12)


def test_finite_three_closed_form_root():
    # The last two laws have 4 p0 p3 << (p2 + p3)^2, where the textbook root
    # (sqrt(4 p0 p3 + q^2) - q)/(2 p3) cancels (off by 3.3e-5 at p3 = 1e-12).
    for p0, p2, p3 in ((0.1, 0.2, 0.2), (0.2, 0.3, 0.2), (0.05, 0.1, 0.3),
                       (0.2, 0.5, 1e-12), (0.2, 0.5, 1e-6)):
        model = FiniteThree(p0=p0, p1=1 - p0 - p2 - p3, p2=p2, p3=p3)
        fp = extinction_probability(model)
        assert pgf_eval(model, fp.p_inf) == pytest.approx(fp.p_inf, abs=1e-14)


def test_finite_three_p3_zero():
    model = FiniteThree(p0=0.1, p1=0.6, p2=0.3, p3=0.0)
    fp = extinction_probability(model)
    assert fp.p_inf == 0.1 / 0.3


def test_domain_errors():
    with pytest.raises(DomainError):
        Poisson(m=0.9)
    with pytest.raises(DomainError):
        Binomial(n=1, p=0.9)
    with pytest.raises(DomainError):
        FractionalLinear(pi=0.3, rho=0.5)
    with pytest.raises(DomainError):
        GeneralizedPoisson(mu=0.5, lam=0.5)  # mean = 1, critical
    with pytest.raises(DomainError):
        pgf_eval(Poisson(m=2.0), 1.5)


@pytest.mark.parametrize("n", [2.5, 1.0, math.nan, math.inf, -1])
def test_generation_counts_must_be_integers(n):
    # A float count reached islice, which raised an untyped ValueError.
    model = Poisson(m=1.5)
    with pytest.raises(DomainError, match="must be an integer"):
        iterate_extinction(model, n)
    with pytest.raises(DomainError, match="must be an integer"):
        survival_curve(model, n)


def test_model_fields_are_the_parameters():
    fields_of = {cls.__name__: list(cls._fields)
                 for cls in (Poisson, Binomial, NegBinomial, FractionalLinear,
                             FiniteThree, GeneralizedPoisson)}
    assert fields_of == {"Poisson": ["m"], "Binomial": ["n", "p"],
                         "NegBinomial": ["r", "p"], "FractionalLinear": ["pi", "rho"],
                         "FiniteThree": ["p0", "p1", "p2", "p3"],
                         "GeneralizedPoisson": ["mu", "lam"]}
    fl = FractionalLinear(pi=0.5, rho=0.2)
    assert repr(fl) == "FractionalLinear(pi=0.5, rho=0.2)"
    assert pickle.loads(pickle.dumps(fl)) == fl
    assert (moments(fl).m, extinction_probability(fl).p_inf) == (1.6, 0.4)


def test_package_all_lists_no_modules():
    assert gwbounds.__all__
    modules = [name for name in gwbounds.__all__
               if isinstance(getattr(gwbounds, name), types.ModuleType)]
    assert modules == []
    assert "FractionalLinear" in gwbounds.__all__
    assert "pgf_core" not in gwbounds.__all__


def test_constructor_means():
    assert moments(poisson_from_s(0.2)).m == pytest.approx(1.2)
    assert moments(binomial_from_s(5, 0.2)).m == pytest.approx(1.2)
    assert moments(negbinomial_from_s(5, 0.2)).m == pytest.approx(1.2)
    assert moments(gp_from_s(0.3, 0.2)).m == pytest.approx(1.2)
    assert moments(fl_from_s(0.4, 0.2)).m == pytest.approx(1.2)
