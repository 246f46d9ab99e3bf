"""Checks of the workloads' outputs against the references, and the faults
the benchmark keeps as failed operations.

Only run.py imports this module, after the timed loop, so no reference work
is timed and the worker processes never import mpmath.

An operation passes when it returns and every check of its outputs holds.
It fails on a named fault only when the workload expects that fault for the
operation and the failure matches the fault's description: the exception
type, the program function it was raised in and its message, or, for fault
(c), which outputs disagree and by how much. Any other failure makes the run
`correct: false`.
"""

from __future__ import annotations

import math

import mpmath as mp

import refs as R
from workloads import EPS, NC_N, SWEEP_N, SWEEP_POP, SWEEP_TAU, WORKLOADS

DBL_EPS = 2.0 ** -52


class Mismatch(Exception):
    """An output's layout disagrees with its reference; checking stops."""


class Check:
    """Every disagreement of one operation's outputs with their references,
    as (what, got, reference, detail). `what` names the output; fault
    matchers read it."""

    def __init__(self):
        self.issues = []

    def fail(self, what, detail, got=None, want=None):
        self.issues.append((what, got, want, detail))

    def close(self, what, got, want, rtol, atol=0.0):
        if got is None or not abs(got - want) <= rtol * abs(want) + atol:
            self.fail(what, f"got {got!r}, reference {want!r}", got, want)

    def at_least(self, what, got, floor, rtol=1e-9):
        if got is None or got < floor * (1.0 - rtol):
            self.fail(what, f"{got!r} is below {floor!r}", got, floor)

    def at_most(self, what, got, ceiling, rtol=1e-9):
        if got is None or got > ceiling * (1.0 + rtol):
            self.fail(what, f"{got!r} is above {ceiling!r}", got, ceiling)


def ceil_ok(got, real):
    """got == ceil(real), or a neighbour where real is within 1e-9 of an
    integer (floats cannot decide that ceiling)."""
    want = math.ceil(real)
    if got == want:
        return True
    return abs(real - round(real)) <= 1e-9 * max(1.0, abs(real)) and abs(got - want) <= 1


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

UPPER_FAMILIES = ("poisson", "binomial", "negbinomial", "fl")  # proven UpperOnS
POLLAK_FAMILIES = ("poisson", "negbinomial")


def check_fixed_point(c, law, fp):
    s_ref, p_ref, g_ref = (float(v) for v in R.fixed_point(law))
    c.close("S_inf", fp.s_inf, s_ref, R.SINF_RTOL)
    c.close("P_inf", fp.p_inf, p_ref, 0.0, R.SINF_RTOL * s_ref)
    c.close("gamma", fp.gamma, g_ref, 0.0, 1e-9 * (1.0 - g_ref))


def quine_applies(law):
    _, b, c3 = R.moments_bc(law)
    return c3 > 0.0 and 4.0 * R.growth(law) / b < min(1.0, 3.0 * b / (2.0 * c3))


def dn_applies(law):
    _, b, c3 = R.moments_bc(law)
    return c3 > 0.0 and 8.0 * c3 * R.growth(law) < 3.0 * b * b


def check_sinf_bounds(c, law, sb):
    s, s_ref = law.s, R.sinf(law)
    _, b, _ = R.moments_bc(law)
    c.close("sinf_bounds.exact", sb.exact, s_ref, R.SINF_RTOL)
    c.close("beta", sb.beta, 2.0 * R.growth(law) / b, 1e-9)
    theta, d2, d3, _ = R.series_coeffs(law.fam, law.fpar)
    c.close("series3", sb.series3, theta * s - d2 * s * s + d3 * s ** 3, 1e-8, 1e-15 * theta * s)
    c.close("haldane", sb.haldane, theta * s, 1e-8)
    if quine_applies(law):
        c.at_most("quine_lower", sb.quine_lower, s_ref)
        c.at_least("quine_upper", sb.quine_upper, s_ref)
    if dn_applies(law):
        c.at_least("dn_upper", sb.dn_upper, s_ref)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def check_sweep(law, out, c):
    (fp, curve, fl, simple, pollak, sb, t_exact, t_app, t_ser,
     direction, vinf, vtau) = out
    check_fixed_point(c, law, fp)
    s_ref, p_ref, g_ref = (float(v) for v in R.fixed_point(law))
    seq = R.survival_seq(law, SWEEP_N)
    for n in range(SWEEP_N + 1):
        c.close(f"S^({n})", curve[n], seq[n], 1e-9)
        gn = g_ref ** n
        c.close(f"fl_bound({n})", fl[n], s_ref / (1.0 - gn * p_ref), 1e-8)
        c.close(f"simple_bound({n})", simple[n], s_ref + p_ref * gn, 1e-8)
        if law.fam in UPPER_FAMILIES:
            c.at_least(f"fl_bound({n}) >= S^({n})", fl[n], seq[n])
        if law.fam in POLLAK_FAMILIES:
            c.at_least(f"pollak_bound({n}) >= S^({n})", pollak[n], seq[n])
    if sb is not None:
        check_sinf_bounds(c, law, sb)
    if not R.t_eps_ok(law, EPS, t_exact):
        c.fail("t_eps_exact", f"{t_exact} fails its definition", t_exact)
    t_fl = math.log((1.0 + 1.0 / EPS) * p_ref) / -math.log(g_ref)
    if not ceil_ok(t_app, max(t_fl, 0.0)):
        c.fail("t_eps_app", f"{t_app}, reference ceil({t_fl!r})")
    if t_ser is not None:
        theta, _, _, gamma2 = R.series_coeffs(law.fam, law.fpar)
        real = (1.0 / law.s - 0.5 + gamma2) * math.log1p(1.0 / EPS) - theta
        if not ceil_ok(t_ser, real):
            c.fail("t_ser", f"{t_ser}, reference ceil({real!r})")
    check_direction(c, law, direction)
    check_genetics(c, law, vinf, vtau, seq)


def check_direction(c, law, direction):
    kind = direction.kind
    if law.fam in UPPER_FAMILIES:
        if kind != "UpperOnS":
            c.fail("bound_direction", f"{kind}, proven UpperOnS")
    elif law.fam == "gp":
        accepted = R.gp_directions(law.par[1], law.s)
        if kind not in accepted:
            c.fail("bound_direction", f"{kind}, reference {sorted(accepted)}")
    else:
        region = R.f3_region(law)
        want = {"Lower": "UpperOnS", "Upper": "LowerOnS"}.get(region, "SwitchesAt")
        if kind != want:
            c.fail("bound_direction", f"{kind}, reference region {region}")
        check_f3_iterates(c, law, region)


def check_f3_iterates(c, law, region):
    """The region must agree with the ordering of P^(n) and the matching FL
    iterates for n <= 200: never above (Lower), never below (Upper), or
    FL above first and below later (Switches)."""
    signs = [v for v in R.fl_diff_signs(law, 200) if v]
    if region == "Lower" and -1 in signs:
        c.fail("f3_region", "P^(n) below the FL iterates in region Lower")
    if region == "Upper" and 1 in signs:
        c.fail("f3_region", "P^(n) above the FL iterates in region Upper")
    if region.startswith("Switches") and 1 in signs and -1 in signs:
        if signs.index(1) < len(signs) - 1 - signs[::-1].index(-1):
            c.fail("f3_region", "FL iterates go back above P^(n) after the switch")


def check_genetics(c, law, vinf, vtau, seq):
    s_ref = R.sinf(law)
    sa = math.log1p(law.s)
    v1 = R.v1_inf(SWEEP_POP, s_ref, sa)
    c.close("v1_inf", vinf.v1_inf, v1, 1e-8)
    c.close("vg_inf.leading", vinf.leading, s_ref * v1, 1e-8)
    if law.fam != "f3":
        theta, d2, _, _ = R.series_coeffs(law.fam, law.fpar)
        c.close("vg_inf.simple", vinf.simple, theta * (1.0 - d2 * sa), 1e-8, 1e-14)
    m = R.moments_bc(law)[0]
    c.close("vg_tau", vtau, R.vg_tau(seq, m, SWEEP_POP, SWEEP_TAU), 1e-8)


# ---------------------------------------------------------------------------
# near_critical
# ---------------------------------------------------------------------------

def check_near_critical(law, out, c):
    fp, sb, rows, t_exact = out
    check_fixed_point(c, law, fp)
    check_sinf_bounds(c, law, sb)
    seq = R.survival_seq(law, max(NC_N))
    for n, s_n, fl, pollak in rows:
        c.close(f"S^({n})", s_n, seq[n], 1e-9)
        if law.fam in UPPER_FAMILIES:
            c.at_least(f"fl_bound({n}) >= S^({n})", fl, seq[n])
        if law.fam in POLLAK_FAMILIES:
            c.at_least(f"pollak_bound({n}) >= S^({n})", pollak, seq[n])
    if t_exact is not None and not R.t_eps_ok(law, EPS, t_exact):
        c.fail("t_eps_exact", f"{t_exact} fails its definition", t_exact)


# ---------------------------------------------------------------------------
# wf_exact
# ---------------------------------------------------------------------------

WF_RTOL = 1e-10


def check_wf_exact(op, q, c):
    n, s = op
    ref = R.wf_reference(n, s)
    c.close(f"wf_fixation_exact(N={n}, s={s})", q, ref, WF_RTOL)
    if n * s >= 5.0:
        # The formula's first neglected term is (4/9) s^3 once N s is large:
        # a sanity bound only.
        c.close(f"wf_fixation_exact(N={n}, s={s}) vs formula", q, R.wf_formula(n, s), 0.0, s ** 3)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def check_cli_op(argv, out, c):
    from cli_check import check_cli
    from spans import split_trace

    code, stdout, stderr = out
    check_cli(c, argv, code, split_trace(stdout)[0], stderr)


CHECKS = {"cli": check_cli_op, "sweep": check_sweep, "near_critical": check_near_critical,
          "wf_exact": check_wf_exact}


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------

def _raised(err, typ, where, text=""):
    """err, as the worker records it (type name, message, the program's
    frames outermost first), is a `typ` raised in `where` with `text` in
    its message."""
    return (err is not None and err[0] == typ and bool(err[2]) and err[2][-1] == where
            and text in err[1])


# Fault (c) leaves these outputs off, but only by what double precision in
# P space allows. P_inf (so S_inf = 1 - P_inf, and gamma = phi'(P_inf)) is
# a root of phi(x) = x, whose residual has a rounding noise of a few ulp,
# divided by the slope 1 - gamma ~ s; beta carries the rounding of m - 1,
# relative to s; P^(n) gathers one rounding per generation; T(eps) follows
# S_inf and P^(n). A bound that falls below S^(n) must still be its formula
# applied to the program's own S_inf and gamma. C_ULPS is that "few": on the
# near_critical grid the largest seen is 23 (gamma and beta of GP lambda =
# 0.9), below 64. Outside these envelopes an output is wrong, not cancelled.
C_ULPS = 64.0


def _bound_of(fp, law, n, what):
    """(the bound `what` computed at 30 digits from the program's own fixed
    point, its rounding envelope)."""
    tol = C_ULPS * DBL_EPS
    with mp.workdps(30):
        s_inf, gamma = mp.mpf(fp.s_inf), mp.mpf(fp.gamma)
        gn = gamma ** n
        if what == "fl_bound":
            den = 1 - gn * (1 - s_inf)
            val = s_inf / den
            return float(val), float(tol * val / den)
        p = mp.mpf(fp.p_inf)
        b2 = mp.diff(lambda x: R.phi_mp(law.fam, law.par, x), p, 2)
        dbar = 2 * (1 - gamma) * p / (2 * (1 - gamma) + b2 * p * (1 - gn) / gamma)
        val = s_inf + dbar * gn
        return float(val), float(tol * val / (1 - gamma))


def _c_envelope(law, out, what, got, want):
    if got is None:
        return False
    tol, s = C_ULPS * DBL_EPS, law.s
    if what in ("S_inf", "P_inf", "sinf_bounds.exact") or what.startswith(("quine_", "dn_upper")):
        return abs(got - want) <= tol / s
    if what == "gamma":
        return abs(got - want) <= tol / s * max(1.0, R.moments_bc(law)[1])
    if what == "beta":
        return abs(got - want) <= tol / s * abs(want)
    if what.startswith("S^("):
        return abs(got - want) <= tol * int(what[3:-1])
    if what == "t_eps_exact":
        return R.t_eps_ok(law, EPS, got, slack=tol * (1.0 / s + got))
    if what.startswith(("fl_bound(", "pollak_bound(")):
        name, n = what.split("(")[0], int(what.split("(")[1].split(")")[0])
        fp, rows = out[0], out[2]
        value = next(row[2] if name == "fl_bound" else row[3] for row in rows if row[0] == n)
        ref, env = _bound_of(fp, law, n, name)
        return abs(value - ref) <= env
    return False


def _match_c(law, out, err, issues):
    if err is not None:
        return _raised(err, "ZeroDivisionError", "pollak_dbar")
    return all(_c_envelope(law, out, what, got, want) for what, got, want, _ in issues)


def _match_g(argv, out, err, issues):
    return err is None and [what for what, *_ in issues] == ["lambda_c2"]


FAULTS = {
    "a": ("pgf_core._root_solve_p_inf: bracket top 1 - 1e-9 lies beyond P_inf, "
          "ConvergenceError('not bracketed')",
          lambda op, out, err, issues: _raised(err, "ConvergenceError", "_root_solve_p_inf",
                                          "not bracketed")),
    "b": ("pgf_core._root_solve_p_inf: Newton polish steps past x = 1, "
          "DomainError from pgf_eval",
          lambda op, out, err, issues: (_raised(err, "DomainError", "pgf_eval", "x in [0,1]")
                                   and "_root_solve_p_inf" in err[2])),
    "c": ("near-critical cancellation in S_inf = 1 - P_inf, m - 1 and the P-space "
          "iteration: S_inf, gamma, beta or S^(n) off by more than 1e-9 but within "
          "the rounding envelope of P space, or gamma rounds to 1 and pollak_dbar "
          "divides by zero", _match_c),
    "d": ("bound_direction(NB r=1, s=1e-3): the geometric law is its own FL law "
          "and rounding noise exceeds the 1e-12 tolerance of sign_scan",
          lambda op, out, err, issues: _raised(err, "InconsistencyError", "_check_consistency",
                                          "phi < phi_FL")),
    "e": ("bound_direction of an F3 law in case 3iii: f keeps one sign on "
          "[0, P_inf] and the consistency check raises InconsistencyError",
          lambda op, out, err, issues: _raised(err, "InconsistencyError", "_check_consistency",
                                          "single-signed f")),
    "f": ("sinf_bounds_all(binomial n=2): phi'''(1) = 0 makes dn_upper raise "
          "DomainError instead of reporting 'not applicable'",
          lambda op, out, err, issues: _raised(err, "DomainError", "dn_upper")),
    "g": ("gp_thresholds: lambda_c2 from a Richardson finite difference is "
          "~1e-7 off the root of f''(P_inf)", _match_g),
}


def judge(workload, op, out, err):
    """None if the operation passed, else (fault id or None, what failed).
    err is None or (type name, message, program frames); out is the
    operation's result."""
    issues = []
    if err is None:
        c = Check()
        try:
            CHECKS[workload](op, out, c)
        except Mismatch as exc:
            c.fail("layout", str(exc))
        if not c.issues:
            return None
        issues = c.issues
        desc = "; ".join(f"{what}: {detail}" for what, _, _, detail in issues[:4])
    else:
        desc = f"{err[0]}: {err[1]} (in {' < '.join(reversed(err[2][-3:]))})"
    fid = WORKLOADS[workload].expected_fault(op)
    if fid is not None and FAULTS[fid][1](op, out, err, issues):
        return fid, desc
    return None, desc

