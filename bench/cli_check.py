"""Checks of the cli workload's outputs: exit code, header and parsed cells,
against the references in ``refs`` (never against saved outputs). A wrong
layout raises Mismatch; every wrong cell is recorded in the Check.

Cells are printed to 6 significant digits, so a cell must lie within 1e-5
relative of its reference. A relative error of a bound (table 1, figdata 4)
is the difference of two floats of the same size, which double precision
resolves to ~1e-15, so those cells also pass within 1e-13 absolute.
"""

from __future__ import annotations

import csv
import json
import math
from functools import lru_cache

import mpmath as mp

import refs as R
from checks import Mismatch, ceil_ok, dn_applies, quine_applies
from workloads import EPS

CELL = 1e-5
REL_ATOL = 1e-13


def _csv(stdout, header):
    rows = list(csv.reader(stdout.splitlines()))
    if not rows or rows[0] != list(header):
        raise Mismatch(f"header {rows[:1]!r}, expected {list(header)!r}")
    return rows[1:]


def _num(cell):
    return None if cell == "" else float(cell)


def _bound_relerr(law, n, kind):
    """(bound - S^(n))/S^(n) at 50 digits for the simple, fl or pollak bound."""
    s_inf, p_inf, gamma = R.fixed_point(law)
    s_n = mp.mpf(R.survival_seq(law, n)[n])
    with mp.workdps(R.DPS):
        gn = gamma ** n
        if kind == "simple":
            bound = s_inf + p_inf * gn
        elif kind == "fl":
            bound = s_inf / (1 - gn * p_inf)
        else:
            b2 = mp.diff(lambda x: R.phi_mp(law.fam, law.par, x), p_inf, 2)
            dbar = 2 * (1 - gamma) * p_inf / (2 * (1 - gamma) + b2 * p_inf * (1 - gn) / gamma)
            bound = s_inf + dbar * gn
        return float((bound - s_n) / s_n)


def _t_fl(law, eps):
    _, p_inf, gamma = (float(v) for v in R.fixed_point(law))
    arg = (1.0 + 1.0 / eps) * p_inf
    return 0.0 if arg <= 1.0 else math.log(arg) / -math.log(gamma)


def _t_ser_real(law, s, eps):
    theta, _, _, gamma2 = R.series_coeffs(law.fam, law.fpar)
    return (1.0 / s - 0.5 + gamma2) * math.log1p(1.0 / eps) - theta


def _check_t_row(c, law, s, eps, t_exact, t_app, t_ser):
    if not R.t_eps_ok(law, eps, t_exact):
        c.fail("t_exact", f"{t_exact} fails its definition for {law}")
    if not ceil_ok(t_app, _t_fl(law, eps)):
        c.fail("t_app", f"{t_app} for {law}")
    if not ceil_ok(t_ser, _t_ser_real(law, s, eps)):
        c.fail("t_ser", f"{t_ser} for {law}")


def _check_sinf_cells(c, law, s, beta, ql, qu, exact, series3, dn, haldane):
    """Cells of one model's S_inf bounds (table 2 column, `sinf` rows)."""
    s_ref = R.sinf(law)
    b = R.moments_bc(law)[1]
    c.close("beta", beta, 2.0 * R.growth(law) / b, CELL)
    c.close("sinf_exact", exact, s_ref, CELL)
    theta, d2, d3, _ = R.series_coeffs(law.fam, law.fpar)
    c.close("sinf_series3", series3, theta * s - d2 * s * s + d3 * s ** 3, CELL)
    c.close("haldane", haldane, theta * s, CELL)
    if quine_applies(law):
        c.at_most("quine_lower", ql, s_ref, CELL)
        if qu is not None:
            c.at_least("quine_upper", qu, s_ref, CELL)
    if dn_applies(law):
        c.at_least("dn_upper", dn, s_ref, CELL)
    elif dn is not None:
        c.fail("dn_upper", f"{dn} printed where 8c(m-1) >= 3b^2")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _table1(c, out):
    ns = (1, 5, 10, 20, 50, 100)
    rows = _csv(out, ["m", "method"] + [f"n{n}" for n in ns])
    want = [(m, k) for m in (1.5, 1.1, 1.02) for k in ("simple", "fl", "pollak")]
    if [(float(r[0]), r[1]) for r in rows] != want:
        raise Mismatch(f"table 1 rows {[r[:2] for r in rows]}")
    for row in rows:
        law = R.Law("poisson", (float(row[0]),), float(row[0]) - 1.0)
        for n, cell in zip(ns, row[2:]):
            c.close(f"table1 m={row[0]} {row[1]} n={n}", _num(cell),
                   _bound_relerr(law, n, row[1]), CELL, REL_ATOL)


TABLE2_COLS = (("bin_n5", "binomial", 5), ("nb_r5", "negbinomial", 5), ("gp_0.0", "gp", 0.0),
               ("gp_0.2", "gp", 0.2), ("gp_0.5", "gp", 0.5), ("gp_0.9", "gp", 0.9),
               ("fl_0.2", "fl", 0.2))


def _table2(c, out):
    rows = _csv(out, ["quantity"] + [c[0] for c in TABLE2_COLS])
    names = ["beta", "quine_lower", "sinf_exact", "sinf_series3", "dn_upper", "haldane_theta_s"]
    if [r[0] for r in rows] != names:
        raise Mismatch(f"table 2 rows {[r[0] for r in rows]}")
    s = 0.2
    for j, (_, fam, fpar) in enumerate(TABLE2_COLS, start=1):
        law = R.law_from_s(fam, fpar, s)
        beta, ql, exact, series3, dn, haldane = (_num(r[j]) for r in rows)
        _check_sinf_cells(c, law, s, beta, ql, None, exact, series3, dn, haldane)


TABLE3_BLOCKS = ((0.01, (0.01,), (0.0, 0.1, 0.259, 0.5, 0.9)),
                 (0.1, (0.1, 0.01, 1e-4), (0.0, 0.1, 0.276, 0.5, 0.9)),
                 (0.3, (0.01,), (0.0, 0.2, 0.312, 0.5, 0.9)))


def _table3(c, out):
    rows = _csv(out, ["s", "eps", "model", "t_exact", "t_app", "t_ser"])
    want = []
    for s, eps_list, lams in TABLE3_BLOCKS:
        laws = [("bin_n5", R.law_from_s("binomial", 5, s)),
                ("nb_r5", R.law_from_s("negbinomial", 5, s))]
        laws += [(f"gp_{lam:g}", R.law_from_s("gp", lam, s)) for lam in lams]
        for eps in eps_list:
            want += [(s, eps, name, law) for name, law in laws]
            want.append((s, eps, "simple", None))
    if [(float(r[0]), float(r[1]), r[2]) for r in rows] != [w[:3] for w in want]:
        raise Mismatch("table 3 rows differ from the table's layout")
    for (s, eps, name, law), row in zip(want, rows):
        t = [int(v) for v in row[3:]]
        if law is None:
            if t != [math.ceil(math.log1p(1.0 / eps) / s)] * 3:
                c.fail("t_simple", f"table 3 simple row {row}")
        else:
            _check_t_row(c, law, s, eps, *t)


def _survival(c, out):
    law = R.Law("poisson", (1.5,), 0.5)
    rows = _csv(out, ["n", "s_n", "fl_bound", "simple_bound", "pollak_bound"])
    s_inf, p_inf, gamma = (float(v) for v in R.fixed_point(law))
    seq = R.survival_seq(law, 20)
    if [int(r[0]) for r in rows] != list(range(21)):
        raise Mismatch("survival rows are not n = 0..20")
    for row in rows:
        n = int(row[0])
        s_n, fl, simple, pollak = (_num(v) for v in row[1:])
        c.close(f"s_n({n})", s_n, seq[n], CELL)
        c.close(f"fl_bound({n})", fl, s_inf / (1.0 - gamma ** n * p_inf), CELL)
        c.close(f"simple_bound({n})", simple, s_inf + p_inf * gamma ** n, CELL)
        c.at_least(f"fl_bound({n})", fl, seq[n], CELL)
        c.at_least(f"pollak_bound({n})", pollak, seq[n], CELL)


GP_SINF = R.law_from_s("gp", 0.9, 0.2)


def _sinf(c, out):
    law = GP_SINF
    rows = {r[0]: r[1:] for r in _csv(out, ["quantity", "value", "note"])}
    v = {k: _num(r[0]) for k, r in rows.items()}
    m, b, _ = R.moments_bc(law)
    s_inf, p_inf, gamma = (float(x) for x in R.fixed_point(law))
    c.close("m", v["m"], m, CELL)
    c.close("variance", v["variance"], b + m - m * m, CELL)
    c.close("p_inf", v["p_inf"], p_inf, CELL)
    c.close("s_inf", v["s_inf"], s_inf, CELL)
    c.close("gamma", v["gamma"], gamma, CELL)
    _check_sinf_cells(c, law, law.s, v["beta"], v["quine_lower"], v["quine_upper"],
                      v["s_inf"], v["sinf_series3"], v["dn_upper"], v["haldane_theta_s"])
    if not dn_applies(law) and not rows["dn_upper"][1]:
        c.fail("dn_upper", "blank without its note")


def _sinf_strict(c, code, out, err):
    law = GP_SINF
    if code != 3 or out:
        raise Mismatch(f"sinf --strict exited {code} with stdout {out[:80]!r}")
    msg = json.loads(err.strip().splitlines()[-1])
    _, b, c3 = R.moments_bc(law)
    lhs, rhs = 4.0 * R.growth(law) / b, min(1.0, 3.0 * b / (2.0 * c3))
    if lhs < rhs:
        c.fail("strict", "reference says the Quine condition holds")
    if msg.get("error") != "applicability" or msg.get("condition") != "2*beta < min(1, 3b/(2c))":
        raise Mismatch(f"error line {msg}")
    c.close("lhs", msg["lhs"], lhs, 1e-9)
    c.close("rhs", msg["rhs"], rhs, 1e-6)


def _teps(c, out):
    law = R.Law("binomial", (5, 0.202), 5 * 0.202 - 1.0, 5)
    rows = _csv(out, ["eps", "t_exact", "t_fl", "t_app", "t_ser", "t_simple"])
    if len(rows) != 1 or float(rows[0][0]) != EPS:
        raise Mismatch(f"teps rows {rows}")
    _, t_exact, t_fl, t_app, t_ser, t_simple = rows[0]
    s = R.growth(law)
    c.close("t_fl", float(t_fl), _t_fl(law, EPS), CELL)
    _check_t_row(c, law, s, EPS, int(t_exact), int(t_app), int(t_ser))
    if not ceil_ok(int(t_simple), math.log1p(1.0 / EPS) / s):
        c.fail("t_simple", f"{t_simple}")


F3_REGION_NAMES = {"Lower": ("LowerBoundOnP", ("1", "2")), "Upper": ("UpperBoundOnP", ("4", "5")),
                   "Switches3i": ("Switches", ("3i", "3ii")),
                   "Switches3iii": ("Switches", ("3ii", "3iii"))}


def _classify_f3(c, out):
    law = R.f3(0.2, 0.2, 0.1)
    rep = json.loads(out)
    region = R.f3_region(law)
    name, labels = F3_REGION_NAMES[region]
    if rep["region"] != name or rep["case_label"] not in labels:
        c.fail("region", f"classify f3 {rep['region']}/{rep['case_label']}, reference {region}")
    s_inf, p_inf, gamma = (float(v) for v in R.fixed_point(law))
    c.close("p_inf", rep["p_inf"], p_inf, 1e-9)
    c.close("gamma", rep["gamma"], gamma, 1e-9)
    pi = (1.0 - gamma) / (1.0 - p_inf * gamma)
    c.close("fl_pi", rep["fl_pi"], pi, 1e-8)
    c.close("fl_rho", rep["fl_rho"], p_inf * pi, 1e-8)
    signs = [v for v in R.fl_diff_signs(law, 200) if v]
    if name == "LowerBoundOnP" and -1 in signs:
        c.fail("region", "P^(n) below the FL iterates in region Lower")


def _classify_gp(c, out):
    s, lam = 0.1, 0.276
    rep = json.loads(out)
    accepted = R.gp_directions(lam, s)
    if rep["direction"] not in accepted:
        c.fail("direction", f"classify gp {rep['direction']}, reference {sorted(accepted)}")
    if rep["direction"] == "SwitchesAt":
        signs = [v for v in R.fl_diff_signs(R.law_from_s("gp", lam, s), 200) if v]
        change = next((i for i in range(1, len(signs)) if signs[i] != signs[i - 1]), None)
        if change is not None and rep["switch_n"] is None:
            c.fail("switch_n", "no switch generation reported")
    c2, c0, c1 = R.gp_thresholds(s)
    th = rep["thresholds"]
    c.close("lambda_c0", th["lambda_c0"], c0, 0.0, 1e-8)
    c.close("lambda_c1", th["lambda_c1"], c1, 0.0, 1e-8)
    c.close("lambda_c2", th["lambda_c2"], c2, 0.0, 1e-8)


def _genetics(c, out):
    law = R.Law("poisson", (1.1,), 1.1 - 1.0)
    n_pop, s_sel, tau = 1000, 0.1, 10.0
    v = {r[0]: _num(r[1]) for r in _csv(out, ["quantity", "value"])}
    s_inf = R.sinf(law)
    v1 = R.v1_inf(n_pop, s_inf, s_sel)
    theta, d2, _, _ = R.series_coeffs("poisson", None)
    c.close("s_inf", v["s_inf"], s_inf, CELL)
    c.close("vg_tau", v["vg_tau"], R.vg_tau(R.survival_seq(law, 11), 1.1, n_pop, tau), CELL)
    c.close("v1_inf", v["v1_inf"], v1, CELL)
    c.close("vg_inf_leading", v["vg_inf_leading"], s_inf * v1, CELL)
    c.close("vg_inf_simple", v["vg_inf_simple"], theta * (1.0 - d2 * s_sel), CELL)
    c.close("delta_mean", v["delta_mean"], theta * s_sel * (1.0 - d2 * s_sel), CELL)
    c.close("wf_fix_diffusion", v["wf_fix_diffusion"],
           -math.expm1(-2.0 * s_sel) / -math.expm1(-2.0 * s_sel * n_pop), CELL)
    c.close("wf_fix_improved", v["wf_fix_improved"], R.wf_formula(n_pop, s_sel), CELL)
    c.close("wf_fix_exact", v["wf_fix_exact"], R.wf_reference(n_pop, s_sel), CELL)


def _figdata1(c, out):
    rows = _csv(out, ["m", "pi", "rho", "p_inf"])
    if [round(float(r[0]) * 100) for r in rows] != list(range(101, 301)):
        raise Mismatch("figdata 1 rows are not m = 1.01..3.00")
    for i, row in zip(range(101, 301), rows):
        law = R.Law("poisson", (i / 100.0,), i / 100.0 - 1.0)
        _, p_inf, gamma = (float(v) for v in R.fixed_point(law))
        pi = (1.0 - gamma) / (1.0 - p_inf * gamma)
        c.close(f"figdata1 pi m={row[0]}", float(row[1]), pi, CELL)
        c.close(f"figdata1 rho m={row[0]}", float(row[2]), p_inf * pi, CELL)
        c.close(f"figdata1 p_inf m={row[0]}", float(row[3]), p_inf, CELL)


@lru_cache(maxsize=None)
def f3_volumes_ref(samples=4_000_000):
    """(lower, switches, upper) shares of the admissible F3 region and the
    admissible share of the unit cube, by Monte Carlo on the sign of L at
    0 and 1 (see workloads._f3_float_strata), with a generator of its own."""
    import numpy as np

    rng = np.random.default_rng(20250401)
    p0, p2, p3 = rng.random(samples), rng.random(samples), rng.random(samples)
    ok = (p0 + p2 + p3 <= 1.0) & (p0 < p2 + 2.0 * p3)
    p0, p2, p3 = p0[ok], p2[ok], p3[ok]
    q = p2 + p3
    p = (np.sqrt(4.0 * p0 * p3 + q * q) - q) / (2.0 * p3)
    c = q + 2.0 * p3 * p
    lower = -p3 + c * (q + p3 * p) >= 0.0
    upper = -p3 + c * (q + p3 * p + p3) <= 0.0
    n = p0.size
    lo, up = np.count_nonzero(lower) / n, np.count_nonzero(upper) / n
    return (lo, 1.0 - lo - up, up), n / samples


def _figdata3(c, argv, out):
    rows = _csv(out, ["lower_bound_on_p", "switches", "upper_bound_on_p"])
    fracs = [float(v) for v in rows[0]]
    samples = int(argv[argv.index("--samples") + 1])
    ref, admissible = f3_volumes_ref()
    c.close("volume sum", sum(fracs), 1.0, 0.0, 1e-5)
    n_prog = samples * admissible
    for name, f, r in zip(("lower", "switches", "upper"), fracs, ref):
        # Six standard errors of the program's sample and of the reference.
        sd = math.sqrt(r * (1.0 - r) * (1.0 / n_prog + 1.0 / (4_000_000 * admissible)))
        c.close(f"volume {name}", f, r, 0.0, 6.0 * sd + 1e-6)


def _figdata4(c, out):
    lams = (0.0, 0.1, 0.276, 0.5, 0.9)
    rows = _csv(out, ["n"] + [f"relerr_lambda_{lam:g}" for lam in lams])
    if [int(r[0]) for r in rows] != list(range(1, 31)):
        raise Mismatch("figdata 4 rows are not n = 1..30")
    for row in rows:
        n = int(row[0])
        for lam, cell in zip(lams, row[1:]):
            law = R.law_from_s("gp", lam, 0.1)
            c.close(f"figdata4 n={n} lambda={lam}", float(cell),
                   _bound_relerr(law, n, "fl"), CELL, REL_ATOL)


def check_cli(c, argv, code, out, err):
    """Record in c every way the command's exit code and output are wrong."""
    cmd = tuple(argv[:2])
    if "--strict" in argv:
        return _sinf_strict(c, code, out, err)
    if code != 0 or err:
        raise Mismatch(f"{' '.join(argv)} exited {code}: {err.strip()[:200]}")
    if cmd[0] == "table":
        return {"1": _table1, "2": _table2, "3": _table3}[cmd[1]](c, out)
    if cmd[0] == "figdata":
        if cmd[1] == "3-volumes":
            return _figdata3(c, argv, out)
        return {"1": _figdata1, "4": _figdata4}[cmd[1]](c, out)
    if cmd[0] == "classify":
        return {"f3": _classify_f3, "gp": _classify_gp}[cmd[1]](c, out)
    return {"survival": _survival, "sinf": _sinf, "teps": _teps,
            "genetics": _genetics}[cmd[0]](c, out)
