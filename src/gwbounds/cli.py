"""Command-line front end: reproduces the reference tables, emits figure data,
runs the classifiers, and exposes the survival/bound/convergence/genetics
computations as deterministic CSV or JSON.

Exit codes: 0 success, 2 domain error, 3 applicability error, 1 anything else.
Errors, including an --out file that cannot be written, are written to
stderr as single-line JSON.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
import tempfile
from typing import List, Optional, Sequence

from .errors import ApplicabilityError, DomainError, GWError, require_count
from .pgf_core import (
    Binomial,
    FiniteThree,
    FractionalLinear,
    GeneralizedPoisson,
    NegBinomial,
    OffspringModel,
    Poisson,
    binomial_from_s,
    extinction_probability,
    fl_from_s,
    gp_from_s,
    iterate_extinction,
    moments,
    negbinomial_from_s,
    pgf_eval,
    poisson_from_s,
    survival_curve,
)
from .fl_bounds import (
    SWITCHES,
    bound_direction,
    matching_fl,
    sn_fl_bound,
    sn_pollak_bound,
    sn_simple_bound,
    t_eps_app,
    t_eps_exact,
    t_eps_fl,
)
from .classify_f3 import classify_f3, f3_region_volumes
from .classify_gp import gp_thresholds
from .sinf_estimates import dn_upper, quine_bounds, sinf_bounds_all, t_ser, t_simple
from .genetics import (
    WF_EXACT_MAX_N,
    TraitModel,
    WFModel,
    vg_inf,
    vg_tau,
    wf_fixation_a,
    wf_fixation_diffusion,
    wf_fixation_exact,
)

# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(value, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return f"{value:.{digits}g}"
    return str(value)


def render_csv(header: Sequence[str], rows: Sequence[Sequence], digits: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([_fmt(v, digits) for v in row] for row in rows)
    return buf.getvalue()


def write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    # The text goes to a temporary file beside out, which then replaces out.
    # An OSError from any step names out, not the temporary file.
    if os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)),
                                   prefix=".gwb-tmp-")
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise type(exc)(exc.errno, exc.strerror, out) from exc
        raise


# ---------------------------------------------------------------------------
# Model construction from flags
# ---------------------------------------------------------------------------

# --dist -> (model class, the flags that both forms take, constructor of the
# --s form). The one remaining field of the class is the explicit form's flag.
_S_FAMILIES = {
    "poisson": (Poisson, (), poisson_from_s),
    "binomial": (Binomial, ("n",), binomial_from_s),
    "negbinomial": (NegBinomial, ("r",), negbinomial_from_s),
    "fl": (FractionalLinear, ("pi",), fl_from_s),
    "gp": (GeneralizedPoisson, ("lam",), gp_from_s),
}


def _flag(name: str) -> str:
    return "--lambda" if name == "lam" else f"--{name}"


def f3_model(args) -> FiniteThree:
    """The F3 law of --p0, --p2, --p3. p1 takes the rest of the mass, clamped
    at 0 so that rounding (0.3 + 0.3 + 0.4 > 1) cannot make it negative;
    FiniteThree still rejects masses that sum above 1."""
    if args.p0 is None or args.p2 is None or args.p3 is None:
        raise DomainError("f3 requires --p0, --p2, --p3 (p1 is inferred)")
    p1 = max(1.0 - args.p0 - args.p2 - args.p3, 0.0)
    return FiniteThree(p0=args.p0, p1=p1, p2=args.p2, p3=args.p3)


def build_model(args) -> OffspringModel:
    """The model named by --dist, from its parameter flags or from --s."""
    dist = args.dist
    if dist == "f3":
        return f3_model(args)
    if dist not in _S_FAMILIES:
        raise DomainError(f"unknown distribution {dist!r}")
    cls, shared, from_s = _S_FAMILIES[dist]
    for name in shared:
        if getattr(args, name) is None:
            raise DomainError(f"{dist} requires {_flag(name)}")
    (own,) = (name for name in cls._fields if name not in shared)
    if getattr(args, own) is not None:
        return cls(**{name: getattr(args, name) for name in cls._fields})
    if args.s is not None:
        return from_s(*(getattr(args, name) for name in shared), args.s)
    raise DomainError(f"{dist} requires {_flag(own)} or --s")


# ---------------------------------------------------------------------------
# Subcommands: each returns what it prints, (header, rows) for a CSV or a
# dict for a JSON line, and main renders and writes it.
# ---------------------------------------------------------------------------

_TABLE1_MS = (1.5, 1.1, 1.02)
_TABLE1_NS = (1, 5, 10, 20, 50, 100)


def table1():
    """Relative errors (bound - S^(n))/S^(n) of the three Poisson S-bounds."""
    rows = []
    for m in _TABLE1_MS:
        model = Poisson(m=m)
        fp = extinction_probability(model)
        exact = {n: 1.0 - iterate_extinction(model, n) for n in _TABLE1_NS}
        for method, fn in (("simple", sn_simple_bound),
                           ("fl", sn_fl_bound),
                           ("pollak", sn_pollak_bound)):
            rows.append([m, method] + [(fn(model, n, fp) - exact[n]) / exact[n]
                                       for n in _TABLE1_NS])
    return ["m", "method"] + [f"n{n}" for n in _TABLE1_NS], rows


_TABLE2_COLS = (
    ("bin_n5", lambda s: binomial_from_s(5, s)),
    ("nb_r5", lambda s: negbinomial_from_s(5, s)),
    ("gp_0.0", lambda s: gp_from_s(0.0, s)),
    ("gp_0.2", lambda s: gp_from_s(0.2, s)),
    ("gp_0.5", lambda s: gp_from_s(0.5, s)),
    ("gp_0.9", lambda s: gp_from_s(0.9, s)),
    ("fl_0.2", lambda s: fl_from_s(0.2, s)),
)


def table2():
    s = 0.2
    bounds = [sinf_bounds_all(make(s), s) for _, make in _TABLE2_COLS]
    header = ["quantity"] + [name for name, _ in _TABLE2_COLS]
    quantities = (
        ("beta", lambda b: b.beta),
        ("quine_lower", lambda b: b.quine_lower),
        ("sinf_exact", lambda b: b.exact),
        ("sinf_series3", lambda b: b.series3),
        ("dn_upper", lambda b: b.dn_upper),
        ("haldane_theta_s", lambda b: b.haldane),
    )
    return header, [[name] + [get(b) for b in bounds] for name, get in quantities]


_TABLE3_BLOCKS = (
    (0.01, (0.01,), (0.0, 0.1, 0.259, 0.5, 0.9)),
    (0.1, (0.1, 0.01, 1e-4), (0.0, 0.1, 0.276, 0.5, 0.9)),
    (0.3, (0.01,), (0.0, 0.2, 0.312, 0.5, 0.9)),
)


def table3():
    header = ["s", "eps", "model", "t_exact", "t_app", "t_ser"]
    rows: List[List] = []
    for s, eps_list, lams in _TABLE3_BLOCKS:
        models = [("bin_n5", binomial_from_s(5, s)), ("nb_r5", negbinomial_from_s(5, s))]
        models += [(f"gp_{lam:g}", gp_from_s(lam, s)) for lam in lams]
        for eps in eps_list:
            for name, model in models:
                fp = extinction_probability(model)
                rows.append([s, eps, name,
                             t_eps_exact(model, eps),
                             t_eps_app(fp, eps),
                             t_ser(model, s, eps)])
            t0 = t_simple(s, eps)
            rows.append([s, eps, "simple", t0, t0, t0])
    return header, rows


TABLES = {1: table1, 2: table2, 3: table3}


def _by_name(record) -> Optional[dict]:
    """The fields of a record by name, for a JSON report; None stays None."""
    return None if record is None else {name: getattr(record, name) for name in record._fields}


def cmd_classify(args) -> dict:
    if args.kind == "f3":
        model = f3_model(args)
        cls = classify_f3(model)
        fp = extinction_probability(model)
        fl = matching_fl(fp)
        report = {
            "kind": "f3",
            "region": cls.region,
            "case_label": cls.case_label,
            "p_inf": fp.p_inf,
            "gamma": fp.gamma,
            "fl_pi": fl.pi,
            "fl_rho": fl.rho,
            "sign_profile": list(cls.sign_profile),
            "thresholds": _by_name(cls.thresholds),
        }
        direction = bound_direction(model)
        if direction.kind == SWITCHES:
            report["switch_n"] = direction.switch_n
        return report
    if args.s is None or args.lam is None:
        raise DomainError("classify gp requires --s and --lambda")
    thresholds = gp_thresholds(args.s)  # first, for its message on s
    direction = bound_direction(gp_from_s(args.lam, args.s))
    return {
        "kind": "gp",
        "direction": direction.kind,
        "switch_n": direction.switch_n,
        "conjectured": direction.conjectured,
        "thresholds": _by_name(thresholds),
    }


def cmd_survival(args):
    model = build_model(args)
    fp = extinction_probability(model)
    curve = survival_curve(model, args.nmax)
    header = ["n", "s_n", "fl_bound", "simple_bound", "pollak_bound"]
    rows = [[n, s_n, sn_fl_bound(model, n, fp), sn_simple_bound(model, n, fp),
             sn_pollak_bound(model, n, fp)] for n, s_n in enumerate(curve)]
    return header, rows


def cmd_sinf(args):
    model = build_model(args)
    fp = extinction_probability(model)
    mom = moments(model)
    s = mom.m - 1.0
    if args.strict:
        # Guaranteed-bound mode: raise (exit code 3) instead of reporting
        # values outside the bounds' validity conditions.
        quine_bounds(model)
        dn_upper(model)
    bounds = sinf_bounds_all(model, s)
    note = ""
    if bounds.dn_upper is None:
        note = ("dn_upper not applicable: phi'''(1) <= 0" if mom.c <= 0.0
                else "dn_upper not applicable: 8c(m-1) >= 3b^2")
    series_note = "" if bounds.series3 is not None else "no s-family: no mu table"
    header = ["quantity", "value", "note"]
    rows = [
        ["m", mom.m, ""],
        ["variance", mom.var, ""],
        ["p_inf", fp.p_inf, ""],
        ["s_inf", fp.s_inf, ""],
        ["gamma", fp.gamma, ""],
        ["beta", bounds.beta, ""],
        ["quine_lower", bounds.quine_lower, ""],
        ["quine_upper", bounds.quine_upper, ""],
        ["dn_upper", bounds.dn_upper, note],
        ["sinf_series3", bounds.series3, series_note],
        ["haldane_theta_s", bounds.haldane, series_note],
    ]
    return header, rows


def cmd_teps(args):
    model = build_model(args)
    fp = extinction_probability(model)
    s = moments(model).m - 1.0
    header = ["eps", "t_exact", "t_fl", "t_app", "t_ser", "t_simple"]
    rows = []
    for eps in args.eps:
        try:
            ts = t_ser(model, s, eps)
        except DomainError:
            ts = None
        rows.append([eps,
                     t_eps_exact(model, eps),
                     t_eps_fl(fp, eps),
                     t_eps_app(fp, eps),
                     ts,
                     t_simple(s, eps)])
    return header, rows


def cmd_genetics(args):
    model = build_model(args)
    mom = moments(model)
    s_sel = args.s
    if s_sel is None and args.alpha > 0.0:  # else TraitModel rejects alpha first
        s_sel = math.log(mom.m) / args.alpha
    tm = TraitModel(theta_mut=args.theta_mut, alpha=args.alpha,
                    s_sel=s_sel, pop_size=args.N)
    fp = extinction_probability(model)
    ne = args.Ne if args.Ne is not None else args.N / (mom.var / mom.m)
    wf = WFModel(pop_size=args.N, s_sel=s_sel, effective_size=ne)
    asymptotic = vg_inf(tm, model)
    header = ["quantity", "value"]
    rows = [
        ["s_inf", fp.s_inf],
        ["v1_inf", asymptotic.v1_inf],
        ["vg_inf_leading", asymptotic.leading],
        ["vg_inf_simple", asymptotic.simple],
        ["delta_mean", asymptotic.delta_mean],
        ["wf_fix_diffusion", wf_fixation_diffusion(wf)],
        ["wf_fix_improved", wf_fixation_a(wf)],
    ]
    if args.tau is not None:
        rows.insert(1, ["vg_tau", vg_tau(tm, model, args.tau)])
    if args.N <= WF_EXACT_MAX_N:
        rows.append(["wf_fix_exact", wf_fixation_exact(wf)])
    return header, rows


def figure1():
    rows = []
    for i in range(101, 301):
        m = i / 100.0
        fp = extinction_probability(Poisson(m=m))
        fl = matching_fl(fp)
        rows.append([m, fl.pi, fl.rho, fp.p_inf])
    return ["m", "pi", "rho", "p_inf"], rows


def figure2():
    s = 0.3
    lams = (0.30, 0.3145)
    header = ["x"] + [f"f_lambda_{lam:g}" for lam in lams]
    models = [gp_from_s(lam, s) for lam in lams]
    fls = [matching_fl(extinction_probability(mod)) for mod in models]
    rows = []
    for i in range(201):
        x = i / 200.0
        rows.append([x] + [pgf_eval(mod, x) - pgf_eval(fl, x) for mod, fl in zip(models, fls)])
    return header, rows


def figure3_volumes():
    return ["lower_bound_on_p", "switches", "upper_bound_on_p"], [list(f3_region_volumes())]


def figure4():
    s = 0.1
    lams = (0.0, 0.1, 0.276, 0.5, 0.9)
    header = ["n"] + [f"relerr_lambda_{lam:g}" for lam in lams]
    models = [gp_from_s(lam, s) for lam in lams]
    fps = [extinction_probability(mod) for mod in models]
    curves = [survival_curve(mod, 30) for mod in models]
    rows = [[n] + [(sn_fl_bound(mod, n, fp) - curve[n]) / curve[n]
                   for mod, fp, curve in zip(models, fps, curves)]
            for n in range(1, 31)]
    return header, rows


FIGURES = {"1": figure1, "2": figure2, "3-volumes": figure3_volumes, "4": figure4}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# The model flags by destination, in help order, and the ones classify reads.
_MODEL_FLAGS = {"m": float, "n": int, "p": float, "r": int, "pi": float, "rho": float,
                "p0": float, "p2": float, "p3": float, "mu": float, "lam": float,
                "s": float}
_CLASSIFY_FLAGS = ("p0", "p2", "p3", "lam", "s")


def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    for name in names:
        parser.add_argument(_flag(name), dest=name, type=_MODEL_FLAGS[name])


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dist", choices=["poisson", "binomial", "negbinomial",
                                           "fl", "f3", "gp"])
    _add_flags(parser, _MODEL_FLAGS)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None)
    parser.add_argument("--digits", type=int, default=6)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwb",
        description="Survival-probability bounds for supercritical "
                    "Galton-Watson processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="emit a reference table as CSV")
    p_table.add_argument("id", type=int, choices=sorted(TABLES))
    _add_output_flags(p_table)
    p_table.set_defaults(func=lambda args: TABLES[args.id]())

    p_cls = sub.add_parser("classify", help="bound-direction classification")
    p_cls.add_argument("kind", choices=["f3", "gp"])
    _add_flags(p_cls, _CLASSIFY_FLAGS)
    p_cls.add_argument("--out", default=None)
    p_cls.set_defaults(func=cmd_classify)

    p_surv = sub.add_parser("survival", help="survival curve and bounds")
    _add_model_flags(p_surv)
    p_surv.add_argument("--nmax", type=int, default=50)
    _add_output_flags(p_surv)
    p_surv.set_defaults(func=cmd_survival)

    p_sinf = sub.add_parser("sinf", help="eventual survival and its bounds")
    _add_model_flags(p_sinf)
    p_sinf.add_argument("--strict", action="store_true",
                        help="fail (exit 3) when a bound's validity condition "
                             "does not hold instead of reporting its value")
    _add_output_flags(p_sinf)
    p_sinf.set_defaults(func=cmd_sinf)

    p_teps = sub.add_parser("teps", help="convergence times T(eps)")
    _add_model_flags(p_teps)
    p_teps.add_argument("--eps", type=float, nargs="+", default=[0.01])
    _add_output_flags(p_teps)
    p_teps.set_defaults(func=cmd_teps)

    p_gen = sub.add_parser("genetics", help="trait-variance and fixation report")
    _add_model_flags(p_gen)
    p_gen.add_argument("--N", type=int, required=True)
    p_gen.add_argument("--Ne", type=float, default=None)
    p_gen.add_argument("--theta-mut", dest="theta_mut", type=float, default=1.0)
    p_gen.add_argument("--alpha", type=float, default=1.0)
    p_gen.add_argument("--tau", type=float, default=None)
    _add_output_flags(p_gen)
    p_gen.set_defaults(func=cmd_genetics)

    p_fig = sub.add_parser("figdata", help="emit plot-ready figure data")
    p_fig.add_argument("fig", choices=list(FIGURES))
    for flag in ("--samples", "--seed"):
        p_fig.add_argument(flag, type=int, help="ignored: the 3-volumes shares are exact")
    _add_output_flags(p_fig)
    p_fig.set_defaults(func=lambda args: FIGURES[args.fig]())

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        # classify has no --digits: it writes JSON.
        require_count("--digits", getattr(args, "digits", 0))
        result = args.func(args)
        if isinstance(result, dict):
            text = json.dumps(result, sort_keys=True) + "\n"
        else:
            text = render_csv(*result, args.digits)
        write_output(text, args.out)
        return 0
    except ApplicabilityError as exc:
        sys.stderr.write(json.dumps({
            "error": "applicability", "condition": exc.condition,
            "lhs": exc.lhs, "rhs": exc.rhs, "message": str(exc)}) + "\n")
        return 3
    except DomainError as exc:
        sys.stderr.write(json.dumps({"error": "domain", "message": str(exc)}) + "\n")
        return 2
    except (GWError, OSError) as exc:
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
