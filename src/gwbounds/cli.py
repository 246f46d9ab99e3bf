"""Command-line front end: reproduces the reference tables, emits figure data,
runs the classifiers, and exposes the survival/bound/convergence/genetics
computations as deterministic CSV or JSON.

Exit codes: 0 success, 2 domain error, 3 applicability error, 1 anything else.
Errors, including an --out file that cannot be written and an arithmetic
error (a division by zero, an overflow) in the library, are written to
stderr as single-line JSON.

A call builds only its subcommand's parser and reaches the library through
the package's lazy namespace, so it loads only the modules it calls.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import math
import os
import sys
import tempfile
from typing import List, Optional, Sequence

import gwbounds as gw
from .errors import ApplicabilityError, DomainError, GWError, require_count

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


def _json_line(obj, **options) -> str:
    import json  # ~2.5 ms to load, and only classify and the errors write JSON
    return json.dumps(obj, **options) + "\n"


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
# --s form), the two by their names in the gwbounds namespace. The one
# remaining field of the class is the explicit form's flag.
_S_FAMILIES = {
    "poisson": ("Poisson", (), "poisson_from_s"),
    "binomial": ("Binomial", ("n",), "binomial_from_s"),
    "negbinomial": ("NegBinomial", ("r",), "negbinomial_from_s"),
    "fl": ("FractionalLinear", ("pi",), "fl_from_s"),
    "gp": ("GeneralizedPoisson", ("lam",), "gp_from_s"),
}


def _flag(name: str) -> str:
    return "--lambda" if name == "lam" else f"--{name}"


def f3_model(args) -> gw.FiniteThree:
    """The F3 law of --p0, --p2, --p3. p1 takes the rest of the mass, clamped
    at 0 so that rounding (0.3 + 0.3 + 0.4 > 1) cannot make it negative;
    FiniteThree still rejects masses that sum above 1."""
    if args.p0 is None or args.p2 is None or args.p3 is None:
        raise DomainError("f3 requires --p0, --p2, --p3 (p1 is inferred)")
    p1 = max(1.0 - args.p0 - args.p2 - args.p3, 0.0)
    return gw.FiniteThree(p0=args.p0, p1=p1, p2=args.p2, p3=args.p3)


def build_model(args) -> gw.OffspringModel:
    """The model named by --dist, from its parameter flags or from --s."""
    dist = args.dist
    if dist == "f3":
        return f3_model(args)
    if dist is None:
        raise DomainError(f"{args.command} requires --dist")
    cls, shared, from_s = _S_FAMILIES[dist]
    cls, from_s = getattr(gw, cls), getattr(gw, from_s)
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
        model = gw.Poisson(m=m)
        fp = gw.extinction_probability(model)
        exact = {n: 1.0 - gw.iterate_extinction(model, n) for n in _TABLE1_NS}
        for method, fn in (("simple", gw.sn_simple_bound),
                           ("fl", gw.sn_fl_bound),
                           ("pollak", gw.sn_pollak_bound)):
            rows.append([m, method] + [(fn(model, n, fp) - exact[n]) / exact[n]
                                       for n in _TABLE1_NS])
    return ["m", "method"] + [f"n{n}" for n in _TABLE1_NS], rows


_TABLE2_COLS = (
    ("bin_n5", lambda s: gw.binomial_from_s(5, s)),
    ("nb_r5", lambda s: gw.negbinomial_from_s(5, s)),
    ("gp_0.0", lambda s: gw.gp_from_s(0.0, s)),
    ("gp_0.2", lambda s: gw.gp_from_s(0.2, s)),
    ("gp_0.5", lambda s: gw.gp_from_s(0.5, s)),
    ("gp_0.9", lambda s: gw.gp_from_s(0.9, s)),
    ("fl_0.2", lambda s: gw.fl_from_s(0.2, s)),
)


def table2():
    s = 0.2
    bounds = [gw.sinf_bounds_all(make(s), s) for _, make in _TABLE2_COLS]
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
        models = [("bin_n5", gw.binomial_from_s(5, s)), ("nb_r5", gw.negbinomial_from_s(5, s))]
        models += [(f"gp_{lam:g}", gw.gp_from_s(lam, s)) for lam in lams]
        for eps in eps_list:
            for name, model in models:
                fp = gw.extinction_probability(model)
                rows.append([s, eps, name,
                             gw.t_eps_exact(model, eps),
                             gw.t_eps_app(fp, eps),
                             gw.t_ser(model, s, eps)])
            t0 = gw.sinf_estimates.t_simple(s, eps)
            rows.append([s, eps, "simple", t0, t0, t0])
    return header, rows


TABLES = {1: table1, 2: table2, 3: table3}


def _by_name(record) -> Optional[dict]:
    """The fields of a record by name, for a JSON report; None stays None."""
    return None if record is None else {name: getattr(record, name) for name in record._fields}


def cmd_classify(args) -> dict:
    if args.kind == "f3":
        model = f3_model(args)
        cls = gw.classify_f3.classify_f3(model)
        fp = gw.extinction_probability(model)
        fl = gw.matching_fl(fp)
        report = {
            **_by_name(cls),  # json writes its sign_profile tuple as a list
            "kind": "f3",
            "thresholds": _by_name(cls.thresholds),
            "p_inf": fp.p_inf,
            "gamma": fp.gamma,
            "fl_pi": fl.pi,
            "fl_rho": fl.rho,
        }
        direction = gw.bound_direction(model)
        if direction.kind == gw.fl_bounds.SWITCHES:
            report["switch_n"] = direction.switch_n
        return report
    if args.s is None or args.lam is None:
        raise DomainError("classify gp requires --s and --lambda")
    thresholds = gw.gp_thresholds(args.s)  # first, for its message on s
    direction = gw.bound_direction(gw.gp_from_s(args.lam, args.s))
    return {
        "kind": "gp",
        "direction": direction.kind,
        "switch_n": direction.switch_n,
        "conjectured": direction.conjectured,
        "thresholds": _by_name(thresholds),
    }


def cmd_survival(args):
    model = build_model(args)
    fp = gw.extinction_probability(model)
    curve = gw.survival_curve(model, args.nmax)
    header = ["n", "s_n", "fl_bound", "simple_bound", "pollak_bound"]
    rows = [[n, s_n, gw.sn_fl_bound(model, n, fp), gw.sn_simple_bound(model, n, fp),
             gw.sn_pollak_bound(model, n, fp)] for n, s_n in enumerate(curve)]
    return header, rows


def cmd_sinf(args):
    model = build_model(args)
    fp = gw.extinction_probability(model)
    mom = gw.moments(model)
    s = mom.m - 1.0
    if args.strict:
        # Guaranteed-bound mode: raise (exit code 3) instead of reporting
        # values outside the bounds' validity conditions.
        gw.quine_bounds(model)
        gw.dn_upper(model)
    bounds = gw.sinf_bounds_all(model, s)
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
    fp = gw.extinction_probability(model)
    s = gw.moments(model).m - 1.0
    header = ["eps", "t_exact", "t_fl", "t_app", "t_ser", "t_simple"]
    rows = []
    for eps in args.eps:
        try:
            ts = gw.t_ser(model, s, eps)
        except DomainError:
            ts = None
        rows.append([eps,
                     gw.t_eps_exact(model, eps),
                     gw.t_eps_fl(fp, eps),
                     gw.t_eps_app(fp, eps),
                     ts,
                     gw.sinf_estimates.t_simple(s, eps)])
    return header, rows


def cmd_genetics(args):
    model = build_model(args)
    mom = gw.moments(model)
    s_sel = args.s
    if s_sel is None and args.alpha > 0.0:  # else TraitModel rejects alpha first
        s_sel = math.log(mom.m) / args.alpha
    tm = gw.TraitModel(theta_mut=args.theta_mut, alpha=args.alpha,
                    s_sel=s_sel, pop_size=args.N)
    fp = gw.extinction_probability(model)
    ne = args.Ne if args.Ne is not None else args.N / (mom.var / mom.m)
    wf = gw.WFModel(pop_size=args.N, s_sel=s_sel, effective_size=ne)
    asymptotic = gw.vg_inf(tm, model)
    header = ["quantity", "value"]
    rows = [
        ["s_inf", fp.s_inf],
        ["v1_inf", asymptotic.v1_inf],
        ["vg_inf_leading", asymptotic.leading],
        ["vg_inf_simple", asymptotic.simple],
        ["delta_mean", asymptotic.delta_mean],
        ["wf_fix_diffusion", gw.wf_fixation_diffusion(wf)],
        ["wf_fix_improved", gw.wf_fixation_a(wf)],
    ]
    if args.tau is not None:
        rows.insert(1, ["vg_tau", gw.vg_tau(tm, model, args.tau)])
    if args.N <= gw.genetics.WF_EXACT_MAX_N:
        rows.append(["wf_fix_exact", gw.wf_fixation_exact(wf)])
    return header, rows


def figure1():
    rows = []
    for i in range(101, 301):
        m = i / 100.0
        fp = gw.extinction_probability(gw.Poisson(m=m))
        fl = gw.matching_fl(fp)
        rows.append([m, fl.pi, fl.rho, fp.p_inf])
    return ["m", "pi", "rho", "p_inf"], rows


def figure2():
    s = 0.3
    lams = (0.30, 0.3145)
    header = ["x"] + [f"f_lambda_{lam:g}" for lam in lams]
    models = [gw.gp_from_s(lam, s) for lam in lams]
    fls = [gw.matching_fl(gw.extinction_probability(mod)) for mod in models]
    rows = []
    for i in range(201):
        x = i / 200.0
        rows.append([x] + [gw.pgf_eval(mod, x) - gw.pgf_eval(fl, x)
                           for mod, fl in zip(models, fls)])
    return header, rows


def figure3_volumes():
    return ["lower_bound_on_p", "switches", "upper_bound_on_p"], [list(gw.f3_region_volumes())]


def figure4():
    s = 0.1
    lams = (0.0, 0.1, 0.276, 0.5, 0.9)
    header = ["n"] + [f"relerr_lambda_{lam:g}" for lam in lams]
    models = [gw.gp_from_s(lam, s) for lam in lams]
    fps = [gw.extinction_probability(mod) for mod in models]
    curves = [gw.survival_curve(mod, 30) for mod in models]
    rows = [[n] + [(gw.sn_fl_bound(mod, n, fp) - curve[n]) / curve[n]
                   for mod, fp, curve in zip(models, fps, curves)]
            for n in range(1, 31)]
    return header, rows


FIGURES = {"1": figure1, "2": figure2, "3-volumes": figure3_volumes, "4": figure4}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

# Arguments as (name or flag, add_argument options) pairs. The model flags
# are --dist and then each parameter by its destination, in help order.
_PARAMS = {"m": float, "n": int, "p": float, "r": int, "pi": float, "rho": float,
           "p0": float, "p2": float, "p3": float, "mu": float, "lam": float, "s": float}


def _params(*names):
    return [(_flag(name), {"dest": name, "type": _PARAMS[name]}) for name in names]


_MODEL = [("--dist", {"choices": ["poisson", "binomial", "negbinomial", "fl", "f3", "gp"]}),
          *_params(*_PARAMS)]
_OUT = ("--out", {})
_OUTPUT = [_OUT, ("--digits", {"type": int, "default": 6})]
_IGNORED = {"type": int, "help": "ignored: the 3-volumes shares are exact"}

# Each subcommand's help line, the function that computes what it prints, and
# its arguments, in help order.
SUBCOMMANDS = {
    "table": ("emit a reference table as CSV", lambda args: TABLES[args.id](),
              [("id", {"type": int, "choices": sorted(TABLES)}), *_OUTPUT]),
    "classify": ("bound-direction classification", cmd_classify,
                 [("kind", {"choices": ["f3", "gp"]}),
                  *_params("p0", "p2", "p3", "lam", "s"), _OUT]),
    "survival": ("survival curve and bounds", cmd_survival,
                 [*_MODEL, ("--nmax", {"type": int, "default": 50}), *_OUTPUT]),
    "sinf": ("eventual survival and its bounds", cmd_sinf,
             [*_MODEL,
              ("--strict", {"action": "store_true",
                            "help": "fail (exit 3) when a bound's validity condition "
                                    "does not hold instead of reporting its value"}),
              *_OUTPUT]),
    "teps": ("convergence times T(eps)", cmd_teps,
             [*_MODEL, ("--eps", {"type": float, "nargs": "+", "default": [0.01]}),
              *_OUTPUT]),
    "genetics": ("trait-variance and fixation report", cmd_genetics,
                 [*_MODEL, ("--N", {"type": int, "required": True}),
                  ("--Ne", {"type": float}), ("--theta-mut", {"type": float, "default": 1.0}),
                  ("--alpha", {"type": float, "default": 1.0}), ("--tau", {"type": float}),
                  *_OUTPUT]),
    "figdata": ("emit plot-ready figure data", lambda args: FIGURES[args.fig](),
                [("fig", {"choices": list(FIGURES)}), ("--samples", _IGNORED),
                 ("--seed", _IGNORED), *_OUTPUT]),
}


def make_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The gwb parser. Given the name of a subcommand it builds that
    subparser alone, all that a command line starting with that name uses;
    given anything else (None, an option, an unknown name), every subparser."""
    parser = argparse.ArgumentParser(
        prog="gwb",
        description="Survival-probability bounds for supercritical "
                    "Galton-Watson processes.")
    names = [command] if command in SUBCOMMANDS else list(SUBCOMMANDS)
    # One subparser alone still lists every subcommand in the usage line.
    # With all of them the metavar stays unset: argparse's errors then name
    # the argument "command".
    choices = "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=choices if len(names) == 1 else None)
    for name in names:
        summary, handler, arguments = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = make_parser(argv[0] if argv else None).parse_args(argv)
    try:
        # classify has no --digits: it writes JSON.
        require_count("--digits", getattr(args, "digits", 0))
        result = args.func(args)
        if isinstance(result, dict):
            text = _json_line(result, sort_keys=True)
        else:
            text = render_csv(*result, args.digits)
        write_output(text, args.out)
        return 0
    except ApplicabilityError as exc:
        sys.stderr.write(_json_line({
            "error": "applicability", "condition": exc.condition,
            "lhs": exc.lhs, "rhs": exc.rhs, "message": str(exc)}))
        return 3
    except DomainError as exc:
        sys.stderr.write(_json_line({"error": "domain", "message": str(exc)}))
        return 2
    except (GWError, OSError, ArithmeticError) as exc:
        sys.stderr.write(_json_line({"error": type(exc).__name__, "message": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
