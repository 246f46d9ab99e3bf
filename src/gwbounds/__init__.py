"""Survival-probability bounds for supercritical Galton-Watson processes.

Exact extinction/survival machinery for six offspring families, per-generation
fractional-linear survival bounds and their direction classification, classical
bounds and small-s series for the eventual survival probability, and
population-genetics applications (mutant spread, trait variance, Wright-Fisher
fixation).

The namespace is lazy (PEP 562): `import gwbounds` loads no submodule, and the
first read of a public name loads the module it comes from and keeps the value
here, so a caller pays only for the modules it uses. CPython does not
specialize attribute reads of a module that defines `__getattr__`, so each
read through the namespace stays ~4x slower than a plain module attribute
(about 29 against 7 ns): bind a name before a hot loop.
"""

import importlib

# The public classes and functions, by the module each is read from.
_PUBLIC = {
    "errors": ("ApplicabilityError", "ConvergenceError", "DomainError", "GWError"),
    "pgf_core": (
        "Binomial", "FiniteThree", "FixedPoint", "FractionalLinear",
        "GeneralizedPoisson", "Moments", "NegBinomial", "OffspringModel", "Poisson",
        "binomial_from_s", "extinction_iterates", "extinction_probability",
        "fl_from_s", "gp_from_s", "iterate_extinction", "moments",
        "negbinomial_from_s", "pgf_derivative", "pgf_eval", "poisson_from_s",
        "survival_curve"),
    "fl_bounds": (
        "BoundDirection", "bound_direction", "matching_fl", "sn_fl_bound",
        "sn_pollak_bound", "sn_simple_bound", "t_eps_app", "t_eps_exact", "t_eps_fl"),
    "classify_f3": ("F3Class", "F3Thresholds", "f3_region_volumes", "thresholds_f3"),
    "classify_gp": ("GPThresholds", "gp_thresholds"),
    "sinf_estimates": (
        "MuDerivatives", "SeriesCoeffs", "SinfBounds", "dn_upper", "pn_ratio_series",
        "quine_bounds", "sinf_bounds_all", "sinf_series", "t_ser"),
    "genetics": (
        "TraitModel", "VGInf", "WFModel", "mutant_density", "v1_inf", "vg_inf",
        "vg_tau", "wf_fixation_a", "wf_fixation_diffusion", "wf_fixation_exact",
        "within_variance"),
    "specfun": ("exp_e1", "lambert_w0"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # A submodule's name gives the module: importing it binds it here.
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
