"""Survival-probability bounds for supercritical Galton-Watson processes.

Exact extinction/survival machinery for six offspring families, per-generation
fractional-linear survival bounds and their direction classification, classical
bounds and small-s series for the eventual survival probability, and
population-genetics applications (mutant spread, trait variance, Wright-Fisher
fixation).
"""

from .errors import (
    ApplicabilityError,
    ConvergenceError,
    DomainError,
    GWError,
)
from .pgf_core import (
    Binomial,
    FiniteThree,
    FixedPoint,
    FractionalLinear,
    GeneralizedPoisson,
    Moments,
    NegBinomial,
    OffspringModel,
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
from .fl_bounds import (
    BoundDirection,
    bound_direction,
    matching_fl,
    sn_fl_bound,
    sn_pollak_bound,
    sn_simple_bound,
    t_eps_app,
    t_eps_exact,
    t_eps_fl,
)
from .classify_f3 import F3Class, F3Thresholds, f3_region_volumes, thresholds_f3
from .classify_gp import GPThresholds, gp_thresholds
from .sinf_estimates import (
    MuDerivatives,
    SeriesCoeffs,
    SinfBounds,
    dn_upper,
    pn_ratio_series,
    quine_bounds,
    sinf_bounds_all,
    sinf_series,
    t_ser,
)
from .genetics import (
    TraitModel,
    VGInf,
    WFModel,
    mutant_density,
    v1_inf,
    vg_inf,
    vg_tau,
    wf_fixation_a,
    wf_fixation_diffusion,
    wf_fixation_exact,
    within_variance,
)
from .specfun import exp_e1, lambert_w0

from types import ModuleType as _ModuleType

# The public classes and functions; the submodule objects that the imports
# above bind in this namespace are not part of the API.
__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
__version__ = "0.1.0"
