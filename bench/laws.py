"""Offspring laws as the benchmark's inputs: a family, the float parameters
the program receives and the growth rate s the law was built for.

Pure floats, so the worker processes that build inputs import nothing the
program's users would not; the references (``refs``) import mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Law:
    """An offspring law by family, its defining float parameters and the
    nominal growth rate s it was built for.

    fam is one of poisson (m,), binomial (n, p), negbinomial (r, p),
    fl (pi, rho), f3 (p0, p1, p2, p3) or gp (mu, lam). fpar is the parameter
    of the s-family the law belongs to (n, r, pi or lam; None for poisson
    and f3); the series in s are fitted along that family.
    """
    fam: str
    par: tuple
    s: float
    fpar: object = None


def law_from_s(fam: str, fpar, s: float) -> Law:
    """The member of an s-family with mean 1 + s, with its parameters
    computed in double precision."""
    if fam == "poisson":
        return Law(fam, (1.0 + s,), s)
    if fam == "binomial":
        return Law(fam, (fpar, (1.0 + s) / fpar), s, fpar)
    if fam == "negbinomial":
        return Law(fam, (fpar, fpar / (fpar + 1.0 + s)), s, fpar)
    if fam == "fl":
        return Law(fam, (fpar, fpar * (1.0 + s) - s), s, fpar)
    if fam == "gp":
        return Law(fam, ((1.0 + s) * (1.0 - fpar), fpar), s, fpar)
    raise ValueError(fam)


def f3(p0: float, p2: float, p3: float) -> Law:
    return Law("f3", (p0, 1.0 - p0 - p2 - p3, p2, p3), p2 + 2.0 * p3 - p0)
