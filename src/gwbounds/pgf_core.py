"""Offspring-distribution models and the exact machinery built on their pgfs:
evaluation, derivatives, moments, iteration of the pgf at 0 (the oracle for all
bounds), the extinction probability, and the convergence rate gamma.

Each family is one immutable class holding its parameters and what is known
about it: its pgf and derivatives, its closed-form fixed point if it has one
and the mu table of its s-family. The module-level functions check their
arguments and delegate to the model. All operations are pure.
"""

from __future__ import annotations

import math
from itertools import islice, repeat
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import ConvergenceError, DomainError, require_count
from .specfun import lambert_w0


class Record:
    """An immutable record. Its fields are the names annotated in its class
    bodies, bases first, and a value given there is a default. It is built
    like a call with the fields as parameters, then _validate() checks it;
    assignment raises; equality, hash, repr and pickling go by class and
    field values."""

    _fields, _defaults = (), {}

    def __init_subclass__(cls):
        own = tuple(cls.__annotations__)
        cls._fields += own
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        # Each class compiles its own __init__, as a dataclass does: one that
        # binds *args and **kwargs itself took 1-2 us more per record. Fields
        # are set one by one: filling self.__dict__ slows every later method
        # call on the record.
        params = "".join(f", {n}=_defaults[{n!r}]" if n in cls._defaults else f", {n}"
                         for n in cls._fields)
        body = "".join(f"    _set(self, {n!r}, {n})\n" for n in cls._fields)
        namespace = {"_set": object.__setattr__, "_defaults": cls._defaults}
        exec(f"def __init__(self{params}):\n{body}    self._validate()\n", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _validate(self) -> None:
        """Raise DomainError where the field values leave the domain."""

    def _require_finite(self) -> None:
        for name in self._fields:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{type(self).__name__} requires a finite {name}, got {value!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other is self:  # a slot hit compares the caller's own law with itself
            return True
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()


class MuDerivatives(Record):
    """Mixed partial derivatives mu_kl of phi(x; s) at (x, s) = (1, 0) for a
    family parameterized so that the mean is 1 + s."""
    mu20: float
    mu21: float
    mu22: float
    mu30: float
    mu31: float
    mu40: float

    def _validate(self):
        if not self.mu20 > 0.0:
            raise DomainError(f"mu20 must be > 0, got {self.mu20!r}")
        if self.mu30 < 0.0:
            raise DomainError(f"mu30 must be >= 0, got {self.mu30!r}")


class Moments(Record):
    m: float
    var: float
    b: float
    c: float


class FixedPoint(Record):
    p_inf: float
    s_inf: float
    gamma: float      # phi'(P_inf)
    curvature: float  # phi''(P_inf)


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------

# A family's pgf and orbit, with phi inline: a call per step costs more than phi.
# send(k) steps the first k - 1 generations in blocks of four, x = phi(x) four
# times under one guard, and keeps a block only where each of its steps rose
# and stayed in [0, 1]. The last (k - 1) % 4 take one guard pair a step, as
# does a block that failed, from its start: within its four steps that loop
# meets the step that does not rise, and breaks, or the one that leaves
# [0, 1], and raises, so it needs no count of what is left. Where a step
# would not rise, the step after the loops finds it again and repeats x.
_OUTSIDE = "phi returned {!r}, outside [0,1], iterating {!r}"
_PHI_TEMPLATE = """\
def pgf(self, x):
{load}    return {phi}

def orbit(self):
{load}    x = 0.0
    while True:
        k = yield x
        if k:
            k -= 1
            for _ in range(k >> 2):
                x0 = x
                x = {phi}
                x1 = x
                x = {phi}
                x2 = x
                x = {phi}
                x3 = x
                x = {phi}
                if not x0 < x1 < x2 < x3 < x <= 1.0:
                    x = x0
                    break
            else:
                k &= 3
            for _ in range(k):
                nxt = {phi}
                if nxt <= x:
                    break
                if not nxt <= 1.0:
                    raise DomainError(_OUTSIDE.format(nxt, self))
                x = nxt
        nxt = {phi}
        if nxt <= x:
            while True:
                yield x
        if not nxt <= 1.0:
            raise DomainError(_OUTSIDE.format(nxt, self))
        x = nxt
"""


class _Family(Record):
    """Defaults shared by the families. Each family is a Record whose fields
    are its parameters only; it defines _check() for its own domain and
    derivative(x, order) for order in {1, 2, 3} and x <= 1. It states phi once,
    as _phi, an expression in x over its fields and the constants that _consts
    sets (statements split by ';'), and its pgf(x) for x in [0, 1] and orbit()
    (see extinction_iterates) are compiled from it; a family that writes its
    own orbit(), as FL does, keeps it and gets only the pgf. GP writes both
    itself; a geometric law (NB r = 1) takes FL's orbit on the instance."""

    _consts = ""

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "_phi" not in vars(cls):
            return
        load = "".join(f"    {n} = self.{n}\n" for n in cls._fields) + f"    {cls._consts}\n"
        namespace = dict(exp=math.exp, DomainError=DomainError, _OUTSIDE=_OUTSIDE)
        exec(_PHI_TEMPLATE.format(load=load, phi=cls._phi), namespace)
        for name in ("pgf", "orbit"):
            if name not in vars(cls):
                namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
                setattr(cls, name, namespace[name])

    def closed_p_inf(self) -> Optional[float]:
        """P_inf in closed form, or None when it takes a root solve."""
        return None

    def closed_s_inf(self) -> Optional[float]:
        """S_inf in a closed form free of the cancellation in 1 - P_inf, or
        None where S_inf is taken as 1 - P_inf."""
        return None

    def mu_table(self) -> MuDerivatives:
        """Mu table of the s-family through this model (mean 1 + s, s varying)."""
        raise DomainError(f"no mu table for {self!r}")

    def _validate(self) -> None:
        # Last, phi(0) > 0 in floating point: where it underflows to 0, so do
        # P_inf and gamma, and the bounds divide by them.
        self._check()
        self._require_finite()
        p0 = self.pgf(0.0)
        if not p0 > 0.0:
            raise DomainError(f"{type(self).__name__} requires phi(0) > 0, "
                              f"got phi(0) = {p0!r} (underflow) for {self!r}")


def _scaled_mu(a: float, b: float, c: float) -> MuDerivatives:
    """The mu table (a, 2a, 2a, b, 3b, c) of the Poisson, binomial and NB s-families."""
    return MuDerivatives(mu20=a, mu21=2.0 * a, mu22=2.0 * a, mu30=b, mu31=3.0 * b, mu40=c)


class Poisson(_Family):
    m: float

    def _check(self):
        if not self.m > 1.0:
            raise DomainError(f"Poisson requires mean m > 1, got {self.m!r}")

    _phi, _consts = "exp(nm * (1.0 - x))", "nm = -m"

    def derivative(self, x: float, order: int) -> float:
        return self.m ** order * math.exp(-self.m * (1.0 - x))

    def closed_p_inf(self) -> float:
        m = self.m
        return -lambert_w0(-m * math.exp(-m)) / m

    def mu_table(self) -> MuDerivatives:
        return _scaled_mu(1.0, 1.0, 1.0)


class Binomial(_Family):
    n: int
    p: float

    def _check(self):
        require_count("n", self.n, 2)
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"Binomial requires p in (0,1), got {self.p!r}")
        if not self.n * self.p > 1.0:
            raise DomainError(f"Binomial requires mean n*p > 1, got {self.n * self.p!r}")

    # A float exponent: float ** int converts the int to this same double at
    # every call, so the bits do not move.
    _phi, _consts = "(q + p * x) ** nf", "q = 1.0 - p; nf = float(n)"

    def derivative(self, x: float, order: int) -> float:
        n, p = self.n, self.p
        coef = math.prod(range(n, n - order, -1), start=1.0)
        if coef <= 0.0:
            return 0.0
        return coef * p ** order * (1.0 - p + p * x) ** (n - order)

    def mu_table(self) -> MuDerivatives:
        n = self.n
        return _scaled_mu((n - 1) / n, (n - 1) * (n - 2) / n ** 2,
                          (n - 1) * (n - 2) * (n - 3) / n ** 3)


class NegBinomial(_Family):
    r: int
    p: float

    def _check(self):
        require_count("r", self.r, 1)
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"NegBinomial requires p in (0,1), got {self.p!r}")
        if not self.r * (1.0 - self.p) / self.p > 1.0:
            raise DomainError("NegBinomial requires mean r(1-p)/p > 1")

    _phi, _consts = "pr / (1.0 - q * x) ** rf", "q = 1.0 - p; pr = p ** r; rf = float(r)"

    def _validate(self):
        super()._validate()
        # r = 1 is the geometric law p/(1 - qx), that is FL(pi = 1 - p, rho =
        # p): it takes FL's closed-form orbit, set on the law itself, so that
        # r >= 2 keeps the compiled orbit with no frame to choose between them.
        # A subclass that writes its own orbit() keeps it.
        if self.r == 1 and type(self).orbit is NegBinomial.orbit:
            object.__setattr__(self, "orbit", FractionalLinear(pi=1.0 - self.p, rho=self.p).orbit)

    def closed_p_inf(self) -> Optional[float]:
        return self.p / (1.0 - self.p) if self.r == 1 else None

    def closed_s_inf(self) -> Optional[float]:
        # 1 - 2p is exact for p >= 1/4 and above 1/2 below it: nothing cancels.
        return (1.0 - 2.0 * self.p) / (1.0 - self.p) if self.r == 1 else None

    def derivative(self, x: float, order: int) -> float:
        r, p = self.r, self.p
        q = 1.0 - p
        coef = math.prod(range(r, r + order), start=1.0)
        return coef * q ** order * p ** r / (1.0 - q * x) ** (r + order)

    def mu_table(self) -> MuDerivatives:
        r = self.r
        return _scaled_mu((r + 1) / r, (r + 1) * (r + 2) / r ** 2,
                          (r + 1) * (r + 2) * (r + 3) / r ** 3)


class FractionalLinear(_Family):
    """phi(x) = (rho + x(1 - pi - rho)) / (1 - pi x), the family whose n-fold
    compositions stay in the family (see fl_bounds). Its pgf is compiled
    from _phi; its orbit is the n-fold composition in closed form."""
    pi: float
    rho: float

    def _check(self):
        if not 0.0 < self.pi < 1.0:
            raise DomainError(f"FractionalLinear requires pi in (0,1), got {self.pi!r}")
        if not 0.0 < self.rho < 1.0:
            raise DomainError(f"FractionalLinear requires rho in (0,1), got {self.rho!r}")
        if not self.rho < self.pi:
            raise DomainError("FractionalLinear requires rho < pi (supercritical)")

    _phi, _consts = "(rho + x * c) / (1.0 - x * pi)", "c = 1.0 - pi - rho"

    def orbit(self) -> Iterator[float]:
        # phi fixes P_inf = rho/pi with multiplier gamma = (1 - pi)/(1 - rho)
        # and 1 with multiplier 1/gamma, so (P^(n) - P_inf)/(P^(n) - 1) =
        # gamma^n P_inf, that is S^(n) = S_inf / (S_inf - P_inf (gamma^n - 1)),
        # with S_inf = (pi - rho)/pi and gamma^n - 1 = expm1(n log gamma). Every
        # term is positive and each operation monotone in n, so P^(n) = 1 -
        # S^(n) never falls, though consecutive iterates may round alike, and
        # send(k) costs one step for any k, with the bits of k next() calls.
        # n is a float, exact to 2^53: an int n would be converted at every
        # generation, about a fifth of a yielded one's cost.
        pi, rho, expm1 = self.pi, self.rho, math.expm1
        s_inf, p_inf = (pi - rho) / pi, rho / pi
        log_gamma = math.log1p(-(pi - rho) / (1.0 - rho))
        n = 0.0
        while True:
            n += (yield 1.0 - s_inf / (s_inf - p_inf * expm1(n * log_gamma))) or 1.0

    def derivative(self, x: float, order: int) -> float:
        pi, rho = self.pi, self.rho
        b = (1.0 - pi) * (1.0 - rho) / pi
        return b * math.factorial(order) * pi ** order / (1.0 - pi * x) ** (order + 1)

    def closed_p_inf(self) -> float:
        return self.rho / self.pi

    def mu_table(self) -> MuDerivatives:
        pi = self.pi
        a = 2.0 * pi / (1.0 - pi)
        b = 6.0 * pi ** 2 / (1.0 - pi) ** 2
        c = 24.0 * pi ** 3 / (1.0 - pi) ** 3
        return MuDerivatives(mu20=a, mu21=a, mu22=0.0, mu30=b, mu31=b, mu40=c)


def f3_p_inf(p0: float, p2: float, p3: float) -> float:
    """P_inf of the {0,1,2,3} law: the root in (0,1) of
    p3 x^2 + (p2 + p3) x - p0 = 0, written without a subtraction, so that it
    keeps full precision for small p3 and is p0/p2 at p3 = 0."""
    q = p2 + p3
    return 2.0 * p0 / (q + math.sqrt(q * q + 4.0 * p0 * p3))


class FiniteThree(_Family):
    p0: float
    p1: float
    p2: float
    p3: float

    def _check(self):
        probs = (self.p0, self.p1, self.p2, self.p3)
        if any(p < 0.0 for p in probs):
            raise DomainError("FiniteThree probabilities must be >= 0")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise DomainError("FiniteThree probabilities must sum to 1")
        if not self.p0 > 0.0:
            raise DomainError("FiniteThree requires p0 > 0")
        if not self.p0 + self.p1 < 1.0:
            raise DomainError("FiniteThree requires p0 + p1 < 1")
        mean = 1.0 - self.p0 + self.p2 + 2.0 * self.p3
        if not mean > 1.0:
            raise DomainError(f"FiniteThree requires mean > 1, got {mean!r}")

    # Horner's form, with no pow: on 1000 random laws at 3 points each it is
    # within 2.24 units of 2^-53 of phi, 0.49 on average, where the monomial
    # sum p0 + p1 x + p2 x^2 + p3 x^3 is within 2.32, 0.57 on average
    # (test_f3_horner_pgf_is_within_3_units_of_phi).
    _phi = "p0 + x * (p1 + x * (p2 + x * p3))"

    def derivative(self, x: float, order: int) -> float:
        if order == 1:
            return self.p1 + 2.0 * self.p2 * x + 3.0 * self.p3 * x * x
        if order == 2:
            return 2.0 * self.p2 + 6.0 * self.p3 * x
        return 6.0 * self.p3

    def closed_p_inf(self) -> float:
        return f3_p_inf(self.p0, self.p2, self.p3)

    def closed_s_inf(self) -> float:
        # With P = 1 - S the fixed-point quadratic is p3 S^2 - b S + c = 0,
        # b = p2 + 3p3, c = p2 + 2p3 - p0 (m - 1 where the weights sum to 1;
        # fsum rounds it once, where m - 1 cancels near criticality), so
        # S_inf = 2c/(b + sqrt(b^2 - 4 p3 c)). The discriminant is
        # f3_p_inf's (p2 + p3)^2 + 4 p0 p3: nothing is subtracted but in c.
        q = self.p2 + self.p3
        c = math.fsum((self.p2, self.p3, self.p3, -self.p0))
        return 2.0 * c / (self.p2 + 3.0 * self.p3 + math.sqrt(q * q + 4.0 * self.p0 * self.p3))


# The generalized Poisson pgf is exp(mu*(t(x) - 1)) where t solves
# t = x*exp(lam*(t-1)); in terms of the Lambert function,
# t(x) = -W(-x*lam*exp(-lam))/lam.  Derivatives of t:
#   t'   = t / (x*(1 - lam*t))
#   t''  = lam*t^2*(2 - lam*t) / (x^2*(1 - lam*t)^3)
# and t''' follows by logarithmic differentiation of t''.

def _gp_t_derivs(x: float, lam: float):
    """Return (t, t', t'', t''') at x."""
    if lam == 0.0:  # t(x) = x (Poisson)
        return x, 1.0, 0.0, 0.0
    if abs(x) < 1e-150:
        # The x = 0 limits, exact to O(x); x*x below goes subnormal at |x| ~ 1.5e-154.
        e = math.exp(-lam)
        return x * e, e, 2.0 * lam * e * e, 9.0 * lam * lam * e ** 3
    t = -lambert_w0(-x * lam * math.exp(-lam)) / lam
    g = 1.0 - lam * t
    t1 = t / (x * g)
    t2 = lam * t * t * (1.0 + g) / (x * x * g ** 3)
    # t'''/t'' = 2 t'/t - 2/x - lam*t'/(1+g) + 3 lam*t'/g, where 2 t'/t - 2/x
    # = 2(1 - g)/(x*g) = 2 lam*t' exactly; the difference cancels for small x.
    t3 = t2 * (2.0 * lam * t1 - lam * t1 / (1.0 + g) + 3.0 * lam * t1 / g)
    return t, t1, t2, t3


# Newton steps per GP generation, read as an orbit starts: 14 at most were
# seen, in the first solve (from u_0 = 1) at lam = 1 - 1e-6, and 9 in any later
# generation, the second there (lam up to 1 - 1e-6, s = 1e-12 ... 5, 1e5
# generations). At lam = 0.2 ... 0.9, s = 1e-2 ... 1e-4, every generation
# from n = 236 ... 420 on takes one step, and every one before it two or more.
_GP_NEWTON_CAP = 50


class GeneralizedPoisson(_Family):
    mu: float
    lam: float

    def _check(self):
        if not 0.0 <= self.lam < 1.0:
            raise DomainError(f"GeneralizedPoisson requires lambda in [0,1), got {self.lam!r}")
        if not self.mu > 0.0:
            raise DomainError(f"GeneralizedPoisson requires mu > 0, got {self.mu!r}")
        if not self.mu / (1.0 - self.lam) > 1.0:
            raise DomainError("GeneralizedPoisson requires mean mu/(1-lambda) > 1")

    def pgf(self, x: float) -> float:
        lam = self.lam
        t = -lambert_w0(-x * lam * math.exp(-lam)) / lam if lam else x
        return math.exp(self.mu * (t - 1.0))

    def orbit(self) -> Iterator[float]:
        # In survival space: u_n = 1 - t(P^(n)), u_0 = 1, P^(n+1) = exp(-mu*u_n),
        # and u_{n+1} is the root of G(v) = v + expm1(-mu*u_n - lam*v). G is
        # increasing (G' = 1 - lam(1 - v) >= 1 - lam) and convex (G'' =
        # lam^2(1 - v) <= lam^2), so a Newton step costs one expm1 and no P,
        # and after a step d the error left is at most about
        # lam^2/(2(1 - lam)) * d^2. The step stops once that is <= 2^-56 * v,
        # 1/8 ulp of v: h*d*d <= v. At lam = 0 G is linear and one step is
        # exact. It starts from the quadratic predictor 3(u_n - u_{n-1}) +
        # u_{n-2}, or from u_n^2/u_{n-1} where that leaves (0, u_n); the
        # history starts flat at 1, so the first solve starts at u_0, above
        # its root. Once the predictor is close enough (see _GP_NEWTON_CAP)
        # every generation takes one step. u never rises, so P never
        # falls; once v >= u_n, P^(n+1) is yielded for ever, and a NaN state
        # raises DomainError. P = exp(-mu*u) <= 1 for every u in (0, 1] iff
        # mu >= 0, so P^(1) = exp(-mu) is the one P checked against 1, before
        # the first step. send(k) steps k generations and forms P only where
        # it lands.
        lam, c, nmu, cap = self.lam, 1.0 - self.lam, -self.mu, _GP_NEWTON_CAP
        h = lam * lam / (2.0 * c) * 2.0 ** 56
        expm1, exp, once = math.expm1, math.exp, (None,)
        k = (yield 0.0) or 1
        x = exp(nmu)
        if not x <= 1.0:
            raise DomainError(_OUTSIDE.format(x, self))
        u = u1 = u2 = 1.0
        k -= 1
        while True:
            # One generation loops over a tuple: making a range or repeat
            # iterator costs about a third of a generation.
            for _ in repeat(None, k) if k != 1 else once:
                v = 3.0 * (u - u1) + u2
                if not 0.0 < v < u:
                    v = u * u / u1
                e = expm1(nmu * u - lam * v)
                d = (v + e) / (c - lam * e)
                v -= d
                if h * d * d > v:
                    steps = 1
                    while h * d * d > v:
                        if steps == cap:
                            raise ConvergenceError(f"GP orbit step did not converge at u={u!r} for {self!r}")
                        e = expm1(nmu * u - lam * v)
                        d = (v + e) / (c - lam * e)
                        v -= d
                        steps += 1
                if not v < u:
                    if v != v:
                        raise DomainError(_OUTSIDE.format(exp(nmu * v), self))
                    x = exp(nmu * u)
                    while True:
                        yield x
                u2, u1, u = u1, u, v
            k = (yield exp(nmu * u)) or 1

    def generations_to(self, target: float, cap: int) -> Optional[int]:
        """The least n <= cap with S^(n) <= target, or None, counted back from
        the target. The step u -> v of orbit() has the increasing inverse
        psi(v) = (-log1p(-v) - lam*v)/mu, so S^(n) = -expm1(-mu*u_{n-1}) <=
        target iff psi^(n-1)(u_t) >= 1 = u_0, u_t = -log1p(-target)/mu: T = 0
        where target >= 1, else 1 + the psi steps, one log1p each, that take
        u_t to 1. It steps four at a time, and log1p(-v) raises once v >= 1:
        a block that reaches 1 before its last step raises, and single steps
        count on from its start; one that reaches it last stops at the next
        log1p. Deciding in u, of relative precision, it errs only where
        shifting the target by B = (1 + lam)/(1 - lam) 2^-53/(1 - gamma)
        relative changes the exact count: a step rounds by about (1 + lam)/
        (1 - lam) ulp, and the errors add over about 1/(1 - gamma) steps."""
        if not target < 1.0:
            return 0
        mu, nlam, log1p = self.mu, -self.lam, math.log1p
        v, n = -log1p(-target) / mu, 1
        try:
            for _ in repeat(None, (cap - n) >> 2):
                w = (nlam * v - log1p(-v)) / mu
                w = (nlam * w - log1p(-w)) / mu
                w = (nlam * w - log1p(-w)) / mu
                w = (nlam * w - log1p(-w)) / mu
                v, n = w, n + 4
        except ValueError:
            pass
        while v < 1.0 and n < cap:
            v, n = (nlam * v - log1p(-v)) / mu, n + 1
        return n if v >= 1.0 and n <= cap else None

    def derivative(self, x: float, order: int) -> float:
        mu = self.mu
        t, t1, t2, t3 = _gp_t_derivs(x, self.lam)
        phi = math.exp(mu * (t - 1.0))
        if order == 1:
            return phi * mu * t1
        if order == 2:
            return phi * (mu * t2 + (mu * t1) ** 2)
        return phi * (mu * t3 + 3.0 * mu * mu * t1 * t2 + (mu * t1) ** 3)

    def mu_table(self) -> MuDerivatives:
        lam = self.lam
        u = 1.0 - lam
        return MuDerivatives(
            mu20=1.0 / u ** 2,
            mu21=1.0 + 1.0 / u ** 2,
            mu22=2.0,
            mu30=(1.0 + 2.0 * lam) / u ** 4,
            mu31=(3.0 - 3.0 * lam ** 2 + 4.0 * lam ** 3 - lam ** 4) / u ** 4,
            mu40=(1.0 + lam * (6.0 + 9.0 * lam - lam ** 3)) / u ** 6,
        )


OffspringModel = Union[Poisson, Binomial, NegBinomial, FractionalLinear,
                       FiniteThree, GeneralizedPoisson]


# ---------------------------------------------------------------------------
# pgf evaluation and derivatives
# ---------------------------------------------------------------------------

def pgf_eval(model: OffspringModel, x: float) -> float:
    """phi(x) for x in [0,1]."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"pgf_eval requires x in [0,1], got {x!r}")
    return model.pgf(x)


def pgf_derivative(model: OffspringModel, x: float, order: int) -> float:
    """Closed-form derivative phi^(order)(x) for order in {1, 2, 3}."""
    if order not in (1, 2, 3):
        raise DomainError(f"order must be in {{1,2,3}}, got {order!r}")
    # x < 0 is allowed: the closed forms extend analytically below 0, which
    # the Quine lower bound needs when evaluating phi'''(1 - 2*beta).
    if not x <= 1.0:
        raise DomainError(f"pgf_derivative requires x <= 1, got {x!r}")
    return model.derivative(x, order)


def moments(model: OffspringModel) -> Moments:
    """Mean, variance, b = phi''(1-) and c = phi'''(1-)."""
    m = pgf_derivative(model, 1.0, 1)
    b = pgf_derivative(model, 1.0, 2)
    c = pgf_derivative(model, 1.0, 3)
    return Moments(m=m, var=b + m - m * m, b=b, c=c)


# ---------------------------------------------------------------------------
# Extinction probability and iteration
# ---------------------------------------------------------------------------

def _root_solve_p_inf(model: OffspringModel) -> float:
    # g(x) = phi(x) - x changes sign exactly once in (0,1) for a supercritical
    # pgf: bracketed bisection to width 1e-6, then Newton polish to 1e-14.
    lo, hi = 0.0, 1.0 - 1e-9
    g_lo = pgf_eval(model, lo) - lo
    g_hi = pgf_eval(model, hi) - hi
    if g_lo <= 0.0 or g_hi >= 0.0:
        raise ConvergenceError("extinction root is not bracketed; pathological parameters")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if pgf_eval(model, mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    prev_step = math.inf
    for _ in range(100):
        g = pgf_eval(model, x) - x
        dg = pgf_derivative(model, x, 1) - 1.0
        step = g / dg
        x -= step
        # Converged, or stalled at the rounding-noise floor of phi(x) - x
        # (steps stop contracting; near-critical models amplify that noise
        # through the small slope phi'(x) - 1).
        if abs(step) <= 1e-14 or (abs(step) < 1e-9 and abs(step) >= 0.5 * prev_step):
            break
        prev_step = abs(step)
    else:
        raise ConvergenceError("Newton polish for extinction probability did not converge")
    return min(max(x, 0.0), 1.0)


# The last law solved for and its FixedPoint, read and replaced as one pair, so
# threads sharing it at worst solve again. Both are immutable, so a hit returns
# what a new solve would. A slot, not functools.lru_cache: it holds one law, and
# bench/spans.py traces plain functions only.
_last_solved: tuple = (None, None)


def extinction_probability(model: OffspringModel) -> FixedPoint:
    """The fixed point P_inf of phi in (0,1) together with gamma = phi'(P_inf)
    and curvature = phi''(P_inf).

    The last law's FixedPoint is kept and returned for an equal law (same
    class, same parameters), so the readers of one law (a report, a gwb
    subcommand) share one solve. A solve that raises keeps nothing and
    raises again on the next call."""
    global _last_solved
    last_model, last_fp = _last_solved
    if model == last_model:
        return last_fp
    p_inf = model.closed_p_inf()
    if p_inf is None:
        p_inf = _root_solve_p_inf(model)
    s_inf = model.closed_s_inf()
    if s_inf is None:
        s_inf = 1.0 - p_inf
    fp = FixedPoint(p_inf=p_inf, s_inf=s_inf, gamma=pgf_derivative(model, p_inf, 1),
                    curvature=pgf_derivative(model, p_inf, 2))
    _last_solved = (model, fp)
    return fp


def extinction_iterates(model: OffspringModel) -> Iterator[float]:
    """P^(0), P^(1), ... with P^(n) = phi^(n)(0), without end: the model's
    orbit(), the one iteration of the pgf that every per-generation quantity
    reads. It steps by phi inline; GP steps u = 1 - t(P) in survival space,
    one expm1 a generation, and forms P = exp(-mu*u) from it; FL and the
    geometric law (NB r = 1, an FL law) form each P^(n) from n alone, by the
    closed-form composition. An iterate above 1 or NaN raises DomainError
    unyielded; none is below phi(0) > 0, as phi is nondecreasing. The
    iterates never fall, though rounding can put phi one ulp below its
    argument: once a stepped iterate does not rise, it is yielded from then
    on. FL's can repeat an iterate and then rise again, as their last bits
    move with n.

    next() steps one generation; orbit.send(k), k >= 1, after the first
    next(), steps k and returns the iterate k generations on, with the bits
    and the errors of k next() calls, without yielding those between. An
    override of orbit() must forward send, as yield from does: a wrapper
    that loops over the inner orbit drops k and steps one generation, so a
    reader that skips gets a wrong number, not an error."""
    return model.orbit()


# The orbit of the last law iterated, as at most one entry (model, n, P^(n),
# orbit) whose orbit yields P^(n+1) next. A reader pops the entry and leaves
# its own where it stopped, so no two threads step one generator: sharing the
# slot, they at worst walk again from P^(0). An orbit that raises is not left,
# so the next call walks afresh and raises again. A slot, as _last_solved is.
_last_orbit: list = []


def _take_orbit(model: OffspringModel, resumable: Callable[[int, float], bool]) -> tuple:
    """(n, P^(n), orbit), the orbit about to yield P^(n+1): the slot's entry
    where its law equals model and resumable(n, P^(n)) holds, else a fresh
    orbit at n = 0."""
    try:
        last_model, n, x, orbit = _last_orbit.pop()
    except IndexError:
        last_model = None
    if model == last_model and resumable(n, x):
        return n, x, orbit
    orbit = extinction_iterates(model)
    return 0, next(orbit), orbit


def _leave_orbit(model: OffspringModel, n: int, x: float, orbit: Iterator[float]) -> None:
    _last_orbit[:] = [(model, n, x, orbit)]


def iterate_extinction(model: OffspringModel, n: int) -> float:
    """P^(n) = phi^(n)(0), the probability of extinction by generation n.

    It resumes the last law's orbit, as t_eps_exact does: for an equal law
    and n at or past where the last reader stopped, it skips on from there by
    send, so a scan over increasing n walks max n generations, not their
    sum."""
    require_count("n", n)
    k, x, orbit = _take_orbit(model, lambda k, x: k <= n)
    if n > k:
        x = orbit.send(n - k)
    _leave_orbit(model, n, x, orbit)
    return x


def survival_curve(model: OffspringModel, n_max: int) -> Sequence[float]:
    """[S^(0), ..., S^(n_max)] with S^(n) = 1 - phi^(n)(0). It leaves its
    orbit at n_max, as iterate_extinction does, for the next reader."""
    require_count("n_max", n_max, 1)
    orbit = extinction_iterates(model)
    curve = [1.0 - x for x in islice(orbit, n_max)]
    x = next(orbit)
    _leave_orbit(model, n_max, x, orbit)
    curve.append(1.0 - x)
    return curve


# ---------------------------------------------------------------------------
# Constructors for slightly supercritical families with mean 1 + s
# ---------------------------------------------------------------------------

def poisson_from_s(s: float) -> Poisson:
    return Poisson(m=1.0 + s)


def binomial_from_s(n: int, s: float) -> Binomial:
    return Binomial(n=n, p=(1.0 + s) / n)


def negbinomial_from_s(r: int, s: float) -> NegBinomial:
    return NegBinomial(r=r, p=r / (r + 1.0 + s))


def gp_from_s(lam: float, s: float) -> GeneralizedPoisson:
    return GeneralizedPoisson(mu=(1.0 + s) * (1.0 - lam), lam=lam)


def fl_from_s(pi: float, s: float) -> FractionalLinear:
    return FractionalLinear(pi=pi, rho=pi * (1.0 + s) - s)
