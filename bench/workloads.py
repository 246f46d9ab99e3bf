"""Inputs, operations and output checks of the four workloads.

Each workload is a closed loop: one operation at a time from one process.
Inputs come only from the run's seed and the fixed grids below; the program
receives the generated parameters and nothing else. A run attempts whole
rounds, each with the same make-up, so the share of failed operations is the
same in every run whatever the seed and the run length.

Each worker process runs one round, so no operation is timed on inputs its
process has seen. Outputs are recorded during the timed loop and checked
afterwards by ``checks`` (run.py only), so no reference work is timed and
this module imports nothing beyond the standard library and ``laws``.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import laws as L

EPS = 0.01  # T(eps) tolerance used by every workload

# ---------------------------------------------------------------------------
# Program adapters
# ---------------------------------------------------------------------------

def make_model(g, law):
    p = law.par
    if law.fam == "poisson":
        return g.Poisson(m=p[0])
    if law.fam == "binomial":
        return g.Binomial(n=p[0], p=p[1])
    if law.fam == "negbinomial":
        return g.NegBinomial(r=p[0], p=p[1])
    if law.fam == "fl":
        return g.FractionalLinear(pi=p[0], rho=p[1])
    if law.fam == "f3":
        return g.FiniteThree(p0=p[0], p1=p[1], p2=p[2], p3=p[3])
    if law.fam == "gp":
        return g.GeneralizedPoisson(mu=p[0], lam=p[1])
    raise ValueError(law.fam)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

S_SET = (1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.2, 0.3, 0.4)
BIN_N = tuple(range(3, 13))
NB_R = tuple(range(1, 13))
FL_PI = tuple(round(0.05 * k, 2) for k in range(1, 20))
GP_LAM = tuple(round(0.05 * k, 2) for k in range(1, 20))  # lam = 0 is the Poisson slot
F3_STEP = 0.02
F3_STRATA = ("Lower", "Switches3i", "Upper")
# One law per slot in each block; the blocks are as many as S_SET values.
SWEEP_SLOTS = ("poisson", "binomial", "negbinomial", "fl", "gp", "gp") + F3_STRATA
SWEEP_N = 50
SWEEP_POP = 1000
SWEEP_TAU = 10.0

# Fixed operations that fail on a named fault, once per block.
SWEEP_FAULT_OPS = (
    (L.law_from_s("negbinomial", 1, 1e-3), "d"),
    (L.f3(0.10773068507771688, 0.04575173428481927, 0.29573793718503216), "e"),
    (L.law_from_s("binomial", 2, 0.1), "f"),
)


def gp_left_out(lam, s):
    """GP draws the sweep leaves out: for lam >= 0.65 at s <= 3e-3 fault (c)
    puts S_inf or gamma just outside 1e-9 for some lam, so a draw there
    would make the failed count depend on the seed. near_critical keeps
    fault (c), including GP lam = 0.9 at s = 1e-3."""
    return lam >= 0.65 and s <= 3e-3


def _f3_float_strata(p0, p2, p3):
    """Stratum of an F3 law from the factorised f = phi - phi_FL =
    (1-x)(P-x)^2 L(x)/(1 + c(P-x)), L(x) = -p3 + c(p2+p3+p3 P+p3 x),
    c = p2+p3+2 p3 P: 'Lower', 'Switches3i', 'Upper', or None for case 3iii
    and for laws within a margin of a region boundary."""
    q = p2 + p3
    p = (math.sqrt(4.0 * p0 * p3 + q * q) - q) / (2.0 * p3)
    c = q + 2.0 * p3 * p

    def big_l(x):
        return -p3 + c * (q + p3 * p + p3 * x)

    l0, lp, l1 = big_l(0.0), big_l(p), big_l(1.0)
    if l0 > 1e-6:
        return "Lower"
    if l1 < -1e-6:
        return "Upper"
    if l0 < -1e-6 and lp > 1e-6:
        # f is positive on (x*, P): the lobe must stand well above the 1e-12
        # tolerance of the program's sign scan, or the law sits in the
        # band where fault (e) also hits case 3i.
        xs = -l0 / (c * p3)
        peak = max((1.0 - x) * (p - x) ** 2 * big_l(x) / (1.0 + c * (p - x))
                   for x in (xs + (p - xs) * k / 64.0 for k in range(1, 64)))
        return "Switches3i" if peak > 1e-8 else None
    return None


def f3_pool():
    """F3 laws on a lattice of (p2, p3) with p0 = p2 + 2 p3 - s, by stratum
    and s in S_SET."""
    pool = {(stratum, s): [] for stratum in F3_STRATA for s in S_SET}
    k = round(1.0 / F3_STEP)
    for s in S_SET:
        for i in range(k + 1):
            for j in range(1, k + 1):
                p2, p3 = i * F3_STEP, j * F3_STEP
                p0 = p2 + 2.0 * p3 - s
                if p0 <= 1e-3 or p0 + p2 + p3 > 1.0 - 1e-12:
                    continue
                stratum = _f3_float_strata(p0, p2, p3)
                if stratum is not None:
                    pool[(stratum, s)].append(L.f3(p0, p2, p3))
    return pool


class Sweep:
    """One operation is one model's full report. A round is one block per
    value of s in S_SET. A block holds a law for each slot of SWEEP_SLOTS
    (each s-family, GP twice, one F3 law of each stratum) and the three
    fixed fault operations. Over the blocks each slot takes every s once, in
    a seeded order, so the mix of s, which sets the cost of t_eps_exact, is
    the same for every seed; the seed draws the family parameters and F3
    laws, and no law is drawn twice. The two GP laws of a block, set by
    gp_thresholds, take over half of a round's time."""

    name = "sweep"

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"sweep/{seed}")
        pool = f3_pool()
        columns = [rng.sample(S_SET, len(S_SET)) for _ in SWEEP_SLOTS]
        self.ops = []
        for b in range(len(S_SET)):
            for slot, col in zip(SWEEP_SLOTS, columns):
                while True:
                    law = self._draw(rng, slot, col[b], pool)
                    if law not in self.ops:
                        break
                self.ops.append(law)
            self.ops += [law for law, _ in SWEEP_FAULT_OPS]

    @staticmethod
    def _draw(rng, slot, s, pool):
        if slot == "poisson":
            return L.law_from_s("poisson", None, s)
        if slot == "binomial":
            return L.law_from_s("binomial", rng.choice(BIN_N), s)
        if slot == "negbinomial":  # r = 1 at s = 1e-3 is the fault operation (d)
            return L.law_from_s("negbinomial",
                                rng.choice([r for r in NB_R if (r, s) != (1, 1e-3)]), s)
        if slot == "fl":
            return L.law_from_s("fl", rng.choice([pi for pi in FL_PI if pi * (1.0 + s) > s]), s)
        if slot == "gp":
            return L.law_from_s("gp", rng.choice([lam for lam in GP_LAM
                                                  if not gp_left_out(lam, s)]), s)
        return rng.choice(pool[(slot, s)])

    def round(self, k):
        ops = list(self.ops)
        random.Random(f"sweep/{self.seed}/round/{k}").shuffle(ops)
        return ops

    warmup = L.law_from_s("poisson", None, 0.25)  # not an input of any round

    @staticmethod
    def run(g, law):
        m = make_model(g, law)
        fp = g.extinction_probability(m)
        curve = g.survival_curve(m, SWEEP_N)
        fl = [g.sn_fl_bound(m, n, fp) for n in range(SWEEP_N + 1)]
        simple = [g.sn_simple_bound(m, n, fp) for n in range(SWEEP_N + 1)]
        pollak = [g.sn_pollak_bound(m, n, fp) for n in range(SWEEP_N + 1)]
        # F3 has no s-family, so no series and no mu table.
        sb = g.sinf_bounds_all(m, law.s) if law.fam != "f3" else None
        t_exact = g.t_eps_exact(m, EPS)
        t_app = g.t_eps_app(fp, EPS)
        t_ser = g.t_ser(m, law.s, EPS) if law.fam != "f3" else None
        direction = g.bound_direction(m)
        tm = g.TraitModel(theta_mut=1.0, alpha=1.0, s_sel=math.log1p(law.s),
                          pop_size=SWEEP_POP)
        vinf = g.vg_inf(tm, m)
        vtau = g.vg_tau(tm, m, SWEEP_TAU)
        return (fp, curve, fl, simple, pollak, sb, t_exact, t_app, t_ser,
                direction, vinf, vtau)

    @staticmethod
    def expected_fault(law):
        for fault_law, fid in SWEEP_FAULT_OPS:
            if fault_law == law:
                return fid
        return None


# ---------------------------------------------------------------------------
# near_critical
# ---------------------------------------------------------------------------

NC_FAMILIES = (("poisson", None), ("binomial", 5), ("negbinomial", 5), ("fl", 0.2),
               ("gp", 0.2), ("gp", 0.5), ("gp", 0.9))
NC_S = tuple(10.0 ** -k for k in range(2, 13))
NC_N = (1, 10, 100, 1000, 10000)
NC_T_MIN_S = 1e-4  # t_eps_exact reaches its 1e5 cap from s = 1e-5 on

# Operations of the fixed grid that fail, by family and k = -log10(s), with
# the fault expected of each. Measured on the program as it stands; a
# failure counts as the fault only if it looks like it (checks.FAULTS), any
# other failure makes the run incorrect, and a listed operation that passes
# counts as passed.
NC_FAULTS = {
    ("poisson", None): {5: "c", 6: "c", 7: "c", 8: "c", 9: "c", 10: "c", 11: "c", 12: "c"},
    ("binomial", 5): {4: "c", 5: "c", 6: "c", 7: "c", 8: "c", 9: "a", 10: "a", 11: "c",
                      12: "b"},
    ("negbinomial", 5): {4: "c", 5: "c", 6: "c", 7: "c", 8: "c", 9: "b", 10: "b", 11: "c",
                         12: "c"},
    ("fl", 0.2): {5: "c", 6: "c", 7: "c", 8: "c", 9: "c", 10: "c", 11: "c", 12: "c"},
    ("gp", 0.2): {4: "c", 5: "c", 6: "c", 7: "c", 8: "a", 9: "a", 10: "a", 11: "a", 12: "a"},
    ("gp", 0.5): {4: "c", 5: "c", 6: "c", 7: "a", 8: "a", 9: "a", 10: "a", 11: "a", 12: "a"},
    ("gp", 0.9): {3: "c", 4: "c", 5: "c", 6: "c", 7: "c", 8: "a", 9: "a", 10: "a", 11: "a",
                  12: "a"},
}


class NearCritical:
    """One operation is the S_inf solve, sinf_bounds_all, and the FL and
    Pollak bounds beside P^(n) at n = 1, 10, ..., 10^4, plus t_eps_exact
    where s >= 1e-4, for one model of a fixed grid of 7 laws x 11 values
    of s. A round is the whole grid in a seeded order. n = 10^4 keeps the
    operations that complete above a millisecond, where timer and cache
    noise stay small."""

    name = "near_critical"

    def __init__(self, seed):
        self.seed = seed
        self.grid = [L.law_from_s(f, p, s) for f, p in NC_FAMILIES for s in NC_S]

    def round(self, k):
        ops = list(self.grid)
        random.Random(f"near_critical/{self.seed}/{k}").shuffle(ops)
        return ops

    warmup = L.law_from_s("poisson", None, 0.05)  # not an input of any round

    @staticmethod
    def run(g, law):
        m = make_model(g, law)
        fp = g.extinction_probability(m)
        sb = g.sinf_bounds_all(m, law.s)
        rows = [(n, 1.0 - g.iterate_extinction(m, n), g.sn_fl_bound(m, n, fp),
                 g.sn_pollak_bound(m, n, fp)) for n in NC_N]
        t_exact = g.t_eps_exact(m, EPS) if law.s >= NC_T_MIN_S else None
        return fp, sb, rows, t_exact

    @staticmethod
    def expected_fault(law):
        return NC_FAULTS.get((law.fam, law.fpar), {}).get(round(-math.log10(law.s)))


# ---------------------------------------------------------------------------
# wf_exact
# ---------------------------------------------------------------------------

WF_N = (50, 500, 1000, 1500, 2000)
WF_S = (0.01, 0.02, 0.05, 0.1)  # N s >= 5 at every N >= 500


class WFExact:
    """One operation is one wf_fixation_exact call. A round is every N in
    WF_N at each of two values of s drawn from WF_S by the seed."""

    name = "wf_exact"

    def __init__(self, seed):
        self.s_pair = tuple(sorted(random.Random(f"wf_exact/{seed}").sample(WF_S, 2)))

    def round(self, k):
        # A fixed order, so the allocator reaches the same peak in every run.
        return [(n, s) for n in WF_N for s in self.s_pair]

    warmup = (50, 0.03)  # not an input of any round

    @staticmethod
    def run(g, op):
        n, s = op
        return g.wf_fixation_exact(g.WFModel(pop_size=n, s_sel=s, effective_size=float(n)))

    @staticmethod
    def expected_fault(op):
        return None


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_COMMANDS = (
    ("table", "1"),
    ("table", "2"),
    ("table", "3"),
    ("survival", "--dist", "poisson", "--m", "1.5", "--nmax", "20"),
    ("sinf", "--dist", "gp", "--s", "0.2", "--lambda", "0.9"),
    ("sinf", "--dist", "gp", "--s", "0.2", "--lambda", "0.9", "--strict"),
    ("teps", "--dist", "binomial", "--n", "5", "--p", "0.202", "--eps", "0.01"),
    ("classify", "f3", "--p0", "0.2", "--p2", "0.2", "--p3", "0.1"),
    ("classify", "gp", "--s", "0.1", "--lambda", "0.276"),
    ("genetics", "--dist", "poisson", "--m", "1.1", "--N", "1000", "--s", "0.1", "--tau", "10"),
    ("figdata", "1"),
    ("figdata", "3-volumes", "--samples", "200000", "--seed", "{seed}"),
    ("figdata", "4"),
)
CLI_FAULTS = {("classify", "gp"): "g"}


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class CLI:
    """One operation is one `python -m gwbounds.cli` process; a round is the
    README's commands in README order."""

    name = "cli"

    def __init__(self, seed):
        self.seed = seed
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = cli_env(self.root)
        self.figseed = random.Random(f"cli/{seed}").randrange(2 ** 31)
        self.traced = False

    def round(self, k):
        return [tuple(a.replace("{seed}", str(self.figseed)) for a in cmd)
                for cmd in CLI_COMMANDS]

    warmup = ("table", "2")

    def run(self, g, argv):
        if self.traced:
            cmd = [sys.executable, os.path.join(self.root, "bench", "cli_traced.py")]
        else:
            cmd = [sys.executable, "-m", "gwbounds.cli"]
        proc = subprocess.run(cmd + list(argv), env=self.env, capture_output=True,
                              text=True, cwd=self.root, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def expected_fault(argv):
        return CLI_FAULTS.get(tuple(argv[:2]))


WORKLOADS = {w.name: w for w in (CLI, Sweep, NearCritical, WFExact)}
