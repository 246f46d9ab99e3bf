"""gwbounds benchmark: closed-loop workloads timed in worker processes, every
output checked against independent references.

    python3 bench/run.py --workload sweep --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 it holds the per-module metrics of a
traced run. --workload all runs every workload in turn, prints each
metric with its unit, and ends with one JSON object keyed by workload.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import pickle
import re
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli", "sweep", "near_critical", "wf_exact")
# A run is a fixed number of rounds: ROUNDS at --seconds REF_SECONDS, in
# proportion for other lengths, and at least MIN_ROUNDS. On a 2-CPU machine
# a run of sweep, near_critical or wf_exact then takes about --seconds with
# set-up and checks, and cli twice that (a round of 13 CLI processes takes
# ~20 s). The number depends only on --seconds, so every run attempts, and
# fails, the same operations. The rounds are split over up to PARENTS worker
# processes, run one after another, each of which forks one child per round.
REF_SECONDS = 24
ROUNDS = {"cli": 2, "sweep": 10, "near_critical": 12, "wf_exact": 5}
MIN_ROUNDS = {"cli": 2, "sweep": 3, "near_critical": 3, "wf_exact": 3}
PARENTS = 3
# The probe loop's time (worker._probe) at the full speed of the 2-CPU VM
# the reference figures in README.md come from: the fastest of ~20 000
# probes over 24 runs. Scaled latencies are latencies at that speed.
REF_PROBE_S = 500e-6
SETUP_SAMPLES = 3  # set-up is timed in at least this many fresh processes; the median is reported
IMPORT_SAMPLES = 3
TIMEOUT = 170

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


def plan(workload, seconds):
    """Rounds of each worker process of a run."""
    rounds = max(MIN_ROUNDS[workload], round(ROUNDS[workload] * seconds / REF_SECONDS))
    parents = min(PARENTS, rounds)
    return [rounds // parents + (1 if i < rounds % parents else 0) for i in range(parents)]


def child_env():
    env = dict(os.environ)
    # Every operation runs on one CPU (worker.pin_fastest), so BLAS gets one
    # thread: on a 2-CPU VM whose CPUs slow down one at a time, a solve
    # split over both waits for the slower one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # A fixed string-hash seed gives every process the same dict layouts;
    # with random seeds the per-operation times moved by ~10% between
    # processes running identical work.
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workload, seed, *extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} worker did not start: {line!r}")
    return proc, ready


def finish_worker(proc, result=True):
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]) if result else None


def run_untraced(workload, seed, seconds):
    """Each round runs in a process forked from a warmed-up worker that has
    run no operation of a round, so a cache inside the program helps only
    where a round itself repeats what it keys on.

    Other tenants of the shared 2-CPU VM slow it by up to half, for a
    fraction of a second to several minutes, and the same code ran 25%
    slower in one run than in the next. So each sample of an operation is
    scaled by REF_PROBE_S over the probe loop's time around it (worker.py):
    it reads as the latency at the speed at which the probe takes
    REF_PROBE_S. An operation's latency is the median of its scaled samples
    over the run's rounds. Unscaled figures go to standard error."""
    rounds, setup, rss = [], [], []
    for part, n in enumerate(plan(workload, seconds)):
        proc, ready = start_worker(workload, seed, "--part", str(part), "--rounds", str(n))
        setup.append(ready)
        worker = finish_worker(proc)
        rounds += worker["rounds"]
        rss += [worker["peak_rss_mb"]] + [r["peak_rss_mb"] for r in worker["rounds"]]
    while len(setup) < SETUP_SAMPLES:
        proc, ready = start_worker(workload, seed, "--setup-only")
        setup.append(ready)
        finish_worker(proc, result=False)
    scaled, raw = {}, {}
    for r in rounds:
        for key, dt in r["latency"].items():
            scaled.setdefault(key, []).append(dt * REF_PROBE_S / r["probe"][key])
            raw.setdefault(key, []).append(dt)
    lat = sorted(statistics.median(v) for v in scaled.values())
    raw_lat = sorted(statistics.median(v) for v in raw.values())
    probes = [p for r in rounds for p in r["probe"].values()]
    print(f"# {workload}: unscaled ops_per_s {len(raw_lat) / sum(raw_lat):.6g}, "
          f"op_p50_ms {1e3 * statistics.median(raw_lat):.6g}; median probe "
          f"{1e6 * statistics.median(probes):.1f} us (REF_PROBE_S {1e6 * REF_PROBE_S:.0f} us)",
          file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        # The worker's own peak covers import and set-up; a round child's
        # covers the round on top of the pages it shares with the worker.
        "peak_rss_mb": max(rss),
    }
    units = dict(END_TO_END)
    return rounds, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def check_parts(workload, parts):
    """Judge every operation of the parts; identical outputs are checked
    once. Returns (attempted, failed, faults, unexpected)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))  # to unpickle outputs
    from checks import judge

    verdicts = {}
    faults, unexpected = {}, []
    attempted = 0
    for part in parts:
        for op, out, err in pickle.loads(base64.b64decode(part["results"])):
            attempted += 1
            key = (repr(op), pickle.dumps(out), err)
            if key not in verdicts:
                verdicts[key] = judge(workload, op, out, err)
            if verdicts[key] is None:
                continue
            fid, desc = verdicts[key]
            if fid is None:
                unexpected.append(f"{op!r}: {desc}")
            else:
                entry = faults.setdefault(fid, {"count": 0, "example": desc[:300]})
                entry["count"] += 1
    return attempted, sum(f["count"] for f in faults.values()), faults, unexpected


def import_times():
    """Median over fresh processes of the cumulative `-X importtime` of
    gwbounds and of the outermost scipy and numpy modules under it, in ms."""
    samples = {"gwbounds": [], "scipy": [], "numpy": []}
    env = child_env()
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    pat = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gwbounds"],
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=TIMEOUT, check=True)
        cum = dict.fromkeys(samples, 0)
        # Entries come children first; an entry's parent is the next one a
        # level up. Count a package's entries whose parent is outside it.
        open_children = {}  # level -> top-level names of pending children
        for line in proc.stderr.splitlines():
            m = pat.match(line)
            if not m:
                continue
            level, top = len(m.group(2)) // 2, m.group(3).split(".")[0]
            for child_top, child_cum in open_children.pop(level + 1, []):
                if child_top in cum and child_top != top:
                    cum[child_top] += child_cum
            open_children.setdefault(level, []).append((top, int(m.group(1))))
        for child_top, child_cum in open_children.get(0, []):
            if child_top in cum:
                cum[child_top] += child_cum
        for k, v in cum.items():
            samples[k].append(v / 1e3)
    return {f"import.{k}_ms": statistics.median(v) for k, v in samples.items()}


def run_traced(workload, seed):
    from spans import per_layer_names, per_layer_values

    imports = import_times()
    proc, _ = start_worker(workload, seed, "--trace", "1")
    part = finish_worker(proc)
    overhead = 100.0 * (part["traced_wall"] - part["plain_wall"]) / part["plain_wall"]
    values = per_layer_values(part["trace"], imports, overhead)
    return [part], {name: {"value": values[name], "unit": unit}
                    for name, unit in per_layer_names()}


def run_one(workload, seed, seconds, trace):
    from checks import FAULTS

    if trace:
        parts, metrics = run_traced(workload, seed)
    else:
        parts, metrics = run_untraced(workload, seed, seconds)
    attempted, failed, faults, unexpected = check_parts(workload, parts)
    for fid, info in sorted(faults.items()):
        print(f"# {workload}: fault ({fid}) failed {info['count']} operations: "
              f"{FAULTS[fid][0]}; e.g. {info['example'][:160]}", file=sys.stderr)
    for msg in unexpected[:20]:
        print(f"# {workload}: UNEXPECTED {msg[:300]}", file=sys.stderr)
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    # Writing no bytecode leaves every run the same: otherwise the first run
    # in a fresh checkout compiles gwbounds in each CLI process and later
    # runs load what this process cached while checking.
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gwbounds", "__init__.py")):
        print(f"bench: no gwbounds package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    results = {}
    for workload in WORKLOADS:
        res = run_one(workload, args.seed, args.seconds, args.trace)
        results[workload] = res
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"all-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"# results written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
