"""One worker process of a workload run.

The process imports the program, builds the run's inputs, makes one
warm-up call on an input no round holds and prints READY; that is the end
of set-up. With --setup-only it stops there. Otherwise it forks --rounds
children one after another, and each child runs one round of operations,
one at a time. A child starts from the warmed-up process, which has run no
operation of a round, so every timed operation's inputs are new to the
process that times it. The worker prints one JSON line: for each round,
each operation's latency and probe time (see run_round), the round's wall
time, the child's peak resident set, and the results (pickled), which
run.py checks against the references.

With --trace 1 it runs the round twice, first with spans installed and then
without, and reports the span totals of the first pass and the time the
spans added.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import pickle
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM = os.path.join(ROOT, "src", "gwbounds")


def failure(exc):
    """(type name, message, names of the program's functions on the
    traceback, outermost first): what run.py matches against the faults."""
    frames = tuple(f.name for f in traceback.extract_tb(exc.__traceback__)
                   if os.path.abspath(f.filename).startswith(PROGRAM + os.sep))
    return type(exc).__name__, str(exc), frames


def run_round(wl, g, ops, cpus=()):
    """[(op, output, failure or None, latency in s, probe time in s)] of one
    pass over ops. With cpus, each operation runs on the one fastest just
    before it, and its probe time is the mean of the probe loop's time just
    before and just after it on that CPU: how fast the machine ran the
    operation, which run.py divides out. Without cpus (traced runs) nothing
    is probed."""
    out = []
    for op in ops:
        before = pin_fastest(cpus) if cpus else None
        t0 = perf_counter()
        try:
            res, err = wl.run(g, op), None
        except Exception as exc:  # a failed operation; run.py matches it to a fault
            res, err = None, failure(exc)
        dt = perf_counter() - t0
        probe = (before + min(_probe(), _probe())) / 2 if cpus else None
        out.append((op, res, err, dt, probe))
    return out


def pin_fastest(cpus):
    """Pin this process to the CPU on which the probe loop runs fastest now
    and return that time. Other tenants of a shared VM slow its CPUs one at
    a time, by up to half, for fractions of a second to minutes."""
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        dt = min(_probe(), _probe())
        if best is None or dt < best[0]:
            best = (dt, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[0]


def _probe():
    t0 = perf_counter()
    x = 0
    for i in range(8000):
        x += i * i % 7
    return perf_counter() - t0


def forked_round(wl, g, workload, ops, cpus):
    """Run ops in a forked child, each on the fastest of cpus, and return
    what the child reports."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        code = 1
        try:
            os.close(read_fd)
            t0 = perf_counter()
            done = run_round(wl, g, ops, cpus)
            wall = perf_counter() - t0
            report = {"wall": wall, "latency": {repr(op): dt for op, _, _, dt, _ in done},
                      "probe": {repr(op): p for op, _, _, _, p in done},
                      "peak_rss_mb": peak_rss_mb(workload == "cli"),
                      "results": encode([(op, res, err) for op, res, err, *_ in done])}
            with os.fdopen(write_fd, "w") as pipe:
                pipe.write(json.dumps(report))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"round process exited with status {status}")
    return json.loads(data)


def encode(results):
    return base64.b64encode(pickle.dumps(results)).decode()


def peak_rss_mb(children):
    """Peak resident set of this process (VmHWM, which counts only this
    program image: getrusage's maxrss also keeps the parent's resident set
    from before exec), or of the largest child waited for."""
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--part", type=int, default=0, help="index of this process in the run")
    ap.add_argument("--rounds", type=int, default=1, help="rounds, each in a forked child")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PROGRAM, "__init__.py")):
        raise SystemExit(f"no gwbounds package under {os.path.dirname(PROGRAM)}")
    sys.path.insert(0, os.path.dirname(PROGRAM))
    sys.path.insert(0, HERE)
    g = None
    if args.workload != "cli":  # the cli workload's children do the import
        import gwbounds as g
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    wl.run(g, wl.warmup)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        from spans import Tracer, empty, merge, split_trace

        ops = wl.round(0)
        tracer = Tracer()
        if g is None:
            wl.traced = True  # each CLI child installs the spans itself
        else:
            tracer.install(g)
        t0 = perf_counter()
        done = run_round(wl, g, ops)
        traced_wall = perf_counter() - t0
        tracer.uninstall()
        totals = tracer.totals()
        if g is None:
            wl.traced = False
            totals = empty()
            for _, res, *_ in done:
                part = split_trace(res[1])[1] if res else None
                if part:
                    merge(totals, part)
        t0 = perf_counter()
        run_round(wl, g, ops)
        result.update(trace=totals, traced_wall=traced_wall, plain_wall=perf_counter() - t0,
                      results=encode([(op, res, err) for op, res, err, *_ in done]))
    else:
        cpus = sorted(os.sched_getaffinity(0))
        rounds = []
        for j in range(args.rounds):
            k = args.part * args.rounds + j
            rounds.append(forked_round(wl, g, args.workload, wl.round(k), cpus))
        result.update(rounds=rounds, peak_rss_mb=peak_rss_mb(args.workload == "cli"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
