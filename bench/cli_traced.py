"""Run one gwb command as `python -m gwbounds.cli` does, with the benchmark's
spans installed, and append the span totals to stdout after a marker line.

Used only by traced runs of the cli workload:
    PYTHONPATH=src python3 bench/cli_traced.py table 1
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gwbounds  # noqa: E402
import gwbounds.cli as cli  # noqa: E402
from spans import TRACE_MARK, Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install(gwbounds)
    tracer.patch(argparse.ArgumentParser, "parse_args",
                 tracer.span("cli.parse_args", argparse.ArgumentParser.parse_args))
    code = cli.main(sys.argv[1:])
    tracer.uninstall()
    t = tracer.totals()
    incl = t["incl"]
    parse = incl.get("cli.make_parser", 0.0) + incl.get("cli.parse_args", 0.0)
    render = incl.get("cli.render_csv", 0.0) + incl.get("cli.write_output", 0.0)
    t["cli"] = {"cli.parse_ms": 1e3 * parse, "cli.render_ms": 1e3 * render,
                "cli.compute_ms": 1e3 * (incl.get("cli.main", 0.0) - parse - render)}
    sys.stdout.write(TRACE_MARK + json.dumps(t) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
