"""One workload process: import the package, warm up, then drive the
generated requests through ``ladderforge.cli.run`` as a single closed-loop
client.

The loop runs whole cycles of the request list and stops before a cycle
that would end after ``--seconds``; at least one cycle always runs.  With
``--trace 1`` the first half of the time runs untraced and the second half
traced, so the two cycle times give the tracing overhead.  Outputs are only
written here; run.py checks them after this process has exited.

    python3 bench/workload.py --run-dir DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _call(cli, argv):
    """Exit code of one request, or the name of the exception that escaped."""
    try:
        return cli.run(argv)
    except SystemExit as exc:
        return f"SystemExit({exc.code})"
    except Exception as exc:  # a crash is a failed request, not a benchmark error
        return type(exc).__name__


def run_cycles(cli, requests, run_dir, budget, first_cycle, tracer=None):
    """Run whole cycles until the next one would overrun ``budget`` seconds."""
    cycles = []
    t0 = time.perf_counter()
    while True:
        index = first_cycle + len(cycles)
        rows = []
        c0 = time.perf_counter()
        for req in requests:
            argv = [req["scenario"], "--config", req["config_path"],
                    "--out", os.path.join(run_dir, "out", f"c{index}", req["id"])]
            if tracer is None:
                t = time.perf_counter()
                code = _call(cli, argv)
                lat = time.perf_counter() - t
            else:
                tracer.request = f"c{index}/{req['id']}"
                with tracer.span("bench.request"):
                    t = time.perf_counter()
                    code = _call(cli, argv)
                    lat = time.perf_counter() - t
            rows.append([req["id"], code, lat])
        cycles.append({"index": index, "traced": tracer is not None,
                       "wall": time.perf_counter() - c0, "requests": rows})
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(c["wall"] for c in cycles) > budget:
            return cycles


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(args.run_dir, "requests.json"), encoding="utf-8") as fh:
        plan = json.load(fh)

    t = time.perf_counter()
    from ladderforge import cli
    import_s = time.perf_counter() - t

    for req in plan["warmup"]:
        _call(cli, [req["scenario"], "--config", req["config_path"],
                    "--out", os.path.join(args.run_dir, "warmup", req["id"])])

    requests = plan["requests"]
    if args.trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer, instrument

        cycles = run_cycles(cli, requests, args.run_dir, args.seconds / 2, 0)
        tracer = Tracer()
        with instrument(tracer):
            cycles += run_cycles(cli, requests, args.run_dir, args.seconds / 2,
                                 len(cycles), tracer)
        tracer.write(os.path.join(args.run_dir, "spans.jsonl"))
        trace = {"counts": dict(tracer.counts)}
    else:
        cycles = run_cycles(cli, requests, args.run_dir, args.seconds, 0)
        trace = None

    log = {"import_s": import_s, "cycles": cycles, "trace": trace,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(os.path.join(args.run_dir, "log.json"), "w", encoding="utf-8") as fh:
        json.dump(log, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
