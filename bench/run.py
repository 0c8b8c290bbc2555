"""ladderforge benchmark.

    python3 bench/run.py --workload reduce-mid|spectrum-large|gate-sweep|all
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark generates the seeded
request configs under .bench_out/, measures the import of ladderforge.cli
in fresh processes (setup_s), then starts one workload process that drives
the requests through ladderforge.cli.run as a single closed-loop client.
Afterwards every report is checked against its expected verdict.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (spans in spans.jsonl).
Lines before it give the same numbers for people, with the tail percentile
and the failure counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check as checker  # noqa: E402
import gen  # noqa: E402
import tracer as tr  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("req_p50_s", "s"), ("req_tail_s", "s"),
              ("fail_ratio", "ratio"), ("peak_rss_mb", "MB"))

PROBE = ("import time; t = time.perf_counter(); import ladderforge.cli; "
         "print(time.perf_counter() - t)")


class BenchError(Exception):
    pass


def _env() -> dict:
    """Environment of every child: the checkout's sources, BLAS capped at
    nproc, and one sweep thread so the spans of a request never overlap."""
    env = dict(os.environ)
    nproc = str(len(os.sched_getaffinity(0)))
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    env["LADDERFORGE_THREADS"] = "1"
    return env


def _run_child(argv: list[str], env: dict, log_path: str) -> str:
    with open(log_path, "a", encoding="utf-8") as err:
        try:
            done = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=err, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1]} timed out after {CHILD_TIMEOUT_S} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(argv[:3])} exited {done.returncode}; see {log_path}")
    return done.stdout


def _git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def prepare(workload: str, seed: int, run_dir: str) -> list[dict]:
    """Write every config before anything is timed."""
    requests = gen.generate(workload, seed)
    cfg_dir = os.path.join(run_dir, "cfg")
    os.makedirs(cfg_dir)
    warmup, seen = [], set()
    for req in requests:
        req["config_path"] = os.path.join(cfg_dir, f"{req['id']}.json")
        _write_json(req["config_path"], req["config"])
        if req["scenario"] not in seen:     # one small request per scenario
            seen.add(req["scenario"])
            small = dict(req["config"], cutoff=[12, 12])
            path = os.path.join(cfg_dir, f"warmup-{req['scenario']}.json")
            _write_json(path, small)
            warmup.append({"id": f"w-{req['scenario']}", "scenario": req["scenario"],
                           "config_path": path})
    _write_json(os.path.join(run_dir, "requests.json"),
                {"workload": workload, "seed": seed, "requests": requests,
                 "warmup": warmup})
    return requests


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not os.path.isfile(os.path.join(SRC, "ladderforge", "cli.py")):
        raise BenchError(f"no ladderforge sources under {SRC}; run from a checkout root")
    run_dir = os.path.join(OUT_ROOT, f"{workload}-s{seed}-t{trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    requests = prepare(workload, seed, run_dir)
    env = _env()
    stderr_log = os.path.join(run_dir, "stderr.log")

    setup = [float(_run_child([sys.executable, "-c", PROBE], env, stderr_log))
             for _ in range(SETUP_PROBES)]
    _run_child([sys.executable, os.path.join(HERE, "workload.py"), "--run-dir", run_dir,
                "--seconds", str(seconds), "--trace", str(trace)], env, stderr_log)
    with open(os.path.join(run_dir, "log.json"), encoding="utf-8") as fh:
        log = json.load(fh)

    by_id = {r["id"]: r for r in requests}
    statuses, failures, latencies = {"ok": 0, "failed": 0, "wrong": 0}, [], []
    for cyc in log["cycles"]:
        for rid, code, lat in cyc["requests"]:
            req = by_id[rid]
            out_dir = os.path.join(run_dir, "out", f"c{cyc['index']}", rid)
            status, why = checker.check(req, code, out_dir)
            statuses[status] += 1
            if not cyc["traced"]:
                latencies.append(lat)
            if status != "ok":
                failures.append({"cycle": cyc["index"], "id": rid,
                                 "scenario": req["scenario"], "family": req["family"],
                                 "variant": req["variant"],
                                 "cutoff": req["config"]["cutoff"], "status": status,
                                 "reason": why})
    shutil.rmtree(os.path.join(run_dir, "out"), ignore_errors=True)

    attempted = sum(statuses.values())
    failed = statuses["failed"] + statuses["wrong"]
    untraced = [c["wall"] for c in log["cycles"] if not c["traced"]]
    tail_s, tail_pct = tail(latencies)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": attempted, "failed": failed, "wrong": statuses["wrong"],
        "timed": len(latencies),
        "cycles": len(log["cycles"]), "requests_per_cycle": len(requests),
        "tail_percentile": tail_pct, "failures": failures,
        "e2e": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(untraced),
            "req_p50_s": statistics.median(latencies),
            "req_tail_s": tail_s,
            "fail_ratio": failed / attempted,
            "peak_rss_mb": log["peak_rss_kb"] / 1024.0,
        },
        "record": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": env["OPENBLAS_NUM_THREADS"],
            "LADDERFORGE_THREADS": env["LADDERFORGE_THREADS"],
            "python": platform.python_version(),
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "commit": _git_commit(), "seed": seed, "seconds": seconds,
            "setup_samples_s": setup, "child_import_s": log["import_s"],
        },
    }
    if trace:
        traced = [c for c in log["cycles"] if c["traced"]]
        overhead = statistics.median(c["wall"] for c in traced) - result["e2e"]["wall_s"]
        spans = tr.read_spans(os.path.join(run_dir, "spans.jsonl"))
        result["layers"] = tr.layer_metrics(spans, log["trace"]["counts"], len(traced),
                                            overhead)
    _write_json(os.path.join(run_dir, "summary.json"), result)
    return result


def _version(module: str) -> str:
    return __import__(module).__version__


def _print_human(res: dict) -> None:
    e = res["e2e"]
    print(f"[{res['workload']} seed={res['seed']} trace={res['trace']}] "
          f"{res['cycles']} cycle(s) x {res['requests_per_cycle']} requests")
    print(f"  setup_s      {e['setup_s']:.4f} s")
    print(f"  wall_s       {e['wall_s']:.4f} s   (median untraced cycle)")
    print(f"  req_p50_s    {e['req_p50_s']:.4f} s   (n={res['timed']}, untraced)")
    print(f"  req_tail_s   {e['req_tail_s']:.4f} s   (p{res['tail_percentile']:.1f})")
    print(f"  fail_ratio   {e['fail_ratio']:.4f}     ({res['failed']} failed / "
          f"{res['attempted']} attempted, {res['wrong']} wrong)")
    print(f"  peak_rss_mb  {e['peak_rss_mb']:.1f} MB")
    kinds = {}
    for f in res["failures"]:
        key = (f["scenario"], f["family"], str(f["variant"]), tuple(f["cutoff"]),
               f["reason"])
        kinds[key] = kinds.get(key, 0) + 1
    for (scen, fam, var, cut, why), n in sorted(kinds.items()):
        print(f"  failure x{n}: {scen} {fam} {var} cutoff={cut[0]},{cut[1]}: {why}")
    if "layers" in res:
        lay = res["layers"]
        total = sum(lay[f"{layer}.self_s"] for layer in tr.LAYERS)
        for layer in tr.LAYERS:
            share = lay[f"{layer}.self_s"] / total if total else 0.0
            print(f"  layer {layer:<12} self {lay[f'{layer}.self_s']:.4f} s/cycle "
                  f"({100 * share:.1f}%)  errors {lay[f'{layer}.errors']:.2f}/cycle")
    print("  record " + json.dumps(res["record"], sort_keys=True))


def _final(results: list[dict], trace: int) -> dict:
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}."
        if trace:
            for name, unit, _ in tr.PER_LAYER:
                metrics[prefix + name] = {"value": res["layers"][name], "unit": unit}
        else:
            for name, unit in END_TO_END:
                metrics[prefix + name] = {"value": res["e2e"][name], "unit": unit}
    return {"correct": all(r["wrong"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ladderforge benchmark")
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            t0 = time.perf_counter()
            res = run_workload(name, args.seed, args.seconds, args.trace)
            _print_human(res)
            print(f"  run took {time.perf_counter() - t0:.1f} s")
            results.append(res)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(_final(results, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
