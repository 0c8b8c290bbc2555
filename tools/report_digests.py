"""Digest the report files of one cycle of each benchmark workload.

    PYTHONPATH=src python tools/report_digests.py --seed N

Every request of one cycle of each workload (bench/gen.generate at seed N)
runs through ladderforge.cli.run in-process, writing its JSON report and
CSV tables (--format csv) with --out into a temporary directory.  One line
is printed per request:

    workload id scenario exit sha256

the digest taken over the name and bytes of every file the request wrote.
The reports echo the --out path, so each request writes to a path relative
to that directory (workload/id), the same from run to run.  Two source
trees that print the same lines at a seed wrote byte-identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def digests(seed: int) -> list[str]:
    """The `workload id scenario exit sha256` line of every request."""
    sys.path.insert(0, BENCH)
    sys.dont_write_bytecode, write = True, sys.dont_write_bytecode   # bench/ stays as it is
    try:
        import gen
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = write
    from ladderforge import cli

    lines, home = [], os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload in gen.WORKLOADS:
                for req in gen.generate(workload, seed):
                    out = os.path.join(workload, req["id"])
                    config = out + ".json"
                    os.makedirs(workload, exist_ok=True)
                    with open(config, "w", encoding="utf-8") as fh:
                        json.dump(req["config"], fh)
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = cli.run([req["scenario"], "--config", config, "--out", out,
                                        "--format", "csv"])
                    digest = hashlib.sha256()
                    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
                        with open(os.path.join(out, name), "rb") as fh:
                            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
                    lines.append(f"{workload} {req['id']} {req['scenario']} {code} "
                                 f"{digest.hexdigest()}")
        finally:
            os.chdir(home)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    print("\n".join(digests(ap.parse_args(argv).seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
