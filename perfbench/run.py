"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold-mine --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` reruns the same workload with spans around every layer
and reports the per-layer metrics instead.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  Scratch
files live in ``.perfbench-work/`` under the checkout and are removed
on exit.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from common import ROOT, import_program

WORKLOADS = ("cold-mine", "remine-explore", "serve-jobs", "sharded-mine")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    if args.workload == "cold-mine":
        import cold_mine as workload
    elif args.workload == "remine-explore":
        import remine_explore as workload
    elif args.workload == "serve-jobs":
        import serve_jobs as workload
    else:
        import sharded_mine as workload
    # A fixed set of CPUs for the benchmark and the processes it starts
    # (one, unless the workload runs worker processes): the speed probe
    # (common.SpeedProbe) then measures CPUs the work runs on.
    cpus = sorted(os.sched_getaffinity(0))[: getattr(workload, "CPUS", 1)]
    os.sched_setaffinity(0, cpus)

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    failures = outcome["failures"]
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    attempted = outcome["attempted"]
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": min(len(failures), attempted),
                "metrics": outcome["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
