"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --work-dir DIR [--spans PATH]

Imports gaplab first and reports when that import returned (``imported_at``,
on the system-wide monotonic clock), so the parent can time set-up from
process start.  Then it times one pass of the workload (wall and process
CPU, which includes BLAS threads), records the peak resident set, checks
every op and prints one JSON line.  With ``--spans`` the pass runs traced:
the tracer is installed before the timer starts, its spans are written to
PATH after the pass, and the per-layer numbers join the JSON line.  ``run.py`` starts
this script with ``src`` on PYTHONPATH and the BLAS thread counts pinned.
"""

from __future__ import annotations

import time

import gaplab.cli

IMPORTED_AT = time.monotonic()

# everything below loads after the set-up measurement point
import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, check_workload, prepare, run_workload  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    prepared = prepare(args.workload, args.seed, args.work_dir)
    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    c0 = time.process_time()
    outcome = run_workload(args.workload, args.seed, prepared)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    ops = check_workload(args.workload, prepared, outcome)
    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "ops": [op.to_json() for op in ops],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "gaplab_file": gaplab.cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["op_seconds"] = tracer.op_seconds()
        args.spans.write_text(json.dumps(tracer.span_records()), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
