"""gaplab benchmark: run one workload (or all three), check it, print its metrics.

    python3 perfbench/run.py --workload selftest-core --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

Run it from the repository root.  Every pass of a workload runs in a fresh
process (``worker.py``) with ``src`` on PYTHONPATH and the OpenBLAS, OpenMP
and MKL thread counts pinned to at most the CPU count.

``--trace 0`` gives the end-to-end metrics.  Passes run while the next one
is expected to end within ``--seconds``, and every metric is a median over
the passes: ``setup_s`` is the time from the start of a pass process until
its ``import gaplab.cli`` returns; ``wall_s`` and ``cpu_s`` time the pass
itself after that import; ``peak_rss_mb`` is the pass process's peak
resident set.

``--trace 1`` gives the per-layer metrics.  It runs a traced pass, an
untraced pass and a second traced pass, then alternates while time is left.
Times are medians over the traced passes; exact counts must agree between
them, and any that differ are reported.  ``trace.overhead_s`` is the traced
minus the untraced median wall time.

Each run prints info lines (environment, failed ops, quartiles) and, as the
last line, one JSON object: ``correct`` (no output check missed),
``attempted`` and ``failed`` (ops over all passes) and ``metrics``.  An op
that fails without producing a wrong number -- a criterion that does not
pass, a run that exits nonzero -- counts in ``failed`` but keeps ``correct``
true.  Spans of each traced pass and the per-pass results go to
``perfbench/.out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_SUFFIXES, LAYERS, MATVECS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# (span name, quantities): the per-layer metrics are "<span>.<quantity>".
_CALLS_SELF = ("calls", "self_s")
TRACED = (
    [("warped_cone.WarpedLevel.all_distances", ("calls", "self_s", "bytes"))]
    + [(f"warped_cone.{f}", _CALLS_SELF) for f in
       ("ball_measure_profile", "propagation_exhaustive", "ghost_defect", "ghost_locality")]
    + [(f"ergodic_walk.{f}", _CALLS_SELF) for f in
       ("conditioned_series", "estimate_drift_mc", "sigma_field_exact",
        "hit_fields_exact", "moment_inequality_check", "ergodic_error_curve")]
    + [("rep_markov.iterate_to_projection", _CALLS_SELF),
       ("rep_markov.restricted_norm", ("calls", "self_s", "iterations", "unconverged")),
       ("rep_markov.neumann_projection", _CALLS_SELF),
       ("rep_markov.operator_identities_check", _CALLS_SELF),
       ("kazhdan.kazhdan_constant_oracle", _CALLS_SELF),
       ("expanders.certify_sequence", _CALLS_SELF),
       ("expanders.poincare_scalar", _CALLS_SELF)]
    + [(f"group_core.{f}", _CALLS_SELF) for f in
       ("build_sl2_quotient", "build_cyclic", "orbit_restriction", "word_ball")]
    + [("measures.certify_admissible", _CALLS_SELF),
       ("cli.build_fixture", ("calls",)),
       ("cli.run", ("calls", "s"))]
    + [(f"acceptance.criterion_{n}", ("s",)) for n in range(1, 12)]
)
UNITS = {"calls": "count", "self_s": "s", "s": "s", "bytes": "B",
         "iterations": "count", "unconverged": "count"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{span}.{q}": UNITS[q] for span, quantities in TRACED for q in quantities}
    units[MATVECS] = "count"
    for module in LAYERS + ("acceptance", "cli"):
        units[f"{module}.self_s"] = "s"
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s",
                  "trace.layer_share": "ratio", "ops_failed_frac": "ratio"})
    return units


def is_count(name: str) -> bool:
    return name == MATVECS or name.endswith(COUNT_SUFFIXES)


# -- environment ------------------------------------------------------------------


def pinned_env() -> Tuple[Dict[str, str], Dict[str, object]]:
    """Environment for every child process, and the record of what was pinned."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        current = env.get(var, "")
        threads = min(nproc, int(current)) if current.isdigit() and int(current) > 0 else nproc
        env[var] = str(threads)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    record = {"nproc": nproc, **{var: env[var] for var in THREAD_VARS}}
    return env, record


def source_record() -> Dict[str, object]:
    """Commit (when the tree is a git checkout), source digest and line count."""
    files = sorted((ROOT / "src" / "gaplab").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = "unavailable"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "src_gaplab_py_lines": lines}


# -- child processes --------------------------------------------------------------


class BenchError(RuntimeError):
    pass


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run time limit reached")
    return left


def run_pass(workload: str, seed: int, traced: bool, index: int,
             env: Dict[str, str], deadline: float) -> dict:
    out = HERE / ".out"
    tag = f"{workload}-seed{seed}-pass{index}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(out / tag)]
    if traced:
        cmd += ["--spans", str(out / f"spans-{tag}.json")]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining(deadline))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(lines[-1])
    if not Path(result["gaplab_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"gaplab imported from {result['gaplab_file']}, not this tree")
    result["traced"] = traced
    result["setup_s"] = result["imported_at"] - started
    (out / f"result-{tag}.json").write_text(json.dumps(result), encoding="utf-8")
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               env: Dict[str, str], deadline: float) -> List[dict]:
    """Passes while the next one, as long as the last, would end within ``seconds``.

    Untraced runs make at least one pass.  Traced runs alternate traced and
    untraced passes, starting and ending traced, and make at least three.
    """
    (HERE / ".out").mkdir(exist_ok=True)
    passes: List[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 0
        began = time.monotonic()
        passes.append(run_pass(workload, seed, traced, len(passes), env, deadline))
        now = time.monotonic()
        if (not trace or len(passes) >= 3) and now - start + (now - began) > seconds:
            return passes


# -- metrics ----------------------------------------------------------------------


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def layer_metrics(passes: List[dict]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer values from the traced passes, and the counts that differ."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    units = per_layer_units()
    values: Dict[str, float] = {}
    mismatches = []
    for name in units:
        seen = [p["layers"].get(name, 0) for p in traced]
        if is_count(name):
            if len(set(seen)) > 1:
                mismatches.append(f"{name}: {seen}")
            values[name] = seen[0]
        elif name.startswith("trace.") or name == "ops_failed_frac":
            continue
        else:
            values[name] = statistics.median(seen)
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in untraced)
    values["trace.layer_share"] = sum(values[f"{m}.self_s"] for m in LAYERS) / traced_wall
    return values, mismatches


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 env: Dict[str, str], deadline: float) -> dict:
    passes = run_passes(workload, seed, seconds, trace, env, deadline)
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["failed"]]
    summary = {
        "correct": not any(op["check_failures"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "failures": sorted({f"{op['name']}: {op['error'] or op['check_failures']}"
                            for op in failed}),
        "ops_failed_frac": len(failed) / len(ops),
        "versions": passes[0]["versions"],
        "samples": {},
    }
    if trace:
        values, mismatches = layer_metrics(passes)
        values["ops_failed_frac"] = summary["ops_failed_frac"]
        summary["count_mismatches"] = mismatches
        first = next(p for p in passes if p["traced"])
        spans, names = first["op_seconds"], [op["name"] for op in first["ops"]]
        if len(spans) == len(names):
            spans = [[f"{name} ({span})", sec] for name, (span, sec) in zip(names, spans)]
        summary["op_seconds"] = spans
        summary["metrics"] = {name: {"value": values[name], "unit": unit}
                              for name, unit in per_layer_units().items()}
    else:
        samples = {"wall_s": [p["wall_s"] for p in passes],
                   "cpu_s": [p["cpu_s"] for p in passes],
                   "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
                   "setup_s": [p["setup_s"] for p in passes]}
        summary["samples"] = samples
        summary["metrics"] = {name: {"value": statistics.median(samples[name]), "unit": unit}
                              for name, unit in END_TO_END.items()}
    return summary


def report(workload: str, summary: dict, trace: bool) -> None:
    print(f"[{workload}] ops: attempted {summary['attempted']}, failed {summary['failed']}, "
          f"correct {summary['correct']}")
    for line in summary["failures"]:
        print(f"[{workload}] failed op {line}")
    if not trace:
        for name, values in summary["samples"].items():
            q1, med, q3 = quartiles(values)
            print(f"[{workload}] {name} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"n {len(values)} {END_TO_END[name]}")
        print(f"[{workload}] ops_failed_frac {summary['ops_failed_frac']:.6g} ratio")
        return
    print(f"[{workload}] counts repeated exactly: "
          f"{'yes' if not summary['count_mismatches'] else 'NO'}")
    for line in summary["count_mismatches"]:
        print(f"[{workload}] count differs between traced passes: {line}")
    for name, seconds in summary["op_seconds"]:
        print(f"[{workload}] op span {name} {seconds:.6g} s")
    for name, metric in summary["metrics"].items():
        print(f"[{workload}] {name} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaplab" / "cli.py").is_file():
        print(f"no gaplab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2

    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the pass process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env, pinned = pinned_env()
    print("env " + json.dumps({"seed": args.seed, "seconds": args.seconds,
                               "trace": args.trace, **pinned, **source_record()}))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_LIMIT_S * len(workloads)
    summaries = {}
    try:
        for workload in workloads:
            summaries[workload] = run_workload(workload, args.seed, args.seconds,
                                               bool(args.trace), env, deadline)
            report(workload, summaries[workload], bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print("versions " + json.dumps(summaries[workloads[0]]["versions"]))
    if len(workloads) == 1:
        metrics = summaries[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, s in summaries.items()
                   for name, m in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
