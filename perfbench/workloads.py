"""The benchmark workloads: ops built from a seed, and the checks on their outputs.

An op is one acceptance criterion or one ``gaplab run`` config.  It fails if
it does not pass, exits nonzero, or misses an output check.  ``run_workload``
is the timed part; ``check_workload`` runs afterwards, outside the timed
region and with tracing removed.

Why these workloads:

* ``selftest-core``: one ``acceptance.run_core(seed)`` pass, what
  ``gaplab selftest`` and the test suite pay.  Its time sits in warped-cone
  all-pairs distances and ``conditioned_series``; the Markov solves are small.
* ``markov-spectral``: ``gaplab run`` kind ``markov`` on the m=32 torus and on
  the n=512 cycle.  Dense ``iterate_to_projection`` and power-iteration
  ``restricted_norm`` dominate; ``selftest-core`` bypasses both at this size.
* ``certify-sl2``: kind ``kazhdan`` on SL2(Z/5) and kind ``expander`` on nine
  SL2(Z/p) quotients.  The Kazhdan oracle, ``build_sl2_quotient`` and both
  ``poincare_scalar`` branches (dense ``eigh`` and ``eigsh``) run here.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

WORKLOADS = ("selftest-core", "markov-spectral", "certify-sl2")

# restricted_norm promises its value to 1e-10 (its docstring).
NORM_TOL = 1e-10
# acceptance criterion 3 checks the sandwich inequalities to 1e-6.
SANDWICH_TOL = 1e-6
SL2_MODULI = [5, 7, 11, 13, 17, 19, 23, 29, 31]
CYCLE_N = 512
N_CRITERIA = 11


@dataclass
class Op:
    name: str
    error: Optional[str] = None          # the program reported a failure
    check_failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.check_failures)

    def to_json(self) -> dict:
        return {"name": self.name, "failed": self.failed, "error": self.error,
                "check_failures": self.check_failures}


def run_configs(workload: str, seed: int) -> List[Tuple[str, dict]]:
    """The ``gaplab run`` configs of a workload, each carrying the workload seed."""
    if workload == "markov-spectral":
        return [
            ("markov-torus-32", {"kind": "markov",
                                 "fixture": {"builder": "sl2", "m": 32, "variant": "b"},
                                 "measure": {"kind": "lazy_uniform"},
                                 "params": {"k_max": 20}, "seed": seed}),
            (f"markov-cycle-{CYCLE_N}", {"kind": "markov",
                                         "fixture": {"builder": "cyclic", "n": CYCLE_N},
                                         "measure": {"kind": "lazy_uniform"},
                                         "params": {"k_max": 20}, "seed": seed}),
        ]
    if workload == "certify-sl2":
        return [
            ("kazhdan-sl2-5", {"kind": "kazhdan",
                               "fixture": {"builder": "sl2", "m": 5, "variant": "a"},
                               "params": {"n_starts": 8}, "seed": seed}),
            ("expander-sl2", {"kind": "expander",
                              "fixture": {"family": "sl2", "moduli": SL2_MODULI},
                              "seed": seed}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int, work_dir: Path) -> List[Tuple[str, Path, Path]]:
    """Write each run config to disk; returns (op name, config path, out dir)."""
    if workload == "selftest-core":
        return []
    ops = []
    for name, config in run_configs(workload, seed):
        op_dir = work_dir / name
        shutil.rmtree(op_dir, ignore_errors=True)  # no report may survive from an earlier pass
        op_dir.mkdir(parents=True)
        config_path = op_dir / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        ops.append((name, config_path, op_dir / "out"))
    return ops


def run_workload(workload: str, seed: int, prepared) -> Dict[str, object]:
    """The timed part: one acceptance core pass, or one ``gaplab run`` per config.

    An exception escaping gaplab fails the op it came from and is kept as text.
    """
    from gaplab import acceptance, cli  # here, so that run.py never imports gaplab

    if workload == "selftest-core":
        try:
            return {"results": acceptance.run_core(seed)}
        except Exception:  # a crash fails every criterion of the pass
            return {"crash": traceback.format_exc()}
    exits = {}
    for name, config_path, out_dir in prepared:
        try:
            exits[name] = cli.main(["run", str(config_path), "--out-dir", str(out_dir)])
        except Exception:
            exits[name] = traceback.format_exc()
    return {"exits": exits}


# -- output checks ---------------------------------------------------------------


def _near(failures: List[str], what: str, got, want: float, tol: float) -> None:
    if not isinstance(got, (int, float)) or not abs(got - want) <= tol:
        failures.append(f"{what}: got {got!r}, want {want!r} within {tol:g}")


def _at_most(failures: List[str], what: str, lhs, rhs, tol: float) -> None:
    if not (isinstance(lhs, (int, float)) and isinstance(rhs, (int, float))
            and lhs <= rhs + tol):
        failures.append(f"{what}: {lhs!r} > {rhs!r} + {tol:g}")


def check_workload(workload: str, prepared, outcome) -> List[Op]:
    if workload == "selftest-core":
        return _check_core(outcome)
    checks = {"markov-torus-32": _check_markov,
              f"markov-cycle-{CYCLE_N}": _check_markov,
              "kazhdan-sl2-5": _check_kazhdan,
              "expander-sl2": _check_expander}
    ops = []
    for name, _config_path, out_dir in prepared:
        op = Op(name)
        status = outcome["exits"][name]
        report_path = out_dir / "report.json"
        doc = None
        if report_path.exists():
            doc = json.loads(report_path.read_text(encoding="utf-8"))
        if not isinstance(status, int):
            op.error = f"raised: {status.strip().splitlines()[-1]}"
        elif status != 0:
            invariant = (doc or {}).get("failed_invariant", "no report")
            op.error = f"exit {status}: {invariant}"
        else:
            checks[name](name, doc, out_dir, op.check_failures)
        ops.append(op)
    return ops


def _lazy_cycle_lambda(n: int) -> float:
    """Restricted norm of the lazy walk (e + g + g^-1)/3 on Z/n, n >= 3."""
    return (1.0 + 2.0 * math.cos(2.0 * math.pi / n)) / 3.0


def _check_core(outcome) -> List[Op]:
    if "crash" in outcome:
        return [Op(f"criterion_{cid}", error="run_core raised: "
                   + outcome["crash"].strip().splitlines()[-1])
                for cid in range(1, N_CRITERIA + 1)]
    by_id = {r.cid: r for r in outcome["results"]}
    ops = []
    for cid in range(1, N_CRITERIA + 1):
        op = Op(f"criterion_{cid}")
        result = by_id.get(cid)
        if result is None:
            op.error = "criterion missing from run_core"
        elif not result.passed:
            op.error = "criterion did not pass"
        else:
            d = result.details
            f = op.check_failures
            # closed forms: lazy walk on Z/4 has lambda 1/3, {e, g} on Z/2 has 0
            if cid in (1, 3):
                _near(f, "Z/2 lambda", d["Z/2"]["lambda"], 0.0, NORM_TOL)
            if cid == 1:
                _near(f, "Z/4 lambda", d["Z/4"]["lambda"], 1.0 / 3.0, NORM_TOL)
            if cid == 11:
                _near(f, "Z/4 lambda", d["lambda"], 1.0 / 3.0, NORM_TOL)
                _near(f, "boost kappa", d["boost"]["kappa"], 26.0 / 27.0, 1e-12)
        ops.append(op)
    return ops


def _value(doc: dict, key: str):
    entry = doc["report"].get(key)
    return entry["value"] if isinstance(entry, dict) else entry


def _read_csv(path: Path) -> List[List[str]]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _check_markov(name: str, doc: dict, out_dir: Path, f: List[str]) -> None:
    lam = _value(doc, "lambda")
    if doc["report"].get("quality") != "exact":
        f.append(f"quality {doc['report'].get('quality')!r}, want 'exact'")
    n_points = 1024 if name == "markov-torus-32" else CYCLE_N
    _near(f, "n_points", doc["report"].get("n_points"), n_points, 0)
    # the dense defect |A - P| at k = 1 is the restricted norm itself
    rows = _read_csv(out_dir / "defect_curve.csv")
    defect_1 = float(rows[1][1])
    _near(f, "lambda vs dense defect at k=1", lam, defect_1, NORM_TOL)
    if name != "markov-torus-32":
        _near(f, "lambda vs closed form", lam, _lazy_cycle_lambda(CYCLE_N), NORM_TOL)


def _dense_kazhdan_lambda() -> float:
    """|A - P| for the uniform measure on {e} u Q on SL2(Z/5), by dense SVD."""
    from gaplab.group_core import build_sl2_quotient

    action = build_sl2_quotient(5, variant="a")
    n = action.n_points
    support = [np.arange(n)] + [action.perms[lab] for lab in action.gens.labels]
    a = np.zeros((n, n))
    for perm in support:
        inv = np.empty_like(perm)
        inv[perm] = np.arange(n)
        a[np.arange(n), inv] += 1.0 / len(support)
    # the regular action is transitive with uniform weights: P = J / n
    return float(np.linalg.norm(a - 1.0 / n, 2))


def _check_kazhdan(name: str, doc: dict, out_dir: Path, f: List[str]) -> None:
    lam = _value(doc, "lambda")
    kappa = _value(doc, "kappa_oracle")
    _near(f, "lambda vs dense reference", lam, _dense_kazhdan_lambda(), NORM_TOL)
    _at_most(f, "1 - kappa <= lambda", 1.0 - kappa, lam, SANDWICH_TOL)
    _at_most(f, "lambda <= norm bound from kappa", lam,
             _value(doc, "norm_bound_from_kappa"), SANDWICH_TOL)
    _at_most(f, "sqrt2 improvement <= kappa", _value(doc, "sqrt2_improvement"),
             kappa, SANDWICH_TOL)
    _at_most(f, "kappa lower bound <= oracle", _value(doc, "kappa_lower_bound"),
             kappa, SANDWICH_TOL)
    _at_most(f, "M_lp <= M_certificate", _value(doc, "M_lp"),
             _value(doc, "M_certificate"), 1e-9)
    _at_most(f, "M_certificate <= |Q| + 1", _value(doc, "M_certificate"), 5.0, 1e-12)


def _check_expander(name: str, doc: dict, out_dir: Path, f: List[str]) -> None:
    from gaplab.group_core import SL2_GENERATOR_MATRICES

    n_labels = len(SL2_GENERATOR_MATRICES)
    if doc["report"].get("verdict") != "uniform gap":
        f.append(f"verdict {doc['report'].get('verdict')!r}, want 'uniform gap'")
    rows = _read_csv(out_dir / "quotients.csv")
    if [int(r[1]) for r in rows] != [p * (p * p - 1) for p in SL2_MODULI]:
        f.append(f"quotient sizes {[r[1] for r in rows]} are not |SL2(Z/p)|")
        return
    lam2 = [float(r[2]) for r in rows]
    for p, l2, row in zip(SL2_MODULI, lam2, rows):
        kappa = float(row[3])
        if not l2 < 1.0:
            f.append(f"p={p}: lambda2 {l2} not below 1")
            continue
        # poincare_scalar states kappa = 1 / (2 |Q| (1 - lambda2))
        _near(f, f"p={p}: kappa from lambda2", kappa,
              1.0 / (2.0 * n_labels * (1.0 - l2)), 1e-12 * kappa)
    _near(f, "epsilon0 = 1 - max lambda2", _value(doc, "epsilon0"),
          1.0 - max(lam2), 1e-12)
