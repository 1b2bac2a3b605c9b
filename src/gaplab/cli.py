"""Batch front-end: experiment configs, deterministic runs, report emission.

A config names an experiment kind, a fixture, a measure and numeric
parameters; ``execute`` runs the pipeline of its kind in memory and ``run``
writes the result as a JSON report plus CSV series for external plotting.
The acceptance criteria call ``execute`` too, so each certificate is
computed in one place.  Every number in a report carries a provenance tag
(measured | paper-formula | oracle).  Exit status: 0 all asserted
invariants passed, 1 an invariant failed (named in the report), 2 the config
did not validate (field-path diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence

from . import ergodic_walk as ew
from . import warped_cone as wc
from .expanders import PoincareReport, QuotientSequence, certify_sequence
from .group_core import (
    FiniteAction,
    GeneratorSystem,
    action_fingerprint,
    build_cyclic,
    build_sl2_quotient,
    orbit_restriction,
)
from .kazhdan import (
    boost_pair,
    hilbert_improvement,
    kappa_from_decay,
    kazhdan_constant_oracle,
    norm_bound_from_kappa,
)
from .measures import (
    DiscreteMeasure,
    certify_admissible,
    dirac,
    lazy_uniform,
    uniform_extended,
    uniform_on,
)
from .rep_markov import (
    DenseLimitError,
    Representation,
    defect_curve,
    markov_operator,
    neumann_projection,
    require_dense,
    restricted_norm,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


class InvariantFailure(RuntimeError):
    def __init__(self, name: str, message: str) -> None:
        super().__init__(f"{name}: {message}")
        self.name = name


def _jsonify(value):
    """Recursively coerce numpy scalars and arrays into plain JSON values."""
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonify(value.tolist())
    if isinstance(value, np.generic):  # numpy bool, integer and float scalars
        return value.item()
    return value


def tag(value, provenance: str) -> dict:
    """Attach a provenance tag: measured | paper-formula | oracle."""
    if provenance not in ("measured", "paper-formula", "oracle"):
        raise ValueError(f"unknown provenance {provenance!r}")
    return {"value": value, "provenance": provenance}


@dataclass
class ExperimentConfig:
    kind: str
    fixture: dict
    measure: dict = field(default_factory=lambda: {"kind": "lazy_uniform"})
    params: dict = field(default_factory=dict)
    seed: int = 0

    def to_json_dict(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **asdict(self)}

    @staticmethod
    def from_json_dict(doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict) or not doc:
            raise ConfigError("$", "config must be a non-empty JSON object")
        version = doc.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ConfigError("$.schema_version", f"unsupported version {version}")
        kind = doc.get("kind")
        if kind not in KINDS:
            raise ConfigError("$.kind", f"must be one of {KINDS}, got {kind!r}")
        fixture = doc.get("fixture")
        if not isinstance(fixture, dict):
            raise ConfigError("$.fixture", "must be an object")
        measure = doc.get("measure", {"kind": "lazy_uniform"})
        if not isinstance(measure, dict):
            raise ConfigError("$.measure", "must be an object")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("$.params", "must be an object")
        seed = doc.get("seed", 0)
        if not isinstance(seed, int) or seed < 0:
            raise ConfigError("$.seed", "must be a nonnegative integer")
        return ExperimentConfig(kind=kind, fixture=fixture, measure=measure,
                                params=params, seed=seed)


# -- fixture and measure construction -------------------------------------------


def build_fixture(spec: dict) -> FiniteAction:
    builder = spec.get("builder")
    if builder == "cyclic":
        n = spec.get("n")
        if not isinstance(n, int) or n < 1:
            raise ConfigError("$.fixture.n", "must be a positive integer")
        return build_cyclic(n)
    if builder == "sl2":
        m = spec.get("m")
        variant = spec.get("variant", "b")
        if not isinstance(m, int):
            raise ConfigError("$.fixture.m", "must be an integer")
        if variant not in ("a", "b"):
            raise ConfigError("$.fixture.variant", "must be 'a' or 'b'")
        try:
            action = build_sl2_quotient(m, variant=variant)
        except ValueError as exc:
            raise ConfigError("$.fixture.m", str(exc)) from exc
        orbit_of = spec.get("orbit_of")
        if orbit_of is not None:
            point = tuple(orbit_of)
            if point not in action.points:
                raise ConfigError("$.fixture.orbit_of", f"{point} not a fixture point")
            action = orbit_restriction(action, action.points.index(point))
        return action
    if builder == "explicit":
        try:
            points = spec["points"]
            weights = np.asarray(spec["weights"], dtype=float)
            inverses = dict(spec["inverses"])
            perms = {lab: np.asarray(p, dtype=np.int64)
                     for lab, p in spec["generators"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("$.fixture", f"explicit fixture malformed: {exc}") from exc
        gens = GeneratorSystem(labels=tuple(perms), inverses=inverses)
        try:
            return FiniteAction(points, weights, gens, perms, name="explicit")
        except ValueError as exc:
            # structurally valid config whose data breaks a math invariant
            raise InvariantFailure("fixture-invariant", str(exc)) from exc
    raise ConfigError("$.fixture.builder",
                      "must be one of 'cyclic', 'sl2', 'explicit'")


def build_measure(action: FiniteAction, spec: dict) -> DiscreteMeasure:
    kind = spec.get("kind", "lazy_uniform")
    if kind == "lazy_uniform":
        return lazy_uniform(action)
    if kind == "uniform_gens":
        return uniform_on([action.generator_element(lab) for lab in action.gens.labels])
    if kind == "dirac_e":
        return dirac(action.identity_element())
    raise ConfigError("$.measure.kind",
                      "must be one of 'lazy_uniform', 'uniform_gens', 'dirac_e'")


# -- experiment runners ------------------------------------------------------------


def _run_markov(config: ExperimentConfig, action: FiniteAction
               ) -> Tuple[dict, Dict[str, List[List]]]:
    mu = build_measure(action, config.measure)
    p = float(config.params.get("p", 2.0))
    k_max = int(config.params.get("k_max", 20))
    rep = Representation(action, p=p)
    op = markov_operator(rep, mu)
    est = restricted_norm(op, seed=config.seed)
    rows = []
    for k, defect in enumerate(defect_curve(op, k_max, seed=config.seed).tolist()):
        if est.quality == "exact" and k >= 1 and defect > est.value**k + 1e-9:
            raise InvariantFailure(f"decay-bound k={k}",
                                   "markov experiment invariant failed")
        rows.append([k, defect, est.value**k if k else ""])
    report = {
        "lambda": tag(est.value, "measured"),
        "quality": est.quality,
        "n_points": action.n_points,
    }
    series = {"defect_curve": [["k", "defect", "lambda_pow_k"]] + rows}
    if config.params.get("export_operator"):
        series["operator_coo"] = [["row", "col", "weight"]] + [
            [i, j, v] for i, j, v in op.to_coo()
        ]
    return report, series


def _run_projection(config: ExperimentConfig, action: FiniteAction
                   ) -> Tuple[dict, Dict[str, List[List]]]:
    require_dense(action.n_points, "projector")  # refuse before the solve runs
    mu = build_measure(action, config.measure)
    rep = Representation(action)
    op = markov_operator(rep, mu)
    est = restricted_norm(op, seed=config.seed)
    pn = neumann_projection(op, norm=est)
    gap = float(np.max(np.abs(pn - op.decomposition.mean_matrix())))
    if gap > 1e-10:
        raise InvariantFailure("neumann-projection-gap", f"entrywise gap {gap}")
    report = {
        "lambda": tag(est.value, "measured"),
        "neumann_vs_mean_gap": tag(gap, "measured"),
        "terms_tolerance": 1e-14,
    }
    return report, {}


def _run_kazhdan(config: ExperimentConfig, action: FiniteAction
                ) -> Tuple[dict, Dict[str, List[List]]]:
    require_dense(action.n_points, "quadratic form")  # refuse before the solve runs
    q = [action.generator_element(lab) for lab in action.gens.labels]
    rep = Representation(action, p=float(config.params.get("p", 2.0)))
    mu, cert = uniform_extended(q, action.identity_element())
    opt = certify_admissible(mu, q)
    est = restricted_norm(markov_operator(rep, mu), seed=config.seed)
    oracle = kazhdan_constant_oracle(rep, q, seed=config.seed,
                                     n_starts=int(config.params.get("n_starts", 32)))
    eps = float(config.params.get("eps", 0.1))
    report = {
        "kappa_oracle": tag(oracle.best, "oracle"),
        "kappa_lower_bound": tag(oracle.lower_bound, "measured"),
        "lambda": tag(est.value, "measured"),
        "M_certificate": tag(cert.M, "measured"),
        "M_lp": tag(opt.M, "measured"),
        "norm_bound_from_kappa": tag(
            norm_bound_from_kappa(opt.M, rep.p, min(oracle.best, 2.0)),
            "paper-formula",
        ),
    }
    if est.quality == "exact":
        conv = kappa_from_decay(est.value) if est.value < 1 else None
        if conv is not None:
            report["kappa_from_decay"] = tag(conv.kappa, "paper-formula")
            report["S_total"] = tag(conv.S_total, "paper-formula")
            if math.isfinite(oracle.best) and conv.kappa > oracle.best + 1e-6:
                raise InvariantFailure("decay-kappa-exceeds-oracle",
                                       "kazhdan conversion inconsistent")
        if rep.p == 2.0:
            report["sqrt2_improvement"] = tag(hilbert_improvement(est.value),
                                              "paper-formula")
        if est.value < 1:
            boost = boost_pair(q, est.value, eps)
            report["boost"] = {
                "m": boost.m,
                "kappa": tag(boost.kappa, "paper-formula"),
                "set_size": len(boost.kazhdan_set),
            }
    return report, {}


def certify_family(config: ExperimentConfig) -> PoincareReport:
    """The expander kind's certificate: the configured quotient family, with
    the scalar Poincare relation checked on every connected quotient."""
    spec = config.fixture
    family = spec.get("family")
    if family == "sl2":
        moduli = spec.get("moduli")
        if not isinstance(moduli, list) or len(moduli) < 2:
            raise ConfigError("$.fixture.moduli", "need a list of >= 2 moduli")
        actions = [build_sl2_quotient(int(m), variant="a") for m in moduli]
    elif family == "cycles":
        sizes = spec.get("sizes")
        if not isinstance(sizes, list) or len(sizes) < 2:
            raise ConfigError("$.fixture.sizes", "need a list of >= 2 sizes")
        actions = [build_cyclic(int(n)) for n in sizes]
    else:
        raise ConfigError("$.fixture.family", "must be 'sl2' or 'cycles'")
    p = float(config.params.get("p", 2.0))
    d = int(config.params.get("d", 1))
    budget = int(config.params.get("vector_budget", 0))
    report_obj = certify_sequence(QuotientSequence(actions), p=p, d=d,
                                  vector_budget=budget, seed=config.seed)
    for r in report_obj.rows:
        if r.connected and r.relation_residual > 1e-9:
            raise InvariantFailure("poincare-relation",
                                   f"residual {r.relation_residual} on {r.name}")
    return report_obj


def _run_expander(config: ExperimentConfig) -> Tuple[dict, Dict[str, List[List]]]:
    report_obj = certify_family(config)
    rows = [["quotient", "n", "lambda2", "kappa_p", "vector_lower"]]
    for r in report_obj.rows:
        rows.append([r.name, r.n_vertices, r.lambda2, r.kappa_p, r.vector_lower])
    report = {
        "uniform": report_obj.uniform,
        "epsilon0": tag(report_obj.epsilon0, "measured"),
        "growth_slope": tag(report_obj.growth_slope, "measured"),
        "verdict": "uniform gap" if report_obj.uniform else "not uniform",
    }
    return report, {"quotients": rows}


def _run_ergodic(config: ExperimentConfig, action: FiniteAction
                ) -> Tuple[dict, Dict[str, List[List]]]:
    mu = build_measure(action, config.measure)
    k_max = int(config.params.get("k_max", 25))
    exponents = config.params.get("exponents", [2.0])
    rng = np.random.default_rng(config.seed)
    f = rng.standard_normal(action.n_points)
    report: Dict[str, object] = {}
    series: Dict[str, List[List]] = {}
    for p in exponents:
        rep = Representation(action, p=float(p))
        est = restricted_norm(markov_operator(rep, mu), seed=config.seed, n_starts=2)
        # a non-ergodic fixture warns that errors are taken to orbitwise means
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            curve = ew.ergodic_error_curve(rep, f, mu, K=k_max, norm_estimate=est)
            constant = ew.ergodic_error_curve(rep, np.ones(action.n_points), mu,
                                              K=k_max, norm_estimate=est)
        if curve.slope is not None and curve.slope > math.log(est.value) + 0.01:
            raise InvariantFailure("ergodic-slope",
                                   f"slope {curve.slope} vs log lambda")
        # A fixes constant fields, so their error is rounding only
        constant_error = float(np.max(constant.errors))
        if constant_error > 1e-12:
            raise InvariantFailure("ergodic-constant-field",
                                   f"constant field moved by {constant_error}")
        report[f"p={p}"] = {
            "lambda": tag(est.value, "measured"),
            "quality": est.quality,
            "slope": tag(curve.slope, "measured"),
            "constant_field_error": tag(constant_error, "measured"),
        }
        series[f"errors_p{p}"] = [["k", "error", "bound"]] + [
            [k, e, est.value**k * curve.field_norm]
            for k, e in enumerate(curve.errors, start=1)]
    return report, series


def _run_shrinking(config: ExperimentConfig, action: FiniteAction
                  ) -> Tuple[dict, Dict[str, List[List]]]:
    mu = build_measure(action, config.measure)
    params = config.params
    horizon = int(params.get("horizon", 50))
    center = 0
    if params.get("center") is not None:
        point = tuple(params["center"])
        if point not in action.points:
            raise ConfigError("$.params.center", f"{point} not a fixture point")
        center = action.points.index(point)
    radius_scale = float(params.get("radius_scale", 0.45))
    radius_exponent = float(params.get("radius_exponent", -0.125))
    radii = [radius_scale * n**radius_exponent for n in range(1, horizon + 1)]
    plan = ew.plan_from_radii(action, center, radii)
    n_starts = int(params.get("n_starts", 8))
    rng = np.random.default_rng(config.seed)
    starts = rng.choice(action.n_points, size=min(n_starts, action.n_points),
                        replace=False)
    stats = ew.shrinking_series_exact(action, mu, plan, starts)
    trials = int(params.get("trials", 0))
    mc = None
    if trials > 0:
        mc = ew.shrinking_series_mc(action, mu, plan, trials=trials,
                                    seed=config.seed, start=int(starts[0]))
    s_n = plan.s_n()
    env = s_n**0.6
    within = float(np.mean(np.abs(stats.sigma - s_n) <= env))
    rows = [["n", "target_measure", "S_n"]
            + [f"f_n(x{j})" for j in range(len(starts))]
            + (["empirical_freq"] if mc else [])]
    for n in range(1, plan.horizon + 1):
        row = [n, plan.measures[n - 1], plan.s_partial[n - 1]]
        row += [stats.hit_probs[j, n - 1] for j in range(len(starts))]
        if mc:
            row.append(mc.hit_freq[n - 1])
        rows.append(row)
    report = {
        "S_N": tag(s_n, "measured"),
        "envelope": tag(env, "paper-formula"),
        "fraction_within_envelope": tag(within, "measured"),
        "starts": [int(s) for s in starts],
        "mean_identity_note": "E f_n = nu(target_n) holds exactly by stationarity",
    }
    if mc:
        report["mc"] = {"trials": trials,
                        "sigma_mean": tag(mc.sigma_mean, "measured")}
    return report, {"series": rows}


def _run_warped(config: ExperimentConfig) -> Tuple[dict, Dict[str, List[List]]]:
    spec = config.fixture
    ms = spec.get("levels", [8, 16, 32])
    if not isinstance(ms, list) or not ms:
        raise ConfigError("$.fixture.levels", "need a non-empty list of grid sizes")
    radius = float(config.params.get("radius", 3.0))
    rows = [["m", "t", "max_ball_measure", "coverage_ok"]]
    report: Dict[str, object] = {"levels": []}
    for m in ms:
        level = wc.build_warped_level(int(m))
        prof = wc.ball_measure_profile(level, radius)
        rows.append([level.m, level.t, prof.max_measure, prof.coverage_ok])
        report["levels"].append({
            "m": level.m,
            "t": level.t,
            "max_ball_measure": tag(prof.max_measure, "measured"),
            "coverage_ok": prof.coverage_ok,
        })
    measures = [row[2] for row in rows[1:]]
    monotone = all(a > b for a, b in zip(measures, measures[1:]))
    report["ball_measure_strictly_decreasing"] = monotone
    if not monotone:
        raise InvariantFailure("ball-measure-monotonicity",
                               "max ball measure failed to decrease across levels")
    return report, {"ball_profile": rows}


def _run_ghost(config: ExperimentConfig) -> Tuple[dict, Dict[str, List[List]]]:
    spec = config.fixture
    ms = spec.get("levels", [8, 16, 32])
    k_max = int(config.params.get("k_max", 20))
    levels = [wc.build_warped_level(int(m)) for m in ms]
    ghost_report = wc.ghost_defect(levels, k_max=k_max)
    if not ghost_report.bound_ok():
        raise InvariantFailure("ghost-defect-bound",
                               "defect exceeded sup(lambda)^k + 1e-9")
    loc = wc.ghost_locality(levels, R=float(config.params.get("radius", 3.0)),
                            n_centers=int(config.params.get("n_centers", 4)),
                            seed=config.seed)
    if not loc.ok:
        raise InvariantFailure("ghost-locality-bound",
                               "localized norm exceeded sqrt(slice measure)")
    rows = [["m", "t", "lambda"] + [f"defect_k{k}" for k in range(1, k_max + 1)]]
    for lv in ghost_report.levels:
        rows.append([lv.m, lv.t, lv.lam] + [float(d) for d in lv.defects])
    report = {
        "sup_lambda": tag(ghost_report.sup_lambda, "measured"),
        "gapped": ghost_report.gapped,
        "locality_max_norm_per_level": {
            str(m): tag(v, "measured") for m, v in loc.max_norm_per_level().items()
        },
    }
    return report, {"defects": rows}


# runners of the kinds that run on one fixture, built once per ``execute``
FIXTURE_RUNNERS = {
    "markov": _run_markov,
    "projection": _run_projection,
    "kazhdan": _run_kazhdan,
    "ergodic": _run_ergodic,
    "shrinking": _run_shrinking,
}
RUNNERS = {
    "expander": _run_expander,
    "warped": _run_warped,
    "ghost": _run_ghost,
}
KINDS = (*FIXTURE_RUNNERS, *RUNNERS)


# -- orchestration ------------------------------------------------------------------


def _write_csv(path: Path, rows: List[List]) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join("" if v is None else repr(v) if isinstance(v, float)
                              else str(v) for v in row))
            fh.write("\n")


def execute(config: ExperimentConfig, action: Optional[FiniteAction] = None
            ) -> Tuple[dict, Dict[str, List[List]]]:
    """Run one experiment in memory; returns its report and CSV series.

    Kinds in ``FIXTURE_RUNNERS`` run on ``action``, built from the config if
    not given.  Non-convergence is an ``InvariantFailure``, an oversized
    dense build a ``ConfigError``.
    """
    try:
        if config.kind not in FIXTURE_RUNNERS:
            return RUNNERS[config.kind](config)
        if action is None:
            action = build_fixture(config.fixture)
        return FIXTURE_RUNNERS[config.kind](config, action)
    except ArpackNoConvergence as exc:
        raise InvariantFailure("eigensolve-not-converged", str(exc)) from exc
    except DenseLimitError as exc:
        raise ConfigError("$.fixture", str(exc)) from exc


def run(config: ExperimentConfig, out_dir: Path) -> int:
    """Execute one experiment and write its outputs; returns the exit status."""
    out_dir.mkdir(parents=True, exist_ok=True)
    base = {"schema_version": SCHEMA_VERSION, "config": config.to_json_dict(),
            "kind": config.kind}
    try:
        action = None
        if config.kind in FIXTURE_RUNNERS:
            action = build_fixture(config.fixture)
            base["fixture_hash"] = action_fingerprint(action)
        report, series = execute(config, action)
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2
    except InvariantFailure as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        base.update(status="invariant-failure", failed_invariant=exc.name,
                    message=str(exc))
        series = {}
    else:
        base.update(status="ok", report=report)
    (out_dir / "report.json").write_text(
        json.dumps(_jsonify(base), sort_keys=True, indent=2), encoding="utf-8")
    for name, rows in series.items():
        _write_csv(out_dir / f"{name}.csv", rows)
    return 0 if base["status"] == "ok" else 1


def selftest(seed: int, out_dir: Optional[Path]) -> int:
    report = acceptance.run_all(seed=seed, verbose=True)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "selftest_report.json").write_text(report.serialize(),
                                                      encoding="utf-8")
    print(f"acceptance: {'ALL PASS' if report.all_passed else 'FAILURES'}")
    return 0 if report.all_passed else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="gaplab",
                                     description="spectral-gap experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", type=Path, help="path to a JSON config")
    run_p.add_argument("--out-dir", type=Path, default=Path("gaplab-out"))
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    self_p = sub.add_parser("selftest", help="run the acceptance suite")
    self_p.add_argument("--seed", type=int, default=0)
    self_p.add_argument("--out-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return selftest(args.seed, args.out_dir)
    try:
        config = ExperimentConfig.from_json_dict(
            json.loads(args.config.read_text(encoding="utf-8")))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error at $: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error at {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config.seed = args.seed
    return run(config, args.out_dir)


# last, as acceptance imports this module; loading gaplab.cli loads both
from . import acceptance  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
