"""The acceptance suite: every certified claim as one pass/fail criterion.

Criteria 1, 2, 6, 7 and 10 run the ``gaplab run`` pipeline of their kind
(``cli.execute``; 6 calls ``cli.certify_family`` for the relation residuals)
and check its report: markov, projection, expander, ergodic, warped and
ghost.  They keep independent oracles: dense matrix powers (1) and
Floyd-Warshall, generator jumps, propagation and R = 0 locality (10).  The
other criteria call the layers directly.  A runner's ``InvariantFailure``
fails its own criterion only.  ``run_all`` runs the core twice and adds the
determinism criterion by byte-comparing the two serialized reports.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import cli
from . import ergodic_walk as ew
from . import warped_cone as wc
from .group_core import (
    FiniteAction,
    GeneratorSystem,
    build_cyclic,
    build_sl2_quotient,
    orbit_restriction,
    word_ball,
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
    lazy_uniform,
    uniform_extended,
    uniform_on,
)
from .rep_markov import (
    Representation,
    markov_operator,
    operator_identities_check,
    restricted_norm,
    _weighted_conjugate,
)

__all__ = ["CriterionResult", "AcceptanceReport", "run_all", "CRITERIA"]

MU_LABELS = {"e": 0.2, "e12": 0.2, "e12^-1": 0.2, "e21": 0.2, "e21^-1": 0.2}


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: Dict[str, object] = field(default_factory=dict)
    runtime: float = 0.0  # excluded from serialized reports

    def to_json_dict(self) -> dict:
        return {"id": self.cid, "name": self.name, "passed": bool(self.passed),
                "details": cli._jsonify(self.details)}


@dataclass
class AcceptanceReport:
    results: List[CriterionResult]
    seed: int

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "seed": self.seed,
            "all_passed": self.all_passed,
            "criteria": [r.to_json_dict() for r in self.results],
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


# -- shared fixtures -----------------------------------------------------------


# the lazy uniform measure (the configs' default) on each
GAPPED_FIXTURES = [
    ("Z/2", {"builder": "cyclic", "n": 2}),
    ("Z/4", {"builder": "cyclic", "n": 4}),
    ("SL2(Z/5) regular", {"builder": "sl2", "m": 5, "variant": "a"}),
    ("(Z/16)^2 torus", {"builder": "sl2", "m": 16, "variant": "b"}),
]


# -- criteria -------------------------------------------------------------------


def criterion_1(seed: int) -> CriterionResult:
    """Certified decay: |A^k - P| <= lambda^k + 1e-9 for k <= 50.

    The markov run checks its defect curve against lambda^k; dense matrix
    powers check the run's lambda independently.
    """
    details: Dict[str, object] = {}
    passed = True
    for name, spec in GAPPED_FIXTURES:
        config = cli.ExperimentConfig("markov", spec, params={"k_max": 50}, seed=seed)
        action = cli.build_fixture(spec)
        lam = cli.execute(config, action)[0]["lambda"]["value"]
        rep = Representation(action)
        op = markov_operator(rep, lazy_uniform(action))
        a = op.dense()
        p = op.decomposition.mean_matrix()
        power = np.eye(action.n_points)
        worst = -math.inf
        for k in range(1, 51):
            power = power @ a
            defect = float(np.linalg.norm(_weighted_conjugate(rep, power - p), 2))
            worst = max(worst, defect - lam**k)
        details[name] = {"lambda": lam, "worst_excess": worst}
        passed = passed and worst <= 1e-9
    return CriterionResult(1, "certified decay", passed, details)


def criterion_2(seed: int) -> CriterionResult:
    """Neumann series projection matches the mean projector entrywise."""
    details: Dict[str, object] = {}
    passed = True
    for name, spec in GAPPED_FIXTURES:
        report, _series = cli.execute(cli.ExperimentConfig("projection", spec, seed=seed))
        gap = report["neumann_vs_mean_gap"]["value"]
        details[name] = {"entrywise_gap": gap}
        passed = passed and gap <= 1e-10
    return CriterionResult(2, "Neumann projection formula", passed, details)


def criterion_3(seed: int) -> CriterionResult:
    """Sandwich inequalities on the Fourier-exact fixtures."""
    z2 = build_cyclic(2)
    z4 = build_cyclic(4)
    cases = [
        ("Z/2", z2, [z2.generator_element("g")], 2.0),
        ("Z/4", z4, [z4.generator_element("g"), z4.generator_element("g^-1")], 3.0),
    ]
    tol = 1e-6
    details: Dict[str, object] = {}
    passed = True
    for name, action, q, m_factor in cases:
        rep = Representation(action)
        mu, cert = uniform_extended(q, action.identity_element())
        lam = restricted_norm(markov_operator(rep, mu), seed=seed).value
        kappa = kazhdan_constant_oracle(rep, q, seed=seed, n_starts=16).best
        upper = norm_bound_from_kappa(cert.M, 2.0, min(kappa, 2.0))
        improved = hilbert_improvement(lam)
        ok = (
            1.0 - kappa <= lam + tol
            and lam <= upper + tol
            and improved <= kappa + tol
        )
        details[name] = {"kappa": kappa, "lambda": lam, "upper_bound": upper,
                         "sqrt2_lower": improved, "M": cert.M}
        passed = passed and ok
    # the Z/2 instance attains the upper bound with equality: both vanish
    z2d = details["Z/2"]
    attained = abs(z2d["lambda"]) <= tol and abs(z2d["upper_bound"]) <= tol
    details["Z/2 equality attained"] = attained
    passed = passed and attained
    return CriterionResult(3, "sandwich inequality", passed, details)


def _grid_oracle_m(rho: DiscreteMeasure, q_set, steps=60, rounds=5) -> float:
    support = rho.support
    index = {el: i for i, el in enumerate(support)}
    w = np.array([rho.atoms[el] for el in support])
    trans = []
    for el in support:
        js = []
        for s in q_set:
            for j, other in enumerate(support):
                if s.compose(other) == el:
                    js.append(j)
        trans.append(js)
    escapes = [j for j, el in enumerate(support)
               if any(s.compose(el) not in index for s in q_set)]

    def min_m(alpha):
        if any(alpha[j] > 1e-15 for j in escapes):
            return np.inf
        m = 0.0
        for i in range(len(support)):
            need = alpha[i] + max((alpha[j] for j in trans[i]), default=0.0)
            m = max(m, need / w[i])
        return m

    center = np.full(3, 1.0 / 3)
    width = 1.0
    best = np.inf
    for _ in range(rounds):
        a0 = np.linspace(max(0.0, center[0] - width), min(1.0, center[0] + width), steps)
        a1 = np.linspace(max(0.0, center[1] - width), min(1.0, center[1] + width), steps)
        for x in a0:
            for y in a1:
                z = 1.0 - x - y
                if z < -1e-12:
                    continue
                alpha = np.array([x, y, max(z, 0.0)])
                m = min_m(alpha)
                if m < best:
                    best = m
                    center = alpha
        width /= steps / 4.0
    return best


def criterion_4(seed: int) -> CriterionResult:
    """Admissibility: canonical certificates and the LP against grid search."""
    details: Dict[str, object] = {}
    passed = True
    z2 = build_cyclic(2)
    z4 = build_cyclic(4)
    sl2 = build_sl2_quotient(5, variant="a")
    cases = [
        ("Z/2", z2, [z2.generator_element("g")]),
        ("Z/4", z4, [z4.generator_element("g"), z4.generator_element("g^-1")]),
        ("SL2(Z/5)", sl2, [sl2.generator_element(lab) for lab in sl2.gens.labels]),
    ]
    for name, action, q in cases:
        mu, cert = uniform_extended(q, action.identity_element())
        opt = certify_admissible(mu, q)
        ok = cert.M <= len(q) + 1 + 1e-12 and opt.M <= cert.M + 1e-9
        details[name] = {"M_certificate": cert.M, "M_lp": opt.M, "q_size": len(q)}
        passed = passed and ok
    # grid-search oracle on the 3-point support
    q4 = [z4.generator_element("g"), z4.generator_element("g^-1")]
    mu3 = uniform_on([z4.identity_element()] + q4)
    lp = certify_admissible(mu3, q4).M
    oracle = _grid_oracle_m(mu3, q4)
    details["grid_oracle"] = {"lp": lp, "grid": oracle, "gap": abs(lp - oracle)}
    passed = passed and abs(lp - oracle) <= 1e-6
    return CriterionResult(4, "admissibility certification", passed, details)


def _random_action(rng: np.random.Generator, n=8, n_gens=3) -> FiniteAction:
    labels: List[str] = []
    inverses: Dict[str, str] = {}
    perms: Dict[str, np.ndarray] = {}
    for i in range(n_gens):
        lab, inv = f"s{i}", f"s{i}^-1"
        perm = rng.permutation(n)
        labels += [lab, inv]
        inverses[lab] = inv
        inverses[inv] = lab
        perms[lab] = perm
        q = np.empty(n, dtype=np.int64)
        q[perm] = np.arange(n)
        perms[inv] = q
    gens = GeneratorSystem(labels=tuple(labels), inverses=inverses)
    return FiniteAction(list(range(n)), np.full(n, 1.0 / n), gens, perms)


def criterion_5(seed: int) -> CriterionResult:
    """Operator identities on 100 seeded random fixtures."""
    rng = np.random.default_rng(seed + 17)
    worst = 0.0
    for _ in range(100):
        action = _random_action(rng)
        rep = Representation(action)
        ball = word_ball(action, 2)
        idx = rng.choice(len(ball), size=3, replace=False)
        w = rng.random(3) + 0.1
        w /= w.sum()
        mu = DiscreteMeasure({ball[i]: float(x) for i, x in zip(idx, w)})
        idx2 = rng.choice(len(ball), size=2, replace=False)
        w2 = rng.random(2) + 0.1
        w2 /= w2.sum()
        nu = DiscreteMeasure({ball[i]: float(x) for i, x in zip(idx2, w2)})
        report = operator_identities_check(rep, mu, nu)
        worst = max(worst, report.convolution_defect, report.translation_defect,
                    report.identity_on_invariants_defect,
                    report.complement_invariance_defect)
    return CriterionResult(5, "operator identities", worst <= 1e-12,
                           {"fixtures": 100, "worst_defect": worst})


def criterion_6(seed: int) -> CriterionResult:
    """Expander certification: SL2 family uniform, cycle family rejected."""
    details: Dict[str, object] = {}
    sl2_report = cli.certify_family(cli.ExperimentConfig(
        "expander", {"family": "sl2", "moduli": [3, 5, 7, 11, 13]}, seed=seed))
    details["sl2"] = sl2_report.to_json_dict()
    ok = sl2_report.uniform and sl2_report.epsilon0 > 0
    cyc_report = cli.certify_family(cli.ExperimentConfig(
        "expander", {"family": "cycles", "sizes": [4, 8, 16, 32, 64]}, seed=seed))
    details["cycles"] = cyc_report.to_json_dict()
    ok = ok and not cyc_report.uniform
    by_n = {r.n_vertices: r.kappa_p for r in cyc_report.rows}
    ratio = (by_n[32] / 32**2) / (by_n[64] / 64**2)
    details["cycle_quadratic_ratio_32_64"] = ratio
    ok = ok and abs(ratio - 1.0) <= 0.1
    worst_rel = max(
        r.relation_residual
        for rep in (sl2_report, cyc_report)
        for r in rep.rows
    )
    details["worst_relation_residual"] = worst_rel
    ok = ok and worst_rel <= 1e-9
    return CriterionResult(6, "expander certification", ok, details)


def criterion_7(seed: int) -> CriterionResult:
    """Quantitative ergodic decay on the 16-torus for p in {1.5, 2, 3}."""
    report, _series = cli.execute(cli.ExperimentConfig(
        "ergodic", {"builder": "sl2", "m": 16, "variant": "b"},
        params={"k_max": 30, "exponents": [1.5, 2.0, 3.0]}, seed=seed))
    details: Dict[str, object] = {}
    passed = True
    for key, row in report.items():
        lam, slope = row["lambda"]["value"], row["slope"]["value"]
        zero = row["constant_field_error"]["value"]
        details[key] = {"lambda": lam, "quality": row["quality"], "slope": slope,
                        "log_lambda": math.log(lam), "constant_field_error": zero}
        passed = (passed and slope is not None and slope <= math.log(lam) + 0.01
                  and zero <= 1e-12)
    return CriterionResult(7, "quantitative ergodic theorem", passed, details)


def _alternating_plan(action: FiniteAction, horizon: int) -> ew.ShrinkingTargetPlan:
    idx = {p: i for i, p in enumerate(action.points)}
    t1 = [idx[(0, 0)], idx[(1, 0)], idx[(0, 1)], idx[(1, 1)]]
    t2 = [idx[(4, 4)], idx[(5, 4)], idx[(4, 5)], idx[(5, 5)]]
    return ew.plan_from_sets(action, [t1 if n % 2 else t2 for n in range(horizon)])


def criterion_8(seed: int) -> CriterionResult:
    """Shrinking targets: mean identity, word oracle, moments, envelope."""
    details: Dict[str, object] = {}
    passed = True
    # (Z/8)^2 fixture with two alternating 4-point targets
    action = build_sl2_quotient(8, variant="b")
    mu = lazy_uniform(action)
    plan = _alternating_plan(action, 20)
    fields = ew.hit_fields_exact(action, mu, plan)
    mean_gap = max(
        abs(float(np.sum(action.weights * f)) - plan.measures[n])
        for n, f in enumerate(fields)
    )
    details["mean_identity_gap"] = mean_gap
    passed = passed and mean_gap <= 1e-12

    start = action.points.index((1, 0))
    oracle_gap = 0.0
    atoms = [(el.inverse().perm_array(), w) for el, w in mu.items()]
    for n in range(1, 7):
        total = 0.0
        member = plan.membership(n)
        for word in itertools.product(range(len(atoms)), repeat=n):
            pos = start
            weight = 1.0
            for a in word:
                inv, w = atoms[a]
                pos = int(inv[pos])
                weight *= w
            if member[pos]:
                total += weight
        oracle_gap = max(oracle_gap, abs(total - fields[n - 1][start]))
    details["word_oracle_gap_n<=6"] = oracle_gap
    passed = passed and oracle_gap <= 1e-12

    lam8 = restricted_norm(markov_operator(Representation(action), mu), seed=seed).value
    moments = ew.moment_inequality_check(action, mu, plan, p=2.0, lam=lam8)
    details["moment"] = {"lambda": lam8, "c_p": moments.c_p,
                         "windows": len(moments.rows),
                         "worst_slack": moments.worst_slack()}
    passed = passed and moments.all_ok

    # divergent-case envelope on the primitive orbit of the 64-torus
    big = build_sl2_quotient(64, variant="b")
    sub = orbit_restriction(big, big.points.index((1, 0)))
    mu64 = lazy_uniform(sub)
    center = sub.points.index((1, 0))
    horizon = 1000
    radii = [0.45 * n ** (-0.125) for n in range(1, horizon + 1)]
    plan64 = ew.plan_from_radii(sub, center, radii)
    s_n = plan64.s_n()
    sigma = ew.sigma_field_exact(sub, mu64, plan64)
    rng = np.random.default_rng(seed + 2026)
    sample = rng.choice(sub.n_points, size=100, replace=False)
    env = s_n**0.6
    within = float(np.mean(np.abs(sigma[sample] - s_n) <= env))
    details["envelope"] = {"S_N": s_n, "envelope": env, "fraction_within": within,
                           "horizon": horizon}
    passed = passed and s_n >= 100.0 and within >= 0.9
    return CriterionResult(8, "shrinking targets", passed, details)


def criterion_9(seed: int) -> CriterionResult:
    """Conditioned walks: reproducible positive drift, envelope preserved."""
    details: Dict[str, object] = {}
    table64 = ew.Sl2GroupTable(64)
    drifts = [
        ew.estimate_drift_mc(table64, MU_LABELS, n_steps=48, trials=2000,
                             seed=seed + s).two_a
        for s in range(3)
    ]
    mean_drift = sum(drifts) / 3.0
    spread = max(abs(d - mean_drift) for d in drifts) / mean_drift
    details["drift"] = {"estimates": drifts, "relative_spread": spread}
    passed = all(d > 0 for d in drifts) and spread <= 0.05

    m = 32
    torus = build_sl2_quotient(m, variant="b")
    sub = orbit_restriction(torus, torus.points.index((1, 0)))
    table = ew.Sl2GroupTable(m)
    horizon = 300
    center = sub.points.index((1, 0))
    plan = ew.plan_from_radii(sub, center,
                              [0.45 * n ** (-0.125) for n in range(1, horizon + 1)])
    rng = np.random.default_rng(seed + 7)
    starts = rng.choice(sub.n_points, size=40, replace=False)
    cs = ew.conditioned_series(sub, MU_LABELS, plan, 0.2, table, starts, seed=seed)
    s_n = plan.s_n()
    env = s_n**0.6
    within = float(np.mean(np.abs(cs.sigma - s_n) <= env))
    details["conditioned"] = {
        "a": cs.a, "S_N": s_n, "envelope": env, "fraction_within": within,
        "min_tail_mass": float(cs.tail_mass.min()),
    }
    passed = passed and within >= 0.9
    passed = passed and bool(np.all(cs.hit_probs <= cs.unconditioned + 1e-15))
    return CriterionResult(9, "conditioned walks", passed, details)


def criterion_10(seed: int) -> CriterionResult:
    """Warped cones: metric, propagation, ball decay, ghost defect, locality."""
    details: Dict[str, object] = {}
    passed = True
    # Floyd-Warshall oracle on the m = 4 level
    level4 = wc.build_warped_level(4, t=8.0)
    fw = _floyd_warshall(level4)
    gap = float(np.max(np.abs(level4.all_distances() - fw)))
    details["floyd_warshall_gap"] = gap
    passed = passed and gap <= 1e-12

    levels = wc.build_cone((8, 16, 32))
    jump_ok = True
    for level in levels[:2]:
        dists = level.all_distances()
        for lab in level.action.gens.labels:
            tgt = level.action.perms[lab]
            if np.any(dists[np.arange(level.n_points), tgt] > 1.0 + 1e-12):
                jump_ok = False
        ok_prop = all(
            wc.propagation_exhaustive(level, el)
            for el in word_ball(level.action, 4)
        )
        details[f"propagation_m={level.m}"] = ok_prop
        passed = passed and ok_prop
    details["generator_jump_cost_le_1"] = jump_ok
    passed = passed and jump_ok

    warped, _series = cli.execute(cli.ExperimentConfig(
        "warped", {"levels": [8, 16, 32, 64]}, params={"radius": 3.0}, seed=seed))
    measures = [lv["max_ball_measure"]["value"] for lv in warped["levels"]]
    details["ball_measures_R3"] = measures
    decreasing = all(a > b for a, b in zip(measures, measures[1:]))
    coverage = all(lv["coverage_ok"] for lv in warped["levels"])
    passed = passed and decreasing and coverage

    # the run raises on a defect above sup(lambda)^k + 1e-9 or a localized
    # norm above sqrt(ball measure) at R = 3
    ghost, series = cli.execute(cli.ExperimentConfig(
        "ghost", {"levels": [lv.m for lv in levels]},
        params={"k_max": 30, "radius": 3.0, "n_centers": 4}, seed=seed))
    sup_lambda = ghost["sup_lambda"]["value"]
    bound_ok = all(d <= sup_lambda**k + 1e-9  # rows: m, t, lambda, defects k >= 1
                   for row in series["defects"][1:]
                   for k, d in enumerate(row[3:], start=1))
    details["ghost"] = {"sup_lambda": sup_lambda, "gapped": ghost["gapped"],
                        "bound_ok": bound_ok}
    passed = passed and ghost["gapped"] and bound_ok

    loc0 = wc.ghost_locality(levels, R=0.0, n_centers=4, seed=seed)
    tight = max(abs(r.max_norm - math.sqrt(r.ball_measure)) for r in loc0.rows)
    details["locality"] = {"single_point_tightness": tight}
    passed = passed and tight <= 1e-12
    return CriterionResult(10, "warped cone", passed, details)


def _floyd_warshall(level: wc.WarpedLevel) -> np.ndarray:
    n = level.n_points
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    g = level.graph.tocoo()
    for i, j, w in zip(g.row, g.col, g.data):
        dist[i, j] = min(dist[i, j], w)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k][:, None] + dist[k, :][None, :])
    return dist


def criterion_11(seed: int) -> CriterionResult:
    """Round-trip constants on the Z/4 fixture."""
    action = build_cyclic(4)
    rep = Representation(action)
    q = [action.generator_element("g"), action.generator_element("g^-1")]
    mu = uniform_on([action.identity_element()] + q)
    lam = restricted_norm(markov_operator(rep, mu), seed=seed).value
    conv = kappa_from_decay(lam)
    oracle = kazhdan_constant_oracle(rep, q, seed=seed, n_starts=16)
    details: Dict[str, object] = {
        "lambda": lam,
        "kappa_from_decay": conv.kappa,
        "kappa_oracle": oracle.best,
    }
    passed = abs(conv.kappa - (1.0 - lam)) <= 1e-12
    passed = passed and conv.kappa <= oracle.best + 1e-6
    boost = boost_pair(q, 1.0 / 3.0, 0.1)
    details["boost"] = {"m": boost.m, "kappa": boost.kappa,
                        "set_size": len(boost.kazhdan_set)}
    passed = passed and boost.m == 3 and abs(boost.kappa - 26.0 / 27.0) <= 1e-12
    re_measure = kazhdan_constant_oracle(rep, boost.kazhdan_set, seed=seed,
                                         n_starts=16)
    confirmed = max(re_measure.lower_bound or 0.0, 0.0)
    details["boost_oracle_lower"] = confirmed
    details["boost_oracle_best"] = re_measure.best
    passed = passed and confirmed >= 0.962
    return CriterionResult(11, "round-trip constants", passed, details)


CRITERIA: List[Tuple[int, str, Callable[[int], CriterionResult]]] = [
    (1, "certified decay", criterion_1),
    (2, "Neumann projection formula", criterion_2),
    (3, "sandwich inequality", criterion_3),
    (4, "admissibility certification", criterion_4),
    (5, "operator identities", criterion_5),
    (6, "expander certification", criterion_6),
    (7, "quantitative ergodic theorem", criterion_7),
    (8, "shrinking targets", criterion_8),
    (9, "conditioned walks", criterion_9),
    (10, "warped cone", criterion_10),
    (11, "round-trip constants", criterion_11),
]


def run_core(seed: int, verbose: bool = False) -> List[CriterionResult]:
    results = []
    for cid, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            result = fn(seed)
        except cli.InvariantFailure as exc:  # fails this criterion, not the pass
            result = CriterionResult(cid, name, False, {"failed_invariant": exc.name})
        result.runtime = time.perf_counter() - t0
        results.append(result)
        if verbose:
            status = "PASS" if result.passed else "FAIL"
            print(f"criterion {cid:2d} [{status}] {name} ({result.runtime:.1f}s)")
    return results


def run_all(seed: int = 0, verbose: bool = False) -> AcceptanceReport:
    """Core criteria plus determinism: the core suite runs twice and the two
    serialized reports must agree byte for byte."""
    first = run_core(seed, verbose=verbose)
    second = run_core(seed, verbose=False)
    blob_a = AcceptanceReport(results=first, seed=seed).serialize()
    blob_b = AcceptanceReport(results=second, seed=seed).serialize()
    identical = blob_a == blob_b
    det = CriterionResult(12, "determinism", identical,
                          {"byte_identical": identical,
                           "report_bytes": len(blob_a)})
    if verbose:
        status = "PASS" if det.passed else "FAIL"
        print(f"criterion 12 [{status}] determinism")
    return AcceptanceReport(results=first + [det], seed=seed)
