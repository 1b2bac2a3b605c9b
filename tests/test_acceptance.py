"""Acceptance suite: runs every criterion at its stated tolerance.

The full report (criteria 1-11 plus the determinism double-run) is computed
once per session; each test asserts one criterion and prints its pass/fail
line.  Stated runtime budgets are asserted on the measured core runtimes.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaplab import acceptance, cli
from gaplab.acceptance import run_all
from gaplab.measures import DiscreteMeasure, lazy_uniform
from gaplab.rep_markov import Representation, _weighted_conjugate, markov_operator


@pytest.fixture(scope="module")
def report():
    return run_all(seed=0, verbose=False)


def _result(report, cid):
    for r in report.results:
        if r.cid == cid:
            return r
    raise AssertionError(f"criterion {cid} missing from report")


def _announce(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"\ncriterion {result.cid:2d} [{status}] {result.name}")


def test_criterion_1_certified_decay(report):
    r = _result(report, 1)
    _announce(r)
    assert r.passed, r.details
    for fixture, data in r.details.items():
        assert data["worst_excess"] <= 1e-9
    assert r.runtime < 10.0


def test_criterion_2_neumann_formula(report):
    r = _result(report, 2)
    _announce(r)
    assert r.passed, r.details
    for fixture, data in r.details.items():
        assert data["entrywise_gap"] <= 1e-10


def test_criterion_3_sandwich(report):
    r = _result(report, 3)
    _announce(r)
    assert r.passed, r.details
    assert r.details["Z/2 equality attained"]
    z4 = r.details["Z/4"]
    assert 1.0 - z4["kappa"] <= z4["lambda"] + 1e-6
    assert z4["lambda"] <= z4["upper_bound"] + 1e-6
    assert z4["sqrt2_lower"] <= z4["kappa"] + 1e-6


def test_criterion_4_admissibility(report):
    r = _result(report, 4)
    _announce(r)
    assert r.passed, r.details
    assert r.details["grid_oracle"]["gap"] <= 1e-6
    for name in ("Z/2", "Z/4", "SL2(Z/5)"):
        data = r.details[name]
        assert data["M_certificate"] <= data["q_size"] + 1 + 1e-12


def test_criterion_5_operator_identities(report):
    r = _result(report, 5)
    _announce(r)
    assert r.passed, r.details
    assert r.details["fixtures"] == 100
    assert r.details["worst_defect"] <= 1e-12


def test_criterion_6_expander_certification(report):
    r = _result(report, 6)
    _announce(r)
    assert r.passed, r.details
    assert r.details["sl2"]["uniform"] is True
    assert r.details["sl2"]["epsilon0"] > 0
    assert r.details["cycles"]["uniform"] is False
    assert abs(r.details["cycle_quadratic_ratio_32_64"] - 1.0) <= 0.1
    assert r.details["worst_relation_residual"] <= 1e-9
    assert r.runtime < 60.0


def test_criterion_7_quantitative_ergodic(report):
    r = _result(report, 7)
    _announce(r)
    assert r.passed, r.details
    for p in ("p=1.5", "p=2.0", "p=3.0"):
        data = r.details[p]
        assert data["slope"] <= data["log_lambda"] + 0.01
        assert data["constant_field_error"] <= 1e-12


def test_criterion_8_shrinking_targets(report):
    r = _result(report, 8)
    _announce(r)
    assert r.passed, r.details
    assert r.details["mean_identity_gap"] <= 1e-12
    assert r.details["word_oracle_gap_n<=6"] <= 1e-12
    assert r.details["moment"]["worst_slack"] > 0
    env = r.details["envelope"]
    assert env["S_N"] >= 100.0
    assert env["fraction_within"] >= 0.9
    assert r.runtime < 120.0


def test_criterion_9_conditioned_walks(report):
    r = _result(report, 9)
    _announce(r)
    assert r.passed, r.details
    drift = r.details["drift"]
    assert all(d > 0 for d in drift["estimates"])
    assert drift["relative_spread"] <= 0.05
    assert r.details["conditioned"]["fraction_within"] >= 0.9


def test_criterion_10_warped_cone(report):
    r = _result(report, 10)
    _announce(r)
    assert r.passed, r.details
    assert r.details["floyd_warshall_gap"] <= 1e-12
    assert r.details["generator_jump_cost_le_1"]
    assert r.details["propagation_m=8"] and r.details["propagation_m=16"]
    measures = r.details["ball_measures_R3"]
    assert all(a > b for a, b in zip(measures, measures[1:]))
    assert r.details["ghost"]["sup_lambda"] < 1.0
    assert r.details["ghost"]["bound_ok"]
    assert r.details["locality"]["single_point_tightness"] <= 1e-12
    assert r.runtime < 120.0


def test_criterion_11_round_trip_constants(report):
    r = _result(report, 11)
    _announce(r)
    assert r.passed, r.details
    assert r.details["kappa_from_decay"] <= r.details["kappa_oracle"] + 1e-6
    assert r.details["boost"]["m"] == 3
    assert r.details["boost"]["kappa"] == pytest.approx(26.0 / 27.0, abs=1e-12)
    assert r.details["boost_oracle_lower"] >= 0.962


def test_criterion_12_determinism(report):
    r = _result(report, 12)
    _announce(r)
    assert r.passed, r.details
    assert r.details["byte_identical"] is True


def test_all_criteria_present_and_passed(report):
    assert [r.cid for r in report.results] == list(range(1, 13))
    assert report.all_passed


def test_runner_invariant_failure_fails_only_its_criterion(monkeypatch):
    def broken(config, action):
        raise cli.InvariantFailure("neumann-projection-gap", "forced")

    monkeypatch.setitem(cli.FIXTURE_RUNNERS, "projection", broken)
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [c for c in acceptance.CRITERIA if c[0] in (2, 3, 4)])
    results = acceptance.run_core(0)
    assert [r.cid for r in results] == [2, 3, 4]
    assert not results[0].passed
    assert results[0].details == {"failed_invariant": "neumann-projection-gap"}
    assert results[1].passed and results[2].passed


def test_kazhdan_runner_failure_fails_criteria_3_4_and_11(monkeypatch):
    def broken(config, action):
        raise cli.InvariantFailure("decay-kappa-exceeds-oracle", "forced")

    monkeypatch.setitem(cli.FIXTURE_RUNNERS, "kazhdan", broken)
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [c for c in acceptance.CRITERIA if c[0] in (2, 3, 4, 11)])
    results = acceptance.run_core(0)
    assert [r.cid for r in results] == [2, 3, 4, 11]
    assert results[0].passed
    for r in results[1:]:
        assert not r.passed
        assert r.details == {"failed_invariant": "decay-kappa-exceeds-oracle"}


def test_ergodic_decay_bound_violation_fails_only_criterion_7(monkeypatch):
    # an exact restricted norm below the true one breaks e_k <= lambda^k |f|
    true_norm = cli.restricted_norm

    def halved(op, **kwargs):
        est = true_norm(op, **kwargs)
        if est.quality != "exact":
            return est
        return dataclasses.replace(est, value=est.value / 2)

    monkeypatch.setattr(cli, "restricted_norm", halved)
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [c for c in acceptance.CRITERIA if c[0] in (7, 8)])
    results = acceptance.run_core(0)
    assert [r.cid for r in results] == [7, 8]
    assert results[0].details == {"failed_invariant": "ergodic-decay-bound"}
    assert not results[0].passed and results[1].passed


def _decay_by_dense_powers(action, k_max):
    """|A^k - P| for k = 1..k_max from dense powers, the largest 2-norm of the
    orbit blocks of each power's weighted conjugate (the route ``_decay_rate``
    replaced); also the largest entry between orbits over all powers."""
    rep = Representation(action)
    op = markov_operator(rep, lazy_uniform(action))
    a, p = op.dense(), op.decomposition.mean_matrix()
    orbit_of = action.orbit_index()
    between = orbit_of[:, None] != orbit_of[None, :]
    power = np.eye(action.n_points)
    defects, leak = [], 0.0
    for _ in range(k_max):
        power = power @ a
        t = _weighted_conjugate(rep, power - p)
        defects.append(max(float(np.linalg.norm(t[np.ix_(orb, orb)], 2))
                           for orb in action.orbits()))
        leak = max(leak, float(np.max(np.abs(t[between]), initial=0.0)))
    return np.array(defects), leak


@pytest.mark.parametrize("name", ["SL2(Z/5) regular", "(Z/16)^2 torus"])
def test_decay_rate_matches_dense_powers(name):
    action = cli.build_fixture(dict(acceptance.GAPPED_FIXTURES)[name])
    rho = acceptance._decay_rate(action)
    assert 0.0 < rho < 1.0
    defects, leak = _decay_by_dense_powers(action, 50)
    assert leak == 0.0
    assert np.max(np.abs(defects - rho ** np.arange(1, 51))) <= 1e-13


def _only_criterion_1(monkeypatch):
    monkeypatch.setattr(acceptance, "CRITERIA", [c for c in acceptance.CRITERIA if c[0] == 1])
    [result] = acceptance.run_core(0)
    return result


def test_criterion_1_fails_on_a_lambda_below_the_decay_rate(monkeypatch):
    true_execute = cli.execute

    def lowered(config, action=None):
        report, series = true_execute(config, action)
        if config.kind == "markov":
            report["lambda"]["value"] -= 1e-6
        return report, series

    monkeypatch.setattr(cli, "execute", lowered)
    result = _only_criterion_1(monkeypatch)
    assert not result.passed
    for data in result.details.values():
        assert data["worst_excess"] >= 1e-6 - 1e-12


def test_criterion_1_fails_on_an_operator_that_is_not_self_adjoint(monkeypatch):
    # mu on {e, s} for the first generator s: A is not self-adjoint once s^-1 != s
    def one_sided(action):
        s = action.generator_element(action.gens.labels[0])
        return DiscreteMeasure({action.identity_element(): 0.5, s: 0.5})

    monkeypatch.setattr(acceptance, "lazy_uniform", one_sided)
    result = _only_criterion_1(monkeypatch)
    assert not result.passed
    assert result.details == {"failed_invariant": "decay-operator-self-adjoint"}


CORE_REPORT = ("import sys; from gaplab import acceptance; "
               "sys.stdout.write(acceptance.AcceptanceReport("
               "results=acceptance.run_core(0), seed=0).serialize())")


def test_core_report_identical_across_processes_and_blas_threads():
    # each pass in a fresh process with its own BLAS thread count
    src = Path(__file__).resolve().parents[1] / "src"
    blobs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        blobs.append(subprocess.run([sys.executable, "-c", CORE_REPORT], env=env, check=True,
                                    stdout=subprocess.PIPE, timeout=300).stdout)
    assert blobs[0] == blobs[1]
    assert b'"all_passed": true' in blobs[0]
