"""Acceptance suite: runs every criterion at its stated tolerance.

The full report (criteria 1-11 plus the determinism double-run) is computed
once per session; each test asserts one criterion and prints its pass/fail
line.  Stated runtime budgets are asserted on the measured core runtimes.
"""

import pytest

from gaplab import acceptance, cli
from gaplab.acceptance import run_all


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
