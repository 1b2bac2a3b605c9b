import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gaplab import cli
from gaplab.cli import (
    ConfigError,
    ExperimentConfig,
    build_fixture,
    build_measure,
    main,
    run,
    tag,
)


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_config_roundtrip():
    config = ExperimentConfig(
        kind="markov",
        fixture={"builder": "cyclic", "n": 4},
        measure={"kind": "lazy_uniform"},
        params={"k_max": 10},
        seed=3,
    )
    doc = config.to_json_dict()
    again = ExperimentConfig.from_json_dict(doc)
    assert again.to_json_dict() == doc


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict({"kind": "nope", "fixture": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_dict(
            {"kind": "markov", "fixture": {}, "seed": -1}
        )


def test_fixture_builders():
    act = build_fixture({"builder": "cyclic", "n": 6})
    assert act.n_points == 6
    orb = build_fixture({"builder": "sl2", "m": 4, "variant": "b",
                         "orbit_of": [1, 0]})
    with pytest.raises(ValueError):
        orb.point_index((0, 0))
    with pytest.raises(ConfigError):
        build_fixture({"builder": "unknown"})
    with pytest.raises(ConfigError):
        build_fixture({"builder": "cyclic", "n": 0})


def test_measure_builders():
    act = build_fixture({"builder": "cyclic", "n": 4})
    lazy = build_measure(act, {"kind": "lazy_uniform"})
    assert len(lazy) == 3  # e, g, g^-1 (distinct realizations)
    with pytest.raises(ConfigError):
        build_measure(act, {"kind": "bogus"})


def test_tag_provenance():
    assert tag(1.0, "measured")["provenance"] == "measured"
    with pytest.raises(ValueError):
        tag(1.0, "guessed")


def test_run_markov_z4_lambda_in_report(tmp_path):
    config = ExperimentConfig(
        kind="markov",
        fixture={"builder": "cyclic", "n": 4},
        measure={"kind": "lazy_uniform"},
        params={"k_max": 8},
    )
    code = run(config, tmp_path)
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "ok"
    assert report["report"]["lambda"]["value"] == pytest.approx(1 / 3, abs=1e-10)
    assert report["report"]["lambda"]["provenance"] == "measured"
    csv = (tmp_path / "defect_curve.csv").read_text().splitlines()
    assert csv[0] == "k,defect,lambda_pow_k"
    assert len(csv) == 10  # header + k = 0..8


def test_run_markov_projection_walk_passes_decay_bound(tmp_path):
    # on Z/3 the lazy walk is the projection: lambda = 0 and every defect is
    # rounding noise, which must stay under the 1e-9 slack of the decay check
    config = ExperimentConfig(
        kind="markov",
        fixture={"builder": "cyclic", "n": 3},
        measure={"kind": "lazy_uniform"},
        params={"k_max": 20},
    )
    assert run(config, tmp_path) == 0


def test_run_markov_operator_export(tmp_path):
    config = ExperimentConfig(
        kind="markov",
        fixture={"builder": "cyclic", "n": 4},
        params={"k_max": 2, "export_operator": True},
    )
    assert run(config, tmp_path) == 0
    coo = (tmp_path / "operator_coo.csv").read_text().splitlines()
    assert coo[0] == "row,col,weight"
    assert len(coo) == 1 + 12  # three nonzero stencil entries per row


def test_run_expander_cycles_not_uniform(tmp_path):
    config = ExperimentConfig(
        kind="expander",
        fixture={"family": "cycles", "sizes": [4, 8, 16]},
    )
    assert run(config, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["verdict"] == "not uniform"


def test_run_expander_sl2_uniform(tmp_path):
    config = ExperimentConfig(
        kind="expander",
        fixture={"family": "sl2", "moduli": [3, 5]},
    )
    assert run(config, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["verdict"] == "uniform gap"


def test_cli_empty_config_is_schema_error(tmp_path):
    path = _write_config(tmp_path, {})
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2


def test_cli_malformed_json_is_schema_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", str(path)]) == 2


MARKOV_Z4 = {"kind": "markov", "fixture": {"builder": "cyclic", "n": 4}}


@pytest.mark.parametrize("doc, override", [
    (MARKOV_Z4, ["--seed", "-1"]),
    ({"kind": "ergodic", "fixture": {"builder": "sl2", "m": 8, "variant": "b"}},
     ["--seed", "-1"]),
    ({**MARKOV_Z4, "seed": True}, []),
])
def test_run_refuses_bad_seeds(tmp_path, capsys, doc, override):
    out = tmp_path / "out"
    assert main(["run", str(_write_config(tmp_path, doc)), "--out-dir", str(out),
                 *override]) == 2
    err = capsys.readouterr().err
    assert err == "config error at $.seed: must be a nonnegative integer\n"
    assert not (out / "report.json").exists()


def test_run_seed_override_lands_in_the_report(tmp_path):
    out = tmp_path / "out"
    path = _write_config(tmp_path, {**MARKOV_Z4, "seed": True})
    assert main(["run", str(path), "--out-dir", str(out), "--seed", "5"]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["seed"] == 5


def test_selftest_refuses_a_negative_seed(capsys):
    assert main(["selftest", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "config error at --seed: must be a nonnegative integer\n"


@pytest.mark.parametrize("doc", [
    MARKOV_Z4,
    {"kind": "ergodic", "fixture": {"builder": "sl2", "m": 8, "variant": "b"}},
])
@pytest.mark.parametrize("seed", [-1, True])
def test_configs_built_in_python_get_the_seed_check(tmp_path, capsys, doc, seed):
    config = ExperimentConfig(kind=doc["kind"], fixture=doc["fixture"], seed=seed)
    with pytest.raises(ConfigError, match=r"^\$\.seed: must be a nonnegative integer$"):
        cli.execute(config)
    out = tmp_path / "out"
    assert run(config, out) == 2
    assert capsys.readouterr().err == "config error at $.seed: must be a nonnegative integer\n"
    assert not (out / "report.json").exists()


def test_cli_corrupted_fixture_fails_invariant(tmp_path):
    # mutate one permutation so it no longer preserves the weights
    doc = {
        "kind": "markov",
        "fixture": {
            "builder": "explicit",
            "points": [0, 1, 2],
            "weights": [0.5, 0.25, 0.25],
            "generators": {"s": [1, 0, 2], "s^-1": [1, 0, 2]},
            "inverses": {"s": "s^-1", "s^-1": "s"},
        },
        "measure": {"kind": "lazy_uniform"},
    }
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "invariant-failure"
    assert report["failed_invariant"] == "fixture-invariant"
    assert "preserve" in report["message"]


# a fixture of every builder and route a config can take, among them non-uniform
# weights with an involutive label, and two labels that act by one permutation
SELF_ADJOINT_FIXTURES = {
    "cyclic": {"builder": "cyclic", "n": 5},
    "sl2-a": {"builder": "sl2", "m": 5, "variant": "a"},
    "sl2-b": {"builder": "sl2", "m": 4, "variant": "b"},
    "orbit-of": {"builder": "sl2", "m": 6, "variant": "b", "orbit_of": [1, 0]},
    "weighted-involution": {"builder": "explicit", "points": [0, 1, 2, 3, 4, 5],
                            "weights": [0.1, 0.1, 0.1, 0.2, 0.2, 0.3],
                            "inverses": {"s": "s", "t": "u", "u": "t"},
                            "generators": {"s": [1, 0, 2, 4, 3, 5], "t": [1, 2, 0, 3, 4, 5],
                                           "u": [2, 0, 1, 3, 4, 5]}},
    "shared-permutation": {"builder": "explicit", "points": [0, 1, 2, 3],
                           "weights": [0.25] * 4,
                           "inverses": {"a": "A", "A": "a", "b": "B", "B": "b"},
                           "generators": {"a": [1, 2, 3, 0], "A": [3, 0, 1, 2],
                                          "b": [1, 2, 3, 0], "B": [3, 0, 1, 2]}},
}


@pytest.mark.parametrize("fixture", SELF_ADJOINT_FIXTURES.values(), ids=SELF_ADJOINT_FIXTURES)
def test_no_config_builds_an_operator_that_is_not_self_adjoint(fixture):
    # defect_curve refuses such an operator at p = 2, so no run kind may reach one
    from gaplab.measures import uniform_extended
    from gaplab.rep_markov import MarkovOperator, Representation

    action = build_fixture(fixture)
    q = [action.generator_element(lab) for lab in action.gens.labels]
    assert not any(el.is_identity() for el in q)
    measures = [build_measure(action, {"kind": kind})
                for kind in ("lazy_uniform", "uniform_gens", "dirac_e")]
    measures.append(uniform_extended(q, action.identity_element())[0])  # the kazhdan kind's
    for mu in measures:
        assert MarkovOperator(Representation(action), mu).self_adjoint


@pytest.mark.parametrize("points", [["a", "b", "c"], [[0, 1], [2], [3, 4]], [0, True, 2],
                                    [0.5, 1, 2], [2**63, 1, 2]],
                         ids=["strings", "ragged", "bool", "float", "beyond-int64"])
def test_explicit_points_must_be_integers_or_equal_length_integer_lists(tmp_path, capsys,
                                                                         points):
    doc = {"kind": "markov",
           "fixture": {"builder": "explicit", "points": points,
                       "weights": [1 / 3] * 3,
                       "generators": {"s": [1, 2, 0], "s^-1": [2, 0, 1]},
                       "inverses": {"s": "s^-1", "s^-1": "s"}}}
    out = tmp_path / "out"
    assert main(["run", str(_write_config(tmp_path, doc)), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at $.fixture.points: must be ")
    assert len(err.splitlines()) == 1
    assert not (out / "report.json").exists()
    # vector points of one length are accepted, and serialize as lists
    doc["fixture"]["points"] = [[0, 1], [2, 3], [4, 5]]
    assert build_fixture(doc["fixture"]).points.tolist() == [[0, 1], [2, 3], [4, 5]]


def test_run_reports_are_byte_identical(tmp_path):
    config = ExperimentConfig(
        kind="shrinking",
        fixture={"builder": "sl2", "m": 8, "variant": "b", "orbit_of": [1, 0]},
        params={"horizon": 20, "n_starts": 4, "trials": 200},
        seed=11,
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(config, out_a) == 0
    assert run(config, out_b) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()


def test_run_ghost_kind(tmp_path):
    config = ExperimentConfig(
        kind="ghost",
        fixture={"levels": [4, 8]},
        params={"k_max": 6, "radius": 2.0},
    )
    assert run(config, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["gapped"] is True
    assert report["report"]["sup_lambda"]["value"] < 1.0
    csv = (tmp_path / "defects.csv").read_text().splitlines()
    assert len(csv) == 3  # header + two levels


def test_run_ghost_kind_at_a_large_radius(tmp_path):
    # balls cover every level; past a few maps per point the search runs
    # over point sets, whose memory does not grow with the radius
    config = ExperimentConfig(
        kind="ghost",
        fixture={"levels": [8, 16, 32]},
        params={"k_max": 3, "radius": 1e6},
    )
    assert run(config, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert all(v["value"] == 1.0 for v in report["locality_max_norm_per_level"].values())


def test_run_warped_kind(tmp_path):
    config = ExperimentConfig(
        kind="warped",
        fixture={"levels": [8, 16]},
        params={"radius": 3.0},
    )
    assert run(config, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["report"]["ball_measure_strictly_decreasing"] is True


def test_run_kazhdan_kind(tmp_path):
    config = ExperimentConfig(
        kind="kazhdan",
        fixture={"builder": "cyclic", "n": 4},
        params={"n_starts": 8},
    )
    assert run(config, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["kappa_oracle"]["provenance"] == "oracle"
    assert report["kappa_from_decay"]["value"] == pytest.approx(2 / 3, abs=1e-9)
    assert report["boost"]["m"] == 3


def test_run_kazhdan_kind_at_perfect_gap(tmp_path):
    # on Z/2, {e, g} is a perfect gap: lambda 0 gives kappa 1, S 0 and m 1
    config = ExperimentConfig(kind="kazhdan", fixture={"builder": "cyclic", "n": 2})
    assert run(config, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["lambda"]["value"] == 0.0
    assert report["kappa_from_decay"]["value"] == 1.0
    assert report["S_total"]["value"] == 0.0
    assert report["boost"]["m"] == 1
    assert report["norm_bound_from_kappa"]["value"] == 0.0


@pytest.mark.parametrize("fixture", [
    {"builder": "cyclic", "n": 1},
    {"builder": "explicit", "points": [0, 1, 2], "weights": [1 / 3] * 3,
     "generators": {"s": [1, 2, 0], "s^-1": [2, 0, 1], "t": [0, 1, 2]},
     "inverses": {"s": "s^-1", "s^-1": "s", "t": "t"}},
], ids=["cyclic-1", "explicit"])
def test_run_kazhdan_refuses_an_identity_generator(tmp_path, capsys, monkeypatch, fixture):
    def refuse(*args, **kwargs):
        raise AssertionError("solve ran before the config check")

    for name in ("restricted_norm", "kazhdan_constant_oracle", "certify_admissible"):
        monkeypatch.setattr(cli, name, refuse)
    path = _write_config(tmp_path, {"kind": "kazhdan", "fixture": fixture})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at $.fixture: generator ")
    assert "acts as the identity" in err and len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


def test_run_projection_kind(tmp_path):
    config = ExperimentConfig(
        kind="projection",
        fixture={"builder": "cyclic", "n": 4},
        measure={"kind": "lazy_uniform"},
    )
    assert run(config, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["neumann_vs_mean_gap"]["value"] <= 1e-10


def test_run_projection_kind_on_long_cycle(tmp_path):
    # lambda = 1 - 5.0e-5: the partial Neumann sum needs N = 2^19 steps
    config = ExperimentConfig(
        kind="projection",
        fixture={"builder": "cyclic", "n": 512},
        measure={"kind": "lazy_uniform"},
    )
    assert run(config, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())["report"]
    assert report["neumann_vs_mean_gap"]["value"] <= 1e-10


def test_run_projection_without_gap_fails_invariant(tmp_path):
    # the Dirac measure at e is the identity: restricted norm 1, no gap
    path = _write_config(tmp_path, {
        "kind": "projection",
        "fixture": {"builder": "cyclic", "n": 4},
        "measure": {"kind": "dirac_e"},
    })
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "invariant-failure"
    assert report["failed_invariant"] == "no-spectral-gap"


CYCLE = {"builder": "cyclic", "n": 8}


@pytest.mark.parametrize("kind, fixture, name, value", [
    ("markov", CYCLE, "k_max", "abc"),
    ("markov", CYCLE, "k_max", -1),
    ("markov", CYCLE, "k_max", 2.7),  # was truncated to 2
    ("markov", CYCLE, "p", 1.0),
    ("ergodic", CYCLE, "k_max", 0),
    ("kazhdan", {"builder": "cyclic", "n": 4}, "eps", 2),
    ("ghost", {"levels": [8]}, "k_max", 0),
    ("warped", {"levels": [8, 16]}, "radius", -1),
    ("expander", {"family": "sl2", "moduli": [3, 5]}, "d", 0),
], ids=["markov-k_max-abc", "markov-k_max-negative", "markov-k_max-fraction",
        "markov-p-1", "ergodic-k_max-0", "kazhdan-eps-2", "ghost-k_max-0",
        "warped-radius-negative", "expander-d-0"])
def test_run_rejects_bad_params(tmp_path, capsys, kind, fixture, name, value):
    path = _write_config(tmp_path, {"kind": kind, "fixture": fixture, "params": {name: value}})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at $.params.{name}: must be ")
    assert len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("value", [True, 0, 2.5], ids=["true", "0", "fraction"])
@pytest.mark.parametrize("builder, size", [("cyclic", "n"), ("sl2", "m")])
def test_run_rejects_bad_fixture_sizes(tmp_path, capsys, builder, size, value):
    # JSON true passed the int check once: Z/true raised in numpy, and
    # SL2 with m = true built the one-point torus
    path = _write_config(tmp_path, {"kind": "markov",
                                    "fixture": {"builder": builder, size: value}})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at $.fixture.{size}: must be an integer >= 1, got ")
    assert len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("fixture, path", [
    ({"family": "sl2", "moduli": ["abc", 5]}, "moduli[0]"),
    ({"family": "sl2", "moduli": [5, 7.5]}, "moduli[1]"),  # was truncated to 7
    ({"family": "sl2", "moduli": [1, 5]}, "moduli[0]"),
    ({"family": "cycles", "sizes": [5, 0]}, "sizes[1]"),
], ids=["modulus-abc", "modulus-fraction", "modulus-1", "size-0"])
def test_run_rejects_bad_family_members(tmp_path, capsys, fixture, path):
    config = _write_config(tmp_path, {"kind": "expander", "fixture": fixture})
    assert main(["run", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at $.fixture.{path}: must be an integer")
    assert len(err.splitlines()) == 1


def test_run_rejects_a_bad_exponent_in_the_list(tmp_path, capsys):
    path = _write_config(tmp_path, {"kind": "ergodic", "fixture": CYCLE,
                                    "params": {"exponents": [2, 1.0]}})
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("config error at $.params.exponents[1]:")


@pytest.mark.parametrize("kind", ["warped", "ghost"])
@pytest.mark.parametrize("levels", [8, "8", [], [8, "16"], [1, 8], [8.0]])
def test_run_rejects_malformed_levels(tmp_path, capsys, kind, levels):
    path = _write_config(tmp_path, {"kind": kind, "fixture": {"levels": levels}})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at $.fixture.levels:")
    assert len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


def test_run_ergodic_kind(tmp_path):
    config = ExperimentConfig(
        kind="ergodic",
        fixture={"builder": "sl2", "m": 8, "variant": "b"},
        params={"k_max": 15, "exponents": [1.5, 2.0]},
    )
    assert run(config, tmp_path) == 0
    assert (tmp_path / "errors_p2.0.csv").exists()
    assert (tmp_path / "errors_p1.5.csv").exists()


def test_run_ergodic_decay_bound_violation_fails_invariant(tmp_path, monkeypatch):
    # a restricted norm below the true one breaks e_k <= lambda^k |f|
    true_norm = cli.restricted_norm

    def halved(op, **kwargs):
        est = true_norm(op, **kwargs)
        return dataclasses.replace(est, value=est.value / 2)

    monkeypatch.setattr(cli, "restricted_norm", halved)
    config = ExperimentConfig(kind="ergodic", fixture=CYCLE)
    assert run(config, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "invariant-failure"
    assert report["failed_invariant"] == "ergodic-decay-bound"


@pytest.mark.parametrize("fixture", [CYCLE, {"builder": "sl2", "m": 8, "variant": "a"}],
                         ids=["cyclic-8", "sl2-8-a"])
def test_run_shrinking_needs_a_metric(tmp_path, capsys, fixture):
    path = _write_config(tmp_path, {"kind": "shrinking", "fixture": fixture})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at $.fixture: the shrinking kind needs a fixture "
                          "with a metric: builder 'sl2' with variant 'b'")
    assert len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


def test_fixture_hash_present_and_stable(tmp_path):
    config = ExperimentConfig(
        kind="markov",
        fixture={"builder": "cyclic", "n": 4},
        params={"k_max": 2},
    )
    run(config, tmp_path)
    a = json.loads((tmp_path / "report.json").read_text())["fixture_hash"]
    run(config, tmp_path)
    b = json.loads((tmp_path / "report.json").read_text())["fixture_hash"]
    assert a == b and len(a) == 64


def test_run_unconverged_eigensolve_fails_invariant(tmp_path, monkeypatch):
    from gaplab import rep_markov

    # the first restart cycle already spends more than 0.01 x 64 applications
    monkeypatch.setattr(rep_markov, "LANCZOS_APPLICATIONS_PER_COORDINATE", 0.01)
    config = ExperimentConfig(
        kind="markov",
        fixture={"builder": "cyclic", "n": 64},  # above the dense cutoff
        params={"k_max": 2},
    )
    assert run(config, tmp_path) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "invariant-failure"
    assert report["failed_invariant"] == "eigensolve-not-converged"


@pytest.mark.parametrize("kind", ["kazhdan", "projection"])
def test_run_refuses_oversize_dense_fixture(tmp_path, capsys, kind):
    # SL2(Z/17) acting on itself has 4,896 points, above the dense limit:
    # refused as a config error before any solve, with one line on stderr
    path = _write_config(tmp_path, {
        "kind": kind,
        "fixture": {"builder": "sl2", "m": 17, "variant": "a"},
    })
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at $.fixture: refusing dense 4896 x 4896")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


def _outputs_under_blas_threads(tmp_path, doc, names):
    """Run one config in two processes, with 1 and 2 BLAS threads; read back files."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = _write_config(tmp_path, doc)
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "gaplab", "run", str(path),
                        "--out-dir", str(out)], env=env, check=True, timeout=300)
        blobs.append([(out / name).read_bytes() for name in names])
    return blobs


def test_run_report_identical_across_processes_and_blas_threads(tmp_path):
    blobs = _outputs_under_blas_threads(tmp_path, {
        "kind": "kazhdan",
        "fixture": {"builder": "sl2", "m": 5, "variant": "a"},
        "params": {"n_starts": 8},
        "seed": 100,
    }, ["report.json"])
    assert blobs[0] == blobs[1]


def test_markov_curve_identical_across_processes_and_blas_threads(tmp_path):
    blobs = _outputs_under_blas_threads(tmp_path, {
        "kind": "markov",
        "fixture": {"builder": "sl2", "m": 32, "variant": "b"},
        "measure": {"kind": "lazy_uniform"},
        "params": {"k_max": 20},
        "seed": 7,
    }, ["report.json", "defect_curve.csv"])
    assert blobs[0] == blobs[1]


def test_expander_quotients_identical_across_processes_and_blas_threads(tmp_path):
    # every modulus solves its induced blocks by Lanczos: one block for
    # p = 3 mod 4 (7, 11, 31), two for p = 1 mod 4 (5, 13, 61); the 14,880
    # coordinates of p = 61 take its coordinate sums past one BLAS call
    blobs = _outputs_under_blas_threads(tmp_path, {
        "kind": "expander",
        "fixture": {"family": "sl2", "moduli": [5, 7, 11, 13, 31, 61]},
        "seed": 3,
    }, ["report.json", "quotients.csv"])
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("module", ["gaplab.acceptance", "gaplab.cli"])
def test_modules_import_alone(module):
    # cli and acceptance import each other; either may be loaded first
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = f"import {module}; from gaplab import acceptance, cli; print(acceptance.cli is cli)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, timeout=120).stdout
    assert out == b"True\n"


@pytest.mark.parametrize("module", ["group_core", "measures", "rep_markov", "kazhdan",
                                    "expanders", "ergodic_walk", "warped_cone", "acceptance"])
def test_every_all_name_resolves(module):
    mod = importlib.import_module(f"gaplab.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_no_unused_imports():
    # every imported name but those from __future__ is read in its module;
    # __init__.py imports only to re-export
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*(root / "src" / "gaplab").glob("*.py"), *(root / "tests").glob("*.py"),
                        *(root / "perfbench").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                   for node in imports for alias in node.names
                   if (alias.asname or alias.name).split(".")[0] not in read]
    assert unused == []


def test_run_never_imports_scipy(tmp_path):
    # a fresh process: other tests import scipy as their reference
    configs = {
        "markov": {"kind": "markov", "fixture": {"builder": "sl2", "m": 8, "variant": "b"},
                   "params": {"k_max": 3}},
        "kazhdan": {"kind": "kazhdan", "fixture": {"builder": "sl2", "m": 5, "variant": "a"},
                    "params": {"n_starts": 8}},
        "expander": {"kind": "expander", "fixture": {"family": "sl2", "moduli": [5, 7, 31]}},
        "warped": {"kind": "warped", "fixture": {"levels": [4, 8]}},
        "ghost": {"kind": "ghost", "fixture": {"levels": [4, 8]}, "params": {"k_max": 3}},
    }
    runs = []
    for name, doc in configs.items():
        path = _write_config(tmp_path, doc, name=f"{name}.json")
        runs.append(f"cli.main(['run', {str(path)!r}, '--out-dir', {str(tmp_path / name)!r}])")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; import gaplab.cli as cli; "
            f"print([{', '.join(runs)}], sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, timeout=120).stdout
    assert out == b"[0, 0, 0, 0, 0] []\n"
    report = json.loads((tmp_path / "kazhdan" / "report.json").read_text())["report"]
    assert report["M_lp"]["value"] == 5.0  # the LP ran
    report = json.loads((tmp_path / "warped" / "report.json").read_text())["report"]
    assert [lv["max_ball_measure"]["value"] for lv in report["levels"]] == [1.0, 0.9375]


def test_criterion_10_never_imports_scipy():
    # a fresh process: the warped-cone criterion builds no scipy graph
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys; from gaplab import acceptance; "
            "print(acceptance.criterion_10(0).passed, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, timeout=120).stdout
    assert out == b"True []\n"


@pytest.mark.parametrize("kind, fixture", [
    ("kazhdan", {"builder": "cyclic", "n": 3}),
    ("expander", {"family": "cycles", "sizes": [3, 4]}),
    ("warped", {"levels": [4]}),
    ("ghost", {"levels": [4]}),
])
def test_kinds_with_their_own_measure_refuse_another(tmp_path, capsys, kind, fixture):
    path = _write_config(tmp_path, {"kind": kind, "fixture": fixture,
                                    "measure": {"kind": "uniform_gens"}})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at $.measure: ")
    assert len(err.splitlines()) == 1
    assert not (out / "report.json").exists()
    # the default, given explicitly, is accepted
    path = _write_config(tmp_path, {"kind": kind, "fixture": fixture,
                                    "measure": {"kind": "lazy_uniform"}})
    assert main(["run", str(path), "--out-dir", str(out)]) == 0


def _refuse_sl2_builds(monkeypatch):
    from gaplab import cli, expanders, group_core

    def refuse(*args, **kwargs):
        raise AssertionError("built an SL2 quotient")

    for module in (group_core, expanders, cli):
        monkeypatch.setattr(module, "build_sl2_quotient", refuse)


@pytest.mark.parametrize("moduli, params, name", [
    ([5, 74], {}, "SL2(Z/74): 303696 elements"),  # composite: always built
    ([5, 67], {"vector_budget": 1}, "SL2(Z/67): 300696 elements"),  # the ascent's graph
], ids=["composite-74", "vector-bound-67"])
def test_run_refuses_sl2_builds_above_the_limit(tmp_path, capsys, monkeypatch,
                                                  moduli, params, name):
    _refuse_sl2_builds(monkeypatch)  # refused before any build or solve
    path = _write_config(tmp_path, {"kind": "expander", "params": params,
                                    "fixture": {"family": "sl2", "moduli": moduli}})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at $.fixture.moduli[1]: refusing to build {name}")
    assert len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("modulus", [
    2_000_000_014,  # 2 x 1,000,000,007: one large prime factor
    2 ** 61 - 1,  # a prime with no small divisor to stop trial division
    1_000_000_007 * 1_000_000_009,  # a semiprime near 1e18: two large prime factors
], ids=["2p", "mersenne-61", "semiprime"])
def test_run_refuses_huge_sl2_moduli_in_bounded_time(tmp_path, modulus):
    # a fresh process with a timeout, so that a regression fails rather than hangs
    src = Path(__file__).resolve().parents[1] / "src"
    path = _write_config(tmp_path, {"kind": "expander",
                                    "fixture": {"family": "sl2", "moduli": [5, modulus]}})
    done = subprocess.run([sys.executable, "-m", "gaplab", "run", str(path),
                           "--out-dir", str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=10)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("config error at $.fixture.moduli[1]: refusing ")
    assert f"SL2(Z/{modulus})" in done.stderr


@pytest.mark.parametrize("modulus", [
    2_000_000_014,  # 2 x 1,000,000,007
    1_000_000_007 * 1_000_000_009,  # trial division would run to 1e9
], ids=["2p", "semiprime"])
def test_sl2_fixture_refuses_huge_moduli_in_bounded_time(tmp_path, modulus):
    src = Path(__file__).resolve().parents[1] / "src"
    path = _write_config(tmp_path, {"kind": "markov", "fixture": {
        "builder": "sl2", "m": modulus, "variant": "a"}})
    done = subprocess.run([sys.executable, "-m", "gaplab", "run", str(path),
                           "--out-dir", str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=10)
    assert done.returncode == 2
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith(
        f"config error at $.fixture.m: refusing to build SL2(Z/{modulus}): more than ")


def test_sl2_fixture_refuses_an_exact_order_above_the_limit(tmp_path, capsys, monkeypatch):
    # 6 m^3 / pi^2 stays below the limit at m = 73, the exact order 388,944 does not
    _refuse_sl2_builds(monkeypatch)
    path = _write_config(tmp_path, {"kind": "markov", "fixture": {
        "builder": "sl2", "m": 73, "variant": "a"}})
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == ("config error at $.fixture.m: refusing to build SL2(Z/73): 388944 "
                   "elements, above the limit 250000\n")


def test_run_refuses_a_prime_whose_block_basis_exceeds_a_dense_matrix(tmp_path, capsys,
                                                                      monkeypatch):
    import time

    from gaplab import expanders
    from gaplab.rep_markov import DENSE_LIMIT

    def refuse(*args, **kwargs):
        raise AssertionError("built an induced block")

    monkeypatch.setattr(expanders, "sl2_induced_blocks", refuse)
    monkeypatch.setattr(expanders, "sl2_coset_translates", refuse)
    # 25 x 4 x (409^2 - 1) float64 = 133,824,000 B fit in 4096^2 x 8 B
    assert expanders.Sl2Quotient(409).block_basis_bytes() <= DENSE_LIMIT ** 2 * 8
    path = _write_config(tmp_path, {"kind": "expander",
                                    "fixture": {"family": "sl2", "moduli": [5, 1009]}})
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error at $.fixture.moduli[1]: refusing the blocks of "
                          "SL2(Z/1009): a Lanczos basis of 814464000 B")
    assert len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


def test_expander_builds_each_quotient_when_its_row_is_computed(monkeypatch):
    from gaplab import cli, expanders

    events = []
    build, scalar = expanders.build_sl2_quotient, expanders.poincare_scalar

    def building(m, variant):
        events.append(("build", m))
        return build(m, variant)

    def solving(graph):
        events.append(("solve", graph.action.name))
        return scalar(graph)

    monkeypatch.setattr(expanders, "build_sl2_quotient", building)
    monkeypatch.setattr(expanders, "poincare_scalar", solving)
    cli.certify_family(ExperimentConfig("expander", {"family": "sl2", "moduli": [4, 5, 6]}))
    # the prime modulus 5 is never built
    assert events == [("build", 4), ("solve", "SL2(Z/4)"), ("build", 6), ("solve", "SL2(Z/6)")]


@pytest.mark.parametrize("kind, fixture, params, where", [
    ("shrinking", {"builder": "sl2", "m": 8, "variant": "b", "orbit_of": [1, 0]},
     {"center": 5}, "$.params.center"),
    ("shrinking", {"builder": "sl2", "m": 8, "variant": "b", "orbit_of": [1, 0]},
     {"center": [1, True]}, "$.params.center"),
    ("markov", {"builder": "sl2", "m": 8, "variant": "b", "orbit_of": 5},
     {}, "$.fixture.orbit_of"),
    ("ergodic", CYCLE, {"exponents": []}, "$.params.exponents"),
], ids=["center-5", "center-bool", "orbit_of-5", "exponents-empty"])
def test_run_rejects_bad_points_and_empty_exponents(tmp_path, capsys, kind, fixture,
                                                    params, where):
    path = _write_config(tmp_path, {"kind": kind, "fixture": fixture, "params": params})
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at {where}: must be ")
    assert len(err.splitlines()) == 1
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["markov", "projection", "kazhdan", "ergodic", "shrinking"])
def test_run_on_tiny_cycles_exits_cleanly(tmp_path, kind, n):
    # a run ends in an exit status, never an exception; 0 and 1 leave a report
    path = _write_config(tmp_path, {"kind": kind, "fixture": {"builder": "cyclic", "n": n}})
    out = tmp_path / "out"
    status = main(["run", str(path), "--out-dir", str(out)])
    assert status in (0, 1, 2)
    assert (out / "report.json").exists() == (status != 2)
