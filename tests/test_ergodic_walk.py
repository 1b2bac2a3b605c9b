import itertools

import numpy as np
import pytest

from gaplab.group_core import build_cyclic, build_sl2_quotient, orbit_restriction
from gaplab.measures import dirac, lazy_uniform, uniform_on
from gaplab.rep_markov import Representation, markov_operator, restricted_norm
from gaplab.ergodic_walk import (
    Sl2GroupTable,
    conditioned_series,
    ergodic_error_curve,
    estimate_drift_mc,
    hit_fields_exact,
    moment_inequality_check,
    plan_from_radii,
    plan_from_sets,
    shrinking_series_exact,
    shrinking_series_mc,
    sigma_field_exact,
)

MU_LABELS = {"e": 0.2, "e12": 0.2, "e12^-1": 0.2, "e21": 0.2, "e21^-1": 0.2}


def _band_violations(mc, exact_probs, z):
    """Steps where the empirical hit frequency leaves the z-sigma binomial band."""
    sd = np.sqrt(exact_probs * (1.0 - exact_probs) / mc.trials)
    return int(np.count_nonzero(np.abs(mc.hit_freq - exact_probs) > z * sd + 1e-12))


def _torus_fixture(m):
    act = build_sl2_quotient(m, variant="b")
    idx = {p: i for i, p in enumerate(act.points)}
    sub = orbit_restriction(act, idx[(1, 0)])
    return sub, lazy_uniform(sub)


# -- ergodic decay -------------------------------------------------------------


def test_error_curve_constant_field_is_zero():
    act, mu = _torus_fixture(4)
    rep = Representation(act)
    curve = ergodic_error_curve(rep, np.ones(act.n_points), mu, K=6)
    assert np.all(curve.errors <= 1e-13)


def test_error_curve_fourier_mode_exact_rate():
    act = build_cyclic(4)
    rep = Representation(act)
    mu = uniform_on([act.identity_element(), act.generator_element("g"),
                     act.generator_element("g^-1")])
    mode = np.cos(2 * np.pi * np.arange(4) / 4)  # eigenvector, eigenvalue 1/3
    curve = ergodic_error_curve(rep, mode, mu, K=8)
    fnorm = rep.norm(mode)
    for k in range(1, 9):
        assert curve.errors[k - 1] == pytest.approx((1 / 3) ** k * fnorm, rel=1e-10)
    assert curve.slope == pytest.approx(np.log(1 / 3), abs=1e-9)


def test_error_curve_respects_geometric_bound():
    act, mu = _torus_fixture(8)
    rep = Representation(act)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(act.n_points)
    curve = ergodic_error_curve(rep, f, mu, K=20)
    ks = np.arange(1, 21)
    assert np.all(curve.errors <= curve.lam**ks * curve.field_norm + 1e-9)


def test_error_curve_warns_on_non_ergodic():
    act = build_sl2_quotient(4, variant="b")  # full grid: several orbits
    rep = Representation(act)
    mu = uniform_on([act.identity_element()]
                    + [act.generator_element(lab) for lab in act.gens.labels])
    with pytest.warns(RuntimeWarning):
        ergodic_error_curve(rep, np.arange(act.n_points, dtype=float), mu, K=3)


def test_error_curve_lp_slopes():
    act, mu = _torus_fixture(8)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(act.n_points)
    for p in (1.5, 3.0):
        rep = Representation(act, p=p)
        est = restricted_norm(markov_operator(rep, mu), seed=0, n_starts=2)
        curve = ergodic_error_curve(rep, f, mu, K=25, norm_estimate=est)
        assert curve.quality == "lower_bound"
        assert curve.slope <= np.log(est.value) + 0.01


# -- exact shrinking series ------------------------------------------------------


def test_plan_measures_and_partial_sums():
    act, _ = _torus_fixture(4)
    plan = plan_from_sets(act, [[0, 1], [2], []])
    assert plan.horizon == 3
    assert plan.measures[0] == pytest.approx(2 / act.n_points)
    assert plan.s_partial[-1] == pytest.approx(3 / act.n_points)
    assert np.all(np.diff(plan.s_partial) >= 0)


def test_full_space_targets_give_sigma_equal_horizon():
    act, mu = _torus_fixture(4)
    n = act.n_points
    plan = plan_from_sets(act, [list(range(n))] * 7)
    stats = shrinking_series_exact(act, mu, plan, starts=[0, 3])
    assert np.allclose(stats.hit_probs, 1.0, atol=1e-14)
    assert np.allclose(stats.sigma, 7.0, atol=1e-12)
    assert plan.s_n() == pytest.approx(7.0)


def test_empty_targets_give_zero():
    act, mu = _torus_fixture(4)
    plan = plan_from_sets(act, [[]] * 5)
    stats = shrinking_series_exact(act, mu, plan, starts=[1])
    assert np.all(stats.hit_probs == 0.0)


def _word_enumeration_oracle(action, mu, target_members, n, start):
    """P(walk at step n in target) by brute-force word enumeration."""
    atoms = [(el.inverse().perm_array(), w) for el, w in mu.items()]
    total = 0.0
    for word in itertools.product(range(len(atoms)), repeat=n):
        pos = start
        weight = 1.0
        for a in word:
            inv, w = atoms[a]
            pos = int(inv[pos])
            weight *= w
        if target_members[pos]:
            total += weight
    return total


def test_exact_series_matches_word_enumeration():
    act, mu = _torus_fixture(8)  # 48 points
    idx0 = act.points.index((1, 0))
    rng = np.random.default_rng(5)
    targets = [rng.choice(act.n_points, size=4, replace=False) for _ in range(6)]
    plan = plan_from_sets(act, targets)
    stats = shrinking_series_exact(act, mu, plan, starts=[idx0])
    fields = hit_fields_exact(act, mu, plan)
    for n in range(1, 7):
        oracle = _word_enumeration_oracle(act, mu, plan.membership(n), n, idx0)
        assert stats.hit_probs[0, n - 1] == pytest.approx(oracle, abs=1e-12)
        assert fields[n - 1][idx0] == pytest.approx(oracle, abs=1e-12)


def test_asymmetric_measure_walk_convention_consistent():
    # mu = (delta_e + delta_g) / 2 on Z/5 is not symmetric; the exact series,
    # the word-enumeration oracle and the simulator must share one walk
    # convention (steps x -> g^-1 x)
    act = build_cyclic(5)
    from gaplab.measures import DiscreteMeasure

    mu = DiscreteMeasure({act.identity_element(): 0.5,
                          act.generator_element("g"): 0.5})
    targets = [[0], [1, 2], [3], [0, 4], [2], [1]]
    plan = plan_from_sets(act, targets)
    stats = shrinking_series_exact(act, mu, plan, starts=[2])
    for n in range(1, 7):
        oracle = _word_enumeration_oracle(act, mu, plan.membership(n), n, 2)
        assert stats.hit_probs[0, n - 1] == pytest.approx(oracle, abs=1e-12)
    mc = shrinking_series_mc(act, mu, plan, trials=6000, seed=13, start=2)
    assert _band_violations(mc, stats.hit_probs[0], z=4.0) == 0


def test_mean_identity_exact():
    act, mu = _torus_fixture(8)
    rng = np.random.default_rng(11)
    targets = [rng.choice(act.n_points, size=k + 2, replace=False) for k in range(10)]
    plan = plan_from_sets(act, targets)
    fields = hit_fields_exact(act, mu, plan)
    for n, f in enumerate(fields, start=1):
        mean = float(np.sum(act.weights * f))
        assert mean == pytest.approx(plan.measures[n - 1], abs=1e-12)
        assert f.min() >= -1e-15 and f.max() <= 1.0 + 1e-15


def test_sigma_field_matches_per_start_series():
    act, mu = _torus_fixture(8)
    rng = np.random.default_rng(13)
    targets = [rng.choice(act.n_points, size=5, replace=False) for _ in range(12)]
    plan = plan_from_sets(act, targets)
    sigma = sigma_field_exact(act, mu, plan)
    starts = [0, 7, 31]
    stats = shrinking_series_exact(act, mu, plan, starts=starts)
    for row, s in enumerate(starts):
        assert sigma[s] == pytest.approx(stats.sigma[row], abs=1e-12)


def test_monotone_coupling_in_targets():
    act, mu = _torus_fixture(8)
    rng = np.random.default_rng(17)
    small = [rng.choice(act.n_points, size=3, replace=False) for _ in range(8)]
    big = [np.union1d(t, rng.choice(act.n_points, size=4, replace=False))
           for t in small]
    stats_small = shrinking_series_exact(act, mu, plan_from_sets(act, small), [0, 5])
    stats_big = shrinking_series_exact(act, mu, plan_from_sets(act, big), [0, 5])
    assert np.all(stats_big.hit_probs >= stats_small.hit_probs - 1e-13)
    assert np.all(stats_big.sigma >= stats_small.sigma - 1e-12)


def test_plan_from_radii_uses_exact_counting_measure():
    act, _ = _torus_fixture(8)
    center = act.points.index((1, 0))
    plan = plan_from_radii(act, center, [0.3, 0.2, 0.1])
    for n in range(1, 4):
        ball = plan.targets[n - 1]
        assert plan.measures[n - 1] == pytest.approx(len(ball) / act.n_points)
    assert len(plan.targets[0]) >= len(plan.targets[1]) >= len(plan.targets[2])


# -- Monte Carlo -----------------------------------------------------------------


def test_mc_full_space_always_hits():
    act, mu = _torus_fixture(4)
    plan = plan_from_sets(act, [list(range(act.n_points))] * 5)
    mc = shrinking_series_mc(act, mu, plan, trials=50, seed=1, start=0)
    assert np.all(mc.hit_freq == 1.0)


def test_mc_deterministic_measure_is_exact():
    act, _ = _torus_fixture(4)
    g = act.generator_element("e12")
    mu = dirac(g)
    # orbit of the deterministic walk x -> g^-1 x
    inv = g.inverse().perm_array()
    pos = act.points.index((1, 1))
    expected = []
    cur = pos
    for _ in range(6):
        cur = int(inv[cur])
        expected.append(cur)
    plan = plan_from_sets(act, [[e] for e in expected])
    mc = shrinking_series_mc(act, mu, plan, trials=10, seed=0, start=pos)
    assert np.all(mc.hit_freq == 1.0)


def test_mc_within_binomial_bands_of_exact():
    act, mu = _torus_fixture(8)
    center = act.points.index((1, 0))
    radii = [0.4 * n ** (-0.5) for n in range(1, 21)]
    plan = plan_from_radii(act, center, radii)
    start = act.points.index((0, 1))
    exact = shrinking_series_exact(act, mu, plan, starts=[start])
    mc = shrinking_series_mc(act, mu, plan, trials=4000, seed=7, start=start)
    assert _band_violations(mc, exact.hit_probs[0], z=4.0) == 0


def test_mc_sigma_within_3sigma_on_64_torus():
    # divergent radii on the full 64-grid; aggregate hit total against the
    # exact transfer series at 3 sigma
    act = build_sl2_quotient(64, variant="b")
    mu = uniform_on(
        [act.identity_element()]
        + [act.generator_element(lab) for lab in act.gens.labels]
    )
    center = act.points.index((1, 0))
    radii = [n ** (-0.5) for n in range(1, 31)]
    plan = plan_from_radii(act, center, radii)
    start = act.points.index((0, 1))
    exact = shrinking_series_exact(act, mu, plan, starts=[start])
    mc = shrinking_series_mc(act, mu, plan, trials=10_000, seed=41, start=start)
    band = 3.0 * float(mc.sigma_per_trial.std(ddof=1)) / np.sqrt(mc.trials)
    assert abs(mc.sigma_mean - exact.sigma[0]) <= band


def test_mc_reproducible_with_seed():
    act, mu = _torus_fixture(4)
    plan = plan_from_sets(act, [[0, 1]] * 6)
    a = shrinking_series_mc(act, mu, plan, trials=64, seed=9, start=2)
    b = shrinking_series_mc(act, mu, plan, trials=64, seed=9, start=2)
    assert np.array_equal(a.hit_freq, b.hit_freq)
    c = shrinking_series_mc(act, mu, plan, trials=64, seed=10, start=2)
    assert not np.array_equal(a.hit_freq, c.hit_freq)


def test_divergent_envelope_bounded_as_horizon_grows():
    # on a divergent plan the normalized deviation |sigma(x) - S_N| / S_N^0.6
    # stays bounded across growing horizons for the sampled starts
    act = build_sl2_quotient(16, variant="b")
    sub = orbit_restriction(act, act.points.index((1, 0)))
    mu = uniform_on(
        [sub.identity_element()]
        + [sub.generator_element(lab) for lab in sub.gens.labels]
    )
    center = sub.points.index((1, 0))
    rng = np.random.default_rng(19)
    sample = rng.choice(sub.n_points, size=50, replace=False)
    for horizon in (100, 200, 400):
        radii = [0.45 * n ** (-0.125) for n in range(1, horizon + 1)]
        plan = plan_from_radii(sub, center, radii)
        sigma = sigma_field_exact(sub, mu, plan)
        s_n = plan.s_n()
        ratio = np.abs(sigma[sample] - s_n) / s_n**0.6
        assert np.quantile(ratio, 0.9) <= 1.0


# -- moment inequality -------------------------------------------------------------


def test_moment_constant_matches_hand_value():
    act, mu = _torus_fixture(4)
    plan = plan_from_sets(act, [[0]])
    report = moment_inequality_check(act, mu, plan, p=2.0, lam=0.5)
    assert report.c_p == pytest.approx(9.0)  # 1 + 2 * 2^2
    # (2 + C_2) / (1 - lambda^2) = 11 / (3/4) = 44/3
    assert (2 + report.c_p) / (1 - 0.5**2) == pytest.approx(44.0 / 3.0)


def test_moment_full_space_targets_have_zero_lhs():
    act, mu = _torus_fixture(4)
    plan = plan_from_sets(act, [list(range(act.n_points))] * 4)
    lam = restricted_norm(markov_operator(Representation(act), mu)).value
    report = moment_inequality_check(act, mu, plan, p=2.0, lam=lam)
    assert all(r.lhs <= 1e-24 for r in report.rows)


def test_moment_inequality_holds_all_windows():
    act, mu = _torus_fixture(8)
    lam = restricted_norm(markov_operator(Representation(act), mu)).value
    rng = np.random.default_rng(23)
    targets = [rng.choice(act.n_points, size=6, replace=False) for _ in range(12)]
    plan = plan_from_sets(act, targets)
    report = moment_inequality_check(act, mu, plan, p=2.0, lam=lam)
    assert report.all_ok
    assert report.worst_slack() > 0


def test_moment_rejects_bad_lambda():
    act, mu = _torus_fixture(4)
    plan = plan_from_sets(act, [[0]])
    with pytest.raises(ValueError):
        moment_inequality_check(act, mu, plan, p=2.0, lam=1.0)


# -- group table and drift ----------------------------------------------------------


def test_group_table_orders():
    assert Sl2GroupTable(2).n_elements == 6
    assert Sl2GroupTable(3).n_elements == 24
    assert Sl2GroupTable(4).n_elements == 48
    assert Sl2GroupTable(64).n_elements == 196608  # 64^3 (1 - 1/4)


def test_group_table_word_lengths_match_group_core_bfs():
    from gaplab.group_core import build_sl2_quotient, word_ball

    table = Sl2GroupTable(3)
    act = build_sl2_quotient(3, variant="a")
    ball = word_ball(act, 12)
    assert len(ball) == table.n_elements
    # match elements through their action on the group (left translation)
    by_matrix = {}
    for el in ball:
        image_of_identity = act.points[el.perm[act.points.index((1, 0, 0, 1))]]
        by_matrix[image_of_identity] = el.word_length
    for gid in range(table.n_elements):
        mat = tuple(int(v) for v in table.elements[gid])
        assert by_matrix[mat] == table.word_length[gid]


def test_group_table_right_mult_consistency():
    table = Sl2GroupTable(5)
    # following right multiplication by a generator increases word length by
    # at most one
    for lab in table.labels:
        nxt = table.right_mult[lab]
        assert np.all(table.word_length[nxt] <= table.word_length + 1)


def test_drift_positive_and_reproducible():
    table = Sl2GroupTable(16)
    d0 = estimate_drift_mc(table, MU_LABELS, n_steps=32, trials=1500, seed=0)
    d1 = estimate_drift_mc(table, MU_LABELS, n_steps=32, trials=1500, seed=1)
    assert d0.two_a > 0
    assert abs(d0.two_a - d1.two_a) / d0.two_a < 0.1
    d0b = estimate_drift_mc(table, MU_LABELS, n_steps=32, trials=1500, seed=0)
    assert d0b.two_a == d0.two_a  # bit-exact with the same seed


def test_drift_degenerate_for_lazy_identity_walk():
    table = Sl2GroupTable(4)
    with pytest.warns(RuntimeWarning):
        d = estimate_drift_mc(table, {"e": 1.0}, n_steps=16, trials=100, seed=0)
    assert d.degenerate and d.two_a == 0.0


# -- conditioned series ---------------------------------------------------------------


def test_conditioned_zero_fraction_reduces_to_exact_series():
    m = 8
    sub, mu_op = _torus_fixture(m)
    table = Sl2GroupTable(m)
    rng = np.random.default_rng(31)
    targets = [rng.choice(sub.n_points, size=5, replace=False) for _ in range(10)]
    plan = plan_from_sets(sub, targets)
    starts = [0, 3, 17]
    cs = conditioned_series(sub, MU_LABELS, plan, 0.0, table, starts,
                            drift_steps=16, drift_trials=200, seed=2)
    assert cs.a == 0.0
    ws = shrinking_series_exact(sub, mu_op, plan, starts)
    assert np.max(np.abs(cs.unconditioned - ws.hit_probs)) <= 1e-12
    # at word length > 0: only the identity mass is cut
    assert np.max(np.abs(cs.hit_probs - cs.unconditioned)) <= 1.0


def test_conditioned_series_exact_cross_check():
    m = 8
    sub, mu_op = _torus_fixture(m)
    table = Sl2GroupTable(m)
    center = sub.points.index((1, 0))
    plan = plan_from_radii(sub, center, [0.5 * n ** (-0.2) for n in range(1, 25)])
    starts = [0, 11]
    cs = conditioned_series(sub, MU_LABELS, plan, 0.5, table, starts,
                            drift_steps=24, drift_trials=500, seed=3)
    ws = shrinking_series_exact(sub, mu_op, plan, starts)
    assert np.max(np.abs(cs.unconditioned - ws.hit_probs)) <= 1e-12
    assert np.all(cs.hit_probs <= cs.unconditioned + 1e-15)
    assert np.all(cs.tail_mass <= 1.0 + 1e-12)
    assert cs.a > 0


def test_conditioned_rejects_image_outside_fixture():
    # every g^-1 (1, 0) with g in SL2(Z/2) other than the identity leaves
    # the two-point fixture; the table must not drop that mass silently
    from gaplab.group_core import FiniteAction, GeneratorSystem

    gens = GeneratorSystem(labels=("s", "s^-1"), inverses={"s": "s^-1", "s^-1": "s"})
    ident = np.arange(2)
    act = FiniteAction([(0, 0), (1, 0)], np.full(2, 0.5), gens,
                       {"s": ident, "s^-1": ident})
    plan = plan_from_sets(act, [[1], [1]])
    table = Sl2GroupTable(2)
    with pytest.raises(ValueError, match="outside the fixture"):
        conditioned_series(act, MU_LABELS, plan, 0.0, table, [1],
                           drift_steps=8, drift_trials=20, seed=0)


def test_conditioned_rejects_bad_fraction():
    sub, _ = _torus_fixture(4)
    table = Sl2GroupTable(4)
    plan = plan_from_sets(sub, [[0]])
    with pytest.raises(ValueError):
        conditioned_series(sub, MU_LABELS, plan, 1.5, table, [0])
