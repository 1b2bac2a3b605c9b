import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gaplab.group_core import (
    SL2_GENERATOR_MATRICES,
    FiniteAction,
    build_cyclic,
    build_sl2_quotient,
    orbit_restriction,
)
from gaplab.measures import dirac, lazy_uniform, uniform_on
from gaplab.rep_markov import Representation, markov_operator, restricted_norm
from gaplab.ergodic_walk import (
    DriftEstimate,
    Sl2GroupTable,
    _draw_indices,
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
    sub = orbit_restriction(act, act.point_index((1, 0)))
    return sub, lazy_uniform(sub)


# -- ergodic decay -------------------------------------------------------------


def test_error_curve_constant_field_is_zero():
    act, mu = _torus_fixture(4)
    op = markov_operator(Representation(act), mu)
    curve = ergodic_error_curve(op, np.ones(act.n_points), K=6)
    assert np.all(curve.errors <= 1e-13)


def test_error_curve_fourier_mode_exact_rate():
    act = build_cyclic(4)
    rep = Representation(act)
    mu = uniform_on([act.identity_element(), act.generator_element("g"),
                     act.generator_element("g^-1")])
    mode = np.cos(2 * np.pi * np.arange(4) / 4)  # eigenvector, eigenvalue 1/3
    curve = ergodic_error_curve(markov_operator(rep, mu), mode, K=8)
    fnorm = rep.norm(mode)
    for k in range(1, 9):
        assert curve.errors[k - 1] == pytest.approx((1 / 3) ** k * fnorm, rel=1e-10)
    assert curve.slope == pytest.approx(np.log(1 / 3), abs=1e-9)


def test_error_curve_respects_geometric_bound():
    act, mu = _torus_fixture(8)
    op = markov_operator(Representation(act), mu)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(act.n_points)
    curve = ergodic_error_curve(op, f, K=20)
    ks = np.arange(1, 21)
    assert np.all(curve.errors <= curve.lam**ks * curve.field_norm + 1e-9)


def test_error_curve_on_non_ergodic_action_measures_to_orbit_means():
    act = build_sl2_quotient(4, variant="b")  # full grid: several orbits
    mu = uniform_on([act.identity_element()]
                    + [act.generator_element(lab) for lab in act.gens.labels])
    op = markov_operator(Representation(act), mu)
    f = np.arange(act.n_points, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = ergodic_error_curve(op, f, K=3)
    target = op.decomposition.mean(f)
    assert op.decomposition.n_orbits > 1
    g = f
    for k in range(3):
        g = op.apply(g)
        assert curve.errors[k] == op.rep.norm(g - target)


def test_error_curve_lp_slopes():
    act, mu = _torus_fixture(8)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(act.n_points)
    for p in (1.5, 3.0):
        op = markov_operator(Representation(act, p=p), mu)
        est = restricted_norm(op, seed=0, n_starts=2)
        curve = ergodic_error_curve(op, f, K=25, norm_estimate=est)
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
    atoms = [(el.inverse().perm, w) for el, w in mu.items()]
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
    idx0 = act.point_index((1, 0))
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
    center = act.point_index((1, 0))
    plan = plan_from_radii(act, center, [0.3, 0.2, 0.1])
    for n in range(1, 4):
        ball = plan.targets[n - 1]
        assert plan.measures[n - 1] == pytest.approx(len(ball) / act.n_points)
    assert len(plan.targets[0]) >= len(plan.targets[1]) >= len(plan.targets[2])


@pytest.mark.parametrize("m, orbit", [(8, False), (64, True)], ids=["torus-8", "orbit-64"])
def test_radius_plan_targets_are_prefixes_of_one_distance_order(m, orbit):
    act = build_sl2_quotient(m, variant="b")
    if orbit:
        act = orbit_restriction(act, act.point_index((1, 0)))
        assert act.n_points == 3072
    center = act.point_index((1, 0))
    dist = act.metric.distances_from(center)
    # radii on exact distances, below and above every distance, and criterion 8's
    radii = [0.0, 1 / m, np.sqrt(2) / m, 2.0, -1.0,
             *(0.45 * n ** (-0.125) for n in range(1, 301))]
    plan = plan_from_radii(act, center, radii)
    base = plan.targets[0].base
    assert base is not None and all(t.base is base for t in plan.targets)
    assert not base.flags.writeable  # a write through one target would move the others
    for r, target, measure in zip(radii, plan.targets, plan.measures):
        ball = np.flatnonzero(dist <= float(r) + 1e-15)
        assert np.array_equal(np.sort(target), ball)
        assert measure == float(act.weights[ball].sum())


def test_radius_plan_memory_does_not_grow_with_the_ball_sizes():
    # 20,000 balls on the 3,072-point orbit: one index per point, not per ball entry
    torus = build_sl2_quotient(64, variant="b")
    sub = orbit_restriction(torus, torus.point_index((1, 0)))
    center = sub.point_index((1, 0))
    radii = [0.45 * n ** (-0.125) for n in range(1, 20001)]
    tracemalloc.start()
    try:
        plan = plan_from_radii(sub, center, radii)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(t.size for t in plan.targets) > 4e6  # separate arrays would take 35 MB
    assert peak < 4e6


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
    inv = g.inverse().perm
    pos = act.point_index((1, 1))
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
    center = act.point_index((1, 0))
    radii = [0.4 * n ** (-0.5) for n in range(1, 21)]
    plan = plan_from_radii(act, center, radii)
    start = act.point_index((0, 1))
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
    center = act.point_index((1, 0))
    radii = [n ** (-0.5) for n in range(1, 31)]
    plan = plan_from_radii(act, center, radii)
    start = act.point_index((0, 1))
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
    sub = orbit_restriction(act, act.point_index((1, 0)))
    mu = uniform_on(
        [sub.identity_element()]
        + [sub.generator_element(lab) for lab in sub.gens.labels]
    )
    center = sub.point_index((1, 0))
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
        image_of_identity = tuple(act.points[el.perm[act.point_index((1, 0, 0, 1))]].tolist())
        by_matrix[image_of_identity] = el.word_length
    for gid in range(table.n_elements):
        mat = tuple(int(v) for v in table.elements[gid])
        assert by_matrix[mat] == table.word_length[gid]


def test_group_table_left_mult_consistency():
    table = Sl2GroupTable(5)
    # left multiplication by a generator changes word length by at most one
    for lab in table.labels:
        nxt = table.left_mult[lab]
        assert np.all(np.abs(table.word_length[nxt] - table.word_length) <= 1)


def _right_mult_drift(table, mu_labels, n_steps, trials, seed):
    """Mean word lengths of the walk s_1 ... s_n stepped by right products,
    each looked up from the matrix product g s."""
    m = table.m
    ids = {tuple(row): i for i, row in enumerate(table.elements.tolist())}
    x = table.elements.astype(np.int64)
    right = {}
    for lab in mu_labels:
        e, f, g, h = SL2_GENERATOR_MATRICES[lab] if lab != "e" else (1, 0, 0, 1)
        prods = np.stack([x[:, 0] * e + x[:, 1] * g, x[:, 0] * f + x[:, 1] * h,
                          x[:, 2] * e + x[:, 3] * g, x[:, 2] * f + x[:, 3] * h], axis=-1) % m
        right[lab] = np.array([ids[tuple(row)] for row in prods.tolist()])
    labels = list(mu_labels)
    gidx = _draw_indices(list(mu_labels.values()), trials, n_steps, seed)
    pos = np.full(trials, table.identity)
    mean_lengths = np.zeros(n_steps)
    for n in range(n_steps):
        for a, lab in enumerate(labels):
            sel = gidx[:, n] == a
            pos[sel] = right[lab][pos[sel]]
        mean_lengths[n] = float(table.word_length[pos].mean())
    return mean_lengths


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("mu_labels", [MU_LABELS, {"e12": 0.7, "e21^-1": 0.3}],
                         ids=["uniform-lazy", "skew"])
def test_drift_matches_right_multiplication_walk(m, mu_labels):
    # the trials sit at the inverses of the right walk's products, which have
    # the same word lengths, so the mean lengths agree bit for bit
    table = Sl2GroupTable(m)
    for seed in (0, 1):
        drift = estimate_drift_mc(table, mu_labels, n_steps=24, trials=300, seed=seed)
        ref = _right_mult_drift(table, mu_labels, 24, 300, seed)
        assert np.array_equal(drift.mean_lengths, ref)


@pytest.mark.parametrize("seed", [0, 3, 12345])
@pytest.mark.parametrize("n", [5, 48, 301])
def test_draws_follow_one_philox_stream_per_trial(seed, n):
    weights = np.full(7, 1.0 / 7)
    cum = np.cumsum(weights)
    cum[-1] = 1.0
    gidx = _draw_indices(weights, 4, n, seed)
    for t in range(4):
        stream = np.random.Generator(np.random.Philox(key=(seed << 32) + t))
        assert np.array_equal(gidx[t], np.searchsorted(cum, stream.random(n)))


def test_drift_positive_and_reproducible():
    table = Sl2GroupTable(16)
    d0 = estimate_drift_mc(table, MU_LABELS, n_steps=32, trials=1500, seed=0)
    d1 = estimate_drift_mc(table, MU_LABELS, n_steps=32, trials=1500, seed=1)
    assert d0.two_a > 0
    assert abs(d0.two_a - d1.two_a) / d0.two_a < 0.1
    d0b = estimate_drift_mc(table, MU_LABELS, n_steps=32, trials=1500, seed=0)
    assert d0b.two_a == d0.two_a  # bit-exact with the same seed


@pytest.mark.parametrize("n_steps", [0, 1])
def test_drift_refuses_fewer_than_two_steps(n_steps):
    with pytest.raises(ValueError, match="need n_steps >= 2"):
        estimate_drift_mc(Sl2GroupTable(4), MU_LABELS, n_steps=n_steps, trials=10, seed=0)


@pytest.mark.parametrize("trials", [0, -1])
def test_drift_refuses_fewer_than_one_trial(trials):
    # no trial would give a nan drift that cuts every conditioned hit to 0
    with pytest.raises(ValueError, match="need trials >= 1"):
        estimate_drift_mc(Sl2GroupTable(4), MU_LABELS, n_steps=8, trials=trials, seed=0)


def test_drift_refuses_nan_weight():
    # NaN passes both the sign and the sum check; it must not yield a
    # "degenerate" drift of 0
    with pytest.raises(ValueError, match="non-finite weight"):
        estimate_drift_mc(Sl2GroupTable(4), {"e": np.nan, "e12": 0.5, "e12^-1": 0.5},
                          n_steps=8, trials=10, seed=0)


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
    drift = estimate_drift_mc(table, MU_LABELS, n_steps=16, trials=200, seed=2)
    cs = conditioned_series(sub, MU_LABELS, plan, 0.0, table, starts, drift)
    assert cs.a == 0.0
    ws = shrinking_series_exact(sub, mu_op, plan, starts)
    assert np.max(np.abs(cs.unconditioned - ws.hit_probs)) <= 1e-12
    # at word length > 0: only the identity mass is cut
    assert np.max(np.abs(cs.hit_probs - cs.unconditioned)) <= 1.0


def test_conditioned_series_exact_cross_check():
    m = 8
    sub, mu_op = _torus_fixture(m)
    table = Sl2GroupTable(m)
    center = sub.point_index((1, 0))
    plan = plan_from_radii(sub, center, [0.5 * n ** (-0.2) for n in range(1, 25)])
    starts = [0, 11]
    drift = estimate_drift_mc(table, MU_LABELS, n_steps=24, trials=500, seed=3)
    cs = conditioned_series(sub, MU_LABELS, plan, 0.5, table, starts, drift)
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
        conditioned_series(act, MU_LABELS, plan, 0.0, table, [1], _fixed_drift(1.0))


def test_conditioned_rejects_action_that_swaps_generators():
    # the fixture's e12 and e21 maps trade places (inverses too), so the
    # point walk and the matrices of the group table step different walks
    sub, _ = _torus_fixture(8)
    swap = {"e12": "e21", "e21": "e12", "e12^-1": "e21^-1", "e21^-1": "e12^-1"}
    act = FiniteAction(sub.points, sub.weights, sub.gens,
                       {lab: sub.perms[swap[lab]] for lab in sub.gens.labels})
    plan = plan_from_sets(act, [[0], [1, 2], [3]])
    with pytest.raises(ValueError, match="does not act compatibly"):
        conditioned_series(act, {"e": 0.1, "e12": 0.6, "e21^-1": 0.3}, plan, 0.0,
                           Sl2GroupTable(8), [0, 5], _fixed_drift(1.0))


def test_conditioned_rejects_bad_fraction():
    sub, _ = _torus_fixture(4)
    table = Sl2GroupTable(4)
    plan = plan_from_sets(sub, [[0]])
    with pytest.raises(ValueError):
        conditioned_series(sub, MU_LABELS, plan, 1.5, table, [0], _fixed_drift(1.0))


def _conditioned_reference(action, mu_labels, plan, a, table, starts):
    """The step loop as first written: a fresh bool mask per step, and steps
    that scatter the mass at g to s g through the left products."""
    m = table.m
    starts = np.asarray(starts, dtype=np.int64)
    points = action.points
    index_of = np.full(m * m, -1, dtype=np.int64)
    index_of[points[:, 0] * m + points[:, 1]] = np.arange(action.n_points)
    ga, gb, gc, gd = table.elements.T
    xs, ys = points[starts, 0][:, None], points[starts, 1][:, None]
    act_inv = index_of[((gd * xs - gb * ys) % m) * m + (ga * ys - gc * xs) % m]
    dist = np.zeros(table.n_elements)
    dist[table.identity] = 1.0
    cond = np.zeros((len(starts), plan.horizon))
    uncond = np.zeros((len(starts), plan.horizon))
    tail_mass = np.zeros(plan.horizon)
    for n in range(1, plan.horizon + 1):
        out = np.zeros_like(dist)
        for lab, w in mu_labels.items():
            if lab == "e":
                out += w * dist
            else:
                out[table.left_mult[lab]] += w * dist
        dist = out
        cut = table.word_length > a * n
        tail_mass[n - 1] = float(dist[cut].sum())
        in_target = plan.membership(n)[act_inv]
        uncond[:, n - 1] = in_target @ dist
        cond[:, n - 1] = in_target @ (dist * cut)
    return cond, uncond, tail_mass


def _fixed_drift(two_a):
    return DriftEstimate(two_a=two_a, mean_lengths=np.zeros(0), trials=0, seed=0)


def _assert_matches_reference(sub, plan, table, starts):
    # the hits are summed in another order than the reference's mat-vecs
    cs = conditioned_series(sub, MU_LABELS, plan, 0.5, table, starts,
                            drift=_fixed_drift(1.2))
    cond, uncond, tail = _conditioned_reference(sub, MU_LABELS, plan, cs.a, table, starts)
    assert np.max(np.abs(cs.hit_probs - cond)) <= 1e-15
    assert np.max(np.abs(cs.unconditioned - uncond)) <= 1e-15
    assert np.array_equal(cs.tail_mass, tail)


def _conditioned_exact(action, mu_labels, plan, a, table, starts):
    """The conditioned walk in exact rationals of the float weights: mu^n by
    scatter steps through the left products, each hit summed over all of G."""
    m = table.m
    index = {tuple(p): i for i, p in enumerate(action.points.tolist())}
    lengths = table.word_length.tolist()
    dist = [Fraction(0)] * table.n_elements
    dist[table.identity] = Fraction(1)
    cond = np.zeros((len(starts), plan.horizon))
    uncond = np.zeros((len(starts), plan.horizon))
    tail = np.zeros(plan.horizon)
    for n in range(1, plan.horizon + 1):
        out = [Fraction(0)] * table.n_elements
        for lab, w in mu_labels.items():
            dest = range(table.n_elements) if lab == "e" else table.left_mult[lab].tolist()
            for g, sg in enumerate(dest):
                out[sg] += Fraction(w) * dist[g]
        dist = out
        long_word = [length > a * n for length in lengths]
        tail[n - 1] = float(sum(p for p, cut in zip(dist, long_word) if cut))
        target = set(plan.targets[n - 1].tolist())
        for i, (x, y) in enumerate(action.points[starts].tolist()):
            hits = [index[((gd * x - gb * y) % m, (ga * y - gc * x) % m)] in target
                    for ga, gb, gc, gd in table.elements.tolist()]
            uncond[i, n - 1] = float(sum(p for p, hit in zip(dist, hits) if hit))
            cond[i, n - 1] = float(sum(p for p, hit, cut in zip(dist, hits, long_word)
                                       if hit and cut))
    return cond, uncond, tail


def test_conditioned_series_matches_exact_fractions():
    # SL2(Z/8) (384 elements) on its 48-point orbit; a n runs from 0.6 to 7.2,
    # across the word lengths 0..8
    sub, _ = _torus_fixture(8)
    table = Sl2GroupTable(8)
    a_set, b_set = [0, 5, 9, 30], [1, 5, 12, 40]
    plan = plan_from_sets(sub, [a_set, a_set, b_set, a_set] * 3)
    starts = [0, 7, 21]
    cs = conditioned_series(sub, MU_LABELS, plan, 1.0, table, starts, drift=_fixed_drift(1.2))
    cond, uncond, tail = _conditioned_exact(sub, MU_LABELS, plan, cs.a, table, starts)
    assert np.max(np.abs(cs.hit_probs - cond)) <= 1e-15
    assert np.max(np.abs(cs.unconditioned - uncond)) <= 1e-15
    assert np.max(np.abs(cs.tail_mass - tail)) <= 1e-15
    assert np.any(cond > 0) and np.any(cond < uncond - 1e-3)


def test_conditioning_past_the_diameter_cuts_every_word():
    # a = 1/2 on SL2(Z/32), whose words have length at most 18: from step 36
    # on no word is long enough, so no mass is left
    sub, _ = _torus_fixture(32)
    table = Sl2GroupTable(32)
    assert table.word_length.max() == 18
    center = sub.point_index((1, 0))
    plan = plan_from_radii(sub, center, [0.45 * n ** (-0.125) for n in range(1, 49)])
    cs = conditioned_series(sub, MU_LABELS, plan, 1.0, table, [0, 100, 400],
                            drift=_fixed_drift(1.0))
    assert cs.a == 0.5
    assert np.all(cs.tail_mass[:20] > 0)
    assert np.all(cs.tail_mass[35:] == 0.0)
    assert np.max(np.abs(cs.hit_probs[:, 35:])) <= 1e-15
    assert np.all(cs.unconditioned[:, 35:] > 1e-3)


def test_conditioned_series_reused_masks_match_reference_loop():
    # A, A, B, A: equal sizes, so a mask cache keyed on the step, the length
    # or the first target would return the wrong hits at steps 3 or 4
    sub, _ = _torus_fixture(8)
    table = Sl2GroupTable(8)
    a_set, b_set = [0, 5, 9, 30], [1, 5, 12, 40]
    plan = plan_from_sets(sub, [a_set, a_set, b_set, a_set] * 3)
    starts = [0, 7, 21, 47]
    _assert_matches_reference(sub, plan, table, starts)
    cs = conditioned_series(sub, MU_LABELS, plan, 0.0, table, starts, drift=_fixed_drift(1.0))
    assert not np.array_equal(cs.unconditioned[:, 2], cs.unconditioned[:, 3])


def test_conditioned_series_radius_plan_matches_reference_loop():
    sub, _ = _torus_fixture(8)
    table = Sl2GroupTable(8)
    center = sub.point_index((1, 0))
    plan = plan_from_radii(sub, center, [0.5 * n ** (-0.2) for n in range(1, 41)])
    _assert_matches_reference(sub, plan, table, [0, 11, 30])


@pytest.mark.parametrize("drift_fraction", [0.5, 1.0])
def test_conditioned_hits_never_round_below_zero(drift_fraction):
    # unclipped, the differences reached -5.55e-17 at 0.5 and -1.11e-16 at 1.0
    sub, _ = _torus_fixture(8)
    table = Sl2GroupTable(8)
    center = sub.point_index((1, 0))
    plan = plan_from_radii(sub, center, [0.5 * n ** (-0.2) for n in range(1, 41)])
    cs = conditioned_series(sub, MU_LABELS, plan, drift_fraction, table, [0, 11, 30],
                            drift=_fixed_drift(1.0))
    assert cs.hit_probs.min() >= 0.0
    assert np.all(cs.hit_probs <= cs.unconditioned + 1e-15)


def _criterion_9_walk_peak():
    """tracemalloc peak of criterion 9's walk: 40 starts on the (1, 0) orbit
    of (Z/32)^2, 300 steps."""
    torus = build_sl2_quotient(32, variant="b")
    sub = orbit_restriction(torus, torus.point_index((1, 0)))
    table = Sl2GroupTable(32)
    center = sub.point_index((1, 0))
    plan = plan_from_radii(sub, center, [0.45 * n ** (-0.125) for n in range(1, 301)])
    starts = np.random.default_rng(7).choice(sub.n_points, size=40, replace=False)
    drift = _fixed_drift(1.0)
    tracemalloc.start()
    try:
        conditioned_series(sub, MU_LABELS, plan, 0.2, table, starts, drift=drift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_conditioned_series_memory_on_criterion_9_fixture():
    assert _criterion_9_walk_peak() < 28e6


def test_conditioned_series_builds_no_full_size_temporary():
    # no (starts x group) array: under this drift the short words reach all
    # of G by step 180, and their uint16 point indices take 2 MB
    assert _criterion_9_walk_peak() < 6e6


def test_conditioned_series_memory_at_the_largest_modulus():
    # SL2(Z/64) on the 3,072-point orbit of (Z/64)^2: 40 starts, 50 steps
    torus = build_sl2_quotient(64, variant="b")
    sub = orbit_restriction(torus, torus.point_index((1, 0)))
    assert sub.n_points == 3072
    table = Sl2GroupTable(64)
    center = sub.point_index((1, 0))
    plan = plan_from_radii(sub, center, [0.45 * n ** (-0.125) for n in range(1, 51)])
    starts = np.random.default_rng(7).choice(sub.n_points, size=40, replace=False)
    tracemalloc.start()
    try:
        conditioned_series(sub, MU_LABELS, plan, 0.2, table, starts, drift=_fixed_drift(1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_drift_walks_on_the_largest_table_stay_compact():
    # criterion 9's first phase: uint8 elements, int32 left products and int8
    # word lengths (4.1 MB), and no stacked copy of the step rows
    tracemalloc.start()
    try:
        table = Sl2GroupTable(Sl2GroupTable.MAX_MODULUS)
        for seed in range(3):
            estimate_drift_mc(table, MU_LABELS, n_steps=48, trials=2000, seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# -- input checks --------------------------------------------------------------------


def _orbit_inputs(fault):
    """SL2(Z/8)'s primitive orbit (48 points), a plan, starts with one fault, the message."""
    torus = build_sl2_quotient(8, variant="b")
    sub = orbit_restriction(torus, torus.point_index((1, 0)))
    assert sub.n_points == 48
    if fault == "plan-on-torus":
        return sub, plan_from_sets(torus, [[60], [61], [62]]), [0], "different action"
    plan = plan_from_sets(sub, [[1], [2], [3]])
    if fault == "fractional-start":
        return sub, plan, [1.7, 2.2], "start indices must be integers"
    start = {"negative-start": -1, "start-past-end": 48}[fault]
    return sub, plan, [start], r"start indices must lie in \[0, 48\)"


FAULTS = ["plan-on-torus", "negative-start", "start-past-end", "fractional-start"]


@pytest.mark.parametrize("fault", FAULTS)
def test_conditioned_series_rejects_faulty_inputs(fault):
    sub, plan, starts, message = _orbit_inputs(fault)
    with pytest.raises(ValueError, match=message):
        conditioned_series(sub, MU_LABELS, plan, 0.2, Sl2GroupTable(8), starts,
                           drift=_fixed_drift(1.0))


@pytest.mark.parametrize("fault", FAULTS)
def test_shrinking_series_exact_rejects_faulty_inputs(fault):
    sub, plan, starts, message = _orbit_inputs(fault)
    with pytest.raises(ValueError, match=message):
        shrinking_series_exact(sub, lazy_uniform(sub), plan, starts)


@pytest.mark.parametrize("fault", FAULTS)
def test_shrinking_series_mc_rejects_faulty_inputs(fault):
    sub, plan, starts, message = _orbit_inputs(fault)
    with pytest.raises(ValueError, match=message):
        shrinking_series_mc(sub, lazy_uniform(sub), plan, trials=4, seed=0, start=starts[0])
