import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from gaplab import kazhdan
from gaplab.group_core import build_cyclic, build_sl2_quotient, element_ball
from gaplab.kazhdan import (
    boost_pair,
    hilbert_improvement,
    kappa_from_decay,
    kazhdan_constant_oracle,
    modulus,
    norm_bound_from_kappa,
)
from gaplab.measures import uniform_extended, uniform_on
from gaplab.rep_markov import (
    DENSE_LIMIT,
    Decomposition,
    Representation,
    markov_operator,
    restricted_norm,
)


# -- modulus ------------------------------------------------------------------


def test_modulus_hilbert_endpoints():
    assert modulus(2.0, 2.0).value == pytest.approx(1.0)
    assert modulus(2.0, 0.0).value == 0.0
    assert modulus(3.0, 0.0).value == 0.0
    assert modulus(1.5, 0.0).value == 0.0


def _planar_modulus_oracle(t, steps=2500, rounds=4):
    """Brute-force inf of 1 - |(v+w)/2| over planar unit pairs with |v-w| >= t."""
    best = 1.0
    lo_a, hi_a = 0.0, 2 * math.pi
    lo_b, hi_b = 0.0, 2 * math.pi
    for _ in range(rounds):
        a = np.linspace(lo_a, hi_a, steps)
        b = np.linspace(lo_b, hi_b, steps)
        av, bv = np.meshgrid(a, b, sparse=True)
        sep2 = (np.cos(av) - np.cos(bv)) ** 2 + (np.sin(av) - np.sin(bv)) ** 2
        mid = np.sqrt(
            (np.cos(av) + np.cos(bv)) ** 2 + (np.sin(av) + np.sin(bv)) ** 2
        ) / 2.0
        mask = sep2 >= t * t - 1e-12
        if not np.any(mask):
            break
        vals = np.where(mask, 1.0 - mid, np.inf)
        j, i = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, float(vals[j, i]))
        ca, cb = a[i], b[j]
        wa = (hi_a - lo_a) / steps * 4
        wb = (hi_b - lo_b) / steps * 4
        lo_a, hi_a = ca - wa, ca + wa
        lo_b, hi_b = cb - wb, cb + wb
    return best


def test_modulus_root_two_against_planar_oracle():
    t = math.sqrt(2.0)
    exact = modulus(2.0, t)
    assert exact.exact
    assert exact.value == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-12)
    assert exact.value == pytest.approx(_planar_modulus_oracle(t), abs=1e-6)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_modulus_monotone_on_grid(p):
    grid = np.arange(0.0, 2.0 + 1e-9, 1e-3)
    vals = [modulus(p, float(t)).value for t in grid]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-15)
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert vals[-1] > 0.0  # uniform convexity: positive at t = 2


def test_modulus_rejects_out_of_range():
    with pytest.raises(ValueError):
        modulus(2.0, 2.5)
    with pytest.raises(ValueError):
        modulus(1.0, 1.0)


# -- kappa oracle -------------------------------------------------------------


def test_oracle_z2_flip():
    act = build_cyclic(2)
    rep = Representation(act)
    res = kazhdan_constant_oracle(rep, [act.generator_element("g")], n_starts=8)
    assert res.best == pytest.approx(2.0, abs=1e-9)
    assert res.lower_bound == pytest.approx(2.0, abs=1e-9)


def _fourier_kappa_z4():
    # oracle: min over modes k of |1 - e^(2 pi i k / 4)| = 2 |sin(pi k / 4)|
    return min(2.0 * abs(math.sin(math.pi * k / 4.0)) for k in (1, 2, 3))


def test_oracle_z4_symmetric_pair_fourier():
    act = build_cyclic(4)
    rep = Representation(act)
    q = [act.generator_element("g"), act.generator_element("g^-1")]
    res = kazhdan_constant_oracle(rep, q, n_starts=16)
    assert _fourier_kappa_z4() == pytest.approx(math.sqrt(2.0))
    assert res.best == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert res.lower_bound == pytest.approx(math.sqrt(2.0), abs=1e-8)


def test_oracle_z3_single_generator_asymmetric_q():
    # Q = {g} is not symmetric; displacements on the two mean-zero modes are
    # |1 - e^(2 pi i k / 3)| = sqrt(3) for k = 1, 2, and the quadratic bound
    # through the symmetrized averaging operator is tight here
    act = build_cyclic(3)
    rep = Representation(act)
    res = kazhdan_constant_oracle(rep, [act.generator_element("g")], n_starts=16)
    assert res.best == pytest.approx(math.sqrt(3.0), abs=1e-6)
    assert res.lower_bound == pytest.approx(math.sqrt(3.0), abs=1e-8)


def test_oracle_one_point_action_sentinel():
    act = build_cyclic(1)
    rep = Representation(act)
    res = kazhdan_constant_oracle(rep, [act.identity_element()])
    assert math.isinf(res.best)


def test_oracle_rejects_empty_q():
    act = build_cyclic(4)
    with pytest.raises(ValueError):
        kazhdan_constant_oracle(Representation(act), [])


@pytest.mark.parametrize("labels", [("g", "g^-1"), ("e", "g")])
def test_oracle_lp_vector_fields_max_displacement(labels):
    # p = 3: best is the max over Q of the displacement norms at the returned
    # minimizer, which is a unit mean-zero field; the identity in Q displaces
    # nothing, so a max over the wrong entries would show
    act = build_cyclic(4)
    rep = Representation(act, p=3.0)
    q = [act.identity_element() if lab == "e" else act.generator_element(lab)
         for lab in labels]
    res = kazhdan_constant_oracle(rep, q, n_starts=8, seed=2)
    v = res.minimizer
    assert v.shape == (4,)
    disps = [rep.norm(v - v[s.inverse().perm]) for s in q]
    assert res.best == pytest.approx(max(disps), abs=1e-12)
    assert rep.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(Decomposition(rep).mean(v))) <= 1e-12
    assert res.lower_bound is None


def test_oracle_full_group_mix_of_quadratics():
    # Z/4 with Q = {e, g, g^2, g^3}: the minimum mixes Fourier modes and
    # equals sqrt(8/3), strictly below the pure-mode value 2
    act = build_cyclic(4)
    rep = Representation(act)
    ball = element_ball(
        [act.generator_element("g"), act.generator_element("g^-1")], 3
    )
    assert len(ball) == 4
    res = kazhdan_constant_oracle(rep, ball, n_starts=32, seed=5)
    assert res.best == pytest.approx(math.sqrt(8.0 / 3.0), abs=5e-3)
    assert res.lower_bound == pytest.approx(math.sqrt(2.0), abs=1e-8)
    assert res.lower_bound <= res.best + 1e-9


def _oracle_case(name):
    if name.startswith("sl2-"):
        act = build_sl2_quotient(int(name[4:]), "a")
        return act, [act.generator_element(lab) for lab in act.gens.labels]
    n = {"z2": 2, "z3": 3, "z4": 4}[name]
    act = build_cyclic(n)
    labels = ["g", "g^-1"] if n == 4 else ["g"]
    return act, [act.generator_element(lab) for lab in labels]


def _count_rng_calls(monkeypatch):
    # only the oracle's own seeded starts: the kernel draws a generator of its own
    seeds = []
    real = np.random.default_rng

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code is kazhdan.kazhdan_constant_oracle.__code__:
            seeds.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return seeds


@pytest.mark.parametrize("name", ["z2", "z3", "z4", "sl2-5"])
def test_oracle_exit_matches_full_search(name, monkeypatch):
    # a quadratic bound of 0 keeps every random start running; the certified
    # exit must return the same best, bit for bit
    act, q = _oracle_case(name)
    rep = Representation(act)
    certified = kazhdan_constant_oracle(rep, q, n_starts=1)
    assert certified.best <= certified.lower_bound + 1e-9
    solve = kazhdan._symmetrized_top

    def top_one(op, k=1):  # theta_1 = 1 gives a bound of 0; the vectors stay
        top = solve(op, k)
        return dataclasses.replace(top, values=np.r_[1.0, top.values[1:]])

    monkeypatch.setattr(kazhdan, "_symmetrized_top", top_one)
    seeds = _count_rng_calls(monkeypatch)
    full = kazhdan_constant_oracle(rep, q, n_starts=1)
    assert full.lower_bound == 0.0
    assert len(seeds) == 1
    assert full.best == certified.best


def test_oracle_skips_random_starts_once_certified(monkeypatch):
    seeds = _count_rng_calls(monkeypatch)
    act, q = _oracle_case("sl2-5")
    res = kazhdan_constant_oracle(Representation(act), q, n_starts=8)
    assert res.best <= res.lower_bound + 1e-9
    assert seeds == []


def test_oracle_is_matrix_free_above_the_dense_limit(monkeypatch):
    # SL2(Z/17) has 4,896 points, above the dense limit; one 4,896^2 float
    # array alone would take 192 MB
    act, q = _oracle_case("sl2-17")
    assert act.n_points > DENSE_LIMIT
    seeds = _count_rng_calls(monkeypatch)
    tracemalloc.start()
    try:
        res = kazhdan_constant_oracle(Representation(act), q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.best <= res.lower_bound + 1e-9
    assert seeds == []
    assert peak < 20e6


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_oracle_runs_random_starts_when_not_certified(p, monkeypatch):
    # Z/4 with Q the whole group: at p = 2 the bound sqrt(2) lies below the
    # minimum sqrt(8/3); at p = 3 there is no bound at all
    act = build_cyclic(4)
    ball = element_ball(
        [act.generator_element("g"), act.generator_element("g^-1")], 3
    )
    seeds = _count_rng_calls(monkeypatch)
    res = kazhdan_constant_oracle(Representation(act, p=p), ball, n_starts=5, seed=5)
    assert len(seeds) == 5
    if p == 2.0:
        assert res.best > res.lower_bound + 1e-3
    else:
        assert res.lower_bound is None


# -- conversions --------------------------------------------------------------


def test_norm_bound_plug_ins():
    assert norm_bound_from_kappa(2.0, 2.0, 2.0) == pytest.approx(0.0)
    val = norm_bound_from_kappa(3.0, 2.0, math.sqrt(2.0))
    assert val == pytest.approx(1.0 - (2.0 / 3.0) * (1.0 - math.sqrt(0.5)), abs=1e-12)
    assert val == pytest.approx(0.8047, abs=5e-4)
    assert norm_bound_from_kappa(3.0, 2.0, 0.0) == pytest.approx(1.0)


def test_norm_bound_validation():
    with pytest.raises(ValueError):
        norm_bound_from_kappa(1.5, 2.0, 1.0)
    with pytest.raises(ValueError):
        norm_bound_from_kappa(2.0, 2.0, 2.5)


def test_kappa_from_decay_geometric():
    conv = kappa_from_decay(1.0 / 3.0)
    assert conv.S_total == pytest.approx(0.5)
    assert conv.kappa == pytest.approx(2.0 / 3.0)
    assert kappa_from_decay(1e-9).kappa == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        kappa_from_decay(1.0)
    with pytest.raises(ValueError):
        kappa_from_decay(-0.1)


def test_kappa_from_decay_perfect_gap():
    # lambda = 0 (the Fourier-exact Z/2 fixture) is a perfect gap, not an error
    conv = kappa_from_decay(0.0)
    assert conv.S_total == 0.0
    assert conv.kappa == 1.0


def test_kappa_from_decay_below_oracle():
    act = build_cyclic(4)
    rep = Representation(act)
    mu = uniform_on([act.identity_element(), act.generator_element("g"),
                     act.generator_element("g^-1")])
    lam = restricted_norm(markov_operator(rep, mu)).value
    conv = kappa_from_decay(lam)
    oracle = kazhdan_constant_oracle(
        rep, [act.generator_element("g"), act.generator_element("g^-1")], n_starts=8
    )
    assert conv.kappa <= oracle.best + 1e-6  # valid but not tight
    assert conv.kappa == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_hilbert_improvement_values():
    assert hilbert_improvement(0.0) == pytest.approx(math.sqrt(2.0))
    assert hilbert_improvement(1.0) == 0.0
    assert hilbert_improvement(1.0 / 3.0) == pytest.approx(
        math.sqrt(2.0) * math.sqrt(2.0 / 3.0), abs=1e-12
    )
    with pytest.raises(ValueError):
        hilbert_improvement(0.5, p=3.0)


def test_hilbert_improvement_below_oracle_on_fixtures():
    act = build_cyclic(4)
    rep = Representation(act)
    mu = uniform_on([act.identity_element(), act.generator_element("g"),
                     act.generator_element("g^-1")])
    lam = restricted_norm(markov_operator(rep, mu)).value
    q = [act.generator_element("g"), act.generator_element("g^-1")]
    oracle = kazhdan_constant_oracle(rep, q, n_starts=8)
    assert hilbert_improvement(lam) <= oracle.best + 1e-6


def test_boost_pair_values():
    act = build_cyclic(4)
    q = [act.generator_element("g"), act.generator_element("g^-1")]
    res = boost_pair(q, 1.0 / 3.0, 0.1)
    assert res.m == 3
    assert res.kappa == pytest.approx(26.0 / 27.0)
    assert res.kappa >= 1.0 - 0.1
    # ball of radius 3 in {g, g^-1} covers all of Z/4
    assert len(res.kazhdan_set) == 4


def test_boost_pair_one_step_when_eps_large():
    act = build_cyclic(4)
    q = [act.generator_element("g")]
    res = boost_pair(q, 1.0 / 3.0, 0.5)
    assert res.m == 1
    assert res.kappa == pytest.approx(2.0 / 3.0)


def test_boost_pair_one_step_at_perfect_gap():
    act = build_cyclic(2)
    res = boost_pair([act.generator_element("g")], 0.0, 0.1)
    assert res.m == 1
    assert res.kappa == 1.0
    assert len(res.kazhdan_set) == 2  # {e, g}


def test_boost_pair_verified_by_oracle():
    act = build_cyclic(4)
    rep = Representation(act)
    q = [act.generator_element("g"), act.generator_element("g^-1")]
    res = boost_pair(q, 1.0 / 3.0, 0.1)
    oracle = kazhdan_constant_oracle(rep, res.kazhdan_set, n_starts=16, seed=3)
    assert oracle.lower_bound >= res.kappa - 1e-6 or oracle.best >= res.kappa - 1e-6


# -- certificates -------------------------------------------------------------


def _sandwich_holds(kappa, lam, M, p=2.0, tol=1e-6):
    """1 - kappa <= lambda <= 1 - (2/M) delta(kappa)."""
    upper = norm_bound_from_kappa(M, p, min(kappa, 2.0))
    return 1.0 - kappa <= lam + tol and lam <= upper + tol


def test_certificate_sandwich_z4():
    act = build_cyclic(4)
    rep = Representation(act)
    e = act.identity_element()
    q = [act.generator_element("g"), act.generator_element("g^-1")]
    mu, acert = uniform_extended(q, e)
    lam = restricted_norm(markov_operator(rep, mu)).value
    oracle = kazhdan_constant_oracle(rep, q, n_starts=8)
    assert _sandwich_holds(oracle.best, lam, acert.M)


def test_certificate_sandwich_catches_violation():
    assert not _sandwich_holds(2.0, 0.9, 2.0)  # kappa = 2 forces lambda = 0 at M = 2


