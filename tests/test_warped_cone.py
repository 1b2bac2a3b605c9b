import math

import numpy as np
import pytest

from gaplab import rep_markov
from gaplab.group_core import word_ball
from gaplab.warped_cone import (
    GhostProjection,
    ball_measure_profile,
    build_cone,
    build_warped_level,
    ghost_defect,
    ghost_locality,
    propagation_check,
    propagation_exhaustive,
)


@pytest.fixture(scope="module")
def level4():
    return build_warped_level(4, t=8.0)


@pytest.fixture(scope="module")
def level8():
    return build_warped_level(8)


def _floyd_warshall_oracle(level):
    """Independent all-pairs shortest paths on the same edge set."""
    n = level.n_points
    m = level.m
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    idx = np.arange(n)
    xs, ys = np.divmod(idx, m)
    grid_w = level.t / m
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        tgt = ((xs + dx) % m) * m + (ys + dy) % m
        for i in range(n):
            dist[i, tgt[i]] = min(dist[i, tgt[i]], grid_w)
    for lab in level.action.gens.labels:
        tgt = level.action.perms[lab]
        for i in range(n):
            if tgt[i] != i:
                dist[i, tgt[i]] = min(dist[i, tgt[i]], 1.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k][:, None] + dist[k, :][None, :])
    return dist


def _slice_distance(level, i, j):
    """Discretized cone-slice metric: t/m times the wrapped Manhattan steps."""
    m = level.m
    (xi, yi), (xj, yj) = divmod(int(i), m), divmod(int(j), m)
    dx = min(abs(xi - xj), m - abs(xi - xj))
    dy = min(abs(yi - yj), m - abs(yi - yj))
    return level.t / m * (dx + dy)


def test_warped_distance_matches_floyd_warshall(level4):
    oracle = _floyd_warshall_oracle(level4)
    computed = level4.all_distances()
    assert np.max(np.abs(computed - oracle)) <= 1e-12


def test_generator_jump_costs_at_most_one(level8):
    dists = level8.all_distances()
    for lab in level8.action.gens.labels:
        tgt = level8.action.perms[lab]
        for x in range(level8.n_points):
            assert dists[x, tgt[x]] <= 1.0 + 1e-12


def test_trivial_direction_reduces_to_grid_metric():
    # with jumps removed the graph metric is the scaled Manhattan torus metric
    level = build_warped_level(4, t=8.0)
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra

    m, n = level.m, level.n_points
    idx = np.arange(n)
    xs, ys = np.divmod(idx, m)
    rows, cols = [], []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        rows.append(idx)
        cols.append(((xs + dx) % m) * m + (ys + dy) % m)
    g = sp.csr_matrix(
        (np.full(4 * n, level.t / m), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    grid_only = dijkstra(g, directed=True)
    for i in (0, 5, 9):
        for j in (1, 7, 14):
            assert grid_only[i, j] == pytest.approx(
                _slice_distance(level, i, j), abs=1e-12
            )


def test_warped_upper_envelope(level4):
    dists = level4.all_distances()
    n = level4.n_points
    for x in range(0, n, 3):
        for y in range(0, n, 5):
            assert dists[x, y] <= _slice_distance(level4, x, y) + 1e-12
    # one generator jump then slice moves
    lab = "e12"
    tgt = level4.action.perms[lab]
    for x in range(0, n, 3):
        for y in range(0, n, 5):
            assert dists[x, y] <= 1.0 + _slice_distance(level4, int(tgt[x]), y) + 1e-12


def test_metric_axioms(level8):
    dists = level8.all_distances()
    assert np.max(np.abs(dists - dists.T)) <= 1e-12
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y, z = rng.integers(0, level8.n_points, size=3)
        assert dists[x, z] <= dists[x, y] + dists[y, z] + 1e-12


def test_level_validation():
    with pytest.raises(ValueError):
        build_warped_level(0, t=2.0)
    with pytest.raises(ValueError):
        build_warped_level(4, t=0.5)
    with pytest.raises(ValueError):
        build_warped_level(1)  # default t = m = 1 is not above scale 1


def test_single_point_levels_degenerate():
    # one-point levels: the ghost is the identity and the defect vanishes
    levels = [build_warped_level(1, t=2.0), build_warped_level(1, t=4.0)]
    ghost = GhostProjection(levels)
    fields = [np.array([3.0]), np.array([-1.0])]
    out = ghost.apply(fields)
    assert out[0][0] == 3.0 and out[1][0] == -1.0
    report = ghost_defect(levels, k_max=5)
    assert np.all(report.cone_defects() == 0.0)


def test_grid_edge_weight_is_scaled_spacing(level4):
    g = level4.graph
    # the edge from (0,0) to (1,0) is a pure grid edge
    i = 0
    j = level4.m  # (1, 0)
    assert g[i, j] == pytest.approx(level4.t / level4.m)


def test_ball_profile_zero_radius(level8):
    prof = ball_measure_profile(level8, 0.0)
    assert prof.max_measure == pytest.approx(1.0 / level8.n_points)


def test_ball_profile_below_min_edge(level8):
    r = 0.5 * min(1.0, level8.t / level8.m)
    prof = ball_measure_profile(level8, r)
    assert prof.max_measure == pytest.approx(1.0 / level8.n_points)


@pytest.mark.parametrize("m", [8, 16])
@pytest.mark.parametrize("R", [0.0, 1.5, 3.0])
def test_ball_profile_matches_all_pairs_balls(m, R):
    # the bounded searches must find the same balls as the full distance matrix
    level = build_warped_level(m)
    measures = (level.all_distances() <= R + 1e-12) @ level.weights
    prof = ball_measure_profile(level, R)
    assert prof.argmax_center == int(np.argmax(measures))
    assert prof.max_measure == float(measures[prof.argmax_center])


def test_ball_profile_decreasing_across_levels():
    values = []
    for m in (8, 16, 32):
        prof = ball_measure_profile(build_warped_level(m), 3.0)
        assert prof.coverage_ok
        values.append(prof.max_measure)
    assert values[0] > values[1] > values[2]


def test_propagation_identity_overlap_only(level8):
    e = level8.action.identity_element()
    report = propagation_check(
        level8, e, [([0, 1], [0]), ([0], [5])], word_length=0
    )
    assert report.ok
    overlapping, disjoint = report.pairs
    assert not overlapping.product_zero
    assert disjoint.product_zero


def test_propagation_generator_separated_supports(level8):
    g = level8.action.generator_element("e12")
    dists = level8.all_distances()
    # find singletons at warped distance 2 > 1 = |g|
    found = None
    for x in range(level8.n_points):
        ys = np.flatnonzero(dists[x] > 2.0 - 1e-9)
        ys = [y for y in ys if dists[x, y] <= 2.5]
        if ys:
            found = (x, ys[0])
            break
    assert found is not None
    x, y = found
    report = propagation_check(level8, g, [([x], [y])])
    assert report.ok
    assert report.pairs[0].separated
    assert report.pairs[0].product_zero


def test_propagation_exhaustive_small_words(level8):
    for el in word_ball(level8.action, 3):
        assert propagation_exhaustive(level8, el)


def test_iterated_operator_propagation_bounded_by_k(level8):
    # A^k mixes words of length <= k, so its matrix support stays within
    # warped distance k
    from gaplab.measures import lazy_uniform
    from gaplab.rep_markov import Representation, markov_operator

    op = markov_operator(Representation(level8.action), lazy_uniform(level8.action))
    dists = level8.all_distances()
    a = op.dense()
    power = np.eye(level8.n_points)
    for k in (1, 2, 3):
        power = power @ a
        xs, ys = np.nonzero(np.abs(power) > 1e-15)
        assert np.all(dists[xs, ys] <= k + 1e-12)


def test_propagation_contrapositive_not_claimed(level8):
    # close supports may or may not annihilate; no violation either way
    g = word_ball(level8.action, 3)[-1]
    report = propagation_check(level8, g, [([0], [1])])
    assert report.ok  # pair is not separated, so nothing is asserted


def test_ghost_projection_identity_on_single_points():
    levels = [build_warped_level(2, t=2.0)]
    ghost = GhostProjection(levels)
    f = np.array([1.0, 2.0, 3.0, 4.0])
    out = ghost.apply([f])[0]
    assert np.allclose(out, 2.5)


def test_ghost_single_point_indicator_norm():
    for m in (4, 8):
        level = build_warped_level(m)
        ghost = GhostProjection([level])
        f = np.zeros(level.n_points)
        f[3] = m  # unit norm under weights 1/m^2
        assert ghost.norm([f]) == pytest.approx(1.0)
        gf = ghost.apply([f])[0]
        assert np.allclose(gf, 1.0 / m)
        assert ghost.norm([gf]) == pytest.approx(1.0 / m)


def test_ghost_annihilates_mean_zero():
    level = build_warped_level(4)
    ghost = GhostProjection([level])
    rng = np.random.default_rng(5)
    f = rng.standard_normal(level.n_points)
    f -= f.mean()
    assert np.max(np.abs(ghost.apply([f])[0])) <= 1e-14


def test_ghost_idempotent_and_rank():
    levels = build_cone((4, 8))
    ghost = GhostProjection(levels)
    rng = np.random.default_rng(7)
    fields = [rng.standard_normal(lv.n_points) for lv in levels]
    once = ghost.apply(fields)
    twice = ghost.apply(once)
    assert max(float(np.max(np.abs(a - b))) for a, b in zip(once, twice)) <= 1e-14
    assert ghost.rank == 2


def test_ghost_commutes_with_generators():
    level = build_warped_level(8)
    ghost = GhostProjection([level])
    rng = np.random.default_rng(9)
    f = rng.standard_normal(level.n_points)
    for lab in level.action.gens.labels:
        inv = level.action.perms[level.action.gens.inverse_label(lab)]
        lhs = ghost.apply([f[inv]])[0]
        rhs = ghost.apply([f])[0][inv]
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_ghost_defect_curves():
    levels = build_cone((4, 8))
    report = ghost_defect(levels, k_max=12)
    assert report.gapped
    assert report.sup_lambda < 1.0
    for row in report.levels:
        assert row.bound_ok()
    assert report.bound_ok()
    # defect curves decay geometrically
    cone = report.cone_defects()
    assert cone[-1] < cone[0]


def test_ghost_defect_one_solve_per_level(monkeypatch):
    applies = {}  # n_points -> MarkovOperator.apply calls
    solves = {}  # n_points -> operator applications of each spectral solve
    apply = rep_markov.MarkovOperator.apply
    top = rep_markov._top_eigenpair

    def counting_apply(self, values):
        applies[self.n_points] = applies.get(self.n_points, 0) + 1
        return apply(self, values)

    def recording_top(fn, dec):
        pair = top(fn, dec)
        solves.setdefault(dec.rep.n_points, []).append(pair.applications)
        return pair

    monkeypatch.setattr(rep_markov.MarkovOperator, "apply", counting_apply)
    monkeypatch.setattr(rep_markov, "_top_eigenpair", recording_top)
    ghost_defect(build_cone((8, 16)), k_max=30)
    assert sorted(applies) == sorted(solves) == [64, 256]
    for n, counts in solves.items():
        # the restricted-norm solve, |A x| once, then one step per k
        assert applies[n] <= counts[0] + 30 + 4


def test_ghost_defect_certified_k_plugin():
    # lambda = 0.8: smallest k with lambda^k <= 1e-3 is 31
    assert math.ceil(math.log(1e-3) / math.log(0.8)) == 31


def test_ghost_locality_single_point_tight():
    level = build_warped_level(8)
    report = ghost_locality([level], R=0.0, n_centers=4, seed=1)
    assert report.ok
    for row in report.rows:
        assert row.ball_measure == pytest.approx(1.0 / level.n_points)
        assert row.max_norm == pytest.approx(math.sqrt(row.ball_measure), abs=1e-12)


def test_ghost_locality_full_level_vacuous():
    level = build_warped_level(4)
    diam = float(np.max(level.all_distances()))
    report = ghost_locality([level], R=diam, n_centers=2, seed=2)
    for row in report.rows:
        assert row.ball_measure == pytest.approx(1.0)
        assert row.bound == pytest.approx(1.0)
    assert report.ok


def test_ghost_locality_decreasing_across_levels():
    levels = build_cone((8, 16, 32))
    report = ghost_locality(levels, R=3.0, n_centers=6, seed=3)
    assert report.ok
    per_level = report.max_norm_per_level()
    assert per_level[8] > per_level[16] > per_level[32]
    for row in report.rows:
        assert row.max_norm <= math.sqrt(row.ball_measure) + 1e-12


def test_level_measure_is_lazy_uniform():
    from gaplab.measures import lazy_uniform

    level = build_warped_level(4)
    mu = lazy_uniform(level.action)
    assert len(mu) == 5
    assert all(w == pytest.approx(0.2) for _, w in mu.items())
