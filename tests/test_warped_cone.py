import math
import tracemalloc

import numpy as np
import pytest

from gaplab import rep_markov
from gaplab import warped_cone as wc
from gaplab.group_core import word_ball
from gaplab.warped_cone import (
    ball_measure_profile,
    build_cone,
    build_warped_level,
    ghost_defect,
    ghost_locality,
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


def _dijkstra_reference(level):
    """scipy's all-pairs shortest paths on the warped graph, built from the
    grid steps and generator maps afresh, cheaper parallel edge kept."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import dijkstra

    m, n = level.m, level.n_points
    idx = np.arange(n)
    xs, ys = np.divmod(idx, m)
    edges = {}
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        for i, j in zip(idx, ((xs + dx) % m) * m + (ys + dy) % m):
            edges[i, j] = level.t / m
    for lab in level.action.gens.labels:
        for i, j in zip(idx, level.action.perms[lab]):
            edges[i, j] = min(edges.get((i, j), np.inf), 1.0)
    rows, cols, data = zip(*[(i, j, w) for (i, j), w in edges.items() if i != j])
    graph = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    return dijkstra(graph, directed=True)


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


def test_all_distances_match_references(level8):
    assert np.array_equal(level8.all_distances(), _floyd_warshall_oracle(level8))
    level16 = build_warped_level(16)
    assert np.array_equal(level16.all_distances(), _dijkstra_reference(level16))


@pytest.mark.parametrize("m, t", [(4, 8.0), (8, None), (16, None), (32, None), (5, 3.0), (6, 7.5)])
def test_word_image_balls_match_dijkstra(m, t):
    # column x of the word images is the warped R-ball of x, at every center
    level = build_warped_level(m, t)
    dists = _dijkstra_reference(level)
    n = level.n_points
    for R in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        maps = level.word_images(R)
        assert maps.dtype == np.int32 and maps.shape[1] == n
        assert np.array_equal(maps[0], np.arange(n))  # the empty word first
        member = np.zeros((n, n), dtype=bool)
        member[np.arange(n), maps] = True
        assert np.array_equal(member, dists <= R + 1e-12)


@pytest.mark.parametrize("m, t", [(4, 8.0), (8, None), (16, None), (5, 3.0), (6, 7.5)])
@pytest.mark.parametrize("maps_per_point", [wc.MAPS_PER_POINT, 0])
def test_ball_masks_match_dijkstra(monkeypatch, m, t, maps_per_point):
    # both paths, word images and the point sets that take over past
    # MAPS_PER_POINT maps per point, give the dijkstra balls
    monkeypatch.setattr(wc, "MAPS_PER_POINT", maps_per_point)
    monkeypatch.setattr(wc, "BALL_CHUNK", 7)
    level = build_warped_level(m, t)
    dists = _dijkstra_reference(level)
    centers = np.arange(level.n_points)[::-1]
    for R in (0.0, 1.0, 2.5, 4.0, 50.0):
        masks = np.concatenate(list(level.ball_masks(R, centers)))
        assert np.array_equal(masks, dists[centers] <= R + 1e-12)


def test_word_search_gives_up_past_max_maps(level8):
    assert level8.word_images(3.0, max_maps=231).shape == (231, 64)
    assert level8.word_images(3.0, max_maps=230) is None
    # the search over maps stays small at a radius that covers every level
    assert level8.word_images(1e6, max_maps=4 * 64) is None


@pytest.mark.parametrize("R", [10.0, 1e6])
def test_large_radius_stays_bounded(R):
    # every ball is the whole grid; the affine maps of m = 32 number about
    # 25 million, so a search that kept them all would need gigabytes
    level = build_warped_level(32)
    tracemalloc.start()
    try:
        prof = ball_measure_profile(level, R)
        locality = ghost_locality([level], R=R, n_centers=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.max_measure == 1.0 and prof.coverage_ok
    assert locality.ok and all(r.ball_measure == 1.0 for r in locality.rows)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("m", [8, 16])
def test_word_images_probe_key_matches_full_rows(m):
    # deduplicating whole rows, one unit-cost layer at a time, keeps the
    # same maps as the search keyed on the images of 0, 1 and m
    level = build_warped_level(m)
    layer = {np.arange(level.n_points, dtype=np.int32).tobytes()}
    seen = set(layer)
    for _ in range(4):
        layer = {level.edges[e][np.frombuffer(row, dtype=np.int32)]
                 .astype(np.int32).tobytes()
                 for row in layer for e in range(len(level.edges))} - seen
        seen |= layer
    maps = level.word_images(4.0)
    assert len(maps) == len(seen)
    assert {row.tobytes() for row in maps} == seen


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
    # one-point levels: the ghost is the identity, so the defect vanishes
    levels = [build_warped_level(1, t=2.0), build_warped_level(1, t=4.0)]
    report = ghost_defect(levels, k_max=5)
    assert np.all(report.cone_defects() == 0.0)
    # every edge map is the identity: one map, one-point balls of measure 1
    level = levels[0]
    assert level.edges.shape == (8, 1) and np.all(level.edges == 0)
    assert np.array_equal(level.word_images(3.0), np.zeros((1, 1), dtype=np.int32))
    assert np.array_equal(level.all_distances(), np.zeros((1, 1)))
    prof = ball_measure_profile(level, 3.0)
    assert prof.max_measure == 1.0 and prof.argmax_center == 0 and prof.coverage_ok
    locality = ghost_locality([level], R=3.0, n_centers=1)
    assert locality.ok and locality.rows[0].ball_measure == 1.0


def test_grid_edge_weight_is_scaled_spacing(level4):
    # the edge from (0,0) to (1,0) is a pure grid edge
    i = 0
    j = level4.m  # (1, 0)
    costs = level4.edge_costs[level4.edges[:, i] == j]
    assert costs.tolist() == [pytest.approx(level4.t / level4.m)]


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
    # phi pi_e psi != 0 exactly when the supports overlap; overlapping
    # singletons sit at distance 0 = |e|, distinct ones are separated
    e = level8.action.identity_element()
    assert e.word_length == 0
    assert propagation_exhaustive(level8, e)
    dists = level8.all_distances()
    distinct = ~np.eye(level8.n_points, dtype=bool)
    assert np.all(np.diag(dists) == 0.0)
    assert np.all(dists[distinct] > e.word_length)


def test_propagation_generator_separated_supports(level8):
    g = level8.action.generator_element("e12")
    assert g.word_length == 1
    assert propagation_exhaustive(level8, g)
    dists = level8.all_distances()
    # singletons {x}, {y} separated beyond |g| = 1 give a zero product: x != g y
    xs, ys = np.nonzero(dists > g.word_length + 1e-12)
    assert np.any(dists[xs, ys] == 2.0)  # some pairs sit just beyond |g|
    assert not np.any(g.perm[ys] == xs)


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
    n = level8.n_points
    close = level8.all_distances() <= g.word_length + 1e-12
    overlapping = np.zeros((n, n), dtype=bool)
    overlapping[g.perm, np.arange(n)] = True  # x = g y: nonzero product
    assert np.any(close & overlapping) and np.any(close & ~overlapping)
    assert propagation_exhaustive(level8, g)


def test_ghost_defect_curves():
    levels = build_cone((4, 8))
    report = ghost_defect(levels, k_max=12)
    assert report.gapped
    assert report.sup_lambda < 1.0
    ks = np.arange(1, 13)
    for row in report.levels:
        assert np.all(row.defects <= row.lam**ks + rep_markov.DECAY_TOL)
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
