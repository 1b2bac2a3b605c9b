import itertools
import tracemalloc
from collections import deque

import numpy as np
import pytest

from gaplab import group_core
from gaplab.group_core import (
    CayleyGraph,
    FiniteAction,
    GeneratorSystem,
    GroupElement,
    SL2_GENERATOR_MATRICES,
    Sl2GroupTable,
    _sl2_closure,
    _sl2_key,
    _sl2_order,
    action_fingerprint,
    action_to_json,
    build_cyclic,
    build_sl2_quotient,
    element_ball,
    orbit_restriction,
    sl2_coset_coordinates,
    word_ball,
)
from gaplab.measures import DiscreteMeasure, lazy_uniform, power


def test_build_cyclic_one_point():
    act = build_cyclic(1)
    assert act.n_points == 1
    for lab in act.gens.labels:
        assert act.generator_element(lab).is_identity()


def test_build_cyclic_two_is_swap():
    act = build_cyclic(2)
    assert act.perms["g"].tolist() == [1, 0]
    assert act.perms["g^-1"].tolist() == [1, 0]


def test_build_cyclic_four_matches_translation_enumeration():
    act = build_cyclic(4)
    # oracle: translations written out by hand
    assert act.perms["g"].tolist() == [1, 2, 3, 0]
    assert act.perms["g^-1"].tolist() == [3, 0, 1, 2]
    assert np.allclose(act.weights, 0.25)
    graph = CayleyGraph(act)
    undirected = {frozenset(e) for e in graph.edges()}
    assert undirected == {
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({3, 0}),
    }


def test_build_cyclic_rejects_zero():
    with pytest.raises(ValueError):
        build_cyclic(0)


def _brute_force_sl2(m):
    """All 2x2 matrices mod m with determinant 1."""
    out = set()
    for a, b, c, d in itertools.product(range(m), repeat=4):
        if (a * d - b * c) % m == 1 % m:
            out.add((a, b, c, d))
    return out


def test_sl2_variant_a_mod2_order_six():
    act = build_sl2_quotient(2, variant="a")
    assert act.n_points == 6
    assert set(map(tuple, act.points.tolist())) == _brute_force_sl2(2)


def test_sl2_variant_a_mod3_order():
    act = build_sl2_quotient(3, variant="a")
    assert act.n_points == len(_brute_force_sl2(3)) == 24


def _deque_sl2(m):
    """Reference enumeration: SL2(Z/m) by a queue-driven breadth-first search
    under left multiplication, with left-translation perms per generator."""

    def mul(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % m, (x[0] * y[1] + x[1] * y[3]) % m,
                (x[2] * y[0] + x[3] * y[2]) % m, (x[2] * y[1] + x[3] * y[3]) % m)

    gens = {lab: tuple(x % m for x in mat) for lab, mat in SL2_GENERATOR_MATRICES.items()}
    ident = (1 % m, 0, 0, 1 % m)
    index = {ident: 0}
    elements = [ident]
    queue = deque([ident])
    while queue:
        a = queue.popleft()
        for g in gens.values():
            b = mul(g, a)
            if b not in index:
                index[b] = len(elements)
                elements.append(b)
                queue.append(b)
    perms = {lab: [index[mul(g, a)] for a in elements] for lab, g in gens.items()}
    return elements, perms


@pytest.mark.parametrize("m", [*range(2, 14), 16, 30])
def test_sl2_variant_a_matches_deque_reference(m):
    elements, perms = _deque_sl2(m)
    act = build_sl2_quotient(m, variant="a")
    assert act.points.dtype == np.int64
    assert act.points.tolist() == [list(x) for x in elements]
    for lab in SL2_GENERATOR_MATRICES:
        assert act.perms[lab].tolist() == perms[lab]


def test_sl2_table_shares_the_quotient_order():
    table = Sl2GroupTable(7)
    act = build_sl2_quotient(7, variant="a")
    assert np.array_equal(table.elements, act.points)
    assert table.word_length[0] == 0
    assert np.all(np.diff(table.word_length) >= 0)  # breadth-first levels


# moduli where some elements have neither a nor c a unit
MIXED_MODULI = [6, 10, 12, 30, 60]


def _sl2_order(m):
    order = m ** 3
    for q in range(2, m + 1):
        if m % q == 0 and all(q % r for r in range(2, q)):
            order = order * (q * q - 1) // (q * q)
    return order


@pytest.mark.parametrize("m", range(2, 65))
def test_sl2_key_is_injective_and_below_m_cubed(m):
    elements = _sl2_closure(m)[0]
    a, b, c, d = elements.T
    keys = _sl2_key(a, b, c, d, m)
    assert keys.min() >= 0 and keys.max() < m ** 3
    # distinct keys make the rows distinct, so with the determinant and the
    # order they are all of SL2(Z/m), and the key is injective on it
    assert np.bincount(keys, minlength=m ** 3).max() == 1
    assert np.all((a * d - b * c) % m == 1 % m)
    assert len(elements) == _sl2_order(m)
    if m in MIXED_MODULI:
        assert np.any((np.gcd(a, m) > 1) & (np.gcd(c, m) > 1))


def _matrix_products(x, y, m):
    """Rows x y mod m of 2x2 matrices (a, b, c, d), one side possibly a single matrix."""
    a, b, c, d = np.asarray(x).T
    e, f, g, h = np.asarray(y).T
    return np.stack([a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h], axis=-1) % m


@pytest.mark.parametrize("m", [2, 6, 16, 30])
def test_sl2_table_left_mult_is_the_matrix_product(m):
    table = Sl2GroupTable(m)
    ids = {tuple(row): i for i, row in enumerate(table.elements.tolist())}
    for lab, s in SL2_GENERATOR_MATRICES.items():
        prods = _matrix_products(s, table.elements, m)
        assert table.left_mult[lab].tolist() == [ids[tuple(row)] for row in prods.tolist()]


@pytest.mark.parametrize("m", [2, 6, 16, 30])
def test_sl2_table_right_mult_is_the_matrix_product(m):
    # the left products carry right multiplication too: g s = (s^-1 g^-1)^-1
    table = Sl2GroupTable(m)
    ids = {tuple(row): i for i, row in enumerate(table.elements.tolist())}
    a, b, c, d = table.elements.T
    inv = np.array([ids[tuple(row)] for row in
                    np.stack([d, -b % m, -c % m, a], axis=-1).tolist()])
    for lab, s in SL2_GENERATOR_MATRICES.items():
        right = inv[table.left_mult[group_core._SL2_GENS.inverse_label(lab)][inv]]
        prods = _matrix_products(table.elements, s, m)
        assert right.tolist() == [ids[tuple(row)] for row in prods.tolist()]


@pytest.mark.parametrize("m", range(2, 13))
def test_sl2_order_counts_the_determinant_one_matrices(m):
    entries = np.array(list(itertools.product(range(m), repeat=4)))
    a, b, c, d = entries.T
    assert _sl2_order(m) == np.count_nonzero((a * d - b * c) % m == 1 % m)


@pytest.mark.parametrize("m", [16, 30, 32])
def test_sl2_closure_chunks_do_not_move_the_numbering(m, monkeypatch):
    default = _sl2_closure(m)
    monkeypatch.setattr(group_core, "_CLOSURE_CHUNK", 7)
    elements, lengths, left = _sl2_closure(m)
    assert np.array_equal(elements, default[0])
    assert np.array_equal(lengths, default[1])
    assert np.array_equal(left, default[2])


def test_sl2_closure_refuses_generators_that_miss_the_group(monkeypatch):
    # the upper unipotent matrices alone reach only m of the elements
    upper = {lab: g for lab, g in SL2_GENERATOR_MATRICES.items() if lab.startswith("e12")}
    monkeypatch.setattr(group_core, "SL2_GENERATOR_MATRICES", upper)
    with pytest.raises(RuntimeError, match="reached 6 of the 144 elements"):
        _sl2_closure(6)


def _sl2_table_build_peak():
    tracemalloc.start()
    try:
        Sl2GroupTable(Sl2GroupTable.MAX_MODULUS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak


def test_sl2_table_build_memory_at_the_largest_modulus():
    assert _sl2_table_build_peak() < 27e6


def test_sl2_table_build_holds_only_the_closure():
    # 14.2 MB of elements, word lengths and left products, the 2 MB id table
    # and the closure's chunk temporaries: no inverse lookup over all elements
    assert _sl2_table_build_peak() < 19e6


@pytest.mark.parametrize("m, digest", [
    (17, "1064065ce1a66cab53052da40a0a5cc425db32723e0124bd74301d942805f350"),
    (31, "8610c2afdb2800f10f4065f0261c6deeff6dbde57ac97fa6c39cef3d9c9f3389"),
])
def test_sl2_variant_a_point_order_is_pinned(m, digest):
    # every SL2 number downstream depends on this order
    assert action_fingerprint(build_sl2_quotient(m, "a")) == digest


def test_sl2_table_rejects_moduli_outside_range():
    for m in (0, 1, 65):
        with pytest.raises(ValueError):
            Sl2GroupTable(m)


def test_sl2_variant_b_mod2_hand_arithmetic():
    act = build_sl2_quotient(2, variant="b")
    assert act.n_points == 4
    # (1 1; 0 1): (x, y) -> (x + y, y) mod 2
    p = act.perms["e12"]
    for i, (x, y) in enumerate(act.points.tolist()):
        assert p[i] == act.point_index(((x + y) % 2, y))


def test_sl2_variant_b_mod1_one_point():
    act = build_sl2_quotient(1, variant="b")
    assert act.n_points == 1


def test_sl2_rejects_bad_modulus():
    with pytest.raises(ValueError):
        build_sl2_quotient(1, variant="a")
    with pytest.raises(ValueError):
        build_sl2_quotient(0, variant="b")
    with pytest.raises(ValueError):
        build_sl2_quotient(3, variant="c")


def test_word_ball_radius_zero_is_identity():
    act = build_cyclic(4)
    ball = word_ball(act, 0)
    assert len(ball) == 1 and ball[0].is_identity()
    assert ball[0].word_length == 0


def test_word_ball_cyclic_radius_one():
    act = build_cyclic(4)
    ball = word_ball(act, 1)
    assert len(ball) == 3
    assert sorted(e.word_length for e in ball) == [0, 1, 1]


def _enumerate_words(action, r):
    """Oracle: all products of <= r generators, deduplicated by realization."""
    gens = [action.generator_element(lab) for lab in action.gens.labels]
    best = {tuple(range(action.n_points)): 0}
    for length in range(1, r + 1):
        for word in itertools.product(gens, repeat=length):
            el = action.identity_element()
            for g in word:
                el = g.compose(el)
            best.setdefault(tuple(el.perm.tolist()), length)
    return best


def test_word_ball_sl2_mod3_matches_word_enumeration():
    act = build_sl2_quotient(3, variant="a")
    ball = word_ball(act, 2)
    oracle = _enumerate_words(act, 2)
    assert len(ball) == len(oracle)
    for el in ball:
        assert oracle[tuple(el.perm.tolist())] == el.word_length


def test_word_ball_monotone_and_stabilizes():
    act = build_sl2_quotient(2, variant="a")
    sizes = [len(word_ball(act, r)) for r in range(8)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == act.n_points  # variant (a): stabilizes at the full group


def test_generator_inverse_composition_is_identity():
    for act in (build_cyclic(5), build_sl2_quotient(3, variant="b")):
        for lab in act.gens.labels:
            g = act.generator_element(lab)
            h = act.generator_element(act.gens.inverse_label(lab))
            assert g.compose(h).is_identity()
            assert h.compose(g).is_identity()


def test_weight_preservation_random_checks():
    act = build_sl2_quotient(4, variant="b")
    for lab in act.gens.labels:
        p = act.perms[lab]
        assert np.allclose(act.weights[p], act.weights)


def test_realization_equality():
    act = build_cyclic(2)
    g = act.generator_element("g")
    h = act.generator_element("g^-1")
    assert g == h  # same permutation in Z/2
    assert len({g, h}) == 1


def test_element_inverse():
    act = build_sl2_quotient(3, variant="a")
    g = act.generator_element("e12")
    assert g.compose(g.inverse()).is_identity()


def test_generator_system_validation():
    with pytest.raises(ValueError):
        GeneratorSystem(labels=("a", "a"), inverses={"a": "a"})
    with pytest.raises(ValueError):
        GeneratorSystem(labels=("a",), inverses={"a": "b"})


def test_cayley_graph_degrees_and_symmetry():
    act = build_sl2_quotient(3, variant="a")
    graph = CayleyGraph(act)
    assert len(graph.labels) == 4
    adj = graph.adjacency()
    assert np.array_equal(adj, adj.T)
    assert np.all(adj.sum(axis=1) == 4)


def test_torus_action_orbits_and_restriction():
    act = build_sl2_quotient(4, variant="b")
    # the origin is fixed, so the full grid action has several orbits
    assert len(act.orbits()) > 1
    orbit_sizes = sorted(len(o) for o in act.orbits())
    assert sum(orbit_sizes) == 16
    # restrict to the orbit of a primitive vector
    idx = act.point_index((1, 0))
    sub = orbit_restriction(act, idx)
    assert len(sub.orbits()) == 1
    assert abs(sub.weights.sum() - 1.0) < 1e-12
    assert sub.points[sub.point_index((1, 0))].tolist() == [1, 0]
    with pytest.raises(ValueError, match="not a point"):
        sub.point_index((0, 0))


def _bfs_orbits(action):
    """Reference orbits: a queue-driven search from each unseen point in turn."""
    seen = np.full(action.n_points, -1)
    orbits = []
    for start in range(action.n_points):
        if seen[start] >= 0:
            continue
        seen[start] = len(orbits)
        members, queue = [start], deque([start])
        while queue:
            x = queue.popleft()
            for lab in action.gens.labels:
                y = int(action.perms[lab][x])
                if seen[y] < 0:
                    seen[y] = len(orbits)
                    members.append(y)
                    queue.append(y)
        orbits.append(sorted(members))
    return orbits, seen


def _explicit_multi_orbit_action():
    # 7 points: the 3-cycle (0 4 5), the swap (1 6) and the fixed points 2, 3
    perm = np.array([4, 6, 2, 3, 5, 0, 1])
    inv = np.argsort(perm)
    gens = GeneratorSystem(labels=("s", "s^-1"), inverses={"s": "s^-1", "s^-1": "s"})
    return FiniteAction(list(range(7)), np.full(7, 1.0 / 7.0), gens,
                        {"s": perm, "s^-1": inv})


@pytest.mark.parametrize("build", [_explicit_multi_orbit_action,
                                   lambda: build_sl2_quotient(16, variant="b")])
def test_orbits_match_breadth_first_reference(build):
    act = build()
    want, want_index = _bfs_orbits(act)
    assert len(want) > 1
    assert [orb.tolist() for orb in act.orbits()] == want
    assert act.orbit_index().tolist() == want_index.tolist()


def test_action_serialization_roundtrip_shape():
    act = build_cyclic(3)
    doc = action_to_json(act)
    assert doc["n_points"] == 3
    assert doc["generators"]["g"] == [1, 2, 0]
    assert abs(sum(doc["weights"]) - 1.0) < 1e-12


def test_element_ball_over_subset():
    act = build_cyclic(8)
    g2 = act.generator_element("g").compose(act.generator_element("g"))
    ball = element_ball([g2], 2, identity=act.identity_element())
    # words in {g^2}: e, g^2, g^4
    assert len(ball) == 3


def test_sl2_generator_matrices_are_unimodular():
    for a, b, c, d in SL2_GENERATOR_MATRICES.values():
        assert a * d - b * c == 1


def _walk_law(table, mu_labels, n):
    """mu^n by gathers through ``walk_steps``, as the conditioned walk steps it."""
    columns, weights = table.walk_steps(mu_labels)
    rows = [np.arange(table.n_elements) if j < 0 else table.left[:, j] for j in columns]
    dist = np.zeros(table.n_elements)
    dist[table.identity] = 1.0
    for _ in range(n):
        dist = sum(w * dist[row] for row, w in zip(rows, weights))
    return dist


def _scatter_convolution_step(table, dist, mu_labels):
    """Reference step: scatter each label's mass from g to s g through the left products."""
    out = np.zeros_like(dist)
    for lab, w in mu_labels.items():
        if lab == "e":
            out += w * dist
        else:
            out[table.left_mult[lab]] += w * dist
    return out


@pytest.mark.parametrize("m", [8, 16])
def test_convolution_step_gather_matches_scatter_bit_for_bit(m):
    mu_labels = {"e": 0.2, "e12": 0.2, "e12^-1": 0.2, "e21": 0.2, "e21^-1": 0.2}
    table = Sl2GroupTable(m)
    ref = _walk_law(table, mu_labels, 0)
    for n in range(1, 51):
        ref = _scatter_convolution_step(table, ref, mu_labels)
        assert np.array_equal(_walk_law(table, mu_labels, n), ref)
    assert abs(ref.sum() - 1.0) <= 1e-12


def test_convolution_step_unequal_weights_match_scatter():
    # a non-symmetric measure: gathering through s^-1 g must still move mass by s
    mu_labels = {"e12": 0.7, "e21^-1": 0.3}
    table = Sl2GroupTable(8)
    ref = _walk_law(table, mu_labels, 0)
    for _ in range(10):
        ref = _scatter_convolution_step(table, ref, mu_labels)
    assert np.array_equal(_walk_law(table, mu_labels, 10), ref)


@pytest.mark.parametrize("mu_labels", [
    {"e": 0.2, "e12": 0.2, "e12^-1": 0.2, "e21": 0.2, "e21^-1": 0.2},
    {"e12": 0.7, "e21^-1": 0.3},
], ids=["uniform-lazy", "skew"])
def test_walk_law_is_the_convolution_power(mu_labels):
    # SL2(Z/5) acting on itself: element g sends the identity (point 0) to g
    table = Sl2GroupTable(5)
    act = build_sl2_quotient(5, "a")
    mu = DiscreteMeasure({act.identity_element() if lab == "e" else act.generator_element(lab): w
                          for lab, w in mu_labels.items()})
    for n in range(6):
        ref = np.zeros(table.n_elements)
        for el, w in power(mu, n).atoms.items():
            ref[el.perm[table.identity]] += w
        assert np.max(np.abs(_walk_law(table, mu_labels, n) - ref)) <= 1e-15


@pytest.mark.parametrize("mu_labels, message", [
    ({"e": 0.5, "e12": -0.5, "e21": 1.0}, "negative weight"),
    ({"e": 0.5, "f": 0.5}, "unknown label 'f'"),
    ({"e": 0.5, "e12": 0.4}, "do not sum to 1"),
    ({"e": float("nan"), "e12": 0.5, "e12^-1": 0.5}, "non-finite weight for 'e'"),
    ({"e12": float("inf"), "e21": 0.5}, "non-finite weight for 'e12'"),
])
def test_walk_steps_reject_bad_measures(mu_labels, message):
    with pytest.raises(ValueError, match=message):
        Sl2GroupTable(4).walk_steps(mu_labels)


def test_group_element_matches_the_per_entry_int_construction():
    act = build_sl2_quotient(7, "a")
    g = act.generator_element("e12")
    h = g.compose(act.generator_element("e21"))
    for el, source in ((g, act.perms["e12"]), (h, h.perm)):
        old = [int(i) for i in source]
        same = GroupElement(old)  # built entry by entry from Python ints
        assert el.perm.dtype == np.int64 and not el.perm.flags.writeable
        assert el.perm.tolist() == old
        assert el == same and hash(el) == hash(same)
        assert el.key() == ",".join(str(i) for i in old)
    assert g != h and g.compose(h) != h.compose(g)


@pytest.mark.parametrize("bad", [[0, 0, 2], [0, 1, 3], [-1, 1, 2]],
                         ids=["duplicate", "out-of-range", "negative"])
def test_action_rejects_a_generator_map_that_is_not_a_permutation(bad):
    gens = GeneratorSystem(labels=("g",), inverses={"g": "g"})
    with pytest.raises(ValueError, match="is not a permutation"):
        FiniteAction([0, 1, 2], np.full(3, 1.0 / 3), gens, {"g": np.array(bad)})


@pytest.mark.parametrize("p", [2, 3, 7])
def test_sl2_coset_coordinates_rebuild_each_element(p):
    elements = build_sl2_quotient(p, "a").points
    v, t = sl2_coset_coordinates(elements, p)
    first = np.stack(np.divmod(v + 1, p), axis=-1)
    assert np.array_equal(first, elements[:, [0, 2]])
    # x = sigma(v) u_t: the second column is t v + sigma(v)'s second column,
    # and (v, t) runs once over the p^2 - 1 vectors times F_p
    assert len(set(zip(v.tolist(), t.tolist()))) == len(elements) == (p * p - 1) * p
    sigma_col = (elements[:, [1, 3]] - t[:, None] * elements[:, [0, 2]]) % p
    assert len(set(zip(v.tolist(), map(tuple, sigma_col.tolist())))) == p * p - 1


def test_cayley_graph_connectivity_counts_only_its_labels():
    act = build_sl2_quotient(4, "a")
    assert CayleyGraph(act).is_connected()
    assert not CayleyGraph(act, labels=("e21", "e21^-1")).is_connected()
    torus = build_sl2_quotient(4, "b")  # the origin is fixed
    assert not CayleyGraph(torus).is_connected()


def test_action_fingerprints_are_pinned():
    # the scalar-point serialization and the orbit names
    assert action_fingerprint(build_cyclic(8)) == (
        "7546e0ef5e9619b0d49e49cb5372bf1d8706da64418fc548fbb20056da009518")
    torus = build_sl2_quotient(8, "b")
    sub = orbit_restriction(torus, torus.point_index((1, 0)))
    assert sub.name == "SL2 on (Z/8)^2|orbit((1, 0))"
    assert action_fingerprint(sub) == (
        "cbd9c5962e5b5e28da2ff96409efc152c1daad82dc674684eb211b9cb6c5999b")
    gens = GeneratorSystem(labels=("g", "g^-1"), inverses={"g": "g^-1", "g^-1": "g"})
    explicit = FiniteAction([5, 3, 9], np.full(3, 1 / 3), gens,
                            {"g": [1, 2, 0], "g^-1": [2, 0, 1]}, name="explicit")
    assert action_fingerprint(explicit) == (
        "9c7fdc562fcaa5338fad7e80c0a82f7801947d96a1a1c77cb5f0e2a79249e2b9")
    assert orbit_restriction(explicit, explicit.point_index(3)).name == "explicit|orbit(3)"


def test_word_ball_keys_are_pinned():
    import hashlib

    keys = [el.key() for el in word_ball(build_sl2_quotient(5, "a"), 2)]
    assert len(keys) == 17
    assert keys[0] == ",".join(map(str, range(120)))
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == (
        "2a2f865b80dbf166c22862d6b120f2c389b20404108c1c298876494bf9653f70")


def test_sort_key_orders_as_the_int_tuples():
    # entries above 255 tell big-endian bytes from native little-endian ones
    rng = np.random.default_rng(5)
    elements = [GroupElement(rng.permutation(600)) for _ in range(40)]
    elements += [GroupElement(np.roll(np.arange(600), -k)) for k in (1, 255, 256, 511)]
    assert sorted(elements, key=GroupElement.sort_key) == sorted(
        elements, key=lambda el: tuple(el.perm.tolist()))


def test_point_index_finds_scalar_and_vector_points():
    cyclic = build_cyclic(5)
    assert cyclic.point_index(3) == 3 and cyclic.point_index(np.int64(4)) == 4
    torus = build_sl2_quotient(4, "b")
    assert torus.point_index((2, 3)) == 11 and torus.point_index([0, 1]) == 1
    for action, point in ((cyclic, 5), (cyclic, (3,)), (cyclic, 2.0), (cyclic, True),
                          (torus, (4, 0)), (torus, 3), (torus, (1, 0, 0))):
        with pytest.raises(ValueError, match="not a point"):
            action.point_index(point)


def test_lazy_uniform_on_sl2_101_stays_below_160_mb():
    # the points are the closure's element array and each permutation one
    # int64 buffer: about 115 MB held (Python tuples held 330 MB, peak 338 MB)
    tracemalloc.start()
    try:
        lazy_uniform(build_sl2_quotient(101, "a"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160e6


@pytest.mark.parametrize("seed", range(6))
def test_components_match_connected_components(seed):
    from scipy.sparse import csr_matrix  # reference only; gaplab never imports it here
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    maps = []
    for _ in range(int(rng.integers(0, 4))):
        # a permutation that moves only a random subset, so that several
        # components survive
        perm = np.arange(n)
        moved = np.flatnonzero(rng.random(n) < rng.uniform(0.05, 0.6))
        perm[moved] = rng.permutation(moved)
        maps.append(perm)
    heads = np.concatenate([np.arange(n)] + maps)
    tails = np.tile(np.arange(n), len(maps) + 1)
    graph = csr_matrix((np.ones(len(heads)), (tails, heads)), shape=(n, n))
    want_count, want_labels = connected_components(graph, connection="weak")
    count, labels = group_core._components(n, maps)
    assert count == want_count
    assert np.array_equal(labels, want_labels)
    # numbered by smallest member
    firsts = [int(np.flatnonzero(labels == c)[0]) for c in range(count)]
    assert firsts == sorted(firsts)
