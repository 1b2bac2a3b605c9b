import itertools
from collections import deque

import numpy as np
import pytest

from gaplab.group_core import (
    CayleyGraph,
    GeneratorSystem,
    GroupElement,
    SL2_GENERATOR_MATRICES,
    Sl2GroupTable,
    action_to_json,
    build_cyclic,
    build_sl2_quotient,
    element_ball,
    is_ergodic,
    orbit_restriction,
    word_ball,
)


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
    assert set(act.points) == _brute_force_sl2(2)


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


@pytest.mark.parametrize("m", range(2, 14))
def test_sl2_variant_a_matches_deque_reference(m):
    elements, perms = _deque_sl2(m)
    act = build_sl2_quotient(m, variant="a")
    assert act.points == elements
    assert all(type(x) is int for x in act.points[-1])
    for lab in SL2_GENERATOR_MATRICES:
        assert act.perms[lab].tolist() == perms[lab]


def test_sl2_table_shares_the_quotient_order():
    table = Sl2GroupTable(7)
    act = build_sl2_quotient(7, variant="a")
    assert [tuple(row) for row in table.elements.tolist()] == act.points
    assert table.word_length[0] == 0
    assert np.all(np.diff(table.word_length) >= 0)  # breadth-first levels


def test_sl2_table_rejects_moduli_outside_range():
    for m in (0, 1, 65):
        with pytest.raises(ValueError):
            Sl2GroupTable(m)


def test_sl2_variant_b_mod2_hand_arithmetic():
    act = build_sl2_quotient(2, variant="b")
    assert act.n_points == 4
    # (1 1; 0 1): (x, y) -> (x + y, y) mod 2
    idx = {p: i for i, p in enumerate(act.points)}
    p = act.perms["e12"]
    for (x, y) in act.points:
        assert p[idx[(x, y)]] == idx[((x + y) % 2, y)]


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
    best = {action.identity_element().perm: 0}
    for length in range(1, r + 1):
        for word in itertools.product(gens, repeat=length):
            el = action.identity_element()
            for g in word:
                el = g.compose(el)
            if el.perm not in best:
                best[el.perm] = length
    return best


def test_word_ball_sl2_mod3_matches_word_enumeration():
    act = build_sl2_quotient(3, variant="a")
    ball = word_ball(act, 2)
    oracle = _enumerate_words(act, 2)
    assert len(ball) == len(oracle)
    for el in ball:
        assert oracle[el.perm] == el.word_length


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
    # the origin is fixed, so the full grid action is not ergodic
    assert not is_ergodic(act)
    orbit_sizes = sorted(len(o) for o in act.orbits())
    assert sum(orbit_sizes) == 16
    # restrict to the orbit of a primitive vector
    idx = act.points.index((1, 0))
    sub = orbit_restriction(act, idx)
    assert is_ergodic(sub)
    assert abs(sub.weights.sum() - 1.0) < 1e-12
    assert (1, 0) in sub.points and (0, 0) not in sub.points


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
