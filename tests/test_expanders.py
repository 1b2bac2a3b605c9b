import math

import numpy as np
import pytest

from gaplab.group_core import (
    CayleyGraph,
    FiniteAction,
    GeneratorSystem,
    build_cyclic,
    build_sl2_quotient,
)
from gaplab.expanders import (
    MirhoBound,
    PoincareReport,
    QuotientSequence,
    certify_sequence,
    mirho_upper_bound,
    poincare_ratio,
    poincare_scalar,
    poincare_vector_lower,
)
from gaplab.measures import uniform_on
from gaplab.rep_markov import Representation, defect_curve, markov_operator


def test_poincare_scalar_z3_complete_graph():
    # Q = {g, g^-1} = {g, g^2} in Z/3: the complete graph on 3 vertices
    act = build_cyclic(3)
    res = poincare_scalar(CayleyGraph(act))
    assert res.lambda2 == pytest.approx(-0.5, abs=1e-12)
    assert res.kappa == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_poincare_scalar_z3_against_quadratic_expansion():
    # ordered-pair identity: sum_{u != v} |f(u)-f(v)|^2 = 2 n sum |f - Mf|^2
    act = build_cyclic(3)
    graph = CayleyGraph(act)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        f = rng.standard_normal(3)
        worst = max(worst, poincare_ratio(graph, f))
    assert worst <= 1.0 / 6.0 + 1e-12
    # and the bound is attained (any mean-zero f is optimal here)
    assert poincare_ratio(graph, np.array([1.0, -1.0, 0.0])) == pytest.approx(1 / 6)


def test_poincare_scalar_four_cycle():
    act = build_cyclic(4)
    res = poincare_scalar(CayleyGraph(act))
    # circulant eigenvalues cos(2 pi k / 4): top mean-zero is 0
    assert res.lambda2 == pytest.approx(0.0, abs=1e-12)
    assert res.kappa == pytest.approx(0.25, abs=1e-12)


def test_poincare_scalar_single_vertex():
    act = build_cyclic(1)
    res = poincare_scalar(CayleyGraph(act))
    assert res.kappa == 0.0
    assert res.lambda2 is None


def test_poincare_scalar_disconnected_flagged():
    act = build_sl2_quotient(4, variant="b")  # origin is a fixed point
    res = poincare_scalar(CayleyGraph(act))
    assert not res.connected
    assert math.isinf(res.kappa)


def test_relation_holds_on_connected_fixtures():
    for act in (build_cyclic(3), build_cyclic(8), build_sl2_quotient(3, variant="a")):
        graph = CayleyGraph(act)
        res = poincare_scalar(graph)
        ratio = poincare_ratio(graph, res.eigenvector)
        assert ratio * 2 * res.n_labels * (1 - res.lambda2) == pytest.approx(
            1.0, abs=1e-9
        )


def _z4_with_extra_generator():
    idx = np.arange(4)
    gens = GeneratorSystem(
        labels=("g", "g^-1", "g2"),
        inverses={"g": "g^-1", "g^-1": "g", "g2": "g2"},
    )
    perms = {"g": (idx + 1) % 4, "g^-1": (idx - 1) % 4, "g2": (idx + 2) % 4}
    return FiniteAction(list(range(4)), np.full(4, 0.25), gens, perms, name="Z/4+g2")


def test_adding_generators_never_increases_kappa():
    base = poincare_scalar(CayleyGraph(build_cyclic(4)))
    bigger = poincare_scalar(CayleyGraph(_z4_with_extra_generator()))
    assert bigger.kappa <= base.kappa + 1e-12
    assert bigger.kappa == pytest.approx(1.0 / 8.0, abs=1e-12)


def test_vector_lower_matches_scalar_p2_d1():
    for act in (build_cyclic(3), build_cyclic(4), build_sl2_quotient(2, variant="a")):
        graph = CayleyGraph(act)
        scal = poincare_scalar(graph)
        lower = poincare_vector_lower(graph, p=2.0, d=1, budget=300, seed=1)
        assert lower == pytest.approx(scal.kappa, abs=1e-6)
        assert lower <= scal.kappa + 1e-9


def test_vector_lower_p2_decouples_over_coordinates():
    graph = CayleyGraph(build_cyclic(4))
    scal = poincare_scalar(graph)
    for d in (2, 3):
        lower = poincare_vector_lower(graph, p=2.0, d=d, budget=400, seed=2)
        assert lower == pytest.approx(scal.kappa, abs=1e-6)


def test_vector_lower_rejects_zero_budget():
    with pytest.raises(ValueError):
        poincare_vector_lower(CayleyGraph(build_cyclic(4)), 2.0, 1, 0)


def test_vector_lower_p3_is_genuine_lower_bound():
    graph = CayleyGraph(build_cyclic(4))
    lower = poincare_vector_lower(graph, p=3.0, d=2, budget=500, seed=3)
    assert lower > 0.0
    rng = np.random.default_rng(9)
    sampled = max(
        poincare_ratio(graph, rng.standard_normal((4, 2)), p=3.0) for _ in range(50)
    )
    assert lower >= sampled * 0.0  # sanity: finite and positive
    assert math.isfinite(lower)


def test_mirho_bound_z2_defect_zero():
    act = build_cyclic(2)
    rep = Representation(act)
    mu = uniform_on([act.identity_element(), act.generator_element("g")])
    op = markov_operator(rep, mu)
    defect = defect_curve(op, 1)[1]
    assert defect == pytest.approx(0.0, abs=1e-14)
    graph = CayleyGraph(act)
    bound = mirho_upper_bound(graph, k=1, defect=defect)
    assert bound.bound == 4.0
    assert bound.bound >= poincare_scalar(graph).kappa


def test_mirho_bound_rejects_large_defect():
    graph = CayleyGraph(build_cyclic(4))
    with pytest.raises(ValueError):
        mirho_upper_bound(graph, k=2, defect=0.6)


def test_mirho_bound_sl2_cross_method():
    act = build_sl2_quotient(5, variant="a")
    rep = Representation(act)
    mu = uniform_on(
        [act.identity_element()]
        + [act.generator_element(lab) for lab in act.gens.labels]
    )
    op = markov_operator(rep, mu)
    k = 1
    defect = defect_curve(op, k)[k]
    while defect > 0.5:
        k += 1
        defect = defect_curve(op, k)[k]
    bound = mirho_upper_bound(CayleyGraph(act), k=k, defect=defect)
    eig = poincare_scalar(CayleyGraph(act))
    assert bound.bound >= eig.kappa
    assert bound.paper_form >= bound.bound  # the crude form is never smaller


def test_vector_lower_never_exceeds_mirho_bound():
    for act in (build_cyclic(2), build_sl2_quotient(5, variant="a")):
        graph = CayleyGraph(act)
        rep = Representation(act)
        mu = uniform_on(
            [act.identity_element()]
            + [act.generator_element(lab) for lab in act.gens.labels]
        )
        op = markov_operator(rep, mu)
        k = 1
        defect = defect_curve(op, k)[k]
        while defect > 0.5:
            k += 1
            defect = defect_curve(op, k)[k]
        upper = mirho_upper_bound(graph, k=k, defect=defect)
        lower = poincare_vector_lower(graph, p=2.0, d=2, budget=200, seed=4)
        assert lower <= upper.bound + 1e-9


def test_certify_sequence_requires_two():
    with pytest.raises(ValueError):
        certify_sequence(QuotientSequence([build_cyclic(4)]))


def test_certify_sequence_mixed_labels_rejected():
    with pytest.raises(ValueError):
        QuotientSequence([build_cyclic(4), _z4_with_extra_generator()])


def test_certify_constant_sequence_trivially_uniform():
    act = build_cyclic(5)
    report = certify_sequence(QuotientSequence([act, act, act]))
    assert report.uniform
    assert report.growth_slope == 0.0


def test_certify_sl2_family_uniform():
    seq = QuotientSequence(
        [build_sl2_quotient(p, variant="a") for p in (3, 5, 7)]
    )
    report = certify_sequence(seq)
    assert report.uniform
    assert report.epsilon0 is not None and report.epsilon0 > 0.0
    for row in report.rows:
        assert row.connected
        assert row.relation_residual <= 1e-9


def test_certify_cycle_family_not_uniform():
    seq = QuotientSequence([build_cyclic(n) for n in (4, 8, 16)])
    report = certify_sequence(seq)
    assert not report.uniform
    assert report.growth_slope > 1.5  # kappa_P grows like n^2
    kappas = {row.n_vertices: row.kappa_p for row in report.rows}
    # quadratic growth: kappa_P / n^2 approaches 1 / (8 pi^2)
    assert kappas[16] / 16**2 == pytest.approx(1.0 / (8 * math.pi**2), rel=0.05)


def test_certify_flags_disconnected_member():
    torus = build_sl2_quotient(4, variant="b")
    seq = QuotientSequence([torus, torus])
    report = certify_sequence(seq)
    assert not report.uniform
    assert any(not row.connected for row in report.rows)


def test_report_serialization():
    seq = QuotientSequence([build_cyclic(n) for n in (4, 8)])
    doc = certify_sequence(seq).to_json_dict()
    assert len(doc["quotients"]) == 2
    assert doc["uniform"] in (True, False)
